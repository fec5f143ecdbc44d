"""Flaglet decomposition and reconstruction on the ball."""

import dataclasses

import numpy as np
import pytest
from oracles import hermitian_coeffs, per_part_flaglet_analyze, per_part_flaglet_synthesize

from flaglets import flag_transform, flaglet_transform
from flaglets.cli import blob_field, random_flag_coeffs
from flaglets.flag_transform import BallGrid, BandLimits, FlagCoeffs, flag_forward, flag_inverse
from flaglets.flaglet_transform import (
    FlagletDecomposition,
    _grid_energy,
    flaglet_analyze,
    flaglet_synthesize,
    threshold_denoise,
)
from flaglets.kernel_tiling import (
    FlagletPart,
    TilingParams,
    build_flaglet_kernels,
    flaglet_parts,
    radial_nbytes,
    scale_band_limit,
    scale_range,
)
from flaglets.radial_laguerre import RadialParams
from flaglets.sphere_harmonics import _is_hermitian, get_plan


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestScaleSeparation:
    def test_lowest_modes_land_in_scaling(self):
        # (ell, p) = (0, 0) sits where every kappa vanishes
        limits = BandLimits(16, 16, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams(j0_ang=1, j0_rad=1))
        c = np.zeros((16, 256), dtype=np.complex128)
        c[0, 0] = 1.0
        d = flaglet_analyze(FlagCoeffs(limits, c), kernels)
        for key, grid in d.wavelets.items():
            assert np.max(np.abs(grid.values)) < 1e-13, key
        assert np.max(np.abs(d.scaling.values)) > 0

    def test_single_scale_injection(self):
        # analyzing f and re-projecting wavelet (j, j') recovers Psi_{jj'} f
        limits = BandLimits(16, 16, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        f = random_flag_coeffs(limits, 71)
        d = flaglet_analyze(f, kernels)
        ells = np.floor(np.sqrt(np.arange(256))).astype(int)
        for key in [(2, 1), (3, 3)]:
            got = flag_forward(d.wavelets[key]).coeffs
            want = f.coeffs * kernels.psis[key].T[:, ells]
            assert np.max(np.abs(got - want)) < 1e-11, key


def _parts(d):
    return [d.scaling, *(d.wavelets[key] for key in sorted(d.wavelets))]


class TestSeparableMatchesPerPart:
    """Analysis and synthesis one angular scale at a time agree with one full
    FLAG transform per part, windowed by Psi^{jj'} itself."""

    @pytest.mark.parametrize("L, P, tau", [(16, 8, 0.5), (8, 32, 3.0), (12, 12, 1.0)])
    @pytest.mark.parametrize("lam, nu", [(2.0, 2.0), (3.0, 2.0)])
    @pytest.mark.parametrize("j0", [0, 1])
    @pytest.mark.parametrize("multires", [False, True])
    def test_every_part_and_the_synthesis(self, L, P, tau, lam, nu, j0, multires):
        limits = BandLimits(L, P, tau)
        kernels = build_flaglet_kernels(limits, TilingParams(lam, nu, j0, j0))
        f = random_flag_coeffs(limits, 17)
        d = flaglet_analyze(f, kernels, multires=multires)
        want = per_part_flaglet_analyze(f, kernels, multires=multires)
        assert sorted(d.wavelets) == sorted(want.wavelets)
        scale = max(np.max(np.abs(g.values)) for g in _parts(want))
        for got, ref in zip(_parts(d), _parts(want)):
            assert got.limits == ref.limits
            assert np.max(np.abs(got.values - ref.values)) < 1e-13 * scale

        back = flaglet_synthesize(d, kernels).coeffs
        ref = per_part_flaglet_synthesize(d, kernels).coeffs
        assert np.max(np.abs(back - ref)) < 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("L, P", [(6, 1), (1, 6)])
    def test_a_band_limit_of_one(self, L, P):
        # every wavelet window vanishes on a line of length 1 (kappa_0(0) = 0)
        limits = BandLimits(L, P, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        f = random_flag_coeffs(limits, 2)
        d = flaglet_analyze(f, kernels)
        for got, ref in zip(_parts(d), _parts(per_part_flaglet_analyze(f, kernels))):
            assert np.max(np.abs(got.values - ref.values)) < 1e-14
        assert np.max(np.abs(flaglet_synthesize(d, kernels).coeffs - f.coeffs)) < 1e-14


class TestEngineCalls:
    """One batched SHT per angular group and direction, the scaling part's at
    L first, each made by flaglet_transform itself: no FLAG transform."""

    @pytest.mark.parametrize("multires", [False, True])
    def test_one_sht_per_angular_scale(self, monkeypatch, multires):
        calls = []

        def record(module, name):
            real = getattr(module, name)

            def wrapped(data, plan, *rest):
                calls.append((module.__name__, name, plan.L))
                return real(data, plan, *rest)

            monkeypatch.setattr(module, name, wrapped)

        # a FLAG transform's engine calls are made, and recorded, in flag_transform
        for module in (flag_transform, flaglet_transform):
            record(module, "_sht_inverse_batch")
            record(module, "_sht_forward_batch")

        L, P = 32, 16
        limits = BandLimits(L, P, 1.0)
        params = TilingParams(lam=2.0, nu=2.0, j0_ang=1)
        kernels = build_flaglet_kernels(limits, params)
        scales = scale_range(L, params.lam, params.j0_ang)
        bands = [scale_band_limit(j, params.lam, L) if multires else L for j in scales]

        d = flaglet_analyze(random_flag_coeffs(limits, 3), kernels, multires=multires)
        here = flaglet_transform.__name__
        assert calls == [(here, "_sht_inverse_batch", lj) for lj in (L, *bands)]
        calls.clear()
        flaglet_synthesize(d, kernels)
        assert calls == [(here, "_sht_forward_batch", lj) for lj in (L, *bands)]


class TestPartPlan:
    """FlagletKernels.part_plan(multires) is made on first use and read by
    both directions: a warm transform makes no limits and looks up no plan."""

    @pytest.mark.parametrize("multires", [False, True])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_warm_transforms_make_no_limits_and_look_up_no_plan(self, monkeypatch, multires, real):
        limits = BandLimits(16, 8, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams(nu=3.0))
        f = TestRealFields.noisy_blobs(limits, 3) if real else random_flag_coeffs(limits, 3)
        flaglet_synthesize(flaglet_analyze(f, kernels, multires), kernels)
        made = []
        for cls in (BandLimits, RadialParams):

            def counting(self, made_by=cls.__post_init__):
                made.append(type(self).__name__)
                made_by(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        get_flag_plan = flag_transform.get_flag_plan
        lookups = get_plan.cache_info(), get_flag_plan.cache_info()
        d = flaglet_analyze(f, kernels, multires)
        back = flaglet_synthesize(d, kernels)
        assert made == []
        assert (get_plan.cache_info(), get_flag_plan.cache_info()) == lookups
        assert d.scaling.values.dtype == (np.float64 if real else np.complex128)
        assert rel_err(back.coeffs, f.coeffs) < 1e-12
        BandLimits(2, 2)  # the counter counts
        assert made == ["BandLimits", "RadialParams"]

    @pytest.mark.parametrize("multires", [False, True])
    def test_matrices_are_the_weighted_tables_bit_for_bit(self, multires):
        limits = BandLimits(16, 16, 1.0)
        params = TilingParams(lam=2.0, nu=2.0, j0_ang=1, j0_rad=1)
        kernels = build_flaglet_kernels(limits, params)
        groups = kernels.part_plan(multires)
        assert kernels.part_plan(multires) is groups
        keys, bands = flaglet_parts(limits, params, multires)
        # the parts' keys and limits, in storage order, are the layout's
        parts = [part for group in groups for part in group.parts]
        assert all(isinstance(part, FlagletPart) for part in parts)
        assert [part.key for part in parts] == ["scaling", *keys]
        want = [BandLimits(lj, pj, limits.tau) for lj, pj in bands]
        assert [part.limits for part in parts] == want
        for part in parts:
            if part.key == "scaling":
                weights = np.ones(limits.P)
            else:
                weights = kernels.kappas_rad[part.key[1] - params.j0_rad]
            # the rows are the interval where the radial window is nonzero
            assert np.all(weights[part.rows] != 0)
            assert not np.any(weights[: part.rows.start]) and not np.any(weights[part.rows.stop :])
            tables = flag_transform.get_flag_plan(part.limits.radial)
            w = weights[part.rows, None]
            for got, want in [
                (part.synth, (tables.kbasis[part.rows] * w).T),
                (part.project, tables.kforward[part.rows] * w),
            ]:
                assert got.shape == want.shape and got.strides == want.strides
                assert got.tobytes() == want.tobytes()
        # one pair of matrices per radial scale j', shared by every angular scale
        shared = {part.key[1]: part for part in parts[1:]}
        for part in parts[1:]:
            assert part.synth is shared[part.key[1]].synth
            assert part.project is shared[part.key[1]].project
        held = [parts[0], *shared.values()]
        held_bytes = sum(part.synth.nbytes + part.project.nbytes for part in held)
        assert radial_nbytes(groups) == held_bytes
        # each group's window and plan at its band limit, the scaling part's first
        assert groups[0].plan is get_plan(limits.L)
        assert np.array_equal(groups[0].window, kernels.phi.T)
        for group in groups[1:]:
            j, lj = group.parts[0].key[0], group.parts[0].limits.L
            assert {part.key[0] for part in group.parts} == {j}
            assert group.plan is get_plan(lj)
            assert np.array_equal(group.window, kernels.kappas_ang[j - params.j0_ang][:lj])

    def test_held_bytes_at_the_benchmark_size(self):
        # L = P = 32, lam = nu = 2: the radial matrices of each storage mode
        # held once, as measured when part plans were a class of their own
        kernels = build_flaglet_kernels(BandLimits(32, 32), TilingParams())
        assert radial_nbytes(kernels.part_plan(False)) == 45_568
        assert radial_nbytes(kernels.part_plan(True)) == 39_456

    def test_one_plan_per_storage_mode(self):
        kernels = build_flaglet_kernels(BandLimits(8, 8, 1.0), TilingParams())
        full, multi = kernels.part_plan(False), kernels.part_plan(True)
        assert full is not multi
        assert kernels.part_plan(0) is full and kernels.part_plan(1) is multi
        # a plan belongs to its kernels: a copy made by replace starts without one
        assert dataclasses.replace(kernels).part_plan(False) is not full


class TestRadialPlans:
    def test_a_multires_round_trip_caches_one_plan_per_radial_limit(self):
        # radial limits P_j' = 2, 4, 8, 16 and 32 (the scaling part and the
        # top scales); keyed by (L, P, tau) this took 25 plans
        get_flag_plan = flag_transform.get_flag_plan
        limits = BandLimits(32, 32, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams(lam=2.0, nu=2.0))
        get_flag_plan.cache_clear()
        d = flaglet_analyze(random_flag_coeffs(limits, 5), kernels, multires=True)
        flaglet_synthesize(d, kernels)
        assert get_flag_plan.cache_info().currsize == 5
        misses = get_flag_plan.cache_info().misses
        for P in (2, 4, 8, 16, 32):
            assert get_flag_plan(RadialParams(P, 1.0)).radial == RadialParams(P, 1.0)
        assert get_flag_plan.cache_info().misses == misses


class TestGridEnergy:
    def test_matches_the_quadrature_of_the_squared_modulus(self):
        limits = BandLimits(12, 6, 2.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        d = flaglet_analyze(random_flag_coeffs(limits, 8), kernels, multires=True)
        for grid in _parts(d):
            lim = grid.limits
            radial = flag_transform.get_flag_plan(lim.radial).radial_weights
            angular = get_plan(lim.L).rule.weights
            sq = np.abs(grid.values) ** 2
            want = np.einsum("p,i,pij->", radial, angular, sq) * 2 * np.pi / (2 * lim.L - 1)
            assert abs(_grid_energy(grid) - want) <= 1e-14 * want


class TestRoundTrips:
    @pytest.mark.parametrize("L", [8, 16, 32])
    @pytest.mark.parametrize("lam,nu", [(2.0, 2.0), (3.0, 2.0)])
    @pytest.mark.parametrize("j0", [0, 1])
    @pytest.mark.parametrize("multires", [False, True])
    def test_exact_reconstruction(self, L, lam, nu, j0, multires):
        limits = BandLimits(L, L, 1.0)
        kernels = build_flaglet_kernels(
            limits, TilingParams(lam=lam, nu=nu, j0_ang=j0, j0_rad=j0)
        )
        for seed in range(10):
            f = random_flag_coeffs(limits, 1000 + seed)
            d = flaglet_analyze(f, kernels, multires=multires)
            back = flaglet_synthesize(d, kernels).coeffs
            assert rel_err(back, f.coeffs) < 1e-9, (L, lam, nu, j0, multires, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "n, j0, multires, real",
        [
            pytest.param(64, 0, False, False, id="64-0-False"),
            pytest.param(64, 0, True, False, id="64-0-True"),
            pytest.param(128, 6, False, False, id="128-6-False"),
            pytest.param(128, 0, True, False, id="128-0-True"),
            pytest.param(128, 0, True, True, id="128-0-True-real"),
        ],
    )
    def test_error_envelope_to_128(self, n, j0, multires, real):
        # max |error| / (eps (L + P) max|f|) measured 1.18-1.26 at (64, 64) and
        # 1.57-1.92 at (128, 128) over seeds 0-3; the FLAG round trip alone
        # measures 2.3-6.3.  A full-resolution decomposition of the whole
        # tiling at (128, 128) would hold 65 grids of 67 MB, so that case keeps
        # the finest scales only (j0 = 6), and the scaling part takes the rest.
        # A real field (Hermitian coefficients) takes the real path throughout
        limits = BandLimits(n, n, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams(j0_ang=j0, j0_rad=j0))
        for seed in range(2):
            if real:
                f = FlagCoeffs(limits, hermitian_coeffs(np.random.default_rng(seed), n, (n,)))
            else:
                f = random_flag_coeffs(limits, seed)
            d = flaglet_analyze(f, kernels, multires=multires)
            assert d.scaling.values.dtype == (np.float64 if real else np.complex128)
            back = flaglet_synthesize(d, kernels)
            err = np.max(np.abs(back.coeffs - f.coeffs))
            assert err < 4 * np.finfo(float).eps * 2 * n * np.max(np.abs(f.coeffs)), seed

    def test_energy_partition(self):
        limits = BandLimits(32, 16, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        f = random_flag_coeffs(limits, 5)
        d = flaglet_analyze(f, kernels)
        total = 0.0
        for grid in [d.scaling, *d.wavelets.values()]:
            total += float(np.sum(np.abs(flag_forward(grid).coeffs) ** 2))
        energy = float(np.sum(np.abs(f.coeffs) ** 2))
        assert abs(total - energy) < 1e-10 * energy


class TestRealFields:
    """A real field's coefficients are Hermitian, and its maps real."""

    @staticmethod
    def noisy_blobs(limits, seed):
        field = blob_field(limits, 3, 0.5, 1.5, seed=seed)
        noise = 0.1 * np.random.default_rng(seed).standard_normal(field.values.shape)
        return flag_forward(BallGrid(limits, field.values + noise))

    @pytest.mark.parametrize("multires", [False, True])
    def test_maps_are_float64_and_keep_the_energy(self, multires):
        limits = BandLimits(16, 16, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        f = self.noisy_blobs(limits, 6)
        assert _is_hermitian(f.coeffs, limits.L)
        d = flaglet_analyze(f, kernels, multires=multires)
        assert all(g.values.dtype == np.float64 for g in [d.scaling, *d.wavelets.values()])
        energy = float(np.vdot(f.coeffs, f.coeffs).real)
        assert abs(sum(d.scale_energies().values()) - energy) <= 1e-12 * energy
        for got, ref in zip(_parts(d), _parts(per_part_flaglet_analyze(f, kernels, multires))):
            assert rel_err(got.values, ref.values) < 1e-13
        back = flaglet_synthesize(d, kernels).coeffs
        assert _is_hermitian(back, limits.L)  # exactly, by construction
        assert rel_err(back, f.coeffs) < 1e-13

    def test_denoised_maps_stay_real_and_give_a_real_field(self):
        limits = BandLimits(8, 8, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        d = flaglet_analyze(self.noisy_blobs(limits, 7), kernels)
        for mode in ("hard", "soft"):
            kept = threshold_denoise(d, 0.05, mode)
            parts = [kept.scaling, *kept.wavelets.values()]
            assert all(g.values.dtype == np.float64 for g in parts)
            assert flag_inverse(flaglet_synthesize(kept, kernels)).values.dtype == np.float64

    def test_a_complex_part_takes_the_complex_path_for_all(self):
        limits = BandLimits(8, 8, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        f = self.noisy_blobs(limits, 8)
        d = flaglet_analyze(f, kernels)
        real = flaglet_synthesize(d, kernels).coeffs
        key = next(iter(d.wavelets))
        d.wavelets[key] = BallGrid(d.wavelets[key].limits, d.wavelets[key].values + 0j)
        mixed = flaglet_synthesize(d, kernels).coeffs
        assert rel_err(mixed, real) < 1e-14
        assert rel_err(mixed, f.coeffs) < 1e-13


class TestMultires:
    def test_sample_count_shrinks(self):
        limits = BandLimits(32, 32, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        f = random_flag_coeffs(limits, 2)
        full = flaglet_analyze(f, kernels, multires=False)
        small = flaglet_analyze(f, kernels, multires=True)
        assert small.sample_count() < full.sample_count()
        keys, bands = flaglet_parts(limits, kernels.params, True)
        assert list(small.wavelets) == keys
        for grid, band in zip(small.wavelets.values(), bands[1:]):
            assert (grid.limits.L, grid.limits.P) == band
        # residual scaling support is L-shaped: the grid stays at full size
        assert (small.scaling.limits.L, small.scaling.limits.P) == (32, 32)


class TestSparsity:
    @staticmethod
    def _top2_fraction(coeffs, kernels):
        d = flaglet_analyze(coeffs, kernels)
        wav = sorted(
            (v for k, v in d.scale_energies().items() if k != "scaling"), reverse=True
        )
        return sum(wav[:2]) / sum(wav)

    def test_localized_field_concentrates_more_than_white(self):
        # a field of compact blobs focuses its wavelet energy into fewer
        # scale pairs than white coefficients of the same band limits do
        limits = BandLimits(16, 16, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        blobs = flag_forward(blob_field(limits, 3, 0.5, 1.5, seed=4))
        blob_top2 = self._top2_fraction(blobs, kernels)
        white_top2 = max(
            self._top2_fraction(random_flag_coeffs(limits, s), kernels) for s in range(5)
        )
        assert blob_top2 > 0.4
        assert white_top2 < blob_top2


class TestDenoise:
    def test_zero_threshold_is_identity(self):
        limits = BandLimits(8, 8, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        f = random_flag_coeffs(limits, 1)
        d = flaglet_analyze(f, kernels)
        out = flaglet_synthesize(threshold_denoise(d, 0.0), kernels).coeffs
        assert rel_err(out, f.coeffs) < 1e-9

    def test_infinite_threshold_keeps_only_scaling(self):
        limits = BandLimits(8, 8, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        f = random_flag_coeffs(limits, 1)
        d = flaglet_analyze(f, kernels)
        d2 = threshold_denoise(d, np.inf, mode="soft")
        for grid in d2.wavelets.values():
            assert np.max(np.abs(grid.values)) == 0.0
        # synthesis then reduces to the scaling contribution alone
        out = flaglet_synthesize(d2, kernels).coeffs
        ells = np.floor(np.sqrt(np.arange(64))).astype(int)
        want = f.coeffs * (kernels.phi**2).T[:, ells]
        assert np.max(np.abs(out - want)) < 1e-11

    def test_soft_shrinks_magnitudes(self):
        limits = BandLimits(8, 8, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        f = random_flag_coeffs(limits, 3)
        d = flaglet_analyze(f, kernels)
        t = 0.01
        d2 = threshold_denoise(d, t, mode="soft")
        for key in d.wavelets:
            a = np.abs(d.wavelets[key].values)
            b = np.abs(d2.wavelets[key].values)
            assert np.all(b <= a + 1e-15)
            assert np.allclose(b[a > t], a[a > t] - t, atol=1e-12)

    def test_rejects_bad_arguments(self):
        limits = BandLimits(8, 8, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        d = flaglet_analyze(random_flag_coeffs(limits, 0), kernels)
        with pytest.raises(ValueError):
            threshold_denoise(d, -1.0)
        with pytest.raises(ValueError):
            threshold_denoise(d, 1.0, mode="medium")

    def test_monte_carlo_improves_noisy_blobs(self):
        # hard thresholding at 3 sigma must reduce the reconstruction error
        # of a blob field buried in coefficient-domain noise for every seed
        limits = BandLimits(16, 16, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        sigma = 0.5
        clean = flag_forward(blob_field(limits, 3, 0.5, 1.5, seed=123)).coeffs

        for seed in range(20):
            rng = np.random.default_rng(9000 + seed)
            noise = sigma * (
                rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
            ) / np.sqrt(2.0)
            noisy = FlagCoeffs(limits, clean + noise)

            # pooled noise level from a noise-only decomposition
            dn = flaglet_analyze(FlagCoeffs(limits, noise), kernels)
            pooled = np.sqrt(
                np.mean(
                    np.concatenate(
                        [np.abs(g.values.ravel()) ** 2 for g in dn.wavelets.values()]
                    )
                )
            )

            d = flaglet_analyze(noisy, kernels)
            den = flaglet_synthesize(threshold_denoise(d, 3.0 * pooled), kernels).coeffs
            err_before = np.linalg.norm(noisy.coeffs - clean)
            err_after = np.linalg.norm(den - clean)
            assert err_after < err_before, (seed, err_after / err_before)


# edge values of the threshold oracle: 0.625 = |0.375 + 0.5j| exactly, signed
# zeros, the smallest subnormal and ordinary values on both sides of 0.625
_EDGE_VALUES = [
    0.625, -0.625, 0.375 + 0.5j, -0.5 - 0.375j, 0.625j,
    0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    5e-324, -5e-324, complex(5e-324, -5e-324), complex(-0.0, 5e-324),
    0.3, -0.7 + 0.1j, 1e-300, -2.5, 0.5 - 0.5j, 0.625000000000001,
]


def _threshold_reference(v: np.ndarray, threshold: float, mode: str) -> np.ndarray:
    """threshold_denoise of one part, element by element: hard keeps a value
    whose magnitude reaches the threshold and puts +0 elsewhere; soft scales
    a value by max(1 - t/|v|, 0), 0 at |v| = 0, as a real factor (s + 0j)."""
    out = np.empty_like(v)
    for i, x in np.ndenumerate(v):
        mag = float(np.abs(x))  # numpy's magnitude, as the array path takes it
        if mode == "hard":
            out[i] = x if mag >= threshold else 0.0
        else:
            s = max(1.0 - threshold / mag, 0.0) if mag > 0 else 0.0
            out[i] = x * complex(s, 0.0) if np.iscomplexobj(v) else x * s
    return out


class TestThresholdOracle:
    """threshold_denoise matches a per-element reference bit for bit."""

    @staticmethod
    def edge_decomposition(complex_parts: bool) -> FlagletDecomposition:
        limits = BandLimits(3, 2, 1.0)  # parts of 2 * 3 * 5 = 30 samples
        values = np.array(_EDGE_VALUES * 2, dtype=np.complex128)[:30]
        if not complex_parts:
            values = values.real.copy()
        grids = [BallGrid(limits, np.roll(values, k).reshape(2, 3, 5)) for k in range(3)]
        wavelets = {(1, 0): grids[1], (1, 1): grids[2]}
        return FlagletDecomposition(limits, TilingParams(), grids[0], wavelets, False)

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    @pytest.mark.parametrize("complex_parts", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("threshold", [0.0, 5e-324, 0.625, np.inf])
    def test_every_element_matches_the_reference(self, mode, complex_parts, threshold):
        d = self.edge_decomposition(complex_parts)
        out = threshold_denoise(d, threshold, mode)
        assert out.scaling.values.tobytes() == d.scaling.values.tobytes()
        for key, grid in d.wavelets.items():
            want = _threshold_reference(grid.values, threshold, mode)
            got = out.wavelets[key].values
            assert got.dtype == grid.values.dtype
            assert got.tobytes() == want.tobytes(), (key, got.ravel(), want.ravel())


class TestValidation:
    def test_mismatched_limits(self):
        kernels = build_flaglet_kernels(BandLimits(8, 8, 1.0), TilingParams())
        f = random_flag_coeffs(BandLimits(8, 4, 1.0), 0)
        with pytest.raises(ValueError):
            flaglet_analyze(f, kernels)

    def test_mismatched_params_on_synthesis(self):
        limits = BandLimits(8, 8, 1.0)
        k1 = build_flaglet_kernels(limits, TilingParams())
        k2 = build_flaglet_kernels(limits, TilingParams(lam=3.0))
        d = flaglet_analyze(random_flag_coeffs(limits, 0), k1)
        with pytest.raises(ValueError):
            flaglet_synthesize(d, k2)

    def test_rejects_part_at_other_tau(self):
        limits = BandLimits(8, 8, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        d = flaglet_analyze(random_flag_coeffs(limits, 4), kernels)
        grid = d.wavelets[(1, 2)]
        d.wavelets[(1, 2)] = BallGrid(BandLimits(8, 8, 2.0), grid.values)
        with pytest.raises(ValueError, match=r"part \(1, 2\)"):
            flaglet_synthesize(d, kernels)

    def test_rejects_full_resolution_part_at_smaller_limits(self):
        # the (2, 2) window reaches ell, p < 8; cut to (4, 4) the part loses
        # coefficients that synthesis would otherwise silently drop
        limits = BandLimits(8, 8, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams())
        d = flaglet_analyze(random_flag_coeffs(limits, 5), kernels)
        cut = flag_forward(d.wavelets[(2, 2)]).coeffs[:4, :16]
        d.wavelets[(2, 2)] = flag_inverse(FlagCoeffs(BandLimits(4, 4, 1.0), cut))
        with pytest.raises(ValueError, match=r"part \(2, 2\)"):
            flaglet_synthesize(d, kernels)
