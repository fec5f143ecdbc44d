"""Flaglet decomposition and reconstruction on the ball."""

import numpy as np
import pytest
from oracles import per_part_flaglet_analyze, per_part_flaglet_synthesize

from flaglets import flag_transform, flaglet_transform
from flaglets.cli import blob_field, random_flag_coeffs
from flaglets.flag_transform import BallGrid, BandLimits, FlagCoeffs, flag_forward, flag_inverse
from flaglets.flaglet_transform import (
    _grid_energy,
    flaglet_analyze,
    flaglet_synthesize,
    threshold_denoise,
)
from flaglets.kernel_tiling import (
    TilingParams,
    build_flaglet_kernels,
    flaglet_parts,
    scale_band_limit,
    scale_range,
)
from flaglets.radial_laguerre import RadialParams
from flaglets.sphere_harmonics import get_plan


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

            def wrapped(data, plan):
                calls.append((module.__name__, name, plan.L))
                return real(data, plan)

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
        "n, j0, multires", [(64, 0, False), (64, 0, True), (128, 6, False), (128, 0, True)]
    )
    def test_error_envelope_to_128(self, n, j0, multires):
        # max |error| / (eps (L + P) max|f|) measured 1.18-1.26 at (64, 64) and
        # 1.57-1.92 at (128, 128) over seeds 0-3; the FLAG round trip alone
        # measures 2.3-6.3.  A full-resolution decomposition of the whole
        # tiling at (128, 128) would hold 65 grids of 67 MB, so that case keeps
        # the finest scales only (j0 = 6), and the scaling part takes the rest
        limits = BandLimits(n, n, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams(j0_ang=j0, j0_rad=j0))
        for seed in range(2):
            f = random_flag_coeffs(limits, seed)
            back = flaglet_synthesize(flaglet_analyze(f, kernels, multires=multires), kernels)
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
