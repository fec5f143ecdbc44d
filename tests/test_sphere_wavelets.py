"""Axisymmetric scale-discretised wavelet transform on the sphere."""

import collections
import dataclasses
import gc
import itertools

import numpy as np
import pytest

from flaglets import sphere_harmonics, sphere_wavelets
from flaglets.kernel_tiling import TilingParams, build_sphere_kernels, sphere_part_bands
from flaglets.sphere_harmonics import (
    SphereCoeffs,
    SphereGrid,
    _is_hermitian,
    coeff_index,
    get_plan,
    sht_forward,
    sht_inverse,
    window_coeffs,
)
from flaglets.sphere_wavelets import sphere_analyze, sphere_synthesize

from oracles import hermitian_coeffs


def random_coeffs(L, rng):
    c = rng.uniform(-1, 1, L * L) + 1j * rng.uniform(-1, 1, L * L)
    return SphereCoeffs(L, c)


class TestScaleSeparation:
    def test_low_degree_signal_lands_in_scaling(self):
        # eta == 1 for ell <= lam^{j0-1} so those degrees live entirely there
        L = 32
        kernels = build_sphere_kernels(L, TilingParams(lam=2.0, j0_ang=2))
        c = np.zeros(L * L, dtype=np.complex128)
        c[coeff_index(0, 0)] = 1.0
        c[coeff_index(2, 1)] = 2.0  # ell=2 <= lam^{j0-1}=2: still pure scaling
        d = sphere_analyze(SphereCoeffs(L, c), kernels)
        for j, grid in d.wavelets.items():
            assert np.max(np.abs(grid.values)) < 1e-13, j
        back = sht_forward(d.scaling).coeffs
        assert abs(back[coeff_index(2, 1)] - 2.0) < 1e-12

    def test_single_degree_spreads_to_predicted_scales(self):
        # ell = 12 with lam = 2: kappa_j supported on (2^{j-1}, 2^{j+1})
        # so only j in {3, 4} can be non-zero
        L = 32
        kernels = build_sphere_kernels(L, TilingParams(lam=2.0))
        c = np.zeros(L * L, dtype=np.complex128)
        c[coeff_index(12, 0)] = 1.0
        d = sphere_analyze(SphereCoeffs(L, c), kernels)
        hot = {j for j, g in d.wavelets.items() if np.max(np.abs(g.values)) > 1e-12}
        assert hot <= {3, 4} and hot


class TestRoundTrips:
    @pytest.mark.parametrize("L", [16, 32, 64, 128])
    @pytest.mark.parametrize("lam", [2.0, 3.0])
    @pytest.mark.parametrize("j0", [0, 1, 2])
    @pytest.mark.parametrize("multires", [False, True])
    def test_exact_reconstruction(self, L, lam, j0, multires):
        kernels = build_sphere_kernels(L, TilingParams(lam=lam, j0_ang=j0))
        rng = np.random.default_rng(int(L * lam) + j0)
        f = random_coeffs(L, rng)
        d = sphere_analyze(f, kernels, multires=multires)
        back = sphere_synthesize(d, kernels).coeffs
        rel = np.max(np.abs(back - f.coeffs)) / np.max(np.abs(f.coeffs))
        assert rel < 1e-10, (L, lam, j0, multires, rel)

    def test_energy_partition(self):
        # admissibility: sum over parts of windowed-coefficient energy
        # equals the signal energy
        L = 64
        kernels = build_sphere_kernels(L, TilingParams())
        rng = np.random.default_rng(77)
        f = random_coeffs(L, rng)
        d = sphere_analyze(f, kernels)
        total = 0.0
        for grid in [d.scaling, *d.wavelets.values()]:
            part = sht_forward(grid).coeffs
            total += float(np.sum(np.abs(part) ** 2))
        # grids hold window * f, so total = sum |win_j(l)|^2 |f_lm|^2 = |f|^2
        energy = float(np.sum(np.abs(f.coeffs) ** 2))
        assert abs(total - energy) < 1e-11 * energy


class TestAccuracyEnvelope:
    # max|error| / (eps L max|f|) of a multiresolution round trip at lam = 2,
    # random complex coefficients from default_rng(seed), measured (BLAS on one
    # thread) 1.31 and 1.19 at L = 512 and 1.77 and 3.18 at L = 1024 for seeds
    # 1 and 2, about 20 s per round trip at L = 1024.  C = 12 is the sphere
    # transform's envelope (test_sphere_harmonics.TestAccuracyEnvelope)
    C = 12.0

    @pytest.mark.slow
    def test_multires_round_trip_at_1024_within_c_eps_L(self):
        L = 1024
        kernels = build_sphere_kernels(L, TilingParams(lam=2.0))
        f = random_coeffs(L, np.random.default_rng(2))
        back = sphere_synthesize(sphere_analyze(f, kernels, multires=True), kernels).coeffs
        rel = np.max(np.abs(back - f.coeffs)) / np.max(np.abs(f.coeffs))
        assert rel <= self.C * np.finfo(float).eps * L, rel / (np.finfo(float).eps * L)


class TestRealFields:
    @pytest.mark.parametrize("multires", [False, True])
    def test_maps_are_float64_and_keep_the_energy(self, multires):
        L = 32
        kernels = build_sphere_kernels(L, TilingParams())
        f = SphereCoeffs(L, hermitian_coeffs(np.random.default_rng(78), L))
        d = sphere_analyze(f, kernels, multires=multires)
        grids = [d.scaling, *d.wavelets.values()]
        assert all(g.values.dtype == np.float64 for g in grids)
        # the same maps as the complex path: f + i f holds f's maps twice
        both = sphere_analyze(SphereCoeffs(L, f.coeffs * (1 + 1j)), kernels, multires=multires)
        for got, ref in zip(grids, [both.scaling, *both.wavelets.values()]):
            assert ref.values.dtype == np.complex128
            assert np.max(np.abs(got.values - ref.values.real)) < 1e-13
        total = sum(float(np.sum(np.abs(sht_forward(g).coeffs) ** 2)) for g in grids)
        energy = float(np.sum(np.abs(f.coeffs) ** 2))
        assert abs(total - energy) < 1e-12 * energy
        back = sphere_synthesize(d, kernels).coeffs
        assert _is_hermitian(back, L)  # exactly, by construction
        assert np.max(np.abs(back - f.coeffs)) < 1e-12


class TestMultires:
    def test_sample_counts_shrink(self):
        L = 64
        kernels = build_sphere_kernels(L, TilingParams(lam=2.0))
        rng = np.random.default_rng(5)
        f = random_coeffs(L, rng)
        full = sphere_analyze(f, kernels, multires=False)
        small = sphere_analyze(f, kernels, multires=True)
        assert small.sample_count() < full.sample_count()
        # every scale grid matches its effective band limit
        for j, grid in small.wavelets.items():
            assert grid.L == kernels.band_limit(j)
        # the scaling part shares the band of scale j0
        grids = [small.scaling, *small.wavelets.values()]
        assert [g.L for g in grids] == sphere_part_bands(L, kernels.params, True)
        assert small.scaling.L == kernels.band_limit(kernels.j0)

    def test_multires_equals_full_after_synthesis(self):
        L = 32
        kernels = build_sphere_kernels(L, TilingParams(lam=3.0, j0_ang=1))
        rng = np.random.default_rng(8)
        f = random_coeffs(L, rng)
        a = sphere_synthesize(sphere_analyze(f, kernels, multires=True), kernels).coeffs
        b = sphere_synthesize(sphere_analyze(f, kernels, multires=False), kernels).coeffs
        assert np.max(np.abs(a - b)) < 1e-11


class TestBandGroups:
    """Parts sharing a band limit go through one batched transform call."""

    @pytest.mark.parametrize("multires", [False, True])
    def test_maps_equal_per_scale_inverse_bit_for_bit(self, multires):
        L = 64
        kernels = build_sphere_kernels(L, TilingParams(lam=2.0))
        f = random_coeffs(L, np.random.default_rng(21))
        d = sphere_analyze(f, kernels, multires=multires)
        parts = [(d.scaling, kernels.eta)]
        parts += [(d.wavelets[j], k) for j, k in enumerate(kernels.kappas, start=kernels.j0)]
        for grid, window in parts:
            band = grid.L
            windowed = window_coeffs(f.coeffs[: band * band], window[:band])
            assert np.array_equal(grid.values, sht_inverse(SphereCoeffs(band, windowed)).values)

    def test_top_scales_share_one_table_pass_per_direction(self, monkeypatch):
        # past the 256 table cache every pass regenerates the tables; the two
        # top scales both sit at band 300, and each direction makes one pass
        L = 300
        kernels = build_sphere_kernels(L, TilingParams(lam=2.0))
        assert kernels.band_limit(kernels.jmax - 1) == kernels.band_limit(kernels.jmax) == L
        passes = []
        real = sphere_harmonics._legendre_tiles

        def counting(*args):
            passes.append(args[0])
            return real(*args)

        monkeypatch.setattr(sphere_harmonics, "_legendre_tiles", counting)
        f = random_coeffs(L, np.random.default_rng(22))
        d = sphere_analyze(f, kernels, multires=True)
        assert passes.count(L) == 1
        back = sphere_synthesize(d, kernels).coeffs
        assert passes.count(L) == 2
        assert np.max(np.abs(back - f.coeffs)) < 1e-10 * np.max(np.abs(f.coeffs))


    def test_synthesis_hands_each_group_its_stored_maps_in_one_call(self, monkeypatch):
        # full resolution at L = 16: 6 parts at one band, past a forward FFT
        # block of 4 grids.  One engine call takes the stored maps themselves,
        # uncopied, and adds their windowed coefficients a block at a time
        L = 16
        monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 4 * 16 * L * (2 * L - 1))
        calls = []
        real = sphere_wavelets._sht_forward_batch

        def recording(grids, plan, *window_and_total):
            calls.append(grids)
            return real(grids, plan, *window_and_total)

        monkeypatch.setattr(sphere_wavelets, "_sht_forward_batch", recording)
        kernels = build_sphere_kernels(L, TilingParams(lam=2.0))
        f = random_coeffs(L, np.random.default_rng(23))
        d = sphere_analyze(f, kernels)
        back = sphere_synthesize(d, kernels).coeffs
        stored = [d.scaling] + [d.wavelets[j] for j in sorted(d.wavelets)]
        assert len(stored) == 6 > sphere_harmonics._fft_block_grids(L)
        assert [len(grids) for grids in calls] == [6]
        assert all(got is part.values for got, part in zip(calls[0], stored))
        assert np.max(np.abs(back - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))


class TestSphereGroups:
    """SphereKernels.group_plan(multires) is made on first use and read by
    both directions: a warm round trip looks up no plan."""

    def test_one_plan_per_storage_mode(self):
        kernels = build_sphere_kernels(32, TilingParams())
        full, multi = kernels.group_plan(False), kernels.group_plan(True)
        assert full is not multi
        assert kernels.group_plan(0) is full and kernels.group_plan(1) is multi
        # a plan belongs to its kernels: a copy made by replace starts without one
        assert dataclasses.replace(kernels).group_plan(False) is not full

    @pytest.mark.parametrize("multires", [False, True])
    @pytest.mark.parametrize("lam, j0", [(2.0, 0), (3.0, 1)])
    def test_groups_are_the_runs_of_the_part_bands(self, multires, lam, j0):
        L = 64
        kernels = build_sphere_kernels(L, TilingParams(lam=lam, j0_ang=j0))
        groups = kernels.group_plan(multires)
        bands = sphere_part_bands(L, kernels.params, multires)
        runs = [(band, len(list(run))) for band, run in itertools.groupby(bands)]
        assert [(group.plan.L, len(group.parts)) for group in groups] == runs
        names = [name for group in groups for name in group.parts]
        assert names == ["scaling", *range(kernels.j0, kernels.jmax + 1)]
        windows = dict(zip(names, [kernels.eta, *kernels.kappas]))
        for window, plan, parts in groups:
            assert plan is get_plan(plan.L)
            assert window.shape == (len(parts), plan.L)
            for row, name in zip(window, parts):
                assert row.tobytes() == windows[name][: plan.L].tobytes()

    @pytest.mark.parametrize("multires", [False, True])
    def test_warm_round_trip_looks_up_no_plan(self, multires):
        L = 32
        kernels = build_sphere_kernels(L, TilingParams())
        f = random_coeffs(L, np.random.default_rng(24))
        sphere_synthesize(sphere_analyze(f, kernels, multires), kernels)
        lookups = get_plan.cache_info()
        back = sphere_synthesize(sphere_analyze(f, kernels, multires), kernels).coeffs
        assert get_plan.cache_info() == lookups
        assert np.max(np.abs(back - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_kernels_and_get_plan_share_one_live_plan_per_band_limit(self):
        # kernels hold the plans of their groups; once 40 other band limits
        # have gone through the 32-plan cache, get_plan still returns the
        # kernels' plans, not second copies (there were 33 live plans, and
        # get_plan(64) was not the kernels' plan)
        L, others = 64, range(130, 170)
        kernels = build_sphere_kernels(L, TilingParams())
        held = {plan.L: plan for _, plan, _ in kernels.group_plan(True)}
        assert L in held
        for other in others:
            get_plan(other)
        maxsize = get_plan.cache_info().maxsize
        assert get_plan.cache_info().currsize <= maxsize < len(others)
        again = {band: get_plan(band) for band in held}
        gc.collect()
        live = collections.Counter(
            obj.L for obj in gc.get_objects() if isinstance(obj, sphere_harmonics.SpherePlan)
        )
        assert all(again[band] is plan for band, plan in held.items())
        assert all(live[band] == 1 for band in [*held, *others] if live[band]), live
        # the cache holds the kernels' plans again and the last others: a
        # count bound, which the plans the kernels hold do not add to
        assert sum(live[other] for other in others) == maxsize - len(held)


class TestValidation:
    def test_mismatched_band_limit(self):
        kernels = build_sphere_kernels(16, TilingParams())
        f = random_coeffs(8, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sphere_analyze(f, kernels)

    def test_mismatched_kernels_on_synthesis(self):
        k16 = build_sphere_kernels(16, TilingParams())
        k16b = build_sphere_kernels(16, TilingParams(lam=3.0))
        f = random_coeffs(16, np.random.default_rng(1))
        d = sphere_analyze(f, k16)
        with pytest.raises(ValueError):
            sphere_synthesize(d, k16b)

    @pytest.mark.parametrize("multires", [False, True])
    def test_rejects_part_at_wrong_band(self, multires):
        # scale 3 of L = 16, lam = 2 reaches ell < 16 and is stored at 16 either
        # way; cut to band 8 it loses degrees synthesis would silently drop
        kernels = build_sphere_kernels(16, TilingParams())
        d = sphere_analyze(random_coeffs(16, np.random.default_rng(2)), kernels, multires)
        cut = sht_forward(d.wavelets[3]).coeffs[:64]
        d.wavelets[3] = sht_inverse(SphereCoeffs(8, cut))
        with pytest.raises(ValueError, match="part 3 is stored at band 8"):
            sphere_synthesize(d, kernels)
        # a multiresolution scaling part belongs at the band of scale j0
        d = sphere_analyze(random_coeffs(16, np.random.default_rng(3)), kernels, True)
        d.scaling = SphereGrid(4, np.zeros((4, 7)))
        with pytest.raises(ValueError, match="part scaling"):
            sphere_synthesize(d, kernels)
