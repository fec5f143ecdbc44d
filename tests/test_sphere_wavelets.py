"""Axisymmetric scale-discretised wavelet transform on the sphere."""

import numpy as np
import pytest

from flaglets import sphere_harmonics, sphere_wavelets
from flaglets.kernel_tiling import TilingParams, build_sphere_kernels
from flaglets.sphere_harmonics import (
    SphereCoeffs,
    coeff_index,
    resize_coeffs,
    sht_forward,
    sht_inverse,
    window_coeffs,
)
from flaglets.sphere_wavelets import sphere_analyze, sphere_synthesize


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
        assert small.scaling.L == kernels.scaling_band_limit

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
            windowed = window_coeffs(resize_coeffs(f.coeffs, (band * band,)), window[:band])
            assert np.array_equal(grid.values, sht_inverse(SphereCoeffs(band, windowed)).values)

    def test_top_scales_share_one_table_pass_per_direction(self, monkeypatch):
        # past the 256 table cache every pass regenerates the tables; the two
        # top scales both sit at band 300, and each direction makes one pass
        L = 300
        kernels = build_sphere_kernels(L, TilingParams(lam=2.0))
        assert kernels.band_limit(kernels.jmax - 1) == kernels.band_limit(kernels.jmax) == L
        passes = []
        real = sphere_harmonics._legendre_blocks

        def counting(*args):
            passes.append(args[0])
            return real(*args)

        monkeypatch.setattr(sphere_harmonics, "_legendre_blocks", counting)
        f = random_coeffs(L, np.random.default_rng(22))
        d = sphere_analyze(f, kernels, multires=True)
        assert passes.count(L) == 1
        back = sphere_synthesize(d, kernels).coeffs
        assert passes.count(L) == 2
        assert np.max(np.abs(back - f.coeffs)) < 1e-10 * np.max(np.abs(f.coeffs))


    def test_synthesis_calls_hold_at_most_one_fft_block(self, monkeypatch):
        # full resolution at L = 16: 6 parts at one band, in forward blocks of 4
        L = 16
        monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 4 * 16 * L * (2 * L - 1))
        sizes = []
        real = sphere_wavelets._sht_forward_batch

        def recording(grids, plan):
            sizes.append(len(grids))
            return real(grids, plan)

        monkeypatch.setattr(sphere_wavelets, "_sht_forward_batch", recording)
        kernels = build_sphere_kernels(L, TilingParams(lam=2.0))
        f = random_coeffs(L, np.random.default_rng(23))
        back = sphere_synthesize(sphere_analyze(f, kernels), kernels).coeffs
        assert sizes == [4, 2]
        assert np.max(np.abs(back - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))


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
