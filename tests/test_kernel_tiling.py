"""Scale-discretised tiling windows and their resolution of identity."""

import io
import math

import numpy as np
import pytest

from flaglets.cli import random_flag_coeffs
from flaglets.flag_transform import BandLimits
from flaglets.flaglet_transform import flaglet_analyze
from flaglets.io_container import read_container, write_container
from flaglets.kernel_tiling import (
    MAX_SCALE,
    TilingParams,
    build_flaglet_kernels,
    build_sphere_kernels,
    flaglet_parts,
    k_lambda,
    kappa_eta,
    max_scale,
    scale_count,
    scale_range,
    smooth_bump,
    sphere_part_bands,
)
from flaglets.quadrature import gauss_legendre
from flaglets.sphere_harmonics import MAX_BAND_LIMIT, SphereCoeffs
from flaglets.sphere_wavelets import sphere_analyze


class TestBump:
    def test_values(self):
        assert smooth_bump(0.0) == pytest.approx(math.exp(-1.0))
        assert smooth_bump(1.0) == 0.0
        assert smooth_bump(-1.0) == 0.0
        assert smooth_bump(2.5) == 0.0
        # symmetry
        assert smooth_bump(0.3) == pytest.approx(smooth_bump(-0.3), rel=1e-15)

    def test_vectorized(self):
        t = np.linspace(-2, 2, 101)
        v = smooth_bump(t)
        assert v.shape == t.shape
        assert np.all(v >= 0) and np.all(v[np.abs(t) >= 1] == 0)


class TestTransition:
    def test_boundary_values(self):
        for lam in (2.0, 3.0, 1.3):
            assert k_lambda(lam, 0.0) == 1.0
            assert k_lambda(lam, 1.0 / lam) == 1.0
            assert k_lambda(lam, 1.0) == 0.0
            assert k_lambda(lam, 5.0) == 0.0

    def test_monotone_non_increasing(self):
        t = np.linspace(0.0, 1.0 + 1e-12, 10_000)
        k = k_lambda(2.0, t)
        assert np.all(np.diff(k) <= 4e-15)
        assert np.all((k >= 0) & (k <= 1))

    def test_against_fine_grid_integration(self):
        # independent oracle: trapezoid rule on a very fine grid
        lam, t0 = 2.0, 0.75
        u = np.linspace(1.0 / lam, 1.0, 400_001)

        def s2_over_u(x):
            s = np.where(
                np.abs(2 * lam / (lam - 1) * (x - 1 / lam) - 1) < 1,
                np.exp(-1.0 / np.maximum(1e-300, 1 - (2 * lam / (lam - 1) * (x - 1 / lam) - 1) ** 2)),
                0.0,
            )
            return s * s / x

        full = np.trapezoid(s2_over_u(u), u)
        mask = u >= t0
        tail = np.trapezoid(s2_over_u(u[mask]), u[mask])
        assert k_lambda(lam, t0) == pytest.approx(tail / full, abs=1e-11)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            k_lambda(1.0, 0.5)
        with pytest.raises(ValueError):
            k_lambda(2.0, -0.1)

    def test_rejects_nan_argument(self):
        # a NaN t once skipped every branch and returned uninitialised memory
        for t in (math.nan, np.array([math.nan, math.nan]), np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="non-negative"):
                k_lambda(2.0, t)
            with pytest.raises(ValueError, match="non-negative"):
                kappa_eta(2.0, t)


class TestGenerators:
    def test_kappa_eta_support(self):
        lam = 2.0
        kappa, eta = kappa_eta(lam, 0.0)
        assert kappa == 0.0 and eta == 1.0
        kappa, eta = kappa_eta(lam, 1.0)
        assert kappa == pytest.approx(1.0) and eta == 0.0
        kappa, eta = kappa_eta(lam, lam)
        assert kappa == 0.0 and eta == 0.0

    def test_telescoping_identity(self):
        # eta^2(t) + kappa^2(t) = k(t/lam): holds pointwise
        t = np.linspace(0, 4, 257)
        kappa, eta = kappa_eta(2.0, t)
        assert np.max(np.abs(eta**2 + kappa**2 - k_lambda(2.0, t / 2.0))) < 1e-14


class TestScaleBookkeeping:
    def test_max_scale(self):
        assert max_scale(64, 2.0) == 6  # 2^6 = 63.0 < 64-1 ... ceil(log2 63)
        assert max_scale(65, 2.0) == 6
        assert max_scale(2, 2.0) == 0
        assert max_scale(1, 2.0) == 0
        # exact powers do not pick up a spurious extra scale
        assert max_scale(33, 2.0) == 5
        assert scale_count(64, 2.0, 2) == 5

    def test_scale_range_caps_the_largest_scale(self):
        # a dilation just above 1 would ask for 19,459,104 scales at L = 8
        assert scale_count(8, 1.0000001, 0) > 1e7
        with pytest.raises(ValueError):
            scale_range(8, 1.0000001, 0)
        with pytest.raises(ValueError):
            build_sphere_kernels(8, TilingParams(lam=1.0001))
        # every dilation >= 1.14 stays within the cap up to MAX_BAND_LIMIT
        assert scale_range(MAX_BAND_LIMIT, 1.14, 0) == range(0, MAX_SCALE + 1)
        for dilation in (2.0, 3.0):
            assert scale_range(MAX_BAND_LIMIT, dilation, 0).stop <= MAX_SCALE + 1

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TilingParams(lam=1.0)
        with pytest.raises(ValueError):
            TilingParams(nu=0.5)
        with pytest.raises(ValueError):
            TilingParams(j0_ang=-1)
        # 1.5 used to construct and fail in build_flaglet_kernels; True passed as 1
        with pytest.raises(ValueError, match="minimum angular scale index must be an integer"):
            TilingParams(j0_ang=1.5)
        with pytest.raises(ValueError, match="minimum radial scale index must be an integer"):
            TilingParams(j0_rad=True)
        params = TilingParams(j0_ang=np.uint8(1), j0_rad=np.int64(2))
        assert type(params.j0_ang) is int and type(params.j0_rad) is int
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                TilingParams(lam=bad)
            with pytest.raises(ValueError):
                TilingParams(nu=bad)


class TestSphereKernels:
    def test_example_scales_and_support(self):
        k = build_sphere_kernels(64, TilingParams(lam=3.0, j0_ang=2))
        assert k.j0 == 2 and k.jmax == 4
        assert len(k.kappas) == 3
        # kappa_2 is supported on (lam^{j-1}, lam^{j+1}) = (3, 27)
        assert np.all(k.kappas[0][27:] == 0.0)
        assert k.kappas[0][9] > 0
        assert k.band_limit(2) == 27
        assert k.band_limit(4) == 64
        # the scaling part shares the band of scale j0
        assert sphere_part_bands(64, k.params, True) == [27, 27, 64, 64]
        assert sphere_part_bands(64, k.params, False) == [64] * 4

    @pytest.mark.parametrize("L,lam,j0", [(16, 2.0, 0), (64, 2.0, 1), (128, 3.0, 2), (32, 1.5, 0)])
    def test_admissibility(self, L, lam, j0):
        k = build_sphere_kernels(L, TilingParams(lam=lam, j0_ang=j0))
        total = k.eta**2 + sum(kap**2 for kap in k.kappas)
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_rejects_j0_beyond_jmax(self):
        with pytest.raises(ValueError):
            build_sphere_kernels(8, TilingParams(lam=2.0, j0_ang=7))

    @pytest.mark.parametrize("L", [0, -3, MAX_BAND_LIMIT + 1])
    def test_rejects_band_limits_outside_the_library_range(self, L):
        # L = 0 built empty windows, L = -3 failed inside numpy, and L = 5000
        # built kernels that no container could hold
        with pytest.raises(ValueError, match=r"band limit must be in \[1, 4096\]"):
            build_sphere_kernels(L, TilingParams())

    @pytest.mark.parametrize("L", [8.0, 8.5, True])
    def test_rejects_band_limits_that_are_not_integers(self, L):
        with pytest.raises(ValueError, match="band limit must be an integer"):
            build_sphere_kernels(L, TilingParams())


class TestFlagletKernels:
    def test_admissibility(self):
        limits = BandLimits(64, 32, 1.0)
        k = build_flaglet_kernels(limits, TilingParams(lam=2.0, nu=2.0, j0_ang=1, j0_rad=0))
        total = k.phi**2
        for psi in k.psis.values():
            total = total + psi**2
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_transpose_symmetry(self):
        # swapping (lam, L) with (nu, P) transposes every window
        a = build_flaglet_kernels(BandLimits(32, 16, 1.0), TilingParams(lam=2.0, nu=3.0))
        b = build_flaglet_kernels(BandLimits(16, 32, 1.0), TilingParams(lam=3.0, nu=2.0))
        # compare squared scaling windows: sqrt near zero amplifies rounding
        assert np.allclose(a.phi**2, (b.phi.T) ** 2, atol=1e-14)
        for (j, jp), psi in a.psis.items():
            assert np.allclose(psi, b.psis[(jp, j)].T, atol=1e-14)

    def test_scale_ranges_and_band_limits(self):
        limits = BandLimits(32, 16, 1.0)
        k = build_flaglet_kernels(limits, TilingParams())
        keys, bands = flaglet_parts(limits, k.params, True)
        assert keys == [(j, jp) for j in range(6) for jp in range(5)]
        assert list(k.psis) == keys
        parts = dict(zip(["scaling", *keys], bands))
        assert parts[(1, 3)] == (4, 16)
        assert parts[(4, 3)] == (32, 16)
        # the scaling window reaches every ell at small p: stored at full limits
        assert parts["scaling"] == (32, 16)
        assert flaglet_parts(limits, k.params, False) == (keys, [(32, 16)] * 31)

    def test_windows_are_products_of_the_line_windows(self):
        limits = BandLimits(16, 12, 1.0)
        params = TilingParams(lam=3.0, nu=2.0, j0_ang=1, j0_rad=0)
        k = build_flaglet_kernels(limits, params)
        assert len(k.kappas_ang) == len(scale_range(16, 3.0, 1))
        assert len(k.kappas_rad) == len(scale_range(12, 2.0, 0))
        # the angular line windows are the sphere windows of the same tiling
        for ka, want in zip(k.kappas_ang, build_sphere_kernels(16, params).kappas):
            assert np.array_equal(ka, want)
        for (j, jp), psi in k.psis.items():
            assert np.array_equal(psi, np.outer(k.kappas_ang[j - 1], k.kappas_rad[jp]))

    def test_windows_nonnegative(self):
        k = build_flaglet_kernels(BandLimits(16, 16, 1.0), TilingParams())
        assert np.all(k.phi >= 0)
        for psi in k.psis.values():
            assert np.all(psi >= 0)


TILINGS = [
    (16, 16, TilingParams()),
    (16, 8, TilingParams(lam=3.0, nu=2.0, j0_ang=1, j0_rad=0)),
    (12, 10, TilingParams(lam=1.5, nu=2.5, j0_ang=2, j0_rad=1)),
    (9, 5, TilingParams(lam=2.0, nu=3.0, j0_ang=0, j0_rad=1)),
]


def _roundtrip(obj):
    buf = io.BytesIO()
    write_container(obj, buf)
    buf.seek(0)
    return read_container(buf)


class TestPartLayout:
    """Analysis, the container reader and the layout agree on every part."""

    @pytest.mark.parametrize("multires", [False, True])
    @pytest.mark.parametrize("L, P, params", TILINGS)
    def test_flaglet_parts_match_analysis_and_reader(self, L, P, params, multires):
        limits = BandLimits(L, P, 1.5)
        kernels = build_flaglet_kernels(limits, params)
        keys, bands = flaglet_parts(limits, params, multires)
        d = flaglet_analyze(random_flag_coeffs(limits, 3), kernels, multires=multires)
        for back in (d, _roundtrip(d)):
            assert list(back.wavelets) == keys
            grids = [back.scaling, *back.wavelets.values()]
            assert [g.limits for g in grids] == [BandLimits(lj, pj, 1.5) for lj, pj in bands]
        assert list(_roundtrip(kernels).psis) == keys

    @pytest.mark.parametrize("multires", [False, True])
    @pytest.mark.parametrize("L, P, params", TILINGS)
    def test_sphere_part_bands_match_analysis_and_reader(self, L, P, params, multires):
        kernels = build_sphere_kernels(L, params)
        bands = sphere_part_bands(L, params, multires)
        rng = np.random.default_rng(L)
        f = SphereCoeffs(L, rng.standard_normal(L * L) + 1j * rng.standard_normal(L * L))
        d = sphere_analyze(f, kernels, multires=multires)
        scales = list(scale_range(L, params.lam, params.j0_ang))
        for back in (d, _roundtrip(d)):
            assert list(back.wavelets) == scales
            assert [g.L for g in [back.scaling, *back.wavelets.values()]] == bands


class TestQuadraturePanels:
    def test_panel_rule_matches_library(self):
        # internal fixed panel rule must agree with the public constructor
        rule = gauss_legendre(64)
        assert abs(np.sum(rule.weights) - 2.0) < 1e-14
