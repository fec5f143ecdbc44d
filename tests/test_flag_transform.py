"""Exact Fourier-Laguerre transform on the ball."""

import gc
import math
import weakref

import numpy as np
import pytest

from flaglets import sphere_harmonics
from flaglets.flag_transform import (
    BallGrid,
    BandLimits,
    FlagCoeffs,
    FlagPlan,
    flag_forward,
    flag_inverse,
    get_flag_plan,
)
from flaglets.quadrature import MAX_NODES
from flaglets.radial_laguerre import RadialParams, laguerre_basis, radial_nodes
from flaglets.sphere_harmonics import (
    SphereCoeffs,
    _is_hermitian,
    coeff_index,
    get_plan,
    sht_inverse,
)

from oracles import (
    direct_sht_forward,
    direct_sht_inverse,
    hermitian_coeffs,
    naive_flag_forward,
    naive_flag_inverse,
    naive_sht_forward,
    naive_sht_inverse,
)


def random_flag(limits, rng):
    shape = (limits.P, limits.L * limits.L)
    c = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    return FlagCoeffs(limits, c)


class TestBasisDelta:
    def test_product_basis_function(self):
        # synthesizing K_2(r) Y_3^1 must come back as a Kronecker delta
        limits = BandLimits(8, 6, 1.0)
        c = np.zeros((6, 64), dtype=np.complex128)
        c[2, coeff_index(3, 1)] = 1.0
        grid = flag_inverse(FlagCoeffs(limits, c))

        # verify the grid against a direct product evaluation
        radii, _ = radial_nodes(limits.radial)
        kvals = np.array([laguerre_basis(limits.radial, r)[2] for r in radii])
        angular = sht_inverse(SphereCoeffs(8, c[2].astype(np.complex128))).values
        direct = kvals[:, None, None] * angular[None, :, :] / 1.0
        # angular part holds coefficient 1 already, so scale matches directly
        expected = kvals[:, None, None] * sht_inverse(
            SphereCoeffs(8, (c[2] != 0).astype(np.complex128))
        ).values[None, :, :]
        assert np.max(np.abs(grid.values - expected)) < 1e-12
        assert np.max(np.abs(grid.values - direct)) < 1e-12

        back = flag_forward(grid).coeffs
        assert abs(back[2, coeff_index(3, 1)] - 1.0) < 1e-12
        back[2, coeff_index(3, 1)] = 0.0
        assert np.max(np.abs(back)) < 1e-12

    def test_zero_field(self):
        limits = BandLimits(4, 4, 1.0)
        grid = BallGrid(limits, np.zeros((4, 4, 7), dtype=np.complex128))
        assert np.max(np.abs(flag_forward(grid).coeffs)) == 0.0


class TestAgainstNaive:
    def test_forward_matches_direct_sums(self):
        limits = BandLimits(8, 8, 1.0)
        rng = np.random.default_rng(11)
        values = rng.uniform(-1, 1, (8, 8, 15)) + 1j * rng.uniform(-1, 1, (8, 8, 15))
        fast = flag_forward(BallGrid(limits, values)).coeffs
        slow = naive_flag_forward(values, limits)
        assert np.max(np.abs(fast - slow)) < 1e-11

    def test_inverse_matches_direct_sums(self):
        limits = BandLimits(8, 8, 1.0)
        rng = np.random.default_rng(12)
        c = random_flag(limits, rng)
        fast = flag_inverse(c).values
        slow = naive_flag_inverse(c.coeffs, limits)
        assert np.max(np.abs(fast - slow)) < 1e-11

    @pytest.mark.parametrize("L,P", [(1, 3), (2, 5)])
    def test_smallest_band_limits_match_direct_sums(self, L, P):
        limits = BandLimits(L, P, 1.0)
        rng = np.random.default_rng(13 + L)
        c = random_flag(limits, rng)
        grid = flag_inverse(c).values
        assert np.max(np.abs(grid - naive_flag_inverse(c.coeffs, limits))) < 1e-11
        fast = flag_forward(BallGrid(limits, grid)).coeffs
        assert np.max(np.abs(fast - naive_flag_forward(grid, limits))) < 1e-11

    def test_partial_last_forward_block(self, monkeypatch):
        # 7 shells in blocks of 3 rows: the last block holds a single shell
        L, P = 4, 7
        row_bytes = 16 * L * (2 * L - 1)
        monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 3 * row_bytes)
        limits = BandLimits(L, P, 1.0)
        rng = np.random.default_rng(14)
        values = rng.uniform(-1, 1, (P, L, 2 * L - 1)) + 1j * rng.uniform(-1, 1, (P, L, 2 * L - 1))
        fast = flag_forward(BallGrid(limits, values)).coeffs
        slow = naive_flag_forward(values, limits)
        assert np.max(np.abs(fast - slow)) < 1e-11


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestRealSignals:
    @pytest.mark.parametrize(
        "L, P", [(1, 3), (2, 2), (3, 2), (7, 3), (32, 4), (33, 3), (257, 2), (300, 2)]
    )
    def test_real_path_matches_complex_path_and_direct_sums(self, L, P):
        # past the table cache (257, 300) two shells take all-order streamed tiles
        limits = BandLimits(L, P, 1.0)
        rng = np.random.default_rng(L + P)
        c, other = hermitian_coeffs(rng, L, (P,)), hermitian_coeffs(rng, L, (P,))
        grid = flag_inverse(FlagCoeffs(limits, c)).values
        assert grid.dtype == np.float64
        # the transform is linear: c + i other takes the complex path, and its
        # real part is the grid of c
        both = flag_inverse(FlagCoeffs(limits, c + 1j * other)).values
        assert both.dtype == np.complex128
        assert rel_err(grid, both.real) <= 1e-14
        oracles = (naive_sht_inverse, naive_sht_forward) if L <= 7 else (
            direct_sht_inverse, direct_sht_forward
        )
        assert rel_err(grid, naive_flag_inverse(c, limits, oracles[0])) < 1e-13 * L
        coeffs = flag_forward(BallGrid(limits, grid)).coeffs
        assert _is_hermitian(coeffs, L)  # exactly: -m is made from +m after the radial GEMM
        assert rel_err(coeffs, flag_forward(BallGrid(limits, grid + 0j)).coeffs) <= 1e-14
        assert rel_err(coeffs, naive_flag_forward(grid, limits, oracles[1])) < 1e-13 * L
        assert rel_err(coeffs, c) < 1e-13 * L

    def test_real_grids_stay_real_and_complex_grids_complex(self):
        limits = BandLimits(4, 3, 1.0)
        assert BallGrid(limits, np.zeros((3, 4, 7))).values.dtype == np.float64
        assert BallGrid(limits, np.zeros((3, 4, 7), dtype=int)).values.dtype == np.float64
        assert BallGrid(limits, np.zeros((3, 4, 7), dtype=complex)).values.dtype == np.complex128
        # zero coefficients are Hermitian, so their grid is real
        assert flag_inverse(FlagCoeffs(limits, np.zeros((3, 16)))).values.dtype == np.float64


class TestPlanCaches:
    @pytest.mark.parametrize("get, key", [
        (get_plan, lambda i: i + 1),
        (get_flag_plan, lambda i: RadialParams(1, 1.0 + i)),
    ])
    def test_bounded_and_shared(self, get, key):
        assert get(key(0)) is get(key(0))
        maxsize = get.cache_info().maxsize
        assert maxsize is not None
        for i in range(maxsize + 3):
            get(key(i))
        assert get.cache_info().currsize <= maxsize

    def test_flag_plans_do_not_keep_evicted_sphere_plans_alive(self):
        # a cached FlagPlan must not pin the SpherePlan of its L once the
        # (smaller) sphere-plan cache has evicted it
        limits = BandLimits(3, 2, 7.25)
        flag_inverse(FlagCoeffs(limits, np.ones((2, 9))))
        plan = get_flag_plan(limits.radial)
        sphere_plan = weakref.ref(get_plan(3))
        for L in range(4, 4 + get_plan.cache_info().maxsize):
            get_plan(L)
        gc.collect()
        assert get_flag_plan(limits.radial) is plan
        assert sphere_plan() is None


class TestRoundTrips:
    @pytest.mark.parametrize("L,P", [(4, 4), (8, 8), (16, 16), (32, 32), (64, 32), (1, 3), (2, 5)])
    def test_coeff_roundtrip(self, L, P):
        limits = BandLimits(L, P, 1.0)
        for seed in range(10):
            rng = np.random.default_rng(100 * L + P + seed)
            c = random_flag(limits, rng)
            back = flag_forward(flag_inverse(c)).coeffs
            rel = np.max(np.abs(back - c.coeffs)) / np.max(np.abs(c.coeffs))
            assert rel < 1e-10, (L, P, seed, rel)

    def test_roundtrip_other_tau(self):
        limits = BandLimits(16, 12, 3.5)
        rng = np.random.default_rng(9)
        c = random_flag(limits, rng)
        back = flag_forward(flag_inverse(c)).coeffs
        assert np.max(np.abs(back - c.coeffs)) < 1e-10


class TestAccuracyEnvelope:
    # max |error| / (eps (L + P) max|f|) of complex random coefficients,
    # seeds 0-7 (one BLAS thread): 3.47-4.20 at (8, 1024), 3.00-3.42 at
    # (32, 512), 1.94-2.16 at (128, 128), 2.41-3.06 at (256, 32), 3.06-5.03
    # at (300, 8) (3.26 and 3.65 at the seeds run here; its 8 shells are 4
    # FFT blocks of one inverse pass past the table cache) and 1.97-2.69 at
    # (512, 8).  The bound is about 1.2 times the largest, 5.03
    @pytest.mark.parametrize(
        "L, P",
        [
            (8, 1024),
            (32, 512),
            (128, 128),
            (256, 32),
            (300, 8),
            pytest.param(512, 8, marks=pytest.mark.slow),
        ],
    )
    def test_roundtrip_error_within_c_eps_L_plus_P(self, L, P):
        limits = BandLimits(L, P, 1.0)
        for seed in range(2):
            c = random_flag(limits, np.random.default_rng(seed))
            back = flag_forward(flag_inverse(c)).coeffs
            err = np.max(np.abs(back - c.coeffs))
            assert err <= 6 * np.finfo(float).eps * (L + P) * np.max(np.abs(c.coeffs)), seed


class TestStructure:
    def test_parseval(self):
        limits = BandLimits(16, 16, 1.0)
        rng = np.random.default_rng(21)
        c = random_flag(limits, rng)
        grid = flag_inverse(c)

        plan = get_flag_plan(limits.radial)
        from flaglets.quadrature import gauss_legendre

        wang = gauss_legendre(limits.L).weights
        dphi = 2 * np.pi / (2 * limits.L - 1)
        e = np.einsum(
            "p,i,pik->",
            plan.radial_weights,
            wang,
            np.abs(grid.values) ** 2,
        ) * dphi
        coeff_energy = float(np.sum(np.abs(c.coeffs) ** 2))
        assert abs(e - coeff_energy) < 1e-10 * coeff_energy

    def test_linearity(self):
        limits = BandLimits(8, 8, 1.0)
        rng = np.random.default_rng(33)
        a, b = random_flag(limits, rng), random_flag(limits, rng)
        ga = flag_inverse(a).values
        gb = flag_inverse(b).values
        combo = flag_inverse(FlagCoeffs(limits, 2.0 * a.coeffs - 0.5j * b.coeffs)).values
        assert np.max(np.abs(combo - (2.0 * ga - 0.5j * gb))) < 1e-12

    def test_separable_order_equivalence(self):
        # radial-then-angular synthesis equals angular-then-radial
        limits = BandLimits(8, 8, 1.0)
        rng = np.random.default_rng(44)
        c = random_flag(limits, rng)

        plan = get_flag_plan(limits.radial)
        # path A: library order (radial synthesis then per-shell angular)
        via_library = flag_inverse(c, plan).values

        # path B: angular synthesis per radial mode, then radial mixing
        per_mode = np.array(
            [sht_inverse(SphereCoeffs(limits.L, c.coeffs[p])).values for p in range(limits.P)]
        )
        via_swap = np.einsum("pi,pjk->ijk", plan.kbasis, per_mode)
        assert np.max(np.abs(via_library - via_swap)) < 1e-12


class TestValidation:
    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            BandLimits(0, 4, 1.0)
        with pytest.raises(ValueError):
            BandLimits(4, 0, 1.0)
        with pytest.raises(ValueError):
            BandLimits(4, 4, -1.0)
        with pytest.raises(ValueError):
            BandLimits(4, MAX_NODES + 1, 1.0)
        with pytest.raises(ValueError):
            BandLimits(4, 4, math.inf)
        # L = 4.5 used to construct, and P = 4.5 to fail late with a TypeError
        for L, P in ((4.5, 4), (4.0, 4), (True, 4), (4, 4.5), (4, np.float64(4))):
            with pytest.raises(ValueError, match="band limit must be an integer"):
                BandLimits(L, P, 1.0)
        assert BandLimits(np.int64(4), np.int32(4)).radial == RadialParams(4, 1.0)

    def test_narrow_integer_limits_are_kept_as_python_ints(self):
        # L * L of a uint8 20 wraps to 144 (with an overflow warning); the
        # checked limits are stored as ints, so the shape check sees 400
        limits = BandLimits(np.uint8(20), np.uint8(4))
        assert (type(limits.L), type(limits.P)) == (int, int)
        assert limits == BandLimits(20, 4)
        assert FlagCoeffs(limits, np.zeros((4, 400))).coeffs.shape == (4, 400)
        with pytest.raises(ValueError, match="does not match"):
            FlagCoeffs(limits, np.zeros((4, 144)))
        assert type(RadialParams(np.uint8(200)).P) is int

    def test_rejects_wrong_shapes(self):
        limits = BandLimits(4, 4, 1.0)
        with pytest.raises(ValueError):
            BallGrid(limits, np.zeros((4, 4, 8)))
        with pytest.raises(ValueError):
            FlagCoeffs(limits, np.zeros((4, 15), dtype=np.complex128))

    def test_forward_rejects_plan_of_other_radial_limits(self):
        # a tau = 2 plan on a tau = 1 grid used to return wrong coefficients
        # labelled tau = 1; the radial plan serves every L
        grid = flag_inverse(random_flag(BandLimits(8, 4, 1.0), np.random.default_rng(3)))
        with pytest.raises(ValueError, match=r"P=4, tau=2.0.*P=4, tau=1.0"):
            flag_forward(grid, FlagPlan(RadialParams(4, 2.0)))
        with pytest.raises(ValueError, match=r"P=5, tau=1.0.*P=4, tau=1.0"):
            flag_forward(grid, FlagPlan(RadialParams(5, 1.0)))
        back = flag_forward(grid, FlagPlan(RadialParams(4, 1.0)))
        assert np.array_equal(back.coeffs, flag_forward(grid).coeffs)

    def test_inverse_rejects_plan_of_other_radial_limits(self):
        coeffs = random_flag(BandLimits(8, 4, 1.0), np.random.default_rng(4))
        with pytest.raises(ValueError, match=r"P=4, tau=2.0.*P=4, tau=1.0"):
            flag_inverse(coeffs, FlagPlan(RadialParams(4, 2.0)))
        with pytest.raises(ValueError, match=r"P=3, tau=1.0.*P=4, tau=1.0"):
            flag_inverse(coeffs, FlagPlan(RadialParams(3, 1.0)))
