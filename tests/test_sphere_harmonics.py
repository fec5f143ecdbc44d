"""Exact spherical harmonic transform on the Gauss-Legendre grid."""

import math

import numpy as np
import pytest

from flaglets import sphere_harmonics
from flaglets.sphere_harmonics import (
    SphereCoeffs,
    SphereGrid,
    SpherePlan,
    _sht_forward_batch,
    _sht_inverse_batch,
    assoc_legendre_table,
    coeff_index,
    legendre_matrix,
    sht_forward,
    sht_inverse,
    sphere_sampling,
)

from oracles import (
    legendre_column_high_precision,
    legendre_high_precision,
    legendre_per_order,
    naive_sht_forward,
    naive_sht_inverse,
    ylm_point,
)


def random_coeffs(L, rng):
    c = rng.uniform(-1, 1, L * L) + 1j * rng.uniform(-1, 1, L * L)
    return SphereCoeffs(L, c)


class TestSampling:
    def test_grid_shape(self):
        thetas, phis = sphere_sampling(8)
        assert thetas.shape == (8,)
        assert phis.shape == (15,)
        # colatitudes descend from near the north pole? they cover (0, pi)
        assert np.all(thetas > 0) and np.all(thetas < np.pi)
        assert phis[0] == 0.0
        assert np.allclose(np.diff(phis), 2 * np.pi / 15)

    def test_coeff_index(self):
        assert coeff_index(0, 0) == 0
        assert coeff_index(1, -1) == 1
        assert coeff_index(1, 0) == 2
        assert coeff_index(1, 1) == 3
        assert coeff_index(2, -2) == 4


class TestLegendreValues:
    def test_low_degree_analytic(self):
        # orthonormalized P~_l^m at x = 0.3
        x = 0.3
        table = assoc_legendre_table(4, x)
        assert table[0] == pytest.approx(math.sqrt(0.5))
        assert table[1 * 4 + 0] == pytest.approx(math.sqrt(1.5) * x)
        # P~_1^1 = -sqrt(3)/2 * sqrt(1-x^2)
        assert table[1 * 4 + 1] == pytest.approx(-math.sqrt(0.75) * math.sqrt(1 - x * x))
        # P~_2^0 = sqrt(5/2) * (3x^2-1)/2
        assert table[2 * 4 + 0] == pytest.approx(math.sqrt(2.5) * 0.5 * (3 * x * x - 1))

    def test_high_order_vs_mpmath(self):
        # sectoral seed is where double precision decays fastest
        x = 0.99
        got = assoc_legendre_table(51, x)[50 * 51 + 50]
        want = legendre_high_precision(50, 50, x)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_mid_degree_vs_mpmath(self):
        for ell, m, x in [(80, 3, -0.4), (120, 60, 0.1), (40, 40, 0.999)]:
            got = assoc_legendre_table(ell + 1, x)[ell * (ell + 1) + m]
            want = legendre_high_precision(ell, m, x)
            assert abs(got - want) < 1e-11 * max(abs(want), 1e-300), (ell, m, x)


class TestStreamedTables:
    @pytest.mark.parametrize("L", [1, 2, 3, 7, 64, 257, 300])
    def test_plan_tables_match_per_order_loop_bit_for_bit(self, L):
        # odd L, a last partial block of orders (L = 257), cached and streamed plans
        plan = SpherePlan(L)
        nodes = plan.rule.nodes
        orders = []
        for m, table in plan.tables():
            orders.append(m)
            assert np.array_equal(table, legendre_per_order(L, m, nodes)), (L, m)
        assert orders == list(range(L))
        for m in {0, L // 2, L - 1}:
            assert np.array_equal(legendre_matrix(L, m, nodes), legendre_per_order(L, m, nodes))

    def test_streamed_plan_vs_mpmath_at_block_boundaries(self):
        L = 300
        assert L > SpherePlan._CACHE_LIMIT
        plan = SpherePlan(L)
        nodes = plan.rule.nodes
        tables = dict(plan.tables())
        step = sphere_harmonics._LEGENDRE_BLOCK_BYTES // (8 * L * (L - L // 2))
        assert 1 < step < L
        starts = range(step, L, step)
        compensated = 0
        for m in sorted({0, *starts, *(m0 - 1 for m0 in starts)}):
            # the node nearest the pole, where the sectoral seed of large m passes
            # through the 1e-250 compensation, and a mid-latitude node
            for i in (L - 1, 3 * L // 4):
                x = nodes[i]
                want = legendre_column_high_precision(L, m, x, dps=40)
                # relative to the largest |value| at this degree or below: fully
                # relative while a column grows, scaled to its peak past it.
                # sqrt(1 - x^2) carries a relative error up to about
                # eps / (2 (1 - x^2)), which the seed raises to the power m
                # (measured: 0.12 m eps / (1 - x^2) at the polar node).
                tol = 1e-11 + m * np.finfo(float).eps / (1.0 - x * x)
                envelope = np.maximum.accumulate(np.abs(want))
                err = np.abs(tables[m][:, i] - want)
                assert np.all(err <= tol * envelope + 1e-300), (m, i)
                compensated += np.count_nonzero((envelope > 1e-300) & (envelope < 1e-250))
        assert compensated > 0
        # the last order at every node, from underflow near the pole to O(1)
        want = np.array([legendre_high_precision(L - 1, L - 1, x, dps=40) for x in nodes])
        got = tables[L - 1][0]
        assert want[-1] == 0.0 and got[-1] == 0.0
        tol = 1e-11 + (L - 1) * np.finfo(float).eps / (1.0 - nodes * nodes)
        assert np.all(np.abs(got - want) <= tol * np.abs(want) + 1e-300)

    @pytest.mark.parametrize("m", [260, 300])
    def test_rising_column_passes_both_rescales(self, m):
        # at theta = 0.1 the seed of these orders falls below 1e-250, and the
        # column rises to O(1) by l = 4095, so the stored values also pass 1e250
        L, x = 4096, math.cos(0.1)
        got = legendre_matrix(L, m, [x])[:, 0]
        assert np.array_equal(got, legendre_per_order(L, m, [x])[:, 0])
        want = legendre_column_high_precision(L, m, x, dps=40)
        envelope = np.maximum.accumulate(np.abs(want))
        assert want[0] < 1e-250 and envelope[-1] > 1.0
        tol = 1e-11 + m * np.finfo(float).eps / (1.0 - x * x)
        assert np.all(np.abs(got - want) <= tol * envelope + 1e-300)


class TestTableGenerations:
    """How often the Legendre recurrence runs: once per plan up to the cache
    limit; past it once per inverse call and once per forward FFT block."""

    @pytest.fixture
    def generations(self, monkeypatch):
        calls = []
        real = sphere_harmonics._legendre_blocks

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sphere_harmonics, "_legendre_blocks", counting)
        return calls

    @staticmethod
    def coeffs(L, rows):
        rng = np.random.default_rng(L + rows)
        return rng.uniform(-1, 1, (rows, L * L)) + 1j * rng.uniform(-1, 1, (rows, L * L))

    def test_cached_plan_generates_once(self, generations):
        plan = SpherePlan(8)
        c = self.coeffs(8, 3)
        for _ in range(3):
            back = _sht_forward_batch(_sht_inverse_batch(c, plan), plan)
        assert len(generations) == 1
        assert np.max(np.abs(back - c)) < 1e-12

    def test_streamed_plan_generates_per_inverse_call_and_forward_block(
        self, generations, monkeypatch
    ):
        L, rows = 8, 7
        monkeypatch.setattr(SpherePlan, "_CACHE_LIMIT", L - 1)
        # 7 rows in blocks of 3: three forward FFT blocks
        monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 3 * 16 * L * (2 * L - 1))
        plan = SpherePlan(L)
        c = self.coeffs(L, rows)
        for call in range(1, 3):
            grids = _sht_inverse_batch(c, plan)
            assert len(generations) == 4 * call - 3
            back = _sht_forward_batch(grids, plan)
            assert len(generations) == 4 * call
        assert np.max(np.abs(back - c)) < 1e-12


class TestForwardBatchInput:
    def test_list_and_stacked_grids_agree_bit_for_bit(self, monkeypatch):
        # 7 grids in FFT blocks of 3: the last block holds a single grid
        L, rows = 8, 7
        monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 3 * 16 * L * (2 * L - 1))
        rng = np.random.default_rng(31)
        c = rng.uniform(-1, 1, (rows, L * L)) + 1j * rng.uniform(-1, 1, (rows, L * L))
        plan = SpherePlan(L)
        grids = _sht_inverse_batch(c, plan)
        stacked = _sht_forward_batch(grids, plan)
        assert np.array_equal(_sht_forward_batch(list(grids), plan), stacked)
        assert np.max(np.abs(stacked - c)) < 1e-12


class TestAgainstNaiveTransform:
    @pytest.mark.parametrize("L", [1, 2, 4, 8])
    def test_forward_matches_quadruple_sum(self, L):
        rng = np.random.default_rng(100 + L)
        thetas, phis = sphere_sampling(L)
        values = rng.uniform(-1, 1, (L, 2 * L - 1)) + 1j * rng.uniform(-1, 1, (L, 2 * L - 1))
        fast = sht_forward(SphereGrid(L, values)).coeffs
        slow = naive_sht_forward(values, L)
        assert np.max(np.abs(fast - slow)) < 1e-11

    def test_inverse_matches_direct_synthesis(self):
        L = 8
        rng = np.random.default_rng(7)
        c = random_coeffs(L, rng)
        fast = sht_inverse(c).values
        slow = naive_sht_inverse(c.coeffs, L)
        assert np.max(np.abs(fast - slow)) < 1e-11

    def test_single_harmonic_delta(self):
        # synthesizing Y_5^3 then analyzing must return the Kronecker delta
        L = 16
        c = np.zeros(L * L, dtype=np.complex128)
        c[coeff_index(5, 3)] = 1.0
        out = sht_forward(sht_inverse(SphereCoeffs(L, c))).coeffs
        assert abs(out[coeff_index(5, 3)] - 1.0) < 1e-13
        out[coeff_index(5, 3)] = 0.0
        assert np.max(np.abs(out)) < 1e-13


class TestRoundTrips:
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 8, 16, 32, 64, 128])
    def test_coeff_roundtrip(self, L):
        for seed in range(20):
            rng = np.random.default_rng(1000 * L + seed)
            c = random_coeffs(L, rng)
            back = sht_forward(sht_inverse(c)).coeffs
            rel = np.max(np.abs(back - c.coeffs)) / np.max(np.abs(c.coeffs))
            assert rel < 1e-11, (L, seed, rel)

    def test_constant_field(self):
        L = 12
        grid = SphereGrid(L, np.ones((L, 2 * L - 1), dtype=np.complex128))
        c = sht_forward(grid).coeffs
        assert c[0] == pytest.approx(math.sqrt(4 * math.pi))
        assert np.max(np.abs(c[1:])) < 1e-13

    def test_cos_theta_field(self):
        L = 12
        thetas, _ = sphere_sampling(L)
        values = np.cos(thetas)[:, None] * np.ones((1, 2 * L - 1))
        c = sht_forward(SphereGrid(L, values.astype(np.complex128))).coeffs
        assert c[coeff_index(1, 0)] == pytest.approx(math.sqrt(4 * math.pi / 3))


class TestAccuracyEnvelope:
    # The round-trip error grows about linearly in L.  Measured (BLAS on one
    # thread) as c = err / (eps L), the worst over 20 seeds was 3.2 at L = 64,
    # 4.0 at L = 128 and 3.5 at L = 256, and 3.05 over 3 seeds at L = 512
    # (2.84 at L = 1024); C = 12 leaves a margin of 3x over the largest.
    C = 12.0

    @pytest.mark.parametrize(
        "L, seeds",
        [(64, 5), (256, 3), (512, 1), pytest.param(1024, 1, marks=pytest.mark.slow)],
    )
    def test_roundtrip_error_within_c_eps_L(self, L, seeds):
        for seed in range(seeds):
            rng = np.random.default_rng(1000 * L + seed)
            c = random_coeffs(L, rng)
            back = sht_forward(sht_inverse(c)).coeffs
            rel = np.max(np.abs(back - c.coeffs)) / np.max(np.abs(c.coeffs))
            assert rel <= self.C * np.finfo(float).eps * L, (L, seed, rel)


class TestParseval:
    def test_energy_identity(self):
        L = 24
        rng = np.random.default_rng(42)
        c = random_coeffs(L, rng)
        grid = sht_inverse(c)
        from flaglets.quadrature import gauss_legendre

        w = gauss_legendre(L).weights
        dphi = 2 * np.pi / (2 * L - 1)
        grid_energy = float(np.sum(w[:, None] * np.abs(grid.values) ** 2) * dphi)
        coeff_energy = float(np.sum(np.abs(c.coeffs) ** 2))
        assert abs(grid_energy - coeff_energy) < 1e-10 * coeff_energy


class TestRealFields:
    def test_conjugate_symmetric_coeffs_give_real_field(self):
        L = 16
        rng = np.random.default_rng(5)
        c = np.zeros(L * L, dtype=np.complex128)
        for ell in range(L):
            c[coeff_index(ell, 0)] = rng.uniform(-1, 1)
            for m in range(1, ell + 1):
                v = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                c[coeff_index(ell, m)] = v
                c[coeff_index(ell, -m)] = (-1) ** m * np.conj(v)
        values = sht_inverse(SphereCoeffs(L, c)).values
        assert np.max(np.abs(values.imag)) < 1e-12


class TestValidation:
    def test_rejects_bad_band_limit(self):
        with pytest.raises(ValueError):
            SphereGrid(0, np.zeros((0, 0)))
        with pytest.raises(ValueError):
            SphereCoeffs(-1, np.zeros(1))

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            SphereGrid(4, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            SphereCoeffs(4, np.zeros(15, dtype=np.complex128))

    def test_single_point_oracle(self):
        # conjugation symmetry Y_l^{-m} = (-1)^m conj(Y_l^m) at the same point
        v = ylm_point(8, 3, -2, 1.1, 0.7)
        w = ylm_point(8, 3, 2, 1.1, 0.7)
        assert v == pytest.approx(np.conj(w))
