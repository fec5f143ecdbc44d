"""Exact spherical harmonic transform on the Gauss-Legendre grid."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from flaglets import sphere_harmonics
from flaglets.sphere_harmonics import (
    MAX_BAND_LIMIT,
    SphereCoeffs,
    SphereGrid,
    SpherePlan,
    _fft_block_grids,
    _is_hermitian,
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
    direct_sht_forward,
    direct_sht_inverse,
    hermitian_coeffs,
    legendre_column_high_precision,
    legendre_high_precision,
    legendre_per_order,
    naive_sht_forward,
    naive_sht_inverse,
    ylm_point,
)


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


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
    @pytest.mark.parametrize("L", [1, 2, 3, 7, 64, 257, 288, 300, 513])
    def test_plan_tables_match_per_order_loop_bit_for_bit(self, L):
        # odd L, cached blocks of orders with a last partial block, and past the
        # cache all-order tiles whose depth divides neither 257 nor 513; tiles
        # hold the half nodes x >= 0 and are zero past degree L - 1.  Each
        # order's column is hashed tile by tile, so no pass is held whole
        plan = SpherePlan(L)
        half_nodes = plan.rule.nodes[L // 2 :]
        columns = [hashlib.sha256() for _ in range(L)]
        for m0, k0, tile, _ in plan.tables():
            assert tile.shape[2] == L - L // 2
            for m, rows in enumerate(tile, start=m0):
                assert m + k0 < L, (L, m, k0)  # an order leaves once past L - 1
                columns[m].update(rows[: L - m - k0].tobytes())
                assert not rows[L - m - k0 :].any(), (L, m, k0)
        for m, column in enumerate(columns):
            want = hashlib.sha256(legendre_per_order(L, m, half_nodes).tobytes())
            assert column.digest() == want.digest(), (L, m)
        nodes = plan.rule.nodes
        for m in {0, L // 2, L - 1}:
            assert np.array_equal(legendre_matrix(L, m, nodes), legendre_per_order(L, m, nodes))

    def test_cached_blocks_hold_half_nodes_only(self):
        # full-node tables at L = 256 take 67.4 MB; the folded blocks about half,
        # plus the zero rows past degree L - 1 in each block of 8 orders
        plan = SpherePlan(256)
        nbytes = sum(block.nbytes for _, _, block, _ in plan.tables())
        assert nbytes <= 36e6
        assert all(k0 == 0 for _, k0, _, _ in plan.tables())
        assert all(a is b for (_, _, a, _), (_, _, b, _) in zip(plan.tables(), plan.tables()))

    def test_streamed_plan_holds_no_per_order_arrays(self):
        # past the cache a plan keeps O(L) arrays: its tiles and their index
        # maps are made per pass (the maps alone would be 12 MiB at L = 1024)
        L = 1024
        assert L > SpherePlan._CACHE_LIMIT
        tracemalloc.start()
        try:
            plan = SpherePlan(L)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 64 * L * 8
        depth = sphere_harmonics._LEGENDRE_TILE_DEPTH
        m0, k0, tile, maps = next(plan.tables())
        assert (m0, k0, tile.shape) == (0, 0, (L, depth, L // 2))
        assert [index.shape for index, *_ in maps] == [(L, depth // 2, 2)] * 2

    def test_streamed_plan_vs_mpmath_at_block_boundaries(self):
        # every order crosses every tile boundary k0 of a streamed pass: whole
        # columns of the first and last orders, of middle orders and of orders
        # whose seed passes through the 1e-250 compensation at the polar node
        L = 300
        assert L > SpherePlan._CACHE_LIMIT
        depth = sphere_harmonics._LEGENDRE_TILE_DEPTH
        plan = SpherePlan(L)
        half_nodes = plan.rule.nodes[L // 2 :]
        # the node nearest the pole and a mid-latitude node
        nodes = [len(half_nodes) - 1, 3 * L // 4 - L // 2]
        orders = sorted({0, 1, 2, 3, L // 2, 200, 250, L - depth - 1, L - depth, *range(L - 3, L)})
        got = {m: np.empty((L - m, len(nodes))) for m in orders}
        starts = []
        for m0, k0, tile, _ in plan.tables():
            starts.append(k0)
            for m in orders:
                if m0 <= m < m0 + tile.shape[0]:
                    rows = tile[m - m0, : L - m - k0]
                    got[m][k0 : k0 + len(rows)] = rows[:, nodes]
        assert starts == list(range(0, L, depth))
        compensated = 0
        for m in orders:
            for col, j in enumerate(nodes):
                x = half_nodes[j]
                want = legendre_column_high_precision(L, m, x, dps=40)
                # relative to the largest |value| at this degree or below: fully
                # relative while a column grows, scaled to its peak past it.
                # sqrt(1 - x^2) carries a relative error up to about
                # eps / (2 (1 - x^2)), which the seed raises to the power m
                # (measured: 0.12 m eps / (1 - x^2) at the polar node).
                tol = 1e-11 + m * np.finfo(float).eps / (1.0 - x * x)
                envelope = np.maximum.accumulate(np.abs(want))
                err = np.abs(got[m][:, col] - want)
                assert np.all(err <= tol * envelope + 1e-300), (m, j)
                compensated += np.count_nonzero((envelope > 1e-300) & (envelope < 1e-250))
        assert compensated > 0
        # the last order at every node, from underflow near the pole to O(1)
        want = np.array([legendre_high_precision(L - 1, L - 1, x, dps=40) for x in half_nodes])
        _, _, tile, _ = next(plan.tables())  # all orders, degrees from k0 = 0
        last = tile[L - 1, 0]
        assert want[-1] == 0.0 and last[-1] == 0.0
        tol = 1e-11 + (L - 1) * np.finfo(float).eps / (1.0 - half_nodes * half_nodes)
        assert np.all(np.abs(last - want) <= tol * np.abs(want) + 1e-300)

    @pytest.mark.parametrize("m", [25, 150])
    def test_polar_node_sine_keeps_full_accuracy(self, m):
        # at the polar node of L = 300, 1 - x^2 = 8.5e-5 cancels 4 digits; the
        # sine sqrt((1 - x)(1 + x)) does not, so no m eps / (1 - x^2) allowance
        L = 300
        x = SpherePlan(L).rule.nodes[-1]
        want = legendre_column_high_precision(L, m, x, dps=40)
        envelope = np.maximum.accumulate(np.abs(want))
        got = legendre_matrix(L, m, [x])[:, 0]
        assert np.all(np.abs(got - want) <= 1e-12 * envelope + 1e-300)

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
        real = sphere_harmonics._legendre_tiles

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sphere_harmonics, "_legendre_tiles", counting)
        return calls

    @staticmethod
    def coeffs(L, rows):
        rng = np.random.default_rng(L + rows)
        return rng.uniform(-1, 1, (rows, L * L)) + 1j * rng.uniform(-1, 1, (rows, L * L))

    def test_cached_plan_generates_once(self, generations):
        plan = SpherePlan(8)
        c = self.coeffs(8, 3)
        for _ in range(3):
            back = _sht_forward_batch(_sht_inverse_batch(c, plan, False), plan)
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
            grids = _sht_inverse_batch(c, plan, False)
            assert len(generations) == 4 * call - 3
            back = _sht_forward_batch(grids, plan)
            assert len(generations) == 4 * call
        assert np.max(np.abs(back - c)) < 1e-12


class TestStreamedWorkSpace:
    @pytest.mark.slow
    def test_one_row_passes_hold_about_three_grids(self):
        # past the cache a pass holds a tile of 4 depth L^2 bytes, the
        # recurrence state and, forward, the weighted Fourier columns of every
        # order; all told about 3 grids beside the output
        L = 1024
        assert L > SpherePlan._CACHE_LIMIT
        grid_bytes = 16 * L * (2 * L - 1)
        plan = SpherePlan(L)
        c = random_coeffs(L, np.random.default_rng(1024)).coeffs[None]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grids = _sht_inverse_batch(c, plan, False)
            inverse = tracemalloc.get_traced_memory()[1] - start - grids.nbytes
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            back = _sht_forward_batch(grids, plan)
            forward = tracemalloc.get_traced_memory()[1] - start - back.nbytes
        finally:
            tracemalloc.stop()
        assert inverse <= 3 * grid_bytes, inverse / grid_bytes
        assert forward <= 3 * grid_bytes, forward / grid_bytes
        assert rel_err(back, c) <= 12 * np.finfo(float).eps * L


class TestForwardWorkSpace:
    def test_cached_forward_holds_its_block_of_columns_and_one_work_buffer(self):
        # at L = 32 one block of 32 grids holds every order's weighted columns
        # (1 MiB) and the work space for a fold chunk or the first tile's
        # projections and stored degrees (1 MiB): within 2% of the 2.37 MiB
        # that copying each block of orders' columns out of one FFT'd block of
        # rows took
        L, n = 32, 32
        rng = np.random.default_rng(32)
        grids = rng.uniform(-1, 1, (n, L, 2 * L - 1)) + 1j * rng.uniform(-1, 1, (n, L, 2 * L - 1))
        plan = SpherePlan(L)
        _sht_forward_batch(grids[:1], plan)  # keeps the plan's tables
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = _sht_forward_batch(grids, plan)
            transient = tracemalloc.get_traced_memory()[1] - start - out.nbytes
        finally:
            tracemalloc.stop()
        assert transient <= 1.02 * 2.37 * 2**20, transient / 2**20


class TestForwardBatchInput:
    def test_list_and_stacked_grids_agree_bit_for_bit(self, monkeypatch):
        # 7 grids in FFT blocks of 3: the last block holds a single grid
        L, rows = 8, 7
        monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 3 * 16 * L * (2 * L - 1))
        rng = np.random.default_rng(31)
        c = rng.uniform(-1, 1, (rows, L * L)) + 1j * rng.uniform(-1, 1, (rows, L * L))
        plan = SpherePlan(L)
        grids = _sht_inverse_batch(c, plan, False)
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

    @pytest.mark.parametrize("L", [1, 2, 3, 33])
    def test_batched_engine_matches_direct_sums(self, L):
        # odd L folds the x = 0 node onto itself; L = 33 is one block of orders
        rng = np.random.default_rng(200 + L)
        plan = SpherePlan(L)
        c = rng.uniform(-1, 1, (3, L * L)) + 1j * rng.uniform(-1, 1, (3, L * L))
        grids = _sht_inverse_batch(c, plan, False)
        back = _sht_forward_batch(grids + 0.5j, plan)
        for row, grid, coeffs in zip(c, grids, back):
            assert rel_err(grid, direct_sht_inverse(row, L)) < 1e-13 * L
            assert rel_err(coeffs, direct_sht_forward(grid + 0.5j, L)) < 1e-13 * L

    @pytest.mark.parametrize("real", [False, True])
    def test_blocks_of_one_two_and_three_orders_match_direct_sums(self, monkeypatch, real):
        # a cached plan steps blocks of orders; 7 = 3 * 2 + 1 = 2 * 3 + 1 orders
        # leave a partial last block at two and three orders per block.  Real
        # rows and grids take the +m prefix of the same maps
        L = 7
        rng = np.random.default_rng(257)
        if real:
            c = hermitian_coeffs(rng, L, (2,))
            values = rng.uniform(-1, 1, (L, 2 * L - 1))
        else:
            c = rng.uniform(-1, 1, (2, L * L)) + 1j * rng.uniform(-1, 1, (2, L * L))
            values = rng.uniform(-1, 1, (L, 2 * L - 1)) + 1j * rng.uniform(-1, 1, (L, 2 * L - 1))
        grid_want = direct_sht_inverse(c[1], L)
        coeffs_want = direct_sht_forward(values, L)
        for orders in (1, 2, 3):
            per_order = 8 * L * (L - L // 2)
            monkeypatch.setattr(sphere_harmonics, "_LEGENDRE_BLOCK_BYTES", orders * per_order)
            plan = SpherePlan(L)
            starts = [(m0, k0) for m0, k0, _, _ in plan.tables()]
            assert starts == [(m, 0) for m in range(0, L, orders)]
            grids = _sht_inverse_batch(c, plan, real)
            assert grids.dtype == (np.float64 if real else np.complex128)
            assert rel_err(grids[1], grid_want) < 1e-13, orders
            coeffs = _sht_forward_batch([grids[0], values], plan)
            assert rel_err(coeffs[0], c[0]) < 1e-13, orders
            assert rel_err(coeffs[1], coeffs_want) < 1e-13, orders

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("L", [8, 9])
    @pytest.mark.parametrize("depth", [1, 2, 3, 5, None])
    def test_streamed_tiles_match_direct_sums(self, monkeypatch, L, depth, real):
        # all-order tiles past the cache, at depths that alternate the parity of
        # k0 (1, 3, 5), do not divide L, or (the module's depth) hold every degree;
        # Hermitian rows and real grids take the +m prefix of each tile's maps
        monkeypatch.setattr(SpherePlan, "_CACHE_LIMIT", L - 1)
        if depth is not None:
            monkeypatch.setattr(sphere_harmonics, "_LEGENDRE_TILE_DEPTH", depth)
        depth = sphere_harmonics._LEGENDRE_TILE_DEPTH
        # forward blocks of 2 grids: each forward block and an inverse of up to
        # 2 rows step every order at once; an inverse of 3 rows, blocks of orders
        monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 2 * 16 * L * (2 * L - 1))
        plan = SpherePlan(L)
        tiles = [(m0, k0, tile.shape[0]) for m0, k0, tile, _ in plan.tables(2)]
        assert tiles == [(0, k0, L - k0) for k0 in range(0, L, depth)]
        assert {k0 for _, k0, _, _ in plan.tables(3)} == {0}
        rng = np.random.default_rng(10 * L + depth)
        if real:
            c, shift = hermitian_coeffs(rng, L, (3,)), 0.5
        else:
            c, shift = rng.uniform(-1, 1, (3, L * L)) + 1j * rng.uniform(-1, 1, (3, L * L)), 0.5j
        tiled = _sht_inverse_batch(c[:2], plan, real)
        grids = _sht_inverse_batch(c, plan, real)
        assert grids.dtype == (np.float64 if real else np.complex128)
        back = _sht_forward_batch(grids + shift, plan)
        for row, grid, coeffs in zip(c, grids, back):
            assert rel_err(grid, direct_sht_inverse(row, L)) < 1e-13 * L
            assert rel_err(coeffs, direct_sht_forward(grid + shift, L)) < 1e-13 * L
        for row, grid in zip(c, tiled):
            assert rel_err(grid, direct_sht_inverse(row, L)) < 1e-13 * L

    @pytest.mark.parametrize("L", [257, 300])
    def test_all_order_tiles_match_blocks_of_orders_past_the_cache(self, L):
        # one FFT block of rows steps every order in tiles of a few degrees and
        # sums them across tiles; one row more steps blocks of all their degrees
        plan = SpherePlan(L)
        rows = _fft_block_grids(L)
        assert plan._tile_shape(rows)[0] == L and plan._tile_shape(rows + 1)[1] == L
        rng = np.random.default_rng(L)
        c = rng.uniform(-1, 1, (rows + 1, L * L)) + 1j * rng.uniform(-1, 1, (rows + 1, L * L))
        tiled = _sht_inverse_batch(c[:rows], plan, False)
        blocked = _sht_inverse_batch(c, plan, False)[:rows]
        assert rel_err(tiled, blocked) <= 1e-14

    @pytest.mark.parametrize("L", [8, 9])
    @pytest.mark.parametrize("grids", [1, 3])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_fold_chunks_of_cached_plans_match_direct_sums(self, monkeypatch, L, grids, rows):
        # chunks of 1, 2 or 3 folded rows straddle the boundary between the
        # L - L // 2 sum rows and the difference rows, at even and odd L
        assert L <= SpherePlan._CACHE_LIMIT
        monkeypatch.setattr(sphere_harmonics, "_FOLD_CHUNK_BYTES", rows * 16 * (2 * L - 1) * grids)
        rng = np.random.default_rng(100 * L + 10 * grids + rows)
        shape = (grids, L, 2 * L - 1)
        values = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
        for grid, coeffs in zip(values, _sht_forward_batch(values, SpherePlan(L))):
            assert rel_err(coeffs, direct_sht_forward(grid, L)) < 1e-13 * L

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
        assert values.dtype == np.float64

    def test_hermitian_detection(self):
        L = 5
        rng = np.random.default_rng(55)
        assert _is_hermitian(np.zeros(L * L, dtype=np.complex128), L)  # zeros are real
        c = hermitian_coeffs(rng, L, (3,))
        c[1, 0] = complex(c[1, 0].real, -0.0)  # compared with ==: -0.0 is 0.0
        assert _is_hermitian(c, L)
        imaginary = c.copy()
        imaginary[2, coeff_index(3, 0)] += 1e-300j
        assert not _is_hermitian(imaginary, L)
        flipped = c.copy()
        flipped.view(np.uint64)[2, 2 * coeff_index(3, -2)] ^= 1  # last bit of one -m entry
        assert not _is_hermitian(flipped, L)
        nan = c.copy()
        nan[0, coeff_index(4, 1)] = nan[0, coeff_index(4, -1)] = complex(math.nan, 0.0)
        assert not _is_hermitian(nan, L)
        # the public transforms take the real path exactly on Hermitian input
        for coeffs, dtype in [(c[0], np.float64), (flipped[2], np.complex128)]:
            assert sht_inverse(SphereCoeffs(L, coeffs)).values.dtype == dtype

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 32, 33, 257, 300])
    def test_real_path_matches_complex_path_and_direct_sums(self, L):
        # odd L folds the x = 0 node onto itself; past the table cache (257,
        # 300) a one-row inverse and forward step all-order streamed tiles
        rng = np.random.default_rng(300 + L)
        c = hermitian_coeffs(rng, L)
        grid = sht_inverse(SphereCoeffs(L, c)).values
        assert grid.dtype == np.float64
        assert rel_err(grid, _sht_inverse_batch(c, SpherePlan(L), False)) <= 1e-14
        oracle = (naive_sht_inverse, naive_sht_forward) if L <= 7 else (
            direct_sht_inverse, direct_sht_forward
        )
        assert rel_err(grid, oracle[0](c, L)) < 1e-13 * L
        coeffs = sht_forward(SphereGrid(L, grid)).coeffs
        assert _is_hermitian(coeffs, L)  # exactly, by construction
        assert rel_err(coeffs, sht_forward(SphereGrid(L, grid + 0j)).coeffs) <= 1e-14
        assert rel_err(coeffs, oracle[1](grid, L)) < 1e-13 * L
        assert rel_err(coeffs, c) <= 12 * np.finfo(float).eps * L

    def test_real_pass_of_a_cached_plan_keeps_no_second_set_of_maps(self):
        # one set of maps per tile serves both signal paths: the first real
        # forward on a plan that a complex one filled keeps only its output
        # (a second, +m-only set of maps kept 20 kB more at L = 64)
        L = 64
        rng = np.random.default_rng(64)
        plan = SpherePlan(L)
        _sht_forward_batch([rng.uniform(-1, 1, (L, 2 * L - 1)) + 0j], plan)
        grid = rng.uniform(-1, 1, (L, 2 * L - 1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = _sht_forward_batch([grid], plan)
            kept = tracemalloc.get_traced_memory()[0] - start - out.nbytes
        finally:
            tracemalloc.stop()
        assert kept < 4096, kept
        assert rel_err(out, direct_sht_forward(grid, L)) < 1e-13 * L

    @pytest.mark.parametrize("L", [257, 300])
    def test_real_rows_past_one_block_step_blocks_of_orders(self, L):
        plan = SpherePlan(L)
        rows = _fft_block_grids(L) + 1
        assert plan._tile_shape(rows)[1] == L
        c = hermitian_coeffs(np.random.default_rng(L), L, (rows,))
        grids = _sht_inverse_batch(c, plan, True)
        assert grids.dtype == np.float64
        assert rel_err(grids, _sht_inverse_batch(c, plan, False)) <= 1e-14
        back = _sht_forward_batch(grids, plan)
        assert _is_hermitian(back, L)
        assert rel_err(back, _sht_forward_batch(grids + 0j, plan)) <= 1e-14


class TestValidation:
    def test_rejects_bad_band_limit(self):
        with pytest.raises(ValueError):
            SphereGrid(0, np.zeros((0, 0)))
        with pytest.raises(ValueError):
            SphereCoeffs(-1, np.zeros(1))
        # L = 4.0 used to construct a grid and fail inside the engine
        for L in (4.0, np.float64(4), 4.5, True):
            with pytest.raises(ValueError, match="band limit must be an integer"):
                SphereGrid(L, np.zeros((4, 7)))
            with pytest.raises(ValueError, match="band limit must be an integer"):
                SphereCoeffs(L, np.zeros(16))
        c = np.arange(16, dtype=np.complex128)
        assert np.array_equal(sht_inverse(SphereCoeffs(np.int64(4), c)).values,
                              sht_inverse(SphereCoeffs(4, c)).values)

    def test_narrow_integer_band_limits_are_kept_as_python_ints(self):
        # L * L of a uint8 20 wraps to 144; the checked value is stored as an int
        L = np.uint8(20)
        assert type(SphereCoeffs(L, np.zeros(400)).L) is int
        assert type(SphereGrid(L, np.zeros((20, 39))).L) is int
        with pytest.raises(ValueError, match="does not match"):
            SphereCoeffs(L, np.zeros(144))

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            SphereGrid(4, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            SphereCoeffs(4, np.zeros(15, dtype=np.complex128))

    @pytest.mark.parametrize("x", [1.5, -1.0000001, math.nan])
    def test_legendre_table_rejects_argument_outside_unit_interval(self, x):
        with pytest.raises(ValueError, match="must satisfy"):
            assoc_legendre_table(4, x)

    @pytest.mark.parametrize("L, m, x", [
        (0, 0, 0.5), (MAX_BAND_LIMIT + 1, 0, 0.5),  # band limit outside [1, 4096]
        (4, 4, 0.5), (4, -1, 0.5),  # order outside [0, L - 1]
        (4, 1, 2.0), (4, 1, -1.0000001), (4, 1, math.nan),  # |x| > 1 or NaN
    ])
    def test_legendre_matrix_checks_its_arguments(self, L, m, x):
        # m = L leaked StopIteration, m = -1 gave -inf and x = 2 zeros
        with pytest.raises(ValueError, match="must be in|must satisfy"):
            legendre_matrix(L, m, np.array([0.0, x]))

    def test_forward_rejects_plan_of_other_band_limit(self):
        grid = SphereGrid(8, np.ones((8, 15)))
        with pytest.raises(ValueError, match="plan band limit 9 .* band limit 8"):
            sht_forward(grid, SpherePlan(9))
        with pytest.raises(ValueError, match="plan band limit 7 .* band limit 8"):
            sht_forward(grid, SpherePlan(7))

    def test_inverse_rejects_plan_of_other_band_limit(self):
        coeffs = SphereCoeffs(8, np.ones(64))
        with pytest.raises(ValueError, match="plan band limit 9 .* band limit 8"):
            sht_inverse(coeffs, SpherePlan(9))
        with pytest.raises(ValueError, match="plan band limit 7 .* band limit 8"):
            sht_inverse(coeffs, SpherePlan(7))

    def test_single_point_oracle(self):
        # conjugation symmetry Y_l^{-m} = (-1)^m conj(Y_l^m) at the same point
        v = ylm_point(8, 3, -2, 1.1, 0.7)
        w = ylm_point(8, 3, 2, 1.1, 0.7)
        assert v == pytest.approx(np.conj(w))
