"""Exact spherical harmonic transform on the Gauss-Legendre grid."""

import gc
import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaglets import _buffers, sphere_harmonics
from flaglets.flag_transform import BandLimits, FlagCoeffs, flag_forward, flag_inverse
from flaglets.kernel_tiling import TilingParams, build_sphere_kernels
from flaglets.sphere_harmonics import (
    MAX_BAND_LIMIT,
    SphereCoeffs,
    SphereGrid,
    SpherePlan,
    _fft_block_grids,
    _is_hermitian,
    _sht_forward_batch,
    _sht_inverse_batch,
    _tile_geometry,
    assoc_legendre_table,
    coeff_index,
    get_plan,
    legendre_matrix,
    sht_forward,
    sht_inverse,
    sphere_sampling,
    window_coeffs,
)
from flaglets.sphere_wavelets import sphere_analyze, sphere_synthesize

from oracles import (
    direct_sht_forward,
    direct_sht_inverse,
    hermitian_coeffs,
    legendre_column_high_precision,
    legendre_high_precision,
    legendre_per_order,
    naive_sht_forward,
    naive_sht_inverse,
    per_row_is_hermitian,
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
        # cache groups of orders in tiles whose depth divides neither 257 nor
        # 513; tiles hold the half nodes x >= 0 and are zero past degree L - 1.  Each
        # order's column is hashed tile by tile, so no pass is held whole.  The
        # second pass reads the tables a cached plan kept, or steps from the
        # seeds and coefficients that a streamed plan keeps within its budget
        # (every L here past the cache keeps them).  Each pass yields the tiles
        # of the plan's one _tile_geometry
        plan = SpherePlan(L)
        half_nodes = plan.rule.nodes[L // 2 :]
        want = [
            hashlib.sha256(legendre_per_order(L, m, half_nodes).tobytes()).digest()
            for m in range(L)
        ]
        for _ in range(2):
            columns = [hashlib.sha256() for _ in range(L)]
            geometry = []
            for m0, k0, tile, _ in plan.tables():
                geometry.append((m0, k0, *tile.shape[:2]))
                assert tile.shape[2] == L - L // 2
                for m, rows in enumerate(tile, start=m0):
                    assert m + k0 < L, (L, m, k0)  # an order leaves once past L - 1
                    columns[m].update(rows[: L - m - k0].tobytes())
                    assert not rows[L - m - k0 :].any(), (L, m, k0)
            assert [column.digest() for column in columns] == want, L
            assert geometry == list(_tile_geometry(L, *plan._tile_shape()))
        assert bool(plan._streamed) == (L > SpherePlan._CACHE_LIMIT)
        assert sphere_harmonics._nbytes(plan._streamed) <= sphere_harmonics._FFT_BLOCK_BYTES
        nodes = plan.rule.nodes
        for m in {0, L // 2, L - 1}:
            assert np.array_equal(legendre_matrix(L, m, nodes), legendre_per_order(L, m, nodes))

    @pytest.mark.parametrize("L", [257, 288, 300, 513])
    def test_streamed_tiles_equal_the_cached_geometry_bit_for_bit(self, monkeypatch, L):
        # a one-row pass past the cache, groups of orders tiled in degrees,
        # gives the bytes of every (l, m, node) that the cached geometry's
        # blocks of orders with all their degrees give; those are stepped
        # without a plan keeping them (at L = 513 they would take 0.5 GB)
        plan = SpherePlan(L)
        nodes = plan.rule.nodes[L // 2 :]

        def columns(tiles):
            digests = [hashlib.sha256() for _ in range(L)]
            for m0, k0, tile, *_ in tiles:
                for m, rows in enumerate(tile, start=m0):
                    digests[m].update(rows[: L - m - k0].tobytes())
            return [d.digest() for d in digests]

        streamed = plan._tile_shape()
        assert streamed[0] < L and streamed[1] < L - streamed[0]
        got = columns(plan.tables())
        monkeypatch.setattr(SpherePlan, "_CACHE_LIMIT", L)
        cached = plan._tile_shape()
        assert cached[1] == L
        invariants = sphere_harmonics._pass_invariants(L, nodes, *cached)
        assert columns(sphere_harmonics._legendre_tiles(L, *cached, 0, invariants)) == got

    @pytest.mark.parametrize("L", [257, 300, 513])
    def test_streamed_tile_rows_are_single_blocks(self, monkeypatch, L):
        # past the cache the one reused tile buffer is degree-major, so every
        # step writes its row tile[:, k] as one block of orders by half nodes:
        # on the pass that keeps the tiling, one that steps from it, and on a
        # plan that keeps nothing
        plan, bare = SpherePlan(L), SpherePlan(L)
        keep_nothing(monkeypatch, bare)
        for p in (plan, plan, bare):
            tiles = list(p.tables())
            assert len(tiles) > 1 and all(t[2].base is tiles[0][2].base for t in tiles)
            for _, _, tile, _ in tiles:
                assert all(tile[:, k].flags.c_contiguous for k in range(tile.shape[1]))
        # the kept nodes for the recurrence's x u: the half nodes once per order
        orders, _ = plan._tile_shape()
        nodes = plan._streamed[0][2]
        assert nodes.shape == (orders, L - L // 2) and nodes.flags.c_contiguous
        assert np.array_equal(nodes, np.tile(plan.rule.nodes[L // 2 :], (orders, 1)))
        assert bare._streamed == ()

    @pytest.mark.parametrize("L", [7, 64, 256])
    def test_cached_tile_orders_are_single_blocks(self, L):
        # the tiles a cached plan keeps are order-major: each order's degrees
        # by half nodes are one block, which the engine's GEMMs read
        for _, _, tile, _ in SpherePlan(L).tables():
            assert tile.flags.c_contiguous and all(rows.flags.c_contiguous for rows in tile)

    @pytest.mark.parametrize("L, m", [(1, 0), (64, 3), (257, 0), (300, 299), (513, 17)])
    def test_legendre_matrix_is_one_c_contiguous_array(self, L, m):
        xs = np.linspace(-1.0, 1.0, 5)
        values = legendre_matrix(L, m, xs)
        assert values.shape == (L - m, 5) and values.flags.c_contiguous

    def test_cached_blocks_hold_half_nodes_only(self):
        # full-node tables at L = 256 take 67.4 MB; the folded blocks about half,
        # plus the zero rows past degree L - 1 in each block of 8 orders
        plan = SpherePlan(256)
        nbytes = sum(block.nbytes for _, _, block, _ in plan.tables())
        assert nbytes <= 36e6
        assert all(k0 == 0 for _, k0, _, _ in plan.tables())
        assert all(a is b for (_, _, a, _), (_, _, b, _) in zip(plan.tables(), plan.tables()))

    def test_streamed_plan_holds_no_per_order_arrays(self):
        # past the cache a plan is built with O(L) arrays: its tiles are made
        # per pass, and at L = 1024 so are their maps, seeds and coefficients,
        # which pass _FFT_BLOCK_BYTES: its first pass keeps nothing of them
        L = 1024
        assert L > SpherePlan._CACHE_LIMIT
        tracemalloc.start()
        try:
            plan = SpherePlan(L)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 64 * L * 8
        orders, depth = plan._tile_shape()
        base = plan.nbytes
        m0, k0, tile, maps = next(plan.tables())
        assert (m0, k0, tile.shape) == (0, 0, (orders, depth, L // 2))
        assert [index.shape for index, *_ in maps] == [(orders, depth // 2, 2)] * 2
        assert plan._streamed == () and plan.nbytes == base

    def test_streamed_plan_vs_mpmath_at_block_boundaries(self):
        # every order crosses every tile boundary k0 of its group in a streamed
        # pass: whole columns of the first and last orders, of the orders on
        # both sides of each group boundary, of middle orders and of orders
        # whose seed passes through the 1e-250 compensation at the polar node
        L = 300
        assert L > SpherePlan._CACHE_LIMIT
        plan = SpherePlan(L)
        group, depth = plan._tile_shape()
        assert group < L and depth < L - group  # groups of orders, of several tiles
        half_nodes = plan.rule.nodes[L // 2 :]
        # the node nearest the pole and a mid-latitude node
        nodes = [len(half_nodes) - 1, 3 * L // 4 - L // 2]
        edges = {m0 + i for m0 in range(group, L, group) for i in (-1, 0)}
        ends = {0, 1, 2, 3, L - depth - 1, L - depth, *range(L - 3, L)}
        orders = sorted({L // 2, 200, 250, *edges, *ends})
        # the first pass, then one stepped from the seeds and coefficients it kept
        passes = []
        for _ in range(2):
            got = {m: np.empty((L - m, len(nodes))) for m in orders}
            starts = []
            for m0, k0, tile, _ in plan.tables():
                starts.append((m0, k0))
                for m in orders:
                    if m0 <= m < m0 + tile.shape[0]:
                        rows = tile[m - m0, : L - m - k0]
                        got[m][k0 : k0 + len(rows)] = rows[:, nodes]
            assert starts == [tile[:2] for tile in _tile_geometry(L, group, depth)]
            passes.append(got)
        assert plan._streamed
        first, got = passes
        assert all(np.array_equal(first[m], got[m]) for m in orders)
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
        # the last group's tile from k0 = 0
        last = next(tile[-1, 0] for m0, _, tile, _ in plan.tables() if m0 + len(tile) == L)
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
    limit; past it once per inverse share (one per usable core, never more
    than the call's FFT blocks, TestShares), whatever its rows, and once per
    forward FFT block, in groups of orders tiled in degrees, while the maps,
    seeds and coefficients around it are made once (TestStreamedInvariants)."""

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
        # FFT blocks of one grid: 3 rows make three forward blocks, and on w
        # workers min(w, 3) inverse shares, each one pass over groups of 3
        # orders in tiles of 5 degrees, which holds each group's sums for the
        # blocks of rows of its share
        L, rows = 8, 3
        stream_tiles(monkeypatch, L, 3, 5)
        plan = SpherePlan(L)
        assert [t[:2] for t in plan.tables()] == [(0, 0), (0, 5), (3, 0), (6, 0)]
        c = self.coeffs(L, rows)
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            shares = min(workers, rows)
            per_call = 1 + shares + rows
            generations.clear()
            for call in range(1, 3):
                tiled = _sht_inverse_batch(c[:1], plan, False)
                assert len(generations) == per_call * (call - 1) + 1
                grids = _sht_inverse_batch(c, plan, False)
                assert len(generations) == per_call * (call - 1) + 1 + shares
                back = _sht_forward_batch(grids, plan)
                assert len(generations) == per_call * call
            assert np.max(np.abs(back - c)) < 1e-12
            assert tiled.tobytes() == grids[:1].tobytes()


def set_workers(monkeypatch, workers):
    """Run the engine as if the process could use `workers` cores."""
    monkeypatch.setattr(sphere_harmonics, "_usable_cores", lambda: workers)


def stream_tiles(monkeypatch, L, orders, depth):
    """Set the byte constants so that a plan past the cache at L steps groups
    of `orders` orders in tiles of `depth` degrees, with FFT blocks of one
    grid (8 orders n depth bytes of tile, less than a grid, on the
    n = L - L // 2 half nodes, and 64 n bytes of inverse sums per order)."""
    n = L - L // 2
    monkeypatch.setattr(SpherePlan, "_CACHE_LIMIT", L - 1)
    monkeypatch.setattr(sphere_harmonics, "_LEGENDRE_BLOCK_BYTES", 64 * n * orders)
    monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 8 * orders * n * depth)
    assert _fft_block_grids(L) == 1 and SpherePlan(L)._tile_shape() == (orders, depth)


def count_calls(monkeypatch, *targets):
    """Count the calls of each (owner, name) of `targets`, by name."""
    counts = {}
    for owner, name in targets:
        counts[name] = 0

        def counting(*args, real=getattr(owner, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counting)
    return counts


def keep_nothing(monkeypatch, plan):
    """Make `plan` decide to keep nothing of its tiling past the cache, as a
    plan whose invariants pass _FFT_BLOCK_BYTES does."""
    monkeypatch.setattr(plan, "_kept_tiling", lambda nodes, orders, depth: ())


def tile_digests(plan):
    """(m0, k0, orders, degrees) and the SHA-256 of every tile and of its maps
    in a pass of plan.tables()."""
    digests = []
    for m0, k0, tile, maps in plan.tables():
        d = hashlib.sha256(np.array([m0, k0, *tile.shape]).tobytes() + tile.tobytes())
        for index, valid, dest, plus in maps:
            d.update(index.tobytes() + valid.tobytes() + dest.tobytes() + bytes([plus % 256]))
        digests.append((m0, k0, *tile.shape[:2], d.digest()))
    return digests


class TestStreamedInvariants:
    """Past the table cache a plan makes the tiles' maps, the sectoral seeds
    and the recurrence coefficients from its one _tile_geometry before its
    first pass, tile by tile, and keeps them while their bytes stay within
    _FFT_BLOCK_BYTES (_kept_tiling); every pass, for any number of rows, then
    only steps the recurrence, and yields the same tiles and maps bit for
    bit.  A plan whose invariants pass the budget keeps nothing and decides
    so once."""

    L = 24

    @pytest.fixture
    def counts(self, monkeypatch):
        # streamed at L = 24 in FFT blocks of 3 grids: groups of 16 orders
        # (16 x 64 n x 3 bytes of sums on the n = 12 half nodes) in tiles of
        # 11 degrees (188 // 16), from k0 = 0, 11 and 22 and then m0 = 16
        L, n = self.L, self.L - self.L // 2
        monkeypatch.setattr(SpherePlan, "_CACHE_LIMIT", L - 1)
        monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 3 * 16 * L * (2 * L - 1))
        monkeypatch.setattr(sphere_harmonics, "_LEGENDRE_BLOCK_BYTES", 16 * 64 * n * 3)
        return count_calls(
            monkeypatch,
            (sphere_harmonics, "_legendre_tiles"),
            (sphere_harmonics, "_sectoral_seeds"),
            (SpherePlan, "_tile_maps"),
        )

    def test_maps_and_seeds_are_made_once_per_tiling(self, counts, monkeypatch):
        # the one tiling serves every pass: an inverse of more rows than an
        # FFT block steps it once per share (2 of its 3 blocks of rows on 2
        # workers) and keeps nothing more
        workers = 2
        set_workers(monkeypatch, workers)
        plan = SpherePlan(self.L)
        assert plan._tile_shape() == (16, 11)
        base = plan.nbytes
        first = tile_digests(plan)
        kept = plan.nbytes - base
        # a pass yields the tiles of the plan's geometry, and keeping the
        # tiling adds at most the budget to the plan's bytes
        assert [t[:4] for t in first] == list(_tile_geometry(self.L, 16, 11))
        assert len(first) == 4
        assert 0 < kept <= sphere_harmonics._FFT_BLOCK_BYTES
        assert counts == {"_legendre_tiles": 1, "_sectoral_seeds": 1, "_tile_maps": 4}
        rows = 2 * _fft_block_grids(self.L) + 1
        c = np.random.default_rng(24).uniform(-1, 1, (rows, self.L**2)) + 0j
        for _ in range(2):
            assert tile_digests(plan) == first
            _sht_inverse_batch(c, plan, False)
        # the recurrence still steps once per pass: one for each tile_digests
        # and one for each of the inverse's shares
        passes = 1 + 2 * (1 + workers)
        assert counts == {"_legendre_tiles": passes, "_sectoral_seeds": 1, "_tile_maps": 4}
        assert plan.nbytes - base == kept

    def test_plan_past_its_budget_keeps_nothing(self, counts, monkeypatch):
        want = tile_digests(SpherePlan(self.L))  # kept within the default budget
        plan = SpherePlan(self.L)
        base = plan.nbytes
        # a decision to keep nothing (the budget also sizes the tiles, so the
        # decision moves instead of the budget)
        keep_nothing(monkeypatch, plan)
        counts.update(dict.fromkeys(counts, 0))
        for _ in range(3):
            assert tile_digests(plan) == want
        assert counts == {"_legendre_tiles": 3, "_sectoral_seeds": 3, "_tile_maps": 12}
        assert plan._streamed == () and plan.nbytes == base

    def test_plan_past_the_budget_decides_once(self, monkeypatch):
        # at L = 1024 the tiling's invariants pass _FFT_BLOCK_BYTES.  The first
        # pass makes them tile by tile until they do, then keeps nothing, and
        # no later pass tries again: each makes only its own seeds and maps as
        # it goes.  The decision comes before the first tile, so a pass's
        # first tile shows what it holds: at most the budget and one tile's
        # invariants more than a pass of a plan that has decided (measured
        # 9.87 MB on both)
        L = 1024
        plan = SpherePlan(L)
        orders, depth = plan._tile_shape()
        nodes = plan.rule.nodes[L // 2 :]
        one_tile = sphere_harmonics._nbytes((
            next(sphere_harmonics._sectoral_seeds(L, nodes, orders, 0)),
            sphere_harmonics._recurrence_coeffs(0, 0, orders, depth),
            plan._tile_maps(0, 0, orders, depth),
        ))
        counts = count_calls(
            monkeypatch,
            (SpherePlan, "_kept_tiling"),
            (sphere_harmonics, "_sectoral_seeds"),
            (SpherePlan, "_tile_maps"),
        )
        base = plan.nbytes

        def first_tile():
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            tiles = plan.tables()
            next(tiles)
            peak = tracemalloc.get_traced_memory()[1] - start
            tiles.close()
            return peak

        tracemalloc.start()
        try:
            deciding = first_tile()
            decided = dict(counts)
            bare = max(first_tile() for _ in range(2))
        finally:
            tracemalloc.stop()
        # the decision made its seeds and some tiles' maps, then the pass its own
        assert decided["_kept_tiling"] == 1 and decided["_sectoral_seeds"] == 2
        assert decided["_tile_maps"] > 2
        # each later pass: the seeds of its first group and its first tile's maps
        assert counts == {
            "_kept_tiling": 1,
            "_sectoral_seeds": decided["_sectoral_seeds"] + 2,
            "_tile_maps": decided["_tile_maps"] + 2,
        }
        assert plan._streamed == () and plan.nbytes == base
        assert deciding <= bare + sphere_harmonics._FFT_BLOCK_BYTES + one_tile, (deciding, bare)

    @pytest.mark.parametrize("cached", [False, True])
    def test_abandoned_first_pass_leaves_whole_tables(self, counts, monkeypatch, cached):
        # a kept tiling's invariants, and a cached plan's tiles and maps, are
        # all made before the first tile: a first pass abandoned after one tile
        # leaves them whole, and every later pass yields the same tiles
        if cached:
            monkeypatch.setattr(SpherePlan, "_CACHE_LIMIT", self.L)
        whole = SpherePlan(self.L)
        want = tile_digests(whole)
        plan = SpherePlan(self.L)
        counts.update(dict.fromkeys(counts, 0))
        tiles = plan.tables()
        next(tiles)
        tiles.close()
        # 2 blocks of orders with their maps, or the maps of 4 tiles of groups
        maps = 2 if cached else 4
        assert counts == {"_legendre_tiles": 1, "_sectoral_seeds": 1, "_tile_maps": maps}
        assert plan.nbytes == whole.nbytes
        assert bool(plan._streamed) != cached and (plan._tiles is not None) == cached
        for _ in range(2):
            assert tile_digests(plan) == want
        assert counts["_tile_maps"] == maps

    @pytest.mark.parametrize("L, streamed", [(16, 15), (288, None), (540, None)])
    @pytest.mark.parametrize("real", [False, True])
    def test_engine_passes_are_bit_identical(self, monkeypatch, L, streamed, real):
        # both directions on the first pass, on later passes of what it kept
        # and on a plan that keeps nothing; at L = 16, one row and 4 rows in
        # FFT blocks of 3, whose sums the inverse holds for both blocks.  L =
        # 540 keeps its invariants (7.56 MB), as bounding them by formula did not
        if streamed:
            monkeypatch.setattr(SpherePlan, "_CACHE_LIMIT", streamed)
            monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 3 * 16 * L * (2 * L - 1))
        assert L > SpherePlan._CACHE_LIMIT
        rng = np.random.default_rng(L)
        if real:
            c = hermitian_coeffs(rng, L, (4,))
        else:
            c = rng.uniform(-1, 1, (4, L * L)) + 1j * rng.uniform(-1, 1, (4, L * L))
        plan, bare = SpherePlan(L), SpherePlan(L)
        keep_nothing(monkeypatch, bare)
        for rows in (1, 4) if streamed else (1,):
            outputs = []
            for p in (plan, plan, plan, bare):
                grids = _sht_inverse_batch(c[:rows], p, real)
                outputs.append((grids.tobytes(), _sht_forward_batch(grids, p).tobytes()))
            assert outputs[1:] == outputs[:1] * 3, rows
        assert bare._streamed == () and plan._streamed

    @pytest.mark.slow
    def test_largest_kept_and_smallest_dropped_band_limit(self):
        # the invariants grow with L: the largest L whose tiling's invariants
        # fit in _FFT_BLOCK_BYTES keeps them (569, 8.36 MB), the next L keeps
        # nothing, and both yield the same tiles on every pass
        def keeps(L):
            plan = SpherePlan(L)
            next(plan.tables())  # decides, then yields the first tile
            return bool(plan._streamed)

        budget = sphere_harmonics._FFT_BLOCK_BYTES
        lo, hi = SpherePlan._CACHE_LIMIT + 1, MAX_BAND_LIMIT
        assert keeps(lo) and not keeps(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if keeps(mid) else (lo, mid)
        assert (lo, hi) == (569, 570)
        for L in (lo, hi):
            plan = SpherePlan(L)
            base = plan.nbytes
            c = random_coeffs(L, np.random.default_rng(L)).coeffs[None]
            first = tile_digests(plan)
            back = _sht_forward_batch(_sht_inverse_batch(c, plan, False), plan)
            assert tile_digests(plan) == first
            assert rel_err(back, c) <= 12 * np.finfo(float).eps * L
            kept = plan.nbytes - base
            assert (kept > 0) == (L == lo) and kept <= budget, (L, kept)


class TestStreamedWorkSpace:
    def test_one_row_table_pass_holds_one_tile(self, drain_recycler):
        # past the cache a pass steps groups of B orders in tiles of D degrees
        # in one reused buffer.  Its tracemalloc peak is one tile, 8 B D n bytes
        # on the n half nodes, at most _FFT_BLOCK_BYTES; plus 5 arrays of B n
        # doubles, each at most _LEGENDRE_BLOCK_BYTES / 8 (the scratch, the
        # recurrence state u_prev and u_cur, and at a group's start its seed
        # copy and first values beside the last group's state; measured 4.6);
        # plus what the first pass keeps of its tiling.  At L = 512 both are
        # at those bounds.  A tile of every order would be 4 times as large
        L = 512
        plan = SpherePlan(L)
        orders, depth = plan._tile_shape()
        n = L - L // 2
        tile, state = sphere_harmonics._FFT_BLOCK_BYTES, sphere_harmonics._LEGENDRE_BLOCK_BYTES // 8
        assert (8 * orders * depth * n, 8 * orders * n) == (tile, state)
        for _ in range(2):  # the first pass keeps the invariants, the second steps
            base = plan.nbytes
            drain_recycler()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                for _ in plan.tables():
                    pass
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            kept = plan.nbytes - base
            assert peak <= tile + 5 * state + kept, ((peak - kept - tile) / state, kept)
        assert kept == 0 and plan._streamed

    @pytest.mark.parametrize("L", [257, 300])
    def test_many_row_inverse_holds_a_group_of_sums_per_block_of_rows(
        self, L, drain_recycler, monkeypatch
    ):
        # an inverse of more rows than an FFT block, past the cache, holds
        # beside its output each group's sums for every block of rows, at most
        # _LEGENDRE_BLOCK_BYTES a block; and for each share (one per worker)
        # one tile, 8 B D n bytes on the n half nodes; the later tiles' GEMM
        # scratch of one parity of a group's sums for one block, half a
        # _LEGENDRE_BLOCK_BYTES; and the recurrence state and a tile's
        # gathered coefficients, within half a _LEGENDRE_BLOCK_BYTES (5 arrays
        # of B n doubles, as in test_one_row_table_pass_holds_one_tile).
        # Measured on one worker: 0.983 of the bound at L = 257 and 0.990 at
        # L = 300, 3 blocks each, the last of one row
        plan = SpherePlan(L)
        step = _fft_block_grids(L)
        rows = 2 * step + 1
        c = np.random.default_rng(L).uniform(-1, 1, (rows, L * L)) + 0j
        _sht_inverse_batch(c[:1], plan, False)  # keeps the plan's invariants
        orders, depth = plan._tile_shape()
        tile = 8 * orders * depth * (L - L // 2)
        legendre = sphere_harmonics._LEGENDRE_BLOCK_BYTES
        for workers in (1, 2):
            set_workers(monkeypatch, workers)
            drain_recycler()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                grids = _sht_inverse_batch(c, plan, False)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            blocks = -(-rows // step)
            scratch = legendre // 2
            bound = grids.nbytes + blocks * legendre + workers * (tile + scratch)
            bound += workers * (legendre // 2)
            assert peak <= bound, (workers, peak / bound)
            del grids

    @pytest.mark.slow
    def test_one_row_passes_hold_about_three_grids(self, drain_recycler):
        # past the cache a pass holds a tile of groups of orders tiled in
        # degrees (at most _FFT_BLOCK_BYTES), the recurrence state and,
        # forward, the weighted Fourier columns of every order; all told
        # about 3 grids beside the output
        L = 1024
        assert L > SpherePlan._CACHE_LIMIT
        grid_bytes = 16 * L * (2 * L - 1)
        plan = SpherePlan(L)
        c = random_coeffs(L, np.random.default_rng(1024)).coeffs[None]
        drain_recycler()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grids = _sht_inverse_batch(c, plan, False)
            inverse = tracemalloc.get_traced_memory()[1] - start - grids.nbytes
            drain_recycler()
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
    def test_cached_forward_holds_its_block_of_columns_and_one_work_buffer(self, drain_recycler):
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
        transients = []
        tracemalloc.start()
        try:
            # the same grids as one array and as a list, which is never stacked
            for batch in (grids, list(grids)):
                drain_recycler()
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                out = _sht_forward_batch(batch, plan)
                transients.append(tracemalloc.get_traced_memory()[1] - start - out.nbytes)
                del out
        finally:
            tracemalloc.stop()
        array, listed = transients
        assert array <= 1.02 * 2.37 * 2**20, array / 2**20
        # beyond the array's: at most the list slice's reference per grid of
        # a block, where an array's block is a view (measured 96 bytes)
        assert listed <= array + 8 * n, (listed, array)

    def test_windowed_sum_holds_one_block_of_coefficient_rows(self, monkeypatch, drain_recycler):
        # 12 grids in FFT blocks of 4: summing their windowed coefficients
        # holds what one block's call does, its 4 output rows included, plus
        # one row's window_coeffs temporaries (24 L^2 bytes; measured 2 KiB
        # over the block's 395 KiB), where returning all 12 rows holds 8 more
        L, n = 32, 12
        monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 4 * 16 * L * (2 * L - 1))
        rng = np.random.default_rng(12)
        grids = list(rng.uniform(-1, 1, (n, L, 2 * L - 1)))
        windows = rng.uniform(0, 1, (n, L))
        total = np.zeros(L * L, dtype=np.complex128)
        plan = SpherePlan(L)
        _sht_forward_batch(grids[:1], plan)  # keeps the plan's tables
        peaks = []
        tracemalloc.start()
        try:
            for args in ((grids[:4],), (grids, windows, total)):
                drain_recycler()
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                _sht_forward_batch(args[0], plan, *args[1:])
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        block, windowed = peaks
        assert windowed <= block + 24 * L * L, (windowed, block)


class TestRecycledWorkSpace:
    @pytest.mark.parametrize("rows, recycled", [(1, False), (3, True), (16, True), (17, False)])
    def test_a_grid_is_recycled_storage_past_a_fold_chunk_up_to_an_fft_block(self, rows, recycled):
        # at L = 128 one complex grid is 522,240 bytes, within
        # _FOLD_CHUNK_BYTES, 16 are 8,355,840 bytes, within _FFT_BLOCK_BYTES,
        # and 17 pass it: 1 and 17 grids stay plain allocations
        L = 128
        c = np.random.default_rng(rows).uniform(-1, 1, (rows, L * L)) + 0j
        plan = get_plan(L)
        gc.collect()
        live = _buffers.stats()["live_bytes"]
        grids = _sht_inverse_batch(c, plan, False)
        limits = (sphere_harmonics._FOLD_CHUNK_BYTES, sphere_harmonics._FFT_BLOCK_BYTES)
        assert (limits[0] < grids.nbytes <= limits[1]) == recycled
        assert _buffers.stats()["live_bytes"] - live == (grids.nbytes if recycled else 0)

    @pytest.mark.parametrize("L", [16, 20])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_buffers_past_an_fft_block_leave_the_recycler_alone(self, monkeypatch, L, real):
        # with _FFT_BLOCK_BYTES at 0 every grid and work buffer passes it, so
        # an inverse and a forward, cached (L = 16) or streamed (L = 20), leave
        # the free list and the recycler's counts as they were (_FOLD_CHUNK_BYTES
        # at 0 too, so that no buffer is too small to recycle)
        monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 0)
        monkeypatch.setattr(sphere_harmonics, "_FOLD_CHUNK_BYTES", 0)
        monkeypatch.setattr(SpherePlan, "_CACHE_LIMIT", 17)
        rng = np.random.default_rng(L)
        c = hermitian_coeffs(rng, L, (3,)) if real else rng.uniform(-1, 1, (3, L * L)) + 0j
        plan = SpherePlan(L)
        gc.collect()
        before = _buffers.stats()
        back = _sht_forward_batch(_sht_inverse_batch(c, plan, real), plan)
        assert _buffers.stats() == before
        assert rel_err(back, c) <= 12 * np.finfo(float).eps * L


class TestShares:
    """An engine call of more than one FFT block of rows runs its blocks in
    shares, one per usable core and never more than its blocks, each a run
    of whole blocks on a thread of its own: the output has the bytes of one
    share, whatever the worker count.  A call of one block, and a windowed
    sum, run as one share on the calling thread."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize(
        "L, rows", [(64, 130), (128, 33), (128, 64), (257, 8), (300, 8), (384, 16)]
    )
    def test_outputs_are_the_bytes_of_one_share(self, monkeypatch, L, rows, real):
        # blocks of 64, 16, 16, 3, 2 and 1 rows: 130 and 33 rows end in a
        # block of one row, 8 rows at L = 257 in one of two, and 3 workers
        # split 3 blocks into shares of 1, 1 and 1 block, 4 into 1, 1 and 2
        plan = get_plan(L)
        step = _fft_block_grids(L)
        blocks = -(-rows // step)
        assert blocks > 2
        rng = np.random.default_rng(L + rows)
        if real:
            c = hermitian_coeffs(rng, L, (rows,))
        else:
            c = rng.uniform(-1, 1, (rows, L * L)) + 1j * rng.uniform(-1, 1, (rows, L * L))
        outputs = []
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            bounds = sphere_harmonics._share_bounds(rows, step)
            assert len(bounds) - 1 == min(workers, blocks)
            assert all(lo % step == 0 for lo in bounds[:-1]) and bounds[-1] == rows
            grids = _sht_inverse_batch(c, plan, real)
            outputs.append((grids.tobytes(), _sht_forward_batch(grids, plan).tobytes()))
        assert outputs[1:] == outputs[:1] * 2
        assert grids.dtype == (np.float64 if real else np.complex128)
        back = np.frombuffer(outputs[0][1], dtype=np.complex128).reshape(rows, L * L)
        assert rel_err(back, c) <= 12 * np.finfo(float).eps * L

    def test_shares_run_on_a_thread_each_and_a_list_splits_like_an_array(self, monkeypatch):
        # 3 blocks of 16 grids at L = 128 on 3 workers: the calling thread
        # runs the first share, two threads of the call the others.  The
        # workers record in any order, so each call is put in row order by
        # the first row it was given
        L = 128
        set_workers(monkeypatch, 3)
        seen = []
        for name in ("_inverse_blocks", "_forward_blocks"):

            def recording(rows, *args, real=getattr(sphere_harmonics, name), name=name):
                first = np.asarray(rows[0]).__array_interface__["data"][0]
                seen.append((name, first, len(rows), threading.get_ident()))
                return real(rows, *args)

            monkeypatch.setattr(sphere_harmonics, name, recording)
        c = np.random.default_rng(128).uniform(-1, 1, (40, L * L)) + 0j
        plan = get_plan(L)
        grids = _sht_inverse_batch(c, plan, False)
        back = _sht_forward_batch(grids, plan)
        listed = _sht_forward_batch(list(grids), plan)
        assert back.tobytes() == listed.tobytes()
        calls = [call for call in seen if call[0] == "_inverse_blocks"]
        forward = [call for call in seen if call[0] == "_forward_blocks"]
        assert len(calls) == 3 and len(forward) == 6
        # the array call's shares all ran before the list call started
        for base, shares in ((c, calls), (grids, forward[:3]), (grids, forward[3:])):
            origin, row_bytes = base.__array_interface__["data"][0], base[0].nbytes
            shares = sorted(((first - origin) // row_bytes, n, ident) for _, first, n, ident in shares)
            assert [(lo, n) for lo, n, _ in shares] == [(0, 16), (16, 16), (32, 8)]
            assert shares[0][2] == threading.get_ident()
            assert len({ident for _, _, ident in shares}) == 3
        assert sphere_harmonics._most_shares >= 3

    def test_one_block_and_windowed_sums_start_no_thread(self, monkeypatch):
        # a call of one FFT block of rows, and a windowed sum over several
        # blocks, run inline on any worker count: no executor is made
        made = []

        def executor(*args, **kwargs):
            made.append(args)
            return ThreadPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(sphere_harmonics, "ThreadPoolExecutor", executor)
        set_workers(monkeypatch, 3)
        L = 32
        monkeypatch.setattr(sphere_harmonics, "_FFT_BLOCK_BYTES", 4 * 16 * L * (2 * L - 1))
        threads = set(threading.enumerate())
        rng = np.random.default_rng(32)
        c = rng.uniform(-1, 1, (4, L * L)) + 1j * rng.uniform(-1, 1, (4, L * L))
        plan = get_plan(L)
        grids = _sht_inverse_batch(c, plan, False)
        back = _sht_forward_batch(grids, plan)
        windows = rng.uniform(0, 1, (12, L))
        total = np.zeros(L * L, dtype=np.complex128)
        _sht_forward_batch(list(grids) * 3, plan, windows, total)
        # no thread started (one an earlier test left may have ended)
        assert set(threading.enumerate()) <= threads and made == []
        assert rel_err(back, c) <= 12 * np.finfo(float).eps * L
        want = sum(window_coeffs(b, w) for b, w in zip(np.concatenate([back] * 3), windows))
        assert rel_err(total, want) <= 12 * np.finfo(float).eps * L

    def test_no_worker_thread_outlives_a_split_call(self, monkeypatch):
        # a split round trip runs its second share on a flaglets-sht thread,
        # and that thread has ended when the call returns: a process keeps no
        # engine thread between calls (a kept pool left flaglets-sht_0 idle)
        set_workers(monkeypatch, 2)
        names = []
        real = sphere_harmonics._inverse_blocks

        def recording(*args):
            names.append(threading.current_thread().name)
            return real(*args)

        monkeypatch.setattr(sphere_harmonics, "_inverse_blocks", recording)
        L = 64
        c = np.random.default_rng(2).uniform(-1, 1, (_fft_block_grids(L) + 1, L * L)) + 0j
        plan = get_plan(L)
        back = _sht_forward_batch(_sht_inverse_batch(c, plan, False), plan)
        assert any(name.startswith("flaglets-sht") for name in names), names
        alive = [t.name for t in threading.enumerate() if t.name.startswith("flaglets-sht")]
        assert alive == []
        assert rel_err(back, c) <= 12 * np.finfo(float).eps * L

    @pytest.mark.parametrize("failing", [0, 1], ids=["first share", "worker share"])
    def test_a_failing_share_raises_once_every_share_has_finished(self, monkeypatch, failing):
        # 3 shares on 3 workers: the failing one raises at once, the others
        # take 0.2 s; the error reaches the caller only after both have
        # finished, and no worker thread is left running
        set_workers(monkeypatch, 3)
        caller, done = threading.get_ident(), []

        def share(rows, *args):
            if threading.get_ident() == caller:
                index = 0
            else:
                index = 1 + int(len(rows) < step)
            if index == failing:
                raise ArithmeticError(f"share {index}")
            time.sleep(0.2)
            done.append(index)

        monkeypatch.setattr(sphere_harmonics, "_inverse_blocks", share)
        L = 64
        step = _fft_block_grids(L)
        c = np.zeros((2 * step + 1, L * L), dtype=np.complex128)
        with pytest.raises(ArithmeticError, match=f"share {failing}"):
            _sht_inverse_batch(c, get_plan(L), False)
        assert sorted(done) == sorted({0, 1, 2} - {failing})
        assert not any(t.name.startswith("flaglets-sht") for t in threading.enumerate())

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
    )
    def test_fork_child_runs_a_split_round_trip(self, monkeypatch):
        # a child forked after a split round trip gives the parent's bytes,
        # on two shares of its own
        set_workers(monkeypatch, 2)
        monkeypatch.setattr(sphere_harmonics, "_most_shares", 0)
        L, rows = 128, 64
        c = np.random.default_rng(64).uniform(-1, 1, (rows, L * L)) + 0j
        plan = get_plan(L)

        def digest():
            back = _sht_forward_batch(_sht_inverse_batch(c, plan, False), plan)
            return hashlib.sha256(back.tobytes()).hexdigest()

        want = digest()
        assert sphere_harmonics._most_shares == 2

        def child(conn):
            sphere_harmonics._most_shares = 0
            conn.send((digest(), sphere_harmonics._most_shares))
            conn.close()

        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        process = context.Process(target=child, args=(send,))
        process.start()
        send.close()
        try:
            assert receive.poll(60), "the forked child did not finish its round trip"
            assert receive.recv() == (want, 2)
        finally:
            process.join(10)
            if process.is_alive():
                process.kill()
                process.join()
            receive.close()
        assert process.exitcode == 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
    )
    def test_fork_child_takes_buffers_while_a_thread_holds_the_recycler(self):
        # a child forked while another thread holds the recycler's lock
        # starts with a fresh one: its take() answers (with the parent's
        # lock copied it waited for good)
        holding, release = threading.Event(), threading.Event()

        def hold():
            with _buffers._lock:
                holding.set()
                release.wait(30)

        holder = threading.Thread(target=hold)
        holder.start()

        def child(conn):
            conn.send(_buffers.take(4096).nbytes)
            conn.close()

        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        process = context.Process(target=child, args=(send,))
        try:
            assert holding.wait(10)
            process.start()
        finally:
            release.set()
            holder.join(10)
            send.close()
        assert not holder.is_alive()
        try:
            assert receive.poll(10), "the forked child's take() did not return"
            assert receive.recv() == 4096
        finally:
            process.join(10)
            if process.is_alive():
                process.kill()
                process.join()
            receive.close()
        assert process.exitcode == 0

    def test_shares_run_inline_at_interpreter_exit(self):
        # at exit no thread may start: a split call made from an atexit
        # handler runs every share on the calling thread
        script = textwrap.dedent(
            """
            import atexit
            import numpy as np
            from flaglets import sphere_harmonics as sh
            sh._usable_cores = lambda: 2
            L = 64
            c = np.random.default_rng(1).uniform(-1, 1, (sh._fft_block_grids(L) + 1, L * L)) + 0j
            def round_trip():
                plan = sh.get_plan(L)
                back = sh._sht_forward_batch(sh._sht_inverse_batch(c, plan, False), plan)
                print(sh._most_shares, float(np.max(np.abs(back - c))) < 1e-12)
            atexit.register(round_trip)
            """
        )
        src = os.path.dirname(os.path.dirname(sphere_harmonics.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0 and done.stderr == "", done.stderr
        assert done.stdout.split() == ["2", "True"]


class TestConcurrentCallers:
    def test_threads_at_a_fresh_band_limit_build_its_tables_once(self, monkeypatch):
        # 3 threads start flag round trips at a band limit no plan exists for,
        # of two FFT blocks of rows on 2 workers, so their shares run at once
        # (6 shares on 2 cores): one plan, one table pass, and the bytes of a
        # sequential run
        L = next(L for L in range(40, 100) if L not in sphere_harmonics._live_plans)
        set_workers(monkeypatch, 2)
        P = _fft_block_grids(L) + 1
        limits = BandLimits(L, P)
        rng = np.random.default_rng(L)
        c = FlagCoeffs(limits, rng.uniform(-1, 1, (P, L * L)) + 1j * rng.uniform(-1, 1, (P, L * L)))
        passes = []
        real_tiles = sphere_harmonics._legendre_tiles

        def slow_tiles(*args):
            passes.append(args[0])
            time.sleep(0.05)  # widens the window in which a second build would start
            return real_tiles(*args)

        monkeypatch.setattr(sphere_harmonics, "_legendre_tiles", slow_tiles)
        start = threading.Barrier(3)
        results = [None] * 3

        def round_trip(i):
            start.wait()
            grid = flag_inverse(c)
            results[i] = (grid.values.tobytes(), flag_forward(grid).coeffs.tobytes())

        threads = [threading.Thread(target=round_trip, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, where a race would show
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert passes == [L]
        grid = flag_inverse(c)
        want = (grid.values.tobytes(), flag_forward(grid).coeffs.tobytes())
        assert results == [want] * 3

    def test_threads_at_a_fresh_plan_past_the_cache_decide_once(self, monkeypatch):
        # 3 threads start a table pass of one plan past the cache that has not
        # decided yet what to keep: _kept_tiling runs once, and every pass
        # steps from what it kept
        plan = SpherePlan(257)
        decided = []
        real_kept = SpherePlan._kept_tiling

        def slow_kept(self, *args):
            decided.append(self.L)
            time.sleep(0.05)  # widens the window in which a second decision would start
            return real_kept(self, *args)

        monkeypatch.setattr(SpherePlan, "_kept_tiling", slow_kept)
        start = threading.Barrier(3)
        kept = [None] * 3

        def first_tile(i):
            start.wait()
            next(plan.tables())
            kept[i] = plan._streamed

        threads = [threading.Thread(target=first_tile, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, where a race would show
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert decided == [257] and kept[0]
        assert all(k is kept[0] for k in kept)


class TestForwardBatchInput:
    @pytest.mark.parametrize("L", [1, 2, 7, 32, 33, 128])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_batches_across_fold_chunks_and_fft_blocks_match_direct_sums(self, L, real):
        # one grid, a few, enough that a fold chunk holds fewer than L rows, and
        # (where that is a small batch) one grid more than an FFT block, so the
        # last block holds one grid.  A batch is no byte-level oracle for
        # one-grid calls: the GEMM's column count changes the rounding (by up to
        # 1.1e-16 measured)
        nphi = 2 * L - 1
        counts = {1, 3}
        if L > 1:
            counts.add(sphere_harmonics._FOLD_CHUNK_BYTES // (16 * nphi * L) + 1)
        if _fft_block_grids(L) < 300:
            counts.add(_fft_block_grids(L) + 1)
        rng = np.random.default_rng(L)
        plan = SpherePlan(L)
        for n in sorted(counts):
            grids = rng.uniform(-1, 1, (n, L, nphi))
            if not real:
                grids = grids + 1j * rng.uniform(-1, 1, grids.shape)
            out = _sht_forward_batch(grids, plan)
            assert _is_hermitian(out, L) == real
            for grid, coeffs in zip(grids, out):
                assert rel_err(coeffs, direct_sht_forward(grid, L)) < 1e-13 * L, n
            # a list of the same grids, folded grid by grid, is never stacked
            # and gives the stack's bytes; a real grid among complex ones
            # takes the complex path, as the stack of the list does
            assert _sht_forward_batch(list(grids), plan).tobytes() == out.tobytes(), n
            if not real:
                mixed = [g.real if i % 2 else g for i, g in enumerate(grids)]
                want = _sht_forward_batch(np.stack(mixed), plan)
                assert _sht_forward_batch(mixed, plan).tobytes() == want.tobytes(), n
            # with windows the rows are windowed and added to `total` in grid
            # order, block by block, as a caller adding each row would
            windows = np.random.default_rng(n).uniform(0, 1, (n, L))
            total, want = np.ones(L * L, dtype=np.complex128), np.ones(L * L, dtype=np.complex128)
            for coeffs, w in zip(out, windows):
                want += window_coeffs(coeffs, w)
            assert _sht_forward_batch(list(grids), plan, windows, total) is total
            assert total.tobytes() == want.tobytes(), n


class TestHermitianCheck:
    """_is_hermitian compares blocks of rows; the oracle compares one row at a time."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        L=st.integers(1, 40),
        rows=st.integers(0, 5),
        block=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.booleans(),
        change=st.sampled_from(["none", "nan", "+0", "-0", "last bit", "value", "imaginary"]),
        where=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_block_check_agrees_with_the_per_row_oracle(
        self, L, rows, block, seed, zeros, change, where
    ):
        rng = np.random.default_rng(seed)
        c = hermitian_coeffs(rng, L, (rows,))
        if zeros:
            # whole degrees of signed zeros stay Hermitian under ==
            ell = int(rng.integers(L))
            degree = c[:, ell * ell : (ell + 1) * (ell + 1)]
            degree.view(np.float64)[:] = np.where(rng.integers(0, 2, (rows, 4 * ell + 2)), -0.0, 0.0)
        if rows and change != "none":
            flat = c.reshape(-1)
            i = int(where * flat.size)
            if change == "nan":
                flat[i] = complex(flat[i].real, math.nan)
            elif change in ("+0", "-0"):
                zero = 0.0 if change == "+0" else -0.0
                flat[i] = complex(zero, zero)
            elif change == "last bit":
                flat.view(np.uint64)[2 * i] ^= 1
            elif change == "value":
                flat[i] = complex(*rng.uniform(-1, 1, 2))
            else:
                flat[i] += 1e-300j
        want = per_row_is_hermitian(c, L)
        if change == "none":
            assert want
        assert _is_hermitian(c, L) == want
        with mock.patch.object(sphere_harmonics, "_fft_block_grids", lambda L: block):
            assert _is_hermitian(c, L) == want


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
            coeffs = _sht_forward_batch(np.stack([grids[0], values]), plan)
            assert rel_err(coeffs[0], c[0]) < 1e-13, orders
            assert rel_err(coeffs[1], coeffs_want) < 1e-13, orders

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("L", [8, 9])
    @pytest.mark.parametrize("orders, depth", [(None, 1), (3, 2), (2, 3), (3, 5), (None, None)])
    def test_streamed_tiles_match_direct_sums(self, monkeypatch, L, orders, depth, real):
        # groups of orders tiled in degrees past the cache: every order at once
        # (None), or groups of 2 or 3 with a last partial group, at depths that
        # alternate the parity of k0 (1, 3, 5), do not divide L, or hold every
        # degree; Hermitian rows and real grids take the +m prefix of each
        # tile's maps
        orders, depth = orders or L, depth or L
        stream_tiles(monkeypatch, L, orders, depth)
        plan = SpherePlan(L)
        tiles = [(m0, k0, tile.shape[:2]) for m0, k0, tile, _ in plan.tables()]
        assert tiles == [(m0, k0, (nb, dk)) for m0, k0, nb, dk in _tile_geometry(L, orders, depth)]
        rng = np.random.default_rng(100 * L + 10 * orders + depth)
        if real:
            c, shift = hermitian_coeffs(rng, L, (3,)), 0.5
        else:
            c, shift = rng.uniform(-1, 1, (3, L * L)) + 1j * rng.uniform(-1, 1, (3, L * L)), 0.5j
        # one row, 3 rows across 3 one-grid blocks, and each one-grid forward
        # block step the tiles
        tiled = _sht_inverse_batch(c[:1], plan, real)
        grids = _sht_inverse_batch(c, plan, real)
        assert grids.dtype == (np.float64 if real else np.complex128)
        back = _sht_forward_batch(grids + shift, plan)
        for row, grid, coeffs in zip(c, grids, back):
            assert rel_err(grid, direct_sht_inverse(row, L)) < 1e-13 * L
            assert rel_err(coeffs, direct_sht_forward(grid + shift, L)) < 1e-13 * L
        assert tiled.tobytes() == grids[:1].tobytes()

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("L", [257, 300])
    def test_many_rows_past_the_cache_give_the_bytes_of_one_call_per_block(self, L, real):
        # two FFT blocks of rows and a partial third: one pass over groups of
        # orders tiled in degrees, holding each group's sums for every block,
        # gives the bytes of one call per block of rows.  Hermitian rows give
        # real grids within 1e-14 of the complex path, whose forward is Hermitian
        plan = SpherePlan(L)
        step = _fft_block_grids(L)
        rows = 2 * step + 1
        orders, depth = plan._tile_shape()
        assert orders < L and depth < L - orders
        rng = np.random.default_rng(L)
        if real:
            c = hermitian_coeffs(rng, L, (rows,))
        else:
            c = rng.uniform(-1, 1, (rows, L * L)) + 1j * rng.uniform(-1, 1, (rows, L * L))
        grids = _sht_inverse_batch(c, plan, real)
        assert grids.dtype == (np.float64 if real else np.complex128)
        blocks = [_sht_inverse_batch(c[i : i + step], plan, real) for i in range(0, rows, step)]
        assert grids.tobytes() == np.concatenate(blocks).tobytes()
        assert rel_err(grids[-1], direct_sht_inverse(c[-1], L)) < 1e-13 * L
        if real:
            assert rel_err(grids, _sht_inverse_batch(c, plan, False)) <= 1e-14
            back = _sht_forward_batch(grids, plan)
            assert _is_hermitian(back, L)
            assert rel_err(back, _sht_forward_batch(grids + 0j, plan)) <= 1e-14

    @pytest.mark.parametrize("L", [257, 288, 384])
    def test_round_trips_past_the_cache_match_direct_sums(self, L):
        # 2, 2 and 1 rows, at most one FFT block, so both directions step
        # groups of orders tiled in degrees; 2 rows at L = 288 as in a
        # multiresolution sphere-wavelet pass there
        plan = SpherePlan(L)
        rows = min(2, _fft_block_grids(L))
        assert plan._tile_shape()[1] < L
        rng = np.random.default_rng(L)
        c = rng.uniform(-1, 1, (rows, L * L)) + 1j * rng.uniform(-1, 1, (rows, L * L))
        grids = _sht_inverse_batch(c, plan, False)
        back = _sht_forward_batch(grids, plan)
        for row, grid, coeffs in zip(c, grids, back):
            assert rel_err(grid, direct_sht_inverse(row, L)) < 1e-13 * L
            assert rel_err(coeffs, direct_sht_forward(grid, L)) < 1e-13 * L
            assert rel_err(coeffs, row) <= 12 * np.finfo(float).eps * L

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
        _sht_forward_batch(rng.uniform(-1, 1, (1, L, 2 * L - 1)) + 0j, plan)
        grid = rng.uniform(-1, 1, (L, 2 * L - 1))
        sphere_harmonics._negative_orders(L)  # cached per L, not per plan
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = _sht_forward_batch(grid[None], plan)
            kept = tracemalloc.get_traced_memory()[0] - start - out.nbytes
        finally:
            tracemalloc.stop()
        assert kept < 4096, kept
        assert rel_err(out, direct_sht_forward(grid, L)) < 1e-13 * L


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

    @pytest.mark.parametrize("kind", [np.uint8, np.int16, np.int64])
    def test_numpy_integer_band_limits_give_the_results_of_ints(self, monkeypatch, kind):
        # a numpy L reached the plan, the Legendre values and the sphere
        # kernels as is: get_plan(uint8 20) cached a plan whose L * L wrapped
        # to 144, on which every later FLAG transform at L = 20 failed
        monkeypatch.setattr(sphere_harmonics, "_live_plans", weakref.WeakValueDictionary())
        get_plan.cache_clear()
        try:
            L = kind(20)
            assert type(get_plan(L).L) is int and type(SpherePlan(L).L) is int
            limits = BandLimits(20, 4)
            c = np.random.default_rng(20).uniform(-1, 1, (4, 400)) + 0.5j
            back = flag_forward(flag_inverse(FlagCoeffs(limits, c))).coeffs
            assert rel_err(back, c) <= 6 * np.finfo(float).eps * 24
            assert np.array_equal(assoc_legendre_table(L, 0.5), assoc_legendre_table(20, 0.5))
            nodes = np.linspace(-1, 1, 5)
            assert np.array_equal(legendre_matrix(L, 3, nodes), legendre_matrix(20, 3, nodes))
            assert all(map(np.array_equal, sphere_sampling(L), sphere_sampling(20)))
            kernels, want = build_sphere_kernels(L, TilingParams()), build_sphere_kernels(20, TilingParams())
            assert type(kernels.L) is int
            assert np.array_equal(kernels.eta, want.eta)
            assert all(map(np.array_equal, kernels.kappas, want.kappas))
            f = SphereCoeffs(20, c[0])
            back = sphere_synthesize(sphere_analyze(f, kernels), kernels).coeffs
            assert rel_err(back, c[0]) <= 12 * np.finfo(float).eps * 20
        finally:
            get_plan.cache_clear()

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
        (6, True, 0.5), (4, 1.5, 0.5), (4, np.float64(2.0), 0.5),  # order not an integer
        (4, 1, 2.0), (4, 1, -1.0000001), (4, 1, math.nan),  # |x| > 1 or NaN
    ])
    def test_legendre_matrix_checks_its_arguments(self, L, m, x):
        # m = L leaked StopIteration, m = -1 gave -inf and x = 2 zeros; m = True
        # gave order 1, and m = 1.5 or np.float64(2.0) a bare TypeError
        integer = isinstance(m, int) and not isinstance(m, bool)
        match = "must be in|must satisfy" if integer else "must be an integer"
        with pytest.raises(ValueError, match=match):
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
