"""Exact spherical harmonic transform on a Gauss-Legendre grid.

Sampling: L Gauss-Legendre colatitudes (theta descending, x = cos(theta)
ascending) by 2L-1 equispaced longitudes.  The longitudinal sums are done
by FFT, the colatitude projection by Gauss-Legendre quadrature, which is
exact for the degree <= 2L-2 Legendre integrands arising for signals
band-limited at L.

Conventions: orthonormal harmonics with the Condon-Shortley phase folded
into the normalized associated Legendre functions,
Y_lm(theta, phi) = Ptilde_l^m(cos theta) e^{i m phi} / sqrt(2 pi).

The Ptilde_l^m come from one compensated recurrence, _legendre_tiles, on
the x >= 0 half of the symmetric nodes.  It steps a group of orders together
over k = l - m and yields tiles of orders by degrees, whose shape only
SpherePlan chooses: up to the table cache, blocks of orders with all their
degrees, which the plan keeps; past it, every order at once in tiles of a
few degrees, so a pass takes O(L) recurrence steps and holds a tile of about
one grid (an inverse of many rows still steps blocks of orders, whose sums it
holds for one block of rows at a time, not about a grid per row).  The engine
never mirrors them: Ptilde_l^m(-x) = (-1)^{l+m} Ptilde_l^m(x), so it folds a
grid into f(x) + f(-x) and f(x) - f(-x) on the half nodes, which the even and
the odd degrees of an order project onto.  The inverse sums the tiles of a
group of orders in one order-major buffer and unfolds it the same way, into
each Fourier column once.  The forward copies the folded Fourier columns of
every order once per block of grids, and every tile reads them there.

Real signals take the same loops with the +-m axis cut to the +m half.  A
grid is real when its dtype is real (SphereGrid keeps float64 samples), and
coefficients are those of real signals exactly when they are Hermitian,
f_{l,-m} = (-1)^m conj f_lm with Im f_l0 = 0, which each public entry point
checks once on its input (_is_hermitian).  The forward then folds in
float64, takes an rfft, projects the m >= 0 columns only and makes the -m
coefficients from the +m ones; the inverse gathers m >= 0 only and takes an
irfft of the half spectrum.  That halves the FFT work, the GEMM columns and
the scatter, and a real grid is half the bytes of a complex one.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .quadrature import _check_integer, gauss_legendre

__all__ = [
    "MAX_BAND_LIMIT",
    "SphereGrid",
    "SphereCoeffs",
    "sphere_sampling",
    "assoc_legendre_table",
    "legendre_matrix",
    "sht_forward",
    "sht_inverse",
    "coeff_index",
]

MAX_BAND_LIMIT = 4096

_RESCALE_THRESHOLD = 1e250
_RESCALE_LOG = math.log(1e250)

# sphere plans for this many L, and ball plans for this many (P, tau), stay
# cached: more than the 9 band limits of a multiresolution sphere-wavelet pass
# at L=288, or the 5 radial limits of a multiresolution flaglet pass at P=32
_PLAN_CACHE_SIZE = 32

# the forward transform works on blocks of at most this many bytes of grids,
# so a batch of shells never holds a full-size Fourier copy of its grid
_FFT_BLOCK_BYTES = 8 << 20

# within a block it folds and FFTs this many bytes of grid rows at a time, then
# copies their columns out, so a chunk never holds the block's whole grids
_FOLD_CHUNK_BYTES = 1 << 20

# a cached plan steps blocks of this many bytes of table values in lock step
_LEGENDRE_BLOCK_BYTES = 2 << 20

# past the cache every order is stepped at once, in tiles of this many degrees
_LEGENDRE_TILE_DEPTH = 10


def _check_band_limit(L: int) -> int:
    return _check_integer(L, 1, MAX_BAND_LIMIT, "band limit")


def coeff_index(ell: int, m: int) -> int:
    """Flat index of the (ell, m) coefficient: ell^2 + ell + m."""
    return ell * ell + ell + m


def window_coeffs(coeffs: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Multiply coefficients (..., L^2) by a per-degree window (..., L)."""
    L = window.shape[-1]
    return coeffs * np.repeat(window, 2 * np.arange(L) + 1, axis=-1)


def _negative_orders(L: int):
    """Flat indices of (l, -m) and of (l, m) for 1 <= m <= l < L, and (-1)^m."""
    ells = np.repeat(np.arange(L), np.arange(L))  # degree l once for each m = 1..l
    ms = np.arange(ells.size) - ells * (ells - 1) // 2 + 1
    centre = ells * (ells + 1)
    return centre - ms, centre + ms, 1.0 - 2.0 * (ms % 2)


def _is_hermitian(coeffs: np.ndarray, L: int) -> bool:
    """True when every row of coeffs (..., L^2) is the expansion of a real
    signal: Im f_l0 == 0 and f_{l,-m} == (-1)^m conj f_lm, compared with ==.

    Order 0 is read first, so complex input is told apart after O(L) reads
    per row; NaN is never Hermitian.
    """
    rows = coeffs.reshape(-1, L * L)
    ells = np.arange(L)
    if np.any(rows[:, ells * (ells + 1)].imag != 0.0):
        return False
    neg, pos, sign = _negative_orders(L)
    return all(np.array_equal(row[neg], sign * row[pos].conj()) for row in rows)


def _fill_negative_orders(coeffs: np.ndarray, L: int) -> None:
    """Set f_{l,-m} = (-1)^m conj f_lm for m >= 1 in place, in every row of
    coeffs (..., L^2): exactly Hermitian wherever Im f_l0 == 0."""
    neg, pos, sign = _negative_orders(L)
    coeffs[..., neg] = sign * coeffs[..., pos].conj()


def _grid_dtype(values) -> type:
    """float64 for real samples, complex128 for complex ones."""
    return np.complex128 if np.iscomplexobj(values) else np.float64


@dataclass
class SphereGrid:
    """Samples of a function on the exact sphere grid at band limit L.

    values has shape (L, 2L-1), row i holding the equispaced longitudes at
    colatitude theta_i (theta descending); float64 for real samples,
    complex128 otherwise.
    """

    L: int
    values: np.ndarray

    def __post_init__(self):
        self.L = _check_band_limit(self.L)
        self.values = np.ascontiguousarray(self.values, dtype=_grid_dtype(self.values))
        if self.values.shape != (self.L, 2 * self.L - 1):
            raise ValueError(
                f"grid shape {self.values.shape} does not match band limit {self.L}"
            )


@dataclass
class SphereCoeffs:
    """Spherical harmonic coefficients, flat index ell^2 + ell + m."""

    L: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.L = _check_band_limit(self.L)
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.L * self.L,):
            raise ValueError(
                f"coefficient length {self.coeffs.shape} does not match band limit {self.L}"
            )


def sphere_sampling(L: int):
    """Colatitudes and longitudes of the exact grid at band limit L.

    Returns (thetas, phis) with thetas descending (x = cos theta ascending,
    matching the Gauss-Legendre node order) and phis = 2 pi k / (2L - 1).
    """
    _check_band_limit(L)
    rule = gauss_legendre(L)
    thetas = np.arccos(rule.nodes)
    phis = 2.0 * np.pi * np.arange(2 * L - 1) / (2 * L - 1)
    return thetas, phis


def _legendre_tiles(L: int, xs: np.ndarray, orders: int, depth: int, m_first: int = 0):
    """Yield (m0, k0, tile) over the orders m_first..L-1 and their degrees.

    tile[i, k, j] = Ptilde_{m0+i+k0+k}^{m0+i}(xs[j]), zero where the degree
    passes L - 1.  Groups of `orders` orders from m_first are stepped in lock
    step over k = l - m, and an order drops out once it passes degree L - 1,
    so a tile holds the orders still running at k0.  Tiles hold `depth`
    degrees and are views of one buffer per group, which the next tile
    overwrites; with depth >= L - m_first a group is one tile from k0 = 0.
    int_{-1}^{1} Ptilde_l^m Ptilde_l'^m dx = delta_{ll'}, Condon-Shortley phase
    included.  Values are carried as u e^{c} with a per-point exponent c, so
    high-m values near the poles underflow to zero instead of poisoning the
    recurrence.  The sectoral seed is carried from one order to the next.
    sin(theta) is taken as sqrt((1 - x)(1 + x)), which keeps its last bits
    near the poles.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    n = xs.size
    sinx = np.sqrt(np.maximum(0.0, (1.0 - xs) * (1.0 + xs)))
    u = np.full(n, 1.0 / math.sqrt(2.0))
    c = np.zeros(n)
    m = 0
    for m0 in range(m_first, L, orders):
        nb, K = min(orders, L - m0), L - m0
        seed_u, seed_c = np.empty((nb, n)), np.empty((nb, n))
        for i in range(nb):
            while m < m0 + i:
                m += 1
                u = u * (-math.sqrt((2 * m + 1) / (2.0 * m))) * sinx
                small = (np.abs(u) < 1e-250) & (u != 0.0)
                if small.any():
                    u = np.where(small, u * _RESCALE_THRESHOLD, u)
                    c = c - np.where(small, _RESCALE_LOG, 0.0)
            seed_u[i], seed_c[i] = u, c
        # u = Ptilde, |u| <= sqrt((2l+1)/2) <= 64, wherever the seed is unscaled:
        # only in the box [r0:, c0:c1] around the scaled seeds does u carry an
        # exponent c, and only there can it pass the threshold
        rows, cols = np.flatnonzero(seed_c.any(axis=1)), np.flatnonzero(seed_c.any(axis=0))
        r0, c0, c1 = (rows[0], cols[0], cols[-1] + 1) if rows.size else (nb, 0, 0)
        c_box = seed_c[r0:, c0:c1].copy()
        del seed_c
        ms = np.arange(m0, m0 + nb, dtype=np.float64)
        d = min(depth, K)
        buf = np.empty((nb, d, n))
        u_prev, u_cur = None, seed_u
        with np.errstate(under="ignore"):
            scale = np.exp(c_box)  # recomputed only when a rescale fires
            for k0 in range(0, K, d):
                dk, active = min(d, K - k0), min(nb, K - k0)
                tile = buf[:active, :dk]
                lo = max(k0, 2)
                ells = ms[:active] + np.arange(lo, k0 + dk, dtype=np.float64)[:, None]
                mm = ms[:active] * ms[:active]
                a = np.sqrt((4.0 * ells * ells - 1.0) / (ells * ells - mm))[..., None]
                b = np.sqrt(((ells - 1.0) ** 2 - mm) / (4.0 * (ells - 1.0) ** 2 - 1.0))[..., None]
                for k in range(k0, k0 + dk):
                    run = min(nb, K - k)  # orders with degree m + k <= L - 1
                    row = tile[:, k - k0]
                    if k == 1:
                        np.multiply(np.sqrt(2.0 * ms[:run] + 3.0)[:, None], xs, out=row[:run])
                        u_prev, u_cur = u_cur, row[:run] * u_cur[:run]
                    elif k >= 2:
                        # u_prev <- a (x u_cur - b u_prev) in place, then swap;
                        # the tile row holds x u_cur until it takes the new values
                        u_prev, u_cur = u_prev[:run], u_cur[:run]
                        np.multiply(xs, u_cur, out=row[:run])
                        np.multiply(b[k - lo, :run], u_prev, out=u_prev)
                        np.subtract(row[:run], u_prev, out=u_prev)
                        np.multiply(a[k - lo, :run], u_prev, out=u_prev)
                        u_prev, u_cur = u_cur, u_prev
                        if r0 < run and np.abs(u_cur[r0:, c0:c1]).max() > _RESCALE_THRESHOLD:
                            big = np.abs(u_cur[r0:, c0:c1]) > _RESCALE_THRESHOLD
                            f = np.where(big, 1.0 / _RESCALE_THRESHOLD, 1.0)
                            u_cur[r0:, c0:c1] *= f
                            u_prev[r0:, c0:c1] *= f
                            c_box = c_box[: run - r0] + np.where(big, _RESCALE_LOG, 0.0)
                            scale = np.exp(c_box)
                    row[:run] = u_cur[:run]
                    if run < len(row):
                        row[run:] = 0.0
                    if r0 < run:
                        np.multiply(u_cur[r0:run, c0:c1], scale[: run - r0], out=row[r0:run, c0:c1])
                yield m0, k0, tile


def legendre_matrix(L: int, m: int, xs: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values Ptilde_l^m for l = m..L-1.

    Returns shape (L - m, len(xs)); see _legendre_tiles.
    """
    _check_band_limit(L)
    if not 0 <= m < L:
        raise ValueError(f"order must be in [0, {L - 1}], got {m}")
    if not np.all(np.abs(np.asarray(xs, dtype=np.float64)) <= 1.0):  # NaN fails too
        raise ValueError("arguments must satisfy |x| <= 1")
    return next(_legendre_tiles(L, xs, 1, L, m))[2][0]


def assoc_legendre_table(L: int, x: float) -> np.ndarray:
    """Table of Ptilde_l^m(x) for 0 <= m <= l < L at a single point.

    Returns a flat array of length L^2 addressed by l * L + m; entries
    with m > l are zero.  All orders are stepped together, so this takes
    O(L) recurrence steps.
    """
    _check_band_limit(L)
    if not abs(x) <= 1.0:  # NaN fails too
        raise ValueError(f"argument must satisfy |x| <= 1, got {x}")
    table = np.zeros(L * L)
    for _, k, tile in _legendre_tiles(L, np.array([float(x)]), L, 1):
        # degree l = m + k of every order m: the k-th diagonal below the main one
        table[k * L :: L + 1] = tile[:, 0, 0]
    return table


class SpherePlan:
    """Quadrature rule and folded Legendre tiles with their index maps for one L.

    The nodes are symmetric, x_{half+j} = -x_{L-1-half-j} with half = L // 2
    (exact in gauss_legendre), so tables() yields the tiles of
    _legendre_tiles on the L - half nodes x >= 0 only.  Row k of a tile from
    k0 is even in x when k0 + k (that is l + m) is even, odd otherwise; at odd
    L the odd rows vanish at x = 0.  Tiles come in two kinds:

    - blocks of orders of about _LEGENDRE_BLOCK_BYTES, each with all of its
      degrees (k0 = 0).  Up to _CACHE_LIMIT a complete pass is kept, maps
      included.  The inverse holds the sums of a group of orders until its
      last tile: those of a block for one FFT block of rows at a time, those
      of all orders for every row, about a grid per row.  So past the cache
      an inverse of more rows than one forward FFT block steps blocks too.
    - past the cache, every order at once in tiles of _LEGENDRE_TILE_DEPTH
      degrees, made per pass in one reused buffer with their maps: L
      recurrence steps per pass, and a tile of 4 _LEGENDRE_TILE_DEPTH L^2
      bytes, about 1.25 grids.

    _tile_shape() chooses between them for tables() and for the forward's
    work space.

    maps[p] serves parity p of a tile of nb orders from m0 and degrees from
    k0, for real and complex passes alike: `index[i, k', s]` (int32) is the
    flat coefficient index of (l, m) = (m0+i+k0+k, +-(m0+i)) for the k'-th
    row k of parity p (k0 + k = p mod 2) and s = 0, 1, and -1 past the band
    limit, where the table rows are zero, and at -0 of order 0, whose sums
    are never unfolded; the inverse gathers through index[..., :S].  `valid`
    (int32) lists the flat positions in `index` that the forward transform
    stores, each coefficient once, first the `plus` +m entries (s = 0), then
    the -m ones, each sign in coefficient order; `dest` = index.flat[valid].
    A real forward stores the +m prefix only, whose entry 2q of index.flat
    is q of index[..., :1].
    """

    # folded blocks are O(L^3/4) doubles; beyond this, regenerate per pass
    _CACHE_LIMIT = 256

    def __init__(self, L: int):
        _check_band_limit(L)
        self.L = L
        self.half = L // 2
        self.rule = gauss_legendre(L)
        nphi, odd = 2 * L - 1, L % 2
        # Y_l^-m = (-1)^m conj(Y_l^m): the -m Fourier columns of odd m change sign
        cols = np.arange(nphi)
        self.signs = np.where((cols >= L) & ((nphi - cols) % 2 == 1), -1.0, 1.0)
        # rows of a folded grid: f(x_j) + f(-x_j) for the L - half nodes x_j >= 0,
        # then f(x_j) - f(-x_j) for those x_j > 0; their weights w (2 pi / (2L-1))
        # / sqrt(2 pi), halved at the x = 0 node of odd L, which folds onto itself
        weights = self.rule.weights[self.half :] * (math.sqrt(2.0 * np.pi) / nphi)
        self.fold_weights = np.concatenate((weights, weights[odd:]))
        if odd:
            self.fold_weights[0] *= 0.5
        self._tiles = None

    def _tile_maps(self, m0: int, k0: int, nb: int, depth: int):
        ms = np.arange(m0, m0 + nb, dtype=np.int32)[:, None]
        maps = []
        for p in (0, 1):
            ells = ms + np.arange(k0 + (p - k0) % 2, k0 + depth, 2, dtype=np.int32)  # (nb, K')
            index = np.empty(ells.shape + (2,), dtype=np.int32)
            base = ells * (ells + 1)
            np.add(base, ms, out=index[..., 0])
            np.subtract(base, ms, out=index[..., 1])
            index[ells >= self.L] = -1
            if m0 == 0:
                index[0, :, 1] = -1  # -0 is +0: order 0 is stored once
            # stored entries +m first, each sign in coefficient order, so the scatter
            # writes runs: in (sign, row, order) order they are 2K' ascending runs
            kept = index.transpose(2, 1, 0) >= 0
            flat = np.arange(index.size, dtype=np.int32).reshape(index.shape)
            valid, dest = flat.transpose(2, 1, 0)[kept], index.transpose(2, 1, 0)[kept]
            order = np.argsort(dest + (valid % 2) * self.L**2, kind="stable")
            maps.append((index, valid[order], dest[order], int(np.count_nonzero(kept[0]))))
        return maps

    def _tile_shape(self, rows: int = 1) -> tuple[int, int]:
        """(orders, degrees) of the first and largest tile of a pass for `rows` rows."""
        L = self.L
        if L <= self._CACHE_LIMIT or rows > _fft_block_grids(L):
            return min(L, max(1, _LEGENDRE_BLOCK_BYTES // (8 * L * (L - self.half)))), L
        return L, min(L, _LEGENDRE_TILE_DEPTH)

    def tables(self, rows: int = 1):
        """Yield (m0, k0, tile, maps) over all orders and degrees; see _legendre_tiles.

        Past _CACHE_LIMIT a pass for at most one forward FFT block of `rows`
        yields all-order tiles, each overwritten by the next one, and a pass
        for more rows blocks of orders.
        """
        if self._tiles is not None:
            yield from self._tiles
            return
        L, nodes = self.L, self.rule.nodes[self.half :]
        cached = L <= self._CACHE_LIMIT
        kept = []
        for m0, k0, tile in _legendre_tiles(L, nodes, *self._tile_shape(rows)):
            maps = self._tile_maps(m0, k0, *tile.shape[:2])
            if cached:
                kept.append((m0, k0, tile, maps))
            yield m0, k0, tile, maps
        if cached:
            self._tiles = kept


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def get_plan(L: int) -> SpherePlan:
    return SpherePlan(L)


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Real matrix times a matrix of z's dtype as one real GEMM: a complex z
    is taken as (re, im) pairs."""
    z = np.ascontiguousarray(z)
    if not np.iscomplexobj(z):
        return a @ z
    return (a @ z.view(np.float64)).view(np.complex128)


def _fft_block_grids(L: int) -> int:
    """Grids per block of a batch: _FFT_BLOCK_BYTES of Fourier buffer, at least one."""
    return max(1, _FFT_BLOCK_BYTES // (16 * L * (2 * L - 1)))


def _column_ranges(L: int, m0: int, nb: int):
    """(first order, Fourier columns) of the +m and of the -m columns of a block.

    The -m columns of orders m0..m0+nb-1 run down from 2L-1-m0; order 0 has
    only column 0, which is its +m column.
    """
    nphi, skip = 2 * L - 1, int(m0 == 0)
    return (0, slice(m0, m0 + nb)), (skip, slice(nphi - m0 - skip, nphi - m0 - nb, -1))


def _sht_forward_batch(grids: Sequence[np.ndarray], plan: SpherePlan) -> np.ndarray:
    """Forward SHT of every (L, 2L-1) grid in `grids`; returns (len(grids), L^2).

    `grids` may be a list of grids or an array of them; it is never stacked.
    Per block of grids, chunks of at most _FOLD_CHUNK_BYTES of rows are
    folded about the equator, f(x) + f(-x) then f(x) - f(-x) on the half
    nodes, FFT'd along their contiguous last axis, and the Fourier columns of
    every order copied out of them weighted and signed: +m and -m for complex
    grids (S = 2), and for real grids only +m, from an rfft of rows folded in
    float64 (S = 1).  Per tile and parity, the columns of the sums (even
    l + m) or the differences (odd l + m) of the tile's orders are projected
    by one stacked GEMM over the orders, on 2 S float columns per grid, and
    the stored degrees scattered through the tile's maps, for real grids
    through their +m prefix.  The -m coefficients of real grids are then
    made from the +m ones, so they are exactly Hermitian.  Past the table
    cache the tiles are regenerated per block of grids, since generating
    them once would hold a full-size Fourier copy.
    """
    L, nphi, half = plan.L, 2 * plan.L - 1, plan.half
    nh, odd = L - half, L % 2
    folds = (slice(0, nh), slice(nh, L))
    real = not any(np.iscomplexobj(g) for g in grids)
    S = 1 if real else 2
    out = np.empty((len(grids), L * L), dtype=np.complex128)
    step = min(_fft_block_grids(L), max(len(grids), 1))
    rows = min(L, max(1, _FOLD_CHUNK_BYTES // (16 * nphi * step)))
    # one allocation holds a block's columns[m, j, s, r] (order m, folded row j,
    # sign s, grid r) and the work space for a chunk of folded rows or a tile's
    # projections and stored degrees (the first tile's are the largest).  Two
    # allocations of about a grid block each upset glibc's dynamic mmap
    # threshold: a cold L = P = 32 flaglet denoising pass faulted 56k pages, not 39k.
    # A real chunk is folded in float64 and its L rfft columns written after it
    orders, depth = plan._tile_shape()
    ncols = L * L * S * step
    proj_size = orders * ((depth + 1) // 2) * S * step
    fold_size = rows * step * ((nphi + 1) // 2 + L if real else nphi)
    buf = np.empty(ncols + max(fold_size, 2 * proj_size), dtype=np.complex128)
    work = buf[ncols:]
    for start in range(0, len(grids), step):
        block = grids[start : start + step]
        n = len(block)
        columns = buf[: L * L * S * n].reshape(L, L, S, n)
        for j0 in range(0, L, rows):
            j1 = min(j0 + rows, L)
            size = n * (j1 - j0) * nphi
            if real:
                folded = work.view(np.float64)[:size].reshape(n, j1 - j0, nphi)
                fm = work[(size + 1) // 2 :][: n * (j1 - j0) * L].reshape(n, j1 - j0, L)
            else:
                folded = fm = work[:size].reshape(n, j1 - j0, nphi)
            # folded rows j0..add_end are sums, sub_start..j1 differences
            add_end, sub_start = max(j0, min(j1, nh)), min(j1, max(j0, nh))
            d0, d1 = sub_start - nh + odd, j1 - nh + odd
            for dst, src in zip(folded, block):
                north, south = src[half:], src[nh - 1 :: -1]
                np.add(north[j0:add_end], south[j0:add_end], out=dst[: add_end - j0])
                np.subtract(north[d0:d1], south[d0:d1], out=dst[sub_start - j0 :])
            if real:
                np.fft.rfft(folded, axis=-1, out=fm)
            else:
                np.fft.fft(fm, axis=-1, out=fm)
            # weighted, signed +m and -m columns; the -0 column of order 0 is zero
            for s, (lo, cols) in enumerate(_column_ranges(L, 0, L)[:S]):
                weights = np.multiply.outer(plan.signs[cols], plan.fold_weights[j0:j1])
                np.multiply(
                    fm[:, :, cols].transpose(2, 1, 0),
                    weights[..., None],
                    out=columns[lo:, j0:j1, s],
                )
            if not real:
                columns[0, j0:j1, 1] = 0.0
        out_t = out[start : start + n].T
        for m0, k0, tile, maps in plan.tables():
            nb = tile.shape[0]
            for p, fold, (index, valid, dest, plus) in zip((0, 1), folds, maps):
                if real:
                    valid, dest = valid[:plus] // 2, dest[:plus]
                nodes = fold.stop - fold.start
                size = index.size // 2 * S * n
                proj = work[:size].reshape(-1, n)
                np.matmul(
                    tile[:, (p - k0) % 2 :: 2, odd * p :],
                    columns[m0 : m0 + nb, fold].view(np.float64).reshape(nb, nodes, 2 * S * n),
                    out=proj.view(np.float64).reshape(nb, -1, 2 * S * n),
                )
                stored = work[size : size + valid.size * n].reshape(-1, n)
                np.take(proj, valid, axis=0, out=stored, mode="clip")
                out_t[dest] = stored
    if real:
        _fill_negative_orders(out, L)
    return out


def _sht_inverse_batch(coeffs: np.ndarray, plan: SpherePlan, real: bool) -> np.ndarray:
    """Inverse SHT of every row of coeffs (..., L^2); returns (..., L, 2L-1),
    float64 when `real` says the rows are Hermitian (_is_hermitian), complex
    otherwise.

    A tile from k0 = 0 starts a group of orders; the later tiles of a pass
    hold those of its orders that still run.  For each tile and block of at
    most _fft_block_grids rows, the tile's maps gather the +m and -m
    coefficients of each parity (S = 2), or only the +m ones of real rows
    (S = 1), and one stacked GEMM per parity synthesises the even and odd
    sums S_even, S_odd on the half nodes into the order-major buffer
    sums[parity, order, node, s, row].  A tile from k0 = 0 writes it; a
    later tile adds its GEMM there through a scratch of _FOLD_CHUNK_BYTES,
    block of orders by block of orders.  After a group's last tile
    f(+-x) = S_even +- S_odd is written into its orders' Fourier columns
    once, which are then signed, scaled and inverse-FFT'd: in place, or for
    real rows from the m >= 0 half spectrum by irfft.  A group of several
    tiles holds its sums for every row, about a grid per row, so only an
    inverse of at most one block of rows steps all orders at once
    (SpherePlan._tile_shape).
    """
    L, nphi, half = plan.L, 2 * plan.L - 1, plan.half
    nh, S = L - half, 1 if real else 2
    rows = coeffs.reshape(-1, L * L)
    g = np.empty((rows.shape[0], L, L if real else nphi), dtype=np.complex128)
    north, south = g[:, half:], g[:, nh - 1 :: -1]
    step = min(_fft_block_grids(L), max(len(rows), 1))
    per_order, buf = nh * S * step, None
    for m0, k0, tile, maps in plan.tables(len(rows)):
        nb, dk = tile.shape[:2]
        if buf is None:
            # one allocation for the first (largest) group's sums and the GEMM scratch
            chunk = min(nb, max(1, _FOLD_CHUNK_BYTES // (16 * per_order))) if dk < L else 0
            buf = np.empty((2 * nb + chunk) * per_order, dtype=np.complex128)
            scratch = buf[2 * nb * per_order :].view(np.float64)
        if k0 == 0:
            group = nb
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            n = len(block)
            sums = buf[: 2 * group * nh * S * n].reshape(2, group, nh, S, n)
            part = scratch[: chunk * nh * 2 * S * n].reshape(chunk, nh, 2 * S * n)
            for p, (index, *_) in enumerate(maps):
                values = tile[:, (p - k0) % 2 :: 2].transpose(0, 2, 1)
                sums_p = sums[p].view(np.float64).reshape(group, nh, 2 * S * n)
                width = chunk if k0 else nb
                for i in range(0, nb, width):
                    j = min(i + width, nb)
                    out = part[: j - i] if k0 else sums_p
                    # the gather is freed before the next one: holding two at once
                    # raised the peak RSS of a 64-shell inverse at L = 128 by 1.5 MB
                    np.matmul(
                        values[i:j],
                        block.T[index[i:j, :, :S]].view(np.float64).reshape(j - i, -1, 2 * S * n),
                        out=out,
                    )
                    if k0:
                        sums_p[i:j] += out
            if k0 + dk == L - m0:  # the group's last tile
                here = slice(start, start + n)
                for s, (lo, cols) in enumerate(_column_ranges(L, m0, group)[:S]):
                    even, odd = sums[:, lo:, :, s].transpose(0, 2, 3, 1)
                    np.add(even, odd, out=north[here, :, cols].transpose(1, 0, 2))
                    np.subtract(even, odd, out=south[here, :, cols].transpose(1, 0, 2))
    g *= plan.signs[: g.shape[-1]] / math.sqrt(2.0 * np.pi)
    if real:
        g = np.fft.irfft(g, n=nphi, axis=-1, norm="forward")
    else:
        np.fft.ifft(g, axis=-1, norm="forward", out=g)
    return g.reshape(coeffs.shape[:-1] + (L, nphi))


def _plan_for(L: int, plan: SpherePlan | None) -> SpherePlan:
    """`plan`, checked against band limit L, or the cached plan for L."""
    if plan is None:
        return get_plan(L)
    if plan.L != L:
        raise ValueError(f"plan band limit {plan.L} does not match the data's band limit {L}")
    return plan


def sht_forward(grid: SphereGrid, plan: SpherePlan | None = None) -> SphereCoeffs:
    """Forward spherical harmonic transform, exact for band-limited input.

    f_lm = sum_i sum_k w_i (2 pi / (2L-1)) f(theta_i, phi_k) conj(Y_lm),
    with the k-sum carried out by FFT.  The coefficients of a real grid are
    exactly Hermitian.  Raises ValueError if `plan` was built for another
    band limit.
    """
    return SphereCoeffs(grid.L, _sht_forward_batch([grid.values], _plan_for(grid.L, plan))[0])


def sht_inverse(coeffs: SphereCoeffs, plan: SpherePlan | None = None) -> SphereGrid:
    """Inverse spherical harmonic transform onto the exact grid.

    Exactly Hermitian coefficients give a real (float64) grid.  Raises
    ValueError if `plan` was built for another band limit.
    """
    plan = _plan_for(coeffs.L, plan)
    real = _is_hermitian(coeffs.coeffs, coeffs.L)
    return SphereGrid(coeffs.L, _sht_inverse_batch(coeffs.coeffs, plan, real))
