"""Exact spherical harmonic transform on a Gauss-Legendre grid.

Sampling: L Gauss-Legendre colatitudes (theta descending, x = cos(theta)
ascending) by 2L-1 equispaced longitudes.  The longitudinal sums are done
by FFT, the colatitude projection by Gauss-Legendre quadrature, which is
exact for the degree <= 2L-2 Legendre integrands arising for signals
band-limited at L.

Conventions: orthonormal harmonics with the Condon-Shortley phase folded
into the normalized associated Legendre functions,
Y_lm(theta, phi) = Ptilde_l^m(cos theta) e^{i m phi} / sqrt(2 pi).

The Ptilde_l^m come from one compensated recurrence, _legendre_blocks, in
blocks of orders on the x >= 0 half of the symmetric nodes.  The engine
never mirrors them: Ptilde_l^m(-x) = (-1)^{l+m} Ptilde_l^m(x), so it folds
a grid into f(x) + f(-x) and f(x) - f(-x) on the half nodes, which the even
and the odd degrees of an order project onto, and unfolds the synthesised
sums the same way.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre

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

# plans for this many band limits stay cached: more than the 9 distinct
# band limits one multiresolution sphere-wavelet pass at L=288 touches
_PLAN_CACHE_SIZE = 32

# the forward transform FFTs at most this many bytes of grid rows at a time,
# so a batch of shells never holds a full-size Fourier copy of its grid
_FFT_BLOCK_BYTES = 8 << 20

# the Legendre recurrence steps this many bytes of table values in lock step
_LEGENDRE_BLOCK_BYTES = 2 << 20


def coeff_index(ell: int, m: int) -> int:
    """Flat index of the (ell, m) coefficient: ell^2 + ell + m."""
    return ell * ell + ell + m


def window_coeffs(coeffs: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Multiply coefficients (..., L^2) by a per-degree window (..., L)."""
    L = window.shape[-1]
    return coeffs * np.repeat(window, 2 * np.arange(L) + 1, axis=-1)


@dataclass
class SphereGrid:
    """Samples of a function on the exact sphere grid at band limit L.

    values has shape (L, 2L-1), row i holding the equispaced longitudes at
    colatitude theta_i (theta descending).
    """

    L: int
    values: np.ndarray

    def __post_init__(self):
        if not 1 <= self.L <= MAX_BAND_LIMIT:
            raise ValueError(f"band limit must be in [1, {MAX_BAND_LIMIT}], got {self.L}")
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
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
        if not 1 <= self.L <= MAX_BAND_LIMIT:
            raise ValueError(f"band limit must be in [1, {MAX_BAND_LIMIT}], got {self.L}")
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
    if L < 1 or L > MAX_BAND_LIMIT:
        raise ValueError(f"band limit must be in [1, {MAX_BAND_LIMIT}], got {L}")
    rule = gauss_legendre(L)
    thetas = np.arccos(rule.nodes)
    phis = 2.0 * np.pi * np.arange(2 * L - 1) / (2 * L - 1)
    return thetas, phis


def _legendre_blocks(L: int, xs: np.ndarray, m_first: int = 0):
    """Yield (m0, block) for consecutive blocks of orders from m_first to L-1.

    block[i, k, j] = Ptilde_{m0+i+k}^{m0+i}(xs[j]), shape (nb, L - m0, len(xs));
    the rows k >= L - m0 - i (degree l >= L) are zero.
    int_{-1}^{1} Ptilde_l^m Ptilde_l'^m dx = delta_{ll'}, Condon-Shortley phase
    included.  Values are carried as u e^{c} with a per-point exponent c, so
    high-m values near the poles underflow to zero instead of poisoning the
    recurrence.  The sectoral seed is carried from one order to the next; the
    recurrence over l steps the orders of a block in lock step.  sin(theta) is
    taken as sqrt((1 - x)(1 + x)), which keeps its last bits near the poles.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    n = xs.size
    sinx = np.sqrt(np.maximum(0.0, (1.0 - xs) * (1.0 + xs)))
    step = max(1, _LEGENDRE_BLOCK_BYTES // (8 * L * max(n, 1)))
    u = np.full(n, 1.0 / math.sqrt(2.0))
    c = np.zeros(n)
    m = 0
    for m0 in range(m_first, L, step):
        nb, K = min(step, L - m0), L - m0
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
        block = np.empty((nb, K, n))
        ms = np.arange(m0, m0 + nb, dtype=np.float64)
        ells = ms + np.arange(2, K, dtype=np.float64)[:, None]  # (K-2, nb)
        a = np.sqrt((4.0 * ells * ells - 1.0) / (ells * ells - ms * ms))[..., None]
        b = np.sqrt(((ells - 1.0) ** 2 - ms * ms) / (4.0 * (ells - 1.0) ** 2 - 1.0))[..., None]
        # unscaled seeds make u = Ptilde, |u| <= sqrt((2l+1)/2) <= 64: no overflow test
        may_overflow = seed_c.any()
        with np.errstate(under="ignore"):
            c_blk = seed_c
            scale = np.exp(c_blk)  # recomputed only when a rescale fires
            block[:, 0] = seed_u * scale
            if K > 1:
                u_prev, u_cur = seed_u, np.sqrt(2.0 * ms + 3.0)[:, None] * xs * seed_u
                block[:, 1] = u_cur * scale
            for k in range(2, K):
                u_prev, u_cur = u_cur, a[k - 2] * (xs * u_cur - b[k - 2] * u_prev)
                if may_overflow and np.abs(u_cur).max() > _RESCALE_THRESHOLD:
                    big = np.abs(u_cur) > _RESCALE_THRESHOLD
                    f = np.where(big, 1.0 / _RESCALE_THRESHOLD, 1.0)
                    u_cur, u_prev = u_cur * f, u_prev * f
                    c_blk = c_blk + np.where(big, _RESCALE_LOG, 0.0)
                    scale = np.exp(c_blk)
                block[:, k] = u_cur * scale
        for i in range(1, nb):
            block[i, K - i :] = 0.0
        yield m0, block


def legendre_matrix(L: int, m: int, xs: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values Ptilde_l^m for l = m..L-1.

    Returns shape (L - m, len(xs)); see _legendre_blocks.
    """
    return next(_legendre_blocks(L, xs, m))[1][0].copy()


def assoc_legendre_table(L: int, x: float) -> np.ndarray:
    """Table of Ptilde_l^m(x) for 0 <= m <= l < L at a single point.

    Returns a flat array of length L^2 addressed by l * L + m; entries
    with m > l are zero.
    """
    if L < 1 or L > MAX_BAND_LIMIT:
        raise ValueError(f"band limit must be in [1, {MAX_BAND_LIMIT}], got {L}")
    if abs(x) > 1.0:
        raise ValueError(f"argument must satisfy |x| <= 1, got {x}")
    table = np.zeros((L, L))
    for m0, block in _legendre_blocks(L, np.array([float(x)])):
        for i, col in enumerate(block[:, :, 0], start=m0):
            table[i:, i] = col[: L - i]
    return table.reshape(-1)


class SpherePlan:
    """Quadrature rule and folded Legendre blocks with their index maps for one L.

    The nodes are symmetric, x_{half+j} = -x_{L-1-half-j} with half = L // 2
    (exact in gauss_legendre), so tables() yields the blocks of
    _legendre_blocks on the L - half nodes x >= 0 only.  In block[i, k] the
    rows of even k (l + m even) are even in x and those of odd k odd; at odd
    L the odd rows vanish at x = 0.  Up to _CACHE_LIMIT a complete pass is
    kept, maps included; past it blocks and maps are yielded and dropped.

    maps[p] serves parity p of a block of nb orders from m0 as int32 arrays:
    `index[i, k', s]` is the flat coefficient index of (l, m) =
    (m0+i+2k'+p, +-(m0+i)) for s = 0, 1, and 0 past the band limit, where
    the table rows are zero; `valid` lists the flat positions in `index`
    that the forward transform stores, each coefficient once, in
    coefficient order; `dest` = index.flat[valid].
    """

    # folded blocks are O(L^3/4) doubles; beyond this, regenerate per pass
    _CACHE_LIMIT = 256

    def __init__(self, L: int):
        if L < 1 or L > MAX_BAND_LIMIT:
            raise ValueError(f"band limit must be in [1, {MAX_BAND_LIMIT}], got {L}")
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
        self._blocks = None

    def _block_maps(self, m0: int, nb: int):
        ms = np.arange(m0, m0 + nb, dtype=np.int32)[:, None]
        maps = []
        for p in (0, 1):
            ells = ms + np.arange(p, self.L - m0, 2, dtype=np.int32)  # (nb, K')
            inside = ells < self.L
            index = (ells * (ells + 1))[..., None] + ms[..., None] * np.array([1, -1], np.int32)
            index[~inside] = 0
            stored = np.repeat(inside, 2, axis=1).reshape(index.shape)
            if m0 == 0:
                stored[0, :, 1] = False  # -0 is +0: order 0 is stored once
            flat = index.reshape(-1)
            # stored entries in coefficient order: the scatter then writes runs
            valid = np.flatnonzero(stored).astype(np.int32)
            valid = valid[np.argsort(flat[valid])]
            maps.append((index, valid, flat[valid]))
        return maps

    def tables(self):
        """Yield (m0, block, maps) over all orders; see _legendre_blocks."""
        if self._blocks is not None:
            yield from self._blocks
            return
        kept = []
        for m0, block in _legendre_blocks(self.L, self.rule.nodes[self.half :]):
            entry = (m0, block, self._block_maps(m0, block.shape[0]))
            if self.L <= self._CACHE_LIMIT:
                kept.append(entry)
            yield entry
        if kept:
            self._blocks = kept


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def get_plan(L: int) -> SpherePlan:
    return SpherePlan(L)


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Real matrix times complex matrix as one real GEMM over (re, im) pairs."""
    z = np.ascontiguousarray(z)
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
    A block of grids at a time is folded about the equator into an
    (n, L, 2L-1) buffer, rows f(x) + f(-x) then f(x) - f(-x) on the half
    nodes, and FFT'd in place along its contiguous last axis.  For each block
    of orders and each parity, the +m and -m Fourier columns of the sums (even
    rows of the block) or the differences (odd rows) are copied out weighted,
    projected by one stacked GEMM over the orders, and the stored degrees
    scattered through the block's maps.  Past SpherePlan._CACHE_LIMIT the
    tables are regenerated per block of grids: generating them once would hold
    a full-size Fourier copy.
    """
    L, nphi, half = plan.L, 2 * plan.L - 1, plan.half
    nh, odd = L - half, L % 2
    out = np.empty((len(grids), L * L), dtype=np.complex128)
    step = min(_fft_block_grids(L), max(len(grids), 1))
    # work space reused by every block of grids: the Fourier buffer, and room
    # for the folded columns and the projections of any (block of orders,
    # parity), sized at the first block of orders, which is the largest
    fm_buf = np.empty((step, L, nphi), dtype=np.complex128)
    folded_buf = proj_buf = None
    for start in range(0, len(grids), step):
        block = grids[start : start + step]
        n = len(block)
        fm = fm_buf[:n]
        for dst, src in zip(fm, block):
            north, south = src[half:], src[nh - 1 :: -1]
            np.add(north, south, out=dst[:nh])
            np.subtract(north[odd:], south[odd:], out=dst[nh:])
        np.fft.fft(fm, axis=-1, out=fm)
        out_t = out[start : start + n].T
        for m0, table, maps in plan.tables():
            nb = table.shape[0]
            if folded_buf is None:
                folded_buf = np.empty(nb * nh * 2 * step, dtype=np.complex128)
                proj_buf = np.empty_like(folded_buf)
            for p, fold, (index, valid, dest) in zip((0, 1), (slice(0, nh), slice(nh, L)), maps):
                nodes = fold.stop - fold.start
                # folded[i, j, s, r]: order m0+i, folded row j, sign s, grid r
                folded = folded_buf[: nb * nodes * 2 * n].reshape(nb, nodes, 2, n)
                for s, (lo, cols) in enumerate(_column_ranges(L, m0, nb)):
                    weights = np.multiply.outer(plan.signs[cols], plan.fold_weights[fold])
                    columns = fm[:, fold, cols].transpose(2, 1, 0)
                    np.multiply(columns, weights[..., None], out=folded[lo:, :, s])
                if m0 == 0:
                    folded[0, :, 1] = 0.0
                proj = proj_buf[: index.size * n].reshape(-1, n)
                np.matmul(
                    table[:, p::2, odd * p :],
                    folded.view(np.float64).reshape(nb, nodes, 4 * n),
                    out=proj.view(np.float64).reshape(nb, -1, 4 * n),
                )
                stored = folded_buf[: valid.size * n].reshape(-1, n)
                np.take(proj, valid, axis=0, out=stored, mode="clip")
                out_t[dest] = stored
    return out


def _sht_inverse_batch(coeffs: np.ndarray, plan: SpherePlan) -> np.ndarray:
    """Inverse SHT of every row of coeffs (..., L^2); returns (..., L, 2L-1).

    For each block of orders, and within it for each block of at most
    _fft_block_grids rows, the maps of the block of orders gather the +m and
    -m coefficients of each parity, and one stacked GEMM per parity
    synthesises the even and the odd sums S_even, S_odd on the half nodes.
    f(+-x) = S_even +- S_odd goes straight into the block's Fourier columns,
    which are then signed and scaled and inverse-FFT'd in place.
    """
    L, nphi, half = plan.L, 2 * plan.L - 1, plan.half
    nh = L - half
    rows = coeffs.reshape(-1, L * L)
    g = np.empty((rows.shape[0], L, nphi), dtype=np.complex128)
    north, south = g[:, half:], g[:, nh - 1 :: -1]
    step = min(_fft_block_grids(L), max(len(rows), 1))
    synth_buf = None
    for m0, table, maps in plan.tables():
        nb = table.shape[0]
        if synth_buf is None:  # the first block of orders is the largest
            synth_buf = np.empty(2 * nb * nh * 2 * step, dtype=np.complex128)
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            n = len(chunk)
            synth = synth_buf[: 2 * nb * nh * 2 * n].reshape(2, nb, nh, 2, n)
            for p, (index, _, _) in enumerate(maps):
                np.matmul(
                    table[:, p::2].transpose(0, 2, 1),
                    chunk.T[index].view(np.float64).reshape(nb, -1, 4 * n),
                    out=synth[p].view(np.float64).reshape(nb, nh, 4 * n),
                )
            for s, (lo, cols) in enumerate(_column_ranges(L, m0, nb)):
                even, odd = synth[:, lo:, :, s].transpose(0, 2, 3, 1)
                np.add(even, odd, out=north[start : start + n, :, cols].transpose(1, 0, 2))
                np.subtract(even, odd, out=south[start : start + n, :, cols].transpose(1, 0, 2))
    g *= plan.signs / math.sqrt(2.0 * np.pi)
    np.fft.ifft(g, axis=-1, norm="forward", out=g)
    return g.reshape(coeffs.shape[:-1] + (L, nphi))


def sht_forward(grid: SphereGrid, plan: SpherePlan | None = None) -> SphereCoeffs:
    """Forward spherical harmonic transform, exact for band-limited input.

    f_lm = sum_i sum_k w_i (2 pi / (2L-1)) f(theta_i, phi_k) conj(Y_lm),
    with the k-sum carried out by FFT.
    """
    return SphereCoeffs(grid.L, _sht_forward_batch([grid.values], plan or get_plan(grid.L))[0])


def sht_inverse(coeffs: SphereCoeffs, plan: SpherePlan | None = None) -> SphereGrid:
    """Inverse spherical harmonic transform onto the exact grid."""
    return SphereGrid(coeffs.L, _sht_inverse_batch(coeffs.coeffs, plan or get_plan(coeffs.L)))
