"""Exact spherical harmonic transform on a Gauss-Legendre grid.

Sampling: L Gauss-Legendre colatitudes (theta descending, x = cos(theta)
ascending) by 2L-1 equispaced longitudes.  The longitudinal sums are done
by FFT, the colatitude projection by Gauss-Legendre quadrature, which is
exact for the degree <= 2L-2 Legendre integrands arising for signals
band-limited at L.

Conventions: orthonormal harmonics with the Condon-Shortley phase folded
into the normalized associated Legendre functions,
Y_lm(theta, phi) = Ptilde_l^m(cos theta) e^{i m phi} / sqrt(2 pi).

The Ptilde_l^m come from one compensated recurrence, _legendre_blocks, run
on the x >= 0 half of the symmetric nodes; SpherePlan mirrors the other half.
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


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def degree_of_index(L: int) -> np.ndarray:
    """Degree ell = floor(sqrt(i)) of every flat index i < L^2 (read-only)."""
    ells = np.repeat(np.arange(L), 2 * np.arange(L) + 1)
    ells.flags.writeable = False
    return ells


def window_coeffs(coeffs: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Multiply coefficients (..., L^2) by a per-degree window (..., L)."""
    return coeffs * window[..., degree_of_index(window.shape[-1])]


def resize_coeffs(coeffs: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Truncate or zero-pad coefficients to `shape` (last axis L^2: a new band limit).

    Returns `coeffs` itself when the shape already matches.
    """
    if coeffs.shape == shape:
        return coeffs
    out = np.zeros(shape, dtype=coeffs.dtype)
    common = tuple(slice(min(a, b)) for a, b in zip(coeffs.shape, shape))
    out[common] = coeffs[common]
    return out


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
    """Yield (m, Ptilde_l^m(xs) for l = m..L-1) for m = m_first..L-1.

    int_{-1}^{1} Ptilde_l^m Ptilde_l'^m dx = delta_{ll'}, Condon-Shortley phase
    included.  Values are carried as u e^{c} with a per-point exponent c, so
    high-m values near the poles underflow to zero instead of poisoning the
    recurrence.  The sectoral seed is carried from one order to the next; the
    recurrence over l steps a block of orders in lock step.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    n = xs.size
    sinx = np.sqrt(np.maximum(0.0, 1.0 - xs * xs))
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
        # block[i, k] = Ptilde_{m0+i+k}^{m0+i}; rows k >= K-i (l >= L) are unused
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
        for i in range(nb):
            yield m0 + i, block[i, : K - i]


def legendre_matrix(L: int, m: int, xs: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values Ptilde_l^m for l = m..L-1.

    Returns shape (L - m, len(xs)); see _legendre_blocks.
    """
    return next(_legendre_blocks(L, xs, m))[1].copy()


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
    for m, col in _legendre_blocks(L, np.array([float(x)])):
        table[m:, m] = col[:, 0]
    return table.reshape(-1)


class SpherePlan:
    """Quadrature rule and streamed per-m Legendre tables for one L.

    tables() recurs on the nodes x >= 0 and mirrors x_i = -x_{L-1-i} (exact in
    gauss_legendre) by Ptilde_l^m(-x) = (-1)^{l+m} Ptilde_l^m(x).  Up to
    _CACHE_LIMIT a complete pass is kept; past it tables are yielded and dropped.
    """

    # full per-m tables are O(L^3/2) doubles; beyond this, regenerate per pass
    _CACHE_LIMIT = 256

    def __init__(self, L: int):
        if L < 1 or L > MAX_BAND_LIMIT:
            raise ValueError(f"band limit must be in [1, {MAX_BAND_LIMIT}], got {L}")
        self.L = L
        self.rule = gauss_legendre(L)
        self._tables = None

    def tables(self):
        """Yield (m, Ptilde_l^m at every node for l = m..L-1) for m = 0..L-1."""
        if self._tables is not None:
            yield from enumerate(self._tables)
            return
        L, half = self.L, self.L // 2
        kept = []
        for m, upper in _legendre_blocks(L, self.rule.nodes[half:]):
            table = np.hstack((upper[:, ::-1][:, :half], upper))
            table[1::2, :half] *= -1.0
            if L <= self._CACHE_LIMIT:
                kept.append(table)
            yield m, table
        if kept:
            self._tables = kept


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def get_plan(L: int) -> SpherePlan:
    return SpherePlan(L)


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Real matrix times complex matrix as one real GEMM over (re, im) pairs."""
    z = np.ascontiguousarray(z)
    return (a @ z.view(np.float64)).view(np.complex128)


def _fft_block_grids(L: int) -> int:
    """Grids the forward transform FFTs per block: _FFT_BLOCK_BYTES' worth, at least one."""
    return max(1, _FFT_BLOCK_BYTES // (16 * L * (2 * L - 1)))


def _sht_forward_batch(grids: Sequence[np.ndarray], plan: SpherePlan) -> np.ndarray:
    """Forward SHT of every (L, 2L-1) grid in `grids`; returns (len(grids), L^2).

    `grids` may be a list of grids or an array of them; it is never stacked.
    A block of grids at a time is copied row by row into an (n, L, 2L-1)
    buffer and FFT'd in place along its contiguous last axis.  For each m one
    GEMM projects the +m and -m Fourier columns of every grid in the block
    onto the degrees (at m = 0 both halves are column 0, and both writes store
    the same values).  Past SpherePlan._CACHE_LIMIT the tables are regenerated
    per block: generating them once would hold a full-size Fourier copy.
    """
    L, nphi = plan.L, 2 * plan.L - 1
    out = np.empty((len(grids), L * L), dtype=np.complex128)
    # w_i (2 pi / (2L-1)) / sqrt(2 pi): quadrature and harmonic normalisation
    scale = plan.rule.weights[:, None] * (math.sqrt(2.0 * np.pi) / nphi)
    ells = np.arange(L)
    step = _fft_block_grids(L)
    for start in range(0, len(grids), step):
        block = grids[start : start + step]
        n = len(block)
        fm = np.empty((n, L, nphi), dtype=np.complex128)
        for row, grid in zip(fm, block):
            row[...] = grid
        np.fft.fft(fm, axis=-1, out=fm)
        fm *= scale
        for m, table in plan.tables():
            proj = _real_matmul(table, np.hstack((fm[:, :, m].T, fm[:, :, -m].T)))
            base = ells[m:] * (ells[m:] + 1)
            out[start : start + n, base + m] = proj[:, :n].T
            out[start : start + n, base - m] = (-1) ** m * proj[:, n:].T
    return out


def _sht_inverse_batch(coeffs: np.ndarray, plan: SpherePlan) -> np.ndarray:
    """Inverse SHT of every row of coeffs (..., L^2); returns (..., L, 2L-1).

    For each m one GEMM synthesises the +m and -m Fourier columns of every
    row (at m = 0 both halves are column 0 and agree); the longitudinal sums
    are one in-place inverse FFT.
    """
    L, nphi = plan.L, 2 * plan.L - 1
    rows = coeffs.reshape(-1, L * L)
    n = rows.shape[0]
    g = np.empty((n, L, nphi), dtype=np.complex128)
    ells = np.arange(L)
    for m, table in plan.tables():
        base = ells[m:] * (ells[m:] + 1)
        stacked = np.empty((L - m, 2 * n), dtype=np.complex128)
        stacked[:, :n] = rows[:, base + m].T
        stacked[:, n:] = (-1) ** m * rows[:, base - m].T
        synth = _real_matmul(table.T, stacked)  # (L, 2n)
        g[:, :, m] = synth[:, :n].T
        g[:, :, -m] = synth[:, n:].T
    np.fft.ifft(g, axis=-1, out=g)
    g *= nphi / math.sqrt(2.0 * np.pi)
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
