"""Exact spherical harmonic transform on a Gauss-Legendre grid.

Sampling: L Gauss-Legendre colatitudes (theta descending, x = cos(theta)
ascending) by 2L-1 equispaced longitudes.  The longitudinal sums are done
by FFT, the colatitude projection by Gauss-Legendre quadrature, which is
exact for the degree <= 2L-2 Legendre integrands arising for signals
band-limited at L.

Conventions: orthonormal harmonics with the Condon-Shortley phase folded
into the normalized associated Legendre functions,
Y_lm(theta, phi) = Ptilde_l^m(cos theta) e^{i m phi} / sqrt(2 pi).
"""

from __future__ import annotations

import functools
import math
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


def legendre_matrix(L: int, m: int, xs: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values Ptilde_l^m for l = m..L-1.

    Returns shape (L - m, len(xs)).  Normalization is such that
    int_{-1}^{1} Ptilde_l^m Ptilde_l'^m dx = delta_{ll'}, with the
    Condon-Shortley phase included.  The sectoral seed is built
    multiplicatively with a per-point compensation exponent so that high-m
    values near the poles underflow gracefully to zero instead of
    poisoning the recurrence.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    npts = xs.size
    sin2 = np.maximum(0.0, 1.0 - xs * xs)
    sinx = np.sqrt(sin2)

    out = np.zeros((L - m, npts))

    # sectoral seed Ptilde_m^m, compensated: true = u * e^{c}
    u = np.full(npts, 1.0 / math.sqrt(2.0))
    c = np.zeros(npts)
    for k in range(1, m + 1):
        u = u * (-math.sqrt((2 * k + 1) / (2.0 * k))) * sinx
        small = (np.abs(u) < 1e-250) & (u != 0.0)
        if np.any(small):
            u = np.where(small, u * _RESCALE_THRESHOLD, u)
            c = c - np.where(small, _RESCALE_LOG, 0.0)

    with np.errstate(under="ignore"):
        out[0] = u * np.exp(c)
    if m + 1 < L:
        u_prev, u_cur = u, math.sqrt(2 * m + 3.0) * xs * u
        with np.errstate(under="ignore"):
            out[1] = u_cur * np.exp(c)
        for ell in range(m + 2, L):
            a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = math.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
            u_prev, u_cur = u_cur, a * (xs * u_cur - b * u_prev)
            big = np.abs(u_cur) > _RESCALE_THRESHOLD
            if np.any(big):
                f = np.where(big, 1.0 / _RESCALE_THRESHOLD, 1.0)
                u_cur = u_cur * f
                u_prev = u_prev * f
                c = c + np.where(big, _RESCALE_LOG, 0.0)
            with np.errstate(under="ignore"):
                out[ell - m] = u_cur * np.exp(c)
    return out


def assoc_legendre_table(L: int, x: float) -> np.ndarray:
    """Table of Ptilde_l^m(x) for 0 <= m <= l < L at a single point.

    Returns a flat array of length L^2 addressed by l * L + m; entries
    with m > l are zero.
    """
    if L < 1 or L > MAX_BAND_LIMIT:
        raise ValueError(f"band limit must be in [1, {MAX_BAND_LIMIT}], got {L}")
    if abs(x) > 1.0:
        raise ValueError(f"argument must satisfy |x| <= 1, got {x}")
    table = np.zeros(L * L)
    xs = np.array([float(x)])
    for m in range(L):
        col = legendre_matrix(L, m, xs)[:, 0]
        ells = np.arange(m, L)
        table[ells * L + m] = col
    return table


class SpherePlan:
    """Cached quadrature rule and per-m Legendre matrices for one L."""

    # full per-m tables are O(L^3/2) doubles; beyond this, recompute per call
    _CACHE_LIMIT = 256

    def __init__(self, L: int):
        if L < 1 or L > MAX_BAND_LIMIT:
            raise ValueError(f"band limit must be in [1, {MAX_BAND_LIMIT}], got {L}")
        self.L = L
        self.rule = gauss_legendre(L)
        self._tables = [None] * L if L <= self._CACHE_LIMIT else None

    def legendre(self, m: int) -> np.ndarray:
        if self._tables is None:
            return legendre_matrix(self.L, m, self.rule.nodes)
        if self._tables[m] is None:
            self._tables[m] = legendre_matrix(self.L, m, self.rule.nodes)
        return self._tables[m]


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def get_plan(L: int) -> SpherePlan:
    return SpherePlan(L)


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Real matrix times complex matrix as one real GEMM over (re, im) pairs."""
    z = np.ascontiguousarray(z)
    return (a @ z.view(np.float64)).view(np.complex128)


def _sht_forward_batch(values: np.ndarray, plan: SpherePlan) -> np.ndarray:
    """Forward SHT of every grid in values (..., L, 2L-1); returns (..., L^2).

    Rows are FFT'd a block at a time.  For each m one GEMM projects the +m
    and -m Fourier columns of every row in the block onto the degrees (at
    m = 0 both halves are column 0, and both writes store the same values).
    """
    L, nphi = plan.L, 2 * plan.L - 1
    rows = values.reshape(-1, L, nphi)
    out = np.empty((rows.shape[0], L * L), dtype=np.complex128)
    # w_i (2 pi / (2L-1)) / sqrt(2 pi): quadrature and harmonic normalisation
    scale = plan.rule.weights[:, None] * (math.sqrt(2.0 * np.pi) / nphi)
    ells = np.arange(L)
    step = max(1, _FFT_BLOCK_BYTES // (16 * L * nphi))
    for start in range(0, rows.shape[0], step):
        block = rows[start : start + step]
        n = block.shape[0]
        # (m column, colatitude, row) layout: each fm[m] is a contiguous matrix
        fm = np.empty((nphi, L, n), dtype=np.complex128)
        np.fft.fft(block.transpose(2, 1, 0), axis=0, out=fm)
        fm *= scale
        for m in range(L):
            proj = _real_matmul(plan.legendre(m), np.hstack((fm[m], fm[-m])))
            base = ells[m:] * (ells[m:] + 1)
            out[start : start + n, base + m] = proj[:, :n].T
            out[start : start + n, base - m] = (-1) ** m * proj[:, n:].T
    return out.reshape(values.shape[:-2] + (L * L,))


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
    for m in range(L):
        base = ells[m:] * (ells[m:] + 1)
        stacked = np.empty((L - m, 2 * n), dtype=np.complex128)
        stacked[:, :n] = rows[:, base + m].T
        stacked[:, n:] = (-1) ** m * rows[:, base - m].T
        synth = _real_matmul(plan.legendre(m).T, stacked)  # (L, 2n)
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
    return SphereCoeffs(grid.L, _sht_forward_batch(grid.values, plan or get_plan(grid.L)))


def sht_inverse(coeffs: SphereCoeffs, plan: SpherePlan | None = None) -> SphereGrid:
    """Inverse spherical harmonic transform onto the exact grid."""
    return SphereGrid(coeffs.L, _sht_inverse_batch(coeffs.coeffs, plan or get_plan(coeffs.L)))
