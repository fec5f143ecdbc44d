"""Axisymmetric scale-discretised wavelet transform on the sphere.

Analysis multiplies harmonic coefficients by the tiling windows and maps
every part to the spatial grid; with the multiresolution flag each scale
is held at its effective band limit (the smallest grid containing the
window's support).  Synthesis re-projects each part and re-applies its
window; admissibility makes the round trip exact.

Parts that share a band limit (the scaling part and the first scale, the
top scales capped at L, or every part at full resolution) go through one
batched transform call, so they share one pass over the Legendre tables.
Synthesis calls hold at most one forward FFT block of grids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .kernel_tiling import SphereKernels
from .sphere_harmonics import (
    SphereCoeffs,
    SphereGrid,
    _fft_block_grids,
    _sht_forward_batch,
    _sht_inverse_batch,
    get_plan,
    window_coeffs,
)

__all__ = ["SphereDecomposition", "sphere_analyze", "sphere_synthesize"]


@dataclass
class SphereDecomposition:
    """Scaling grid plus one wavelet grid per scale j."""

    L: int
    lam: float
    j0: int
    scaling: SphereGrid
    wavelets: dict[int, SphereGrid]
    multires: bool

    def sample_count(self) -> int:
        n = self.scaling.values.size
        return n + sum(g.values.size for g in self.wavelets.values())


def _runs(bands: list[int], cap=None):
    """Yield (band, slice) for runs of consecutive parts sharing a band limit,
    each at most cap(band) parts long when a cap is given."""
    start = 0
    for band, run in itertools.groupby(bands):
        stop = start + sum(1 for _ in run)
        step = cap(band) if cap else stop - start
        for lo in range(start, stop, step):
            yield band, slice(lo, min(lo + step, stop))
        start = stop


def sphere_analyze(
    f: SphereCoeffs, kernels: SphereKernels, multires: bool = False
) -> SphereDecomposition:
    """Decompose harmonic coefficients into scaling and wavelet grids."""
    L = f.L
    if kernels.L != L:
        raise ValueError(f"kernel band limit {kernels.L} does not match signal {L}")

    scales = range(kernels.j0, kernels.jmax + 1)
    windows = [kernels.eta, *kernels.kappas]
    bands = [kernels.scaling_band_limit] + [kernels.band_limit(j) for j in scales]
    if not multires:
        bands = [L] * len(bands)
    grids = []
    for band, part in _runs(bands):
        # the first band^2 flat indices hold exactly the degrees below band
        stacked = np.stack([w[:band] for w in windows[part]])
        windowed = window_coeffs(f.coeffs[: band * band], stacked)
        grids += [SphereGrid(band, g) for g in _sht_inverse_batch(windowed, get_plan(band))]
    wavelets = dict(zip(scales, grids[1:]))
    return SphereDecomposition(L, kernels.params.lam, kernels.j0, grids[0], wavelets, multires)


def sphere_synthesize(d: SphereDecomposition, kernels: SphereKernels) -> SphereCoeffs:
    """Recombine a decomposition into harmonic coefficients (exact inverse)."""
    L = kernels.L
    if d.L != L or d.j0 != kernels.j0 or d.lam != kernels.params.lam:
        raise ValueError("decomposition and kernels were built with different parameters")
    if set(d.wavelets) != set(range(kernels.j0, kernels.jmax + 1)):
        raise ValueError("decomposition scale indices do not match the kernels")

    out = np.zeros(L * L, dtype=np.complex128)
    windows = [kernels.eta, *kernels.kappas]
    grids = [d.scaling] + [d.wavelets[j] for j in range(kernels.j0, kernels.jmax + 1)]
    # the engine regenerates streamed tables per FFT block anyway, so a call
    # larger than one block would only hold more coefficient rows
    for band, part in _runs([g.L for g in grids], _fft_block_grids):
        coeffs = _sht_forward_batch([g.values for g in grids[part]], get_plan(band))
        for c, w in zip(coeffs, windows[part]):
            out[: band * band] += window_coeffs(c, w[:band])
    return SphereCoeffs(L, out)
