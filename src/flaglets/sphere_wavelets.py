"""Axisymmetric scale-discretised wavelet transform on the sphere.

Analysis multiplies harmonic coefficients by the tiling windows and maps
every part to the spatial grid; with the multiresolution flag each scale
is held at its effective band limit (the smallest grid containing the
window's support).  Synthesis re-projects each part and re-applies its
window; admissibility makes the round trip exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel_tiling import SphereKernels
from .sphere_harmonics import (
    SphereCoeffs,
    SphereGrid,
    resize_coeffs,
    sht_forward,
    sht_inverse,
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


def sphere_analyze(
    f: SphereCoeffs, kernels: SphereKernels, multires: bool = False
) -> SphereDecomposition:
    """Decompose harmonic coefficients into scaling and wavelet grids."""
    L = f.L
    if kernels.L != L:
        raise ValueError(f"kernel band limit {kernels.L} does not match signal {L}")

    def render(window: np.ndarray, band: int) -> SphereGrid:
        band = band if multires else L
        windowed = window_coeffs(resize_coeffs(f.coeffs, (band * band,)), window[:band])
        return sht_inverse(SphereCoeffs(band, windowed))

    scaling = render(kernels.eta, kernels.scaling_band_limit)
    wavelets = {
        j: render(kappa, kernels.band_limit(j))
        for j, kappa in enumerate(kernels.kappas, start=kernels.j0)
    }
    return SphereDecomposition(L, kernels.params.lam, kernels.j0, scaling, wavelets, multires)


def sphere_synthesize(d: SphereDecomposition, kernels: SphereKernels) -> SphereCoeffs:
    """Recombine a decomposition into harmonic coefficients (exact inverse)."""
    L = kernels.L
    if d.L != L or d.j0 != kernels.j0 or d.lam != kernels.params.lam:
        raise ValueError("decomposition and kernels were built with different parameters")
    if set(d.wavelets) != set(range(kernels.j0, kernels.jmax + 1)):
        raise ValueError("decomposition scale indices do not match the kernels")

    out = np.zeros(L * L, dtype=np.complex128)
    parts = [(d.scaling, kernels.eta)]
    parts += [(d.wavelets[j], kappa) for j, kappa in enumerate(kernels.kappas, start=kernels.j0)]
    for grid, window in parts:
        windowed = window_coeffs(sht_forward(grid).coeffs, window[: grid.L])
        out += resize_coeffs(windowed, out.shape)
    return SphereCoeffs(L, out)
