"""Axisymmetric scale-discretised wavelet transform on the sphere.

Analysis multiplies harmonic coefficients by the tiling windows and maps
every part to the spatial grid; with the multiresolution flag each scale
is held at its effective band limit (the smallest grid containing the
window's support).  Synthesis re-projects each part and re-applies its
window; admissibility makes the round trip exact.  The parts, their order
and their band limits come from kernel_tiling.sphere_part_bands.

Parts that share a band limit (the scaling part and the first scale, the
top scales capped at L, or every part at full resolution) form one group of
SphereKernels.group_plan(multires): one batched inverse, so one pass over
the Legendre tables, and one forward call that windows and sums their maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel_tiling import SphereKernels
from .sphere_harmonics import (
    SphereCoeffs,
    SphereGrid,
    _is_hermitian,
    _sht_forward_batch,
    _sht_inverse_batch,
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
    """Decompose harmonic coefficients into scaling and wavelet grids; those
    of exactly Hermitian coefficients are real (float64)."""
    L = f.L
    if kernels.L != L:
        raise ValueError(f"kernel band limit {kernels.L} does not match signal {L}")

    real = _is_hermitian(f.coeffs, L)
    grids = []
    for window, plan, _ in kernels.group_plan(multires):
        # the first L_j^2 flat indices hold exactly the degrees below L_j
        windowed = window_coeffs(f.coeffs[: plan.L**2], window)
        grids += [SphereGrid(plan.L, g) for g in _sht_inverse_batch(windowed, plan, real)]
    wavelets = dict(zip(range(kernels.j0, kernels.jmax + 1), grids[1:]))
    return SphereDecomposition(L, kernels.params.lam, kernels.j0, grids[0], wavelets, multires)


def sphere_synthesize(d: SphereDecomposition, kernels: SphereKernels) -> SphereCoeffs:
    """Recombine a decomposition into harmonic coefficients (exact inverse).

    Raises ValueError if a part is not stored at the band limit the layout
    of kernel_tiling.sphere_part_bands gives it.
    """
    L = kernels.L
    if d.L != L or d.j0 != kernels.j0 or d.lam != kernels.params.lam:
        raise ValueError("decomposition and kernels were built with different parameters")
    if set(d.wavelets) != set(range(kernels.j0, kernels.jmax + 1)):
        raise ValueError("decomposition scale indices do not match the kernels")
    stored = {"scaling": d.scaling, **d.wavelets}
    groups = kernels.group_plan(d.multires)
    bands = {name: plan.L for _, plan, parts in groups for name in parts}
    for name, grid in stored.items():
        if grid.L != bands[name]:
            raise ValueError(f"part {name} is stored at band {grid.L}; the layout needs {bands[name]}")

    out = np.zeros(L * L, dtype=np.complex128)
    for window, plan, parts in groups:
        _sht_forward_batch([stored[name].values for name in parts], plan, window, out[: plan.L**2])
    return SphereCoeffs(L, out)
