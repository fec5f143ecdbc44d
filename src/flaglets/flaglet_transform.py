"""Flaglet analysis and synthesis on the ball, plus wavelet-domain denoising.

Wavelet coefficients are held as spatial BallGrids (the form in which
they are inspected and thresholded); windowing itself happens in
Fourier-Laguerre space.  With the multiresolution flag each scale is
rendered on the smallest exact grid containing its harmonic support; the
layout of the parts comes from kernel_tiling.flaglet_parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flag_transform import (
    BallGrid,
    BandLimits,
    FlagCoeffs,
    flag_forward,
    flag_inverse,
    get_flag_plan,
)
from .kernel_tiling import FlagletKernels, TilingParams, flaglet_parts
from .sphere_harmonics import get_plan, window_coeffs

__all__ = [
    "FlagletDecomposition",
    "flaglet_analyze",
    "flaglet_synthesize",
    "threshold_denoise",
]


@dataclass
class FlagletDecomposition:
    """Scaling grid plus one wavelet grid per (angular, radial) scale pair."""

    limits: BandLimits
    params: TilingParams
    scaling: BallGrid
    wavelets: dict[tuple[int, int], BallGrid]
    multires: bool

    def sample_count(self) -> int:
        n = self.scaling.values.size
        return n + sum(g.values.size for g in self.wavelets.values())

    def scale_energies(self) -> dict:
        """Coefficient energy per part, computed from the stored grids."""
        energies = {"scaling": _grid_energy(self.scaling)}
        for key, grid in self.wavelets.items():
            energies[key] = _grid_energy(grid)
        return energies


def _grid_energy(grid: BallGrid) -> float:
    """Quadrature estimate of the integral of |f|^2 over the ball."""
    radial_weights = get_flag_plan(grid.limits).radial_weights
    angular_weights = get_plan(grid.limits.L).rule.weights
    dphi = 2.0 * np.pi / (2 * grid.limits.L - 1)
    sq = np.abs(grid.values) ** 2
    return float(np.einsum("p,i,pij->", radial_weights, angular_weights, sq) * dphi)


def flaglet_analyze(
    f: FlagCoeffs, kernels: FlagletKernels, multires: bool = False
) -> FlagletDecomposition:
    """Decompose Fourier-Laguerre coefficients into flaglet coefficient maps."""
    limits = f.limits
    if kernels.limits != limits:
        raise ValueError(
            f"kernel limits {kernels.limits} do not match signal limits {limits}"
        )

    keys, bands = flaglet_parts(limits, kernels.params, multires)
    windows = [kernels.phi, *(kernels.psis[key] for key in keys)]
    grids = []
    for window, (lj, pj) in zip(windows, bands):
        # the first lj^2 flat indices hold exactly the degrees below lj
        windowed = window_coeffs(f.coeffs[:pj, : lj * lj], window.T[:pj, :lj])
        grids.append(flag_inverse(FlagCoeffs(BandLimits(lj, pj, limits.tau), windowed)))
    wavelets = dict(zip(keys, grids[1:]))
    return FlagletDecomposition(limits, kernels.params, grids[0], wavelets, multires)


def flaglet_synthesize(d: FlagletDecomposition, kernels: FlagletKernels) -> FlagCoeffs:
    """Recombine flaglet coefficient maps (exact inverse of the analysis).

    Raises ValueError if a part is not stored at the limits the layout of
    kernel_tiling.flaglet_parts gives it.
    """
    limits = kernels.limits
    if d.limits != limits or d.params != kernels.params:
        raise ValueError("decomposition and kernels were built with different parameters")
    keys, bands = flaglet_parts(limits, kernels.params, d.multires)
    if set(d.wavelets) != set(keys):
        raise ValueError("decomposition scale indices do not match the kernels")
    parts = [("scaling", d.scaling, kernels.phi)]
    parts += [(key, d.wavelets[key], kernels.psis[key]) for key in keys]
    for (name, grid, _), (lj, pj) in zip(parts, bands):
        want = BandLimits(lj, pj, limits.tau)
        if grid.limits != want:
            raise ValueError(f"part {name} is stored at {grid.limits}; the layout needs {want}")

    out = np.zeros((limits.P, limits.L * limits.L), dtype=np.complex128)
    for (_, grid, window), (lj, pj) in zip(parts, bands):
        out[:pj, : lj * lj] += window_coeffs(flag_forward(grid).coeffs, window.T[:pj, :lj])
    return FlagCoeffs(limits, out)


def threshold_denoise(
    d: FlagletDecomposition, threshold: float, mode: str = "hard"
) -> FlagletDecomposition:
    """Shrink wavelet coefficient values; the scaling part passes through.

    hard: values with magnitude below the threshold are zeroed.
    soft: magnitudes are shrunk toward zero by the threshold.
    """
    if threshold < 0 or math.isnan(threshold):
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    if mode not in ("hard", "soft"):
        raise ValueError(f"mode must be 'hard' or 'soft', got {mode!r}")

    wavelets = {}
    for key, grid in d.wavelets.items():
        v = grid.values
        mag = np.abs(v)
        if mode == "hard":
            out = np.where(mag >= threshold, v, 0.0)
        else:
            with np.errstate(invalid="ignore", divide="ignore"):
                shrink = np.where(mag > 0, np.maximum(1.0 - threshold / mag, 0.0), 0.0)
            out = v * shrink
        wavelets[key] = BallGrid(grid.limits, out)
    scaling = BallGrid(d.scaling.limits, d.scaling.values.copy())
    return FlagletDecomposition(d.limits, d.params, scaling, wavelets, d.multires)
