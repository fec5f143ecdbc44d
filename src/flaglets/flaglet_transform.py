"""Flaglet analysis and synthesis on the ball, plus wavelet-domain denoising.

Wavelet coefficients are held as spatial BallGrids (the form in which
they are inspected and thresholded); windowing itself happens in
Fourier-Laguerre space.  With the multiresolution flag each scale is
rendered on the smallest exact grid containing its harmonic support.
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
from .kernel_tiling import FlagletKernels, TilingParams
from .sphere_harmonics import resize_coeffs, window_coeffs

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
    plan = get_flag_plan(grid.limits)
    dphi = 2.0 * np.pi / (2 * grid.limits.L - 1)
    sq = np.abs(grid.values) ** 2
    return float(np.einsum("p,i,pij->", plan.radial_weights, plan.sphere.rule.weights, sq) * dphi)


def flaglet_analyze(
    f: FlagCoeffs, kernels: FlagletKernels, multires: bool = False
) -> FlagletDecomposition:
    """Decompose Fourier-Laguerre coefficients into flaglet coefficient maps."""
    limits = f.limits
    if kernels.limits != limits:
        raise ValueError(
            f"kernel limits {kernels.limits} do not match signal limits {limits}"
        )

    def render(window: np.ndarray, lj: int, pj: int) -> BallGrid:
        if not multires:
            lj, pj = limits.L, limits.P
        sub = resize_coeffs(f.coeffs, (pj, lj * lj))
        windowed = window_coeffs(sub, window.T[:pj, :lj])
        return flag_inverse(FlagCoeffs(BandLimits(lj, pj, limits.tau), windowed))

    # the residual scaling window is supported on the whole L-shaped
    # low-frequency region (all ell at small p and vice versa), so the
    # scaling part always stays at full band limits
    scaling = render(kernels.phi, limits.L, limits.P)
    wavelets = {
        (j, jp): render(kernels.psis[(j, jp)], *kernels.band_limits(j, jp))
        for j in kernels.j_range
        for jp in kernels.jp_range
    }
    return FlagletDecomposition(limits, kernels.params, scaling, wavelets, multires)


def flaglet_synthesize(d: FlagletDecomposition, kernels: FlagletKernels) -> FlagCoeffs:
    """Recombine flaglet coefficient maps (exact inverse of the analysis)."""
    limits = kernels.limits
    if d.limits != limits or d.params != kernels.params:
        raise ValueError("decomposition and kernels were built with different parameters")
    expected = {(j, jp) for j in kernels.j_range for jp in kernels.jp_range}
    if set(d.wavelets) != expected:
        raise ValueError("decomposition scale indices do not match the kernels")

    out = np.zeros((limits.P, limits.L * limits.L), dtype=np.complex128)
    parts = [(d.scaling, kernels.phi)]
    parts += [(grid, kernels.psis[key]) for key, grid in d.wavelets.items()]
    for grid, window in parts:
        lj, pj = grid.limits.L, grid.limits.P
        windowed = window_coeffs(flag_forward(grid).coeffs, window.T[:pj, :lj])
        out += resize_coeffs(windowed, out.shape)
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
