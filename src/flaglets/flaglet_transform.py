"""Flaglet analysis and synthesis on the ball, plus wavelet-domain denoising.

Wavelet coefficients are held as spatial BallGrids (the form in which they
are inspected and thresholded).  Every part windows the Fourier-Laguerre
coefficients and takes one angular and one radial transform.  The wavelet
windows are separable, Psi^{jj'}(l, p) = kappa_j(l) kappa_j'(p), so the
parts of angular scale j share one batched SHT at its band limit L_j per
direction, and kappa_j' is folded into each part's radial GEMM.  The
scaling part is one more such group, the first: its 2-D window Phi at band
L, all P rows, unit radial weights.  With the multiresolution flag each
scale is rendered on the smallest exact grid containing its harmonic
support; the layout of the parts comes from kernel_tiling.flaglet_parts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .flag_transform import BallGrid, BandLimits, FlagCoeffs, get_flag_plan
from .kernel_tiling import FlagletKernels, TilingParams, flaglet_parts
from .sphere_harmonics import (
    _real_matmul,
    _sht_forward_batch,
    _sht_inverse_batch,
    get_plan,
    window_coeffs,
)

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
    radial_weights = get_flag_plan(grid.limits.radial).radial_weights
    angular_weights = get_plan(grid.limits.L).rule.weights
    dphi = 2.0 * np.pi / (2 * grid.limits.L - 1)
    # re^2 + im^2 summed along each row of the float64 view: no square root
    v = grid.values.view(np.float64)
    rows = np.einsum("pij,pij->pi", v, v)
    return float(radial_weights @ rows @ angular_weights * dphi)


def _angular_scales(kernels: FlagletKernels, keys, bands):
    """Per angular transform, in storage order: its window on the degrees
    below its band limit, and per part the key, the limits, the rows p it
    reaches (an interval) and its radial weights on them as a column.  First
    the scaling part: Phi on (p, l) at band L, all P rows, unit weights; then
    per angular scale j, kappa_j below L_j and, per part (j, j'), the rows
    where kappa_j' is nonzero (ending below P_j') and kappa_j' on them."""
    limits, params = kernels.limits, kernels.params
    yield kernels.phi.T, [("scaling", limits, slice(0, limits.P), np.ones((limits.P, 1)))]
    for j, group in itertools.groupby(zip(keys, bands[1:]), key=lambda part: part[0][0]):
        parts = []
        for (_, jp), (lj, pj) in group:
            kappa = kernels.kappas_rad[jp - params.j0_rad]
            nonzero = np.flatnonzero(kappa)
            rows = slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else slice(0, 0)
            parts.append(((j, jp), BandLimits(lj, pj, limits.tau), rows, kappa[rows, None]))
        yield kernels.kappas_ang[j - params.j0_ang][:lj], parts


def flaglet_analyze(
    f: FlagCoeffs, kernels: FlagletKernels, multires: bool = False
) -> FlagletDecomposition:
    """Decompose Fourier-Laguerre coefficients into flaglet coefficient maps.

    Per group of _angular_scales (the scaling part, then each angular scale
    j), one inverse SHT of the windowed coefficients at its band limit; per
    part, one real GEMM of the radially weighted Laguerre basis with the
    shells it reaches.
    """
    limits = f.limits
    if kernels.limits != limits:
        raise ValueError(
            f"kernel limits {kernels.limits} do not match signal limits {limits}"
        )
    keys, bands = flaglet_parts(limits, kernels.params, multires)
    grids = {}
    for window, parts in _angular_scales(kernels, keys, bands):
        lj = window.shape[-1]
        # the first lj^2 flat indices hold exactly the degrees below lj
        shells = _sht_inverse_batch(window_coeffs(f.coeffs[:, : lj * lj], window), get_plan(lj))
        for key, part_limits, rows, weights in parts:
            synth = (get_flag_plan(part_limits.radial).kbasis[rows] * weights).T
            values = _real_matmul(synth, shells[rows].reshape(-1, lj * (2 * lj - 1)))
            grids[key] = BallGrid(part_limits, values.reshape(-1, lj, 2 * lj - 1))
    scaling = grids.pop("scaling")
    return FlagletDecomposition(limits, kernels.params, scaling, grids, multires)


def flaglet_synthesize(d: FlagletDecomposition, kernels: FlagletKernels) -> FlagCoeffs:
    """Recombine flaglet coefficient maps (exact inverse of the analysis).

    Per group of _angular_scales, the radially weighted projections of its
    parts are added up on the shells of one grid, which one forward SHT at
    its band limit takes to coefficients before its window weights them.

    Raises ValueError if a part is not stored at the limits the layout of
    kernel_tiling.flaglet_parts gives it.
    """
    limits = kernels.limits
    if d.limits != limits or d.params != kernels.params:
        raise ValueError("decomposition and kernels were built with different parameters")
    keys, bands = flaglet_parts(limits, kernels.params, d.multires)
    if set(d.wavelets) != set(keys):
        raise ValueError("decomposition scale indices do not match the kernels")
    stored = {"scaling": d.scaling, **{key: d.wavelets[key] for key in keys}}
    for (name, grid), (lj, pj) in zip(stored.items(), bands):
        want = BandLimits(lj, pj, limits.tau)
        if grid.limits != want:
            raise ValueError(f"part {name} is stored at {grid.limits}; the layout needs {want}")

    out = np.zeros((limits.P, limits.L * limits.L), dtype=np.complex128)
    for window, parts in _angular_scales(kernels, keys, bands):
        lj = window.shape[-1]
        shells = np.zeros((limits.P, lj, 2 * lj - 1), dtype=np.complex128)
        for key, part_limits, rows, weights in parts:
            project = get_flag_plan(part_limits.radial).kforward[rows] * weights
            values = stored[key].values.reshape(part_limits.P, -1)
            shells[rows] += _real_matmul(project, values).reshape(-1, lj, 2 * lj - 1)
        coeffs = _sht_forward_batch(shells, get_plan(lj))
        out[:, : lj * lj] += window_coeffs(coeffs, window)
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
