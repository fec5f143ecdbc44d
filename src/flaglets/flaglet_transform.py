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
What both directions read, the angular groups with their windows and
SpherePlans, and per part its key, limits, rows and kappa_j'-weighted radial
matrices, is made once per storage mode and kept on the kernels
(FlagletKernels.part_plan); a part's place in the one buffer of an analysis
follows from the sizes of the parts before it.
The windows and the K_p are real, so the maps of a real field (Hermitian
coefficients) are real, and are held, thresholded and stored as float64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._buffers import take
from .flag_transform import BallGrid, BandLimits, FlagCoeffs, get_flag_plan
from .kernel_tiling import FlagletKernels, TilingParams
from .sphere_harmonics import (
    _is_hermitian,
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
    """Scaling grid plus one wavelet grid per (angular, radial) scale pair.

    flaglet_analyze, read_container and threshold_denoise hold the parts as
    views of one contiguous buffer in storage order (the scaling part, then
    the (j, j') in sorted order), so a part that is kept, or any view of it,
    keeps the whole buffer alive; copy its values to keep them alone.  The
    buffers are recycled: once no view of one is left, a later decomposition
    of the same byte size reuses its memory.  A decomposition built by hand
    may hold separate arrays.
    """

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
    # re^2 + im^2 (a real sample's square) summed along each row of the
    # float64 view: no square root
    v = grid.values.view(np.float64)
    rows = np.einsum("pij,pij->pi", v, v)
    return float(radial_weights @ rows @ angular_weights * dphi)


def flaglet_analyze(
    f: FlagCoeffs, kernels: FlagletKernels, multires: bool = False
) -> FlagletDecomposition:
    """Decompose Fourier-Laguerre coefficients into flaglet coefficient maps.

    Per angular group of kernels.part_plan(multires) (the scaling part, then
    each angular scale j), one inverse SHT of the windowed coefficients at
    its band limit; per part, one real GEMM of its radially weighted
    Laguerre synthesis with the shells it reaches, written into the part's
    slice of one buffer that holds every part in storage order.  The maps of
    exactly Hermitian coefficients are real (float64).
    """
    limits = f.limits
    if kernels.limits != limits:
        raise ValueError(
            f"kernel limits {kernels.limits} do not match signal limits {limits}"
        )
    groups = kernels.part_plan(multires)
    # the windows are real, so windowed Hermitian coefficients stay Hermitian
    real = _is_hermitian(f.coeffs, limits.L)
    # every part is a view of one recycled buffer, in storage order
    dtype = np.dtype(np.float64 if real else np.complex128)
    layout = [part.limits for group in groups for part in group.parts]
    sizes = [part.P * part.L * (2 * part.L - 1) for part in layout]
    buffer = take(dtype.itemsize * sum(sizes)).view(dtype)
    slots = iter(np.split(buffer, list(itertools.accumulate(sizes[:-1]))))
    grids = {}
    for window, sphere, parts in groups:
        lj = sphere.L
        # the first lj^2 flat indices hold exactly the degrees below lj
        windowed = window_coeffs(f.coeffs[:, : lj * lj], window)
        shells = _sht_inverse_batch(windowed, sphere, real)
        for key, part_limits, rows, synth, _ in parts:
            values = next(slots).reshape(-1, lj * (2 * lj - 1))
            _real_matmul(synth, shells[rows].reshape(-1, lj * (2 * lj - 1)), out=values)
            grids[key] = BallGrid(part_limits, values.reshape(-1, lj, 2 * lj - 1))
    scaling = grids.pop("scaling")
    return FlagletDecomposition(limits, kernels.params, scaling, grids, multires)


def flaglet_synthesize(d: FlagletDecomposition, kernels: FlagletKernels) -> FlagCoeffs:
    """Recombine flaglet coefficient maps (exact inverse of the analysis).

    Per angular group of kernels.part_plan(d.multires), the radially
    weighted projections of its parts are added up on the shells of one
    grid, which one forward SHT at its band limit takes to coefficients
    before its window weights them.  The shells are real when every stored
    part is, and the coefficients of real parts exactly Hermitian.

    Raises ValueError if a part is not stored at the limits the layout of
    kernel_tiling.flaglet_parts gives it.
    """
    limits = kernels.limits
    if d.limits != limits or d.params != kernels.params:
        raise ValueError("decomposition and kernels were built with different parameters")
    groups = kernels.part_plan(d.multires)
    layout = [part for group in groups for part in group.parts]
    if set(d.wavelets) != {part.key for part in layout[1:]}:
        raise ValueError("decomposition scale indices do not match the kernels")
    stored = {"scaling": d.scaling, **d.wavelets}
    for part in layout:
        if (got := stored[part.key].limits) != part.limits:
            raise ValueError(f"part {part.key} is stored at {got}; the layout needs {part.limits}")

    dtype = np.result_type(*{grid.values.dtype for grid in stored.values()})
    out = np.zeros((limits.P, limits.L * limits.L), dtype=np.complex128)
    for window, sphere, parts in groups:
        lj = sphere.L
        shells = np.zeros((limits.P, lj, 2 * lj - 1), dtype=dtype)
        for key, part_limits, rows, _, project in parts:
            values = stored[key].values.reshape(part_limits.P, -1)
            shells[rows] += _real_matmul(project, values).reshape(-1, lj, 2 * lj - 1)
        coeffs = _sht_forward_batch(shells, sphere)
        out[:, : lj * lj] += window_coeffs(coeffs, window)
    return FlagCoeffs(limits, out)


def threshold_denoise(
    d: FlagletDecomposition, threshold: float, mode: str = "hard"
) -> FlagletDecomposition:
    """Shrink wavelet coefficient values; the scaling part passes through.

    hard: values with magnitude below the threshold are zeroed.
    soft: magnitudes are shrunk toward zero by the threshold.

    The parts of the result are views of one recycled buffer in storage
    order (the scaling part, then the (j, j') in sorted order), each with
    the dtype of the part it comes from.
    """
    if threshold < 0 or math.isnan(threshold):
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    if mode not in ("hard", "soft"):
        raise ValueError(f"mode must be 'hard' or 'soft', got {mode!r}")

    stored = {"scaling": d.scaling, **{key: d.wavelets[key] for key in sorted(d.wavelets)}}
    sizes = [grid.values.nbytes for grid in stored.values()]
    slots = np.split(take(sum(sizes)), list(itertools.accumulate(sizes[:-1])))
    out = {}
    for (key, grid), slot in zip(stored.items(), slots):
        v = grid.values
        values = slot.view(v.dtype).reshape(v.shape)
        if key == "scaling":
            np.copyto(values, v)
        elif mode == "hard":
            np.copyto(values, 0.0)
            np.copyto(values, v, where=np.abs(v) >= threshold)
        else:
            mag = np.abs(v)
            # t / |v| may overflow at a subnormal |v|; the shrink is then 0
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                shrink = np.where(mag > 0, np.maximum(1.0 - threshold / mag, 0.0), 0.0)
            np.multiply(v, shrink, out=values)
        out[key] = BallGrid(grid.limits, values)
    scaling = out.pop("scaling")
    wavelets = {key: out[key] for key in d.wavelets}
    return FlagletDecomposition(d.limits, d.params, scaling, wavelets, d.multires)
