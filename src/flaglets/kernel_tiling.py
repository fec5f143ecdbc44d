"""Scale-discretised tiling of the harmonic line.

Builds the smooth wavelet windows kappa_j and scaling window eta on the
harmonic line (used on the sphere), and their separable 2D products
Psi^{jj'} with residual scaling window Phi (used on the ball).  The
windows form an exact resolution of identity:

    eta^2(l) + sum_j kappa_j^2(l) = 1        for all l < L,
    Phi^2(l,p) + sum_{jj'} Psi^2(l,p) = 1    for all l < L, p < P.

The layout of a decomposition, which parts in which order at which band
limits, is defined here once (sphere_part_bands, flaglet_parts) for
analysis, synthesis and the container format alike.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .flag_transform import BandLimits, get_flag_plan
from .quadrature import _check_integer, gauss_legendre
from .sphere_harmonics import SpherePlan, _check_band_limit, _made_once, get_plan

__all__ = [
    "TilingParams",
    "SphereKernels",
    "FlagletKernels",
    "smooth_bump",
    "k_lambda",
    "kappa_eta",
    "scale_count",
    "build_sphere_kernels",
    "build_flaglet_kernels",
]

_NEG_RESIDUAL_LIMIT = -1e-12

# largest scale index of a tiling: every dilation >= 1.14 stays within it up to
# MAX_BAND_LIMIT, and a dilation just above 1 cannot ask for millions of windows
MAX_SCALE = 64


@dataclass(frozen=True)
class TilingParams:
    """Dilation factors and minimum scale indices of the tiling."""

    lam: float = 2.0
    nu: float = 2.0
    j0_ang: int = 0
    j0_rad: int = 0

    def __post_init__(self):
        for dilation, what in ((self.lam, "angular"), (self.nu, "radial")):
            # the windows take dilation ** (J + 1), at most dilation ** 2, in float64
            if not (dilation > 1 and math.isfinite(dilation * dilation)):
                raise ValueError(f"{what} dilation must exceed 1 with a finite square, got {dilation}")
        # frozen: the checked indices are stored, as Python ints, through object.__setattr__
        for name, what in (("j0_ang", "angular"), ("j0_rad", "radial")):
            j0 = _check_integer(getattr(self, name), 0, MAX_SCALE, f"minimum {what} scale index")
            object.__setattr__(self, name, j0)


def max_scale(band_limit: int, dilation: float) -> int:
    """Largest scale index J = ceil(log_dilation(band_limit - 1))."""
    if band_limit < 2:
        return 0
    return int(math.ceil(math.log(band_limit - 1) / math.log(dilation) - 1e-12))


def scale_count(band_limit: int, dilation: float, j0: int) -> int:
    return max_scale(band_limit, dilation) - j0 + 1


def scale_range(band_limit: int, dilation: float, j0: int) -> range:
    """Scale indices j0..J of the tiling of degrees below band_limit."""
    jmax = max_scale(band_limit, dilation)
    if jmax > MAX_SCALE:
        raise ValueError(
            f"dilation {dilation} needs scale {jmax} at band limit {band_limit};"
            f" at most {MAX_SCALE} is supported"
        )
    if j0 > jmax:
        raise ValueError(
            f"minimum scale {j0} exceeds largest scale {jmax} at band limit {band_limit}"
        )
    return range(j0, jmax + 1)


def scale_band_limit(j: int, dilation: float, band_limit: int) -> int:
    """Effective band limit of scale j: smallest grid holding its support."""
    return min(int(math.ceil(dilation ** (j + 1))), band_limit)


def sphere_part_bands(L: int, params: TilingParams, multires: bool) -> list[int]:
    """Band limit of each sphere-wavelet part in storage order: the scaling
    part, then scales j0..J.  The scaling part shares the band of scale j0;
    without multires every part is at L."""
    scales = scale_range(L, params.lam, params.j0_ang)
    return [scale_band_limit(j, params.lam, L) if multires else L for j in (scales[0], *scales)]


def flaglet_parts(limits: BandLimits, params: TilingParams, multires: bool):
    """(j, j') keys of the flaglet wavelet parts in storage order (j outer),
    and the (L_j, P_j') of every part, the scaling part first.

    The residual scaling window is supported on the whole L-shaped
    low-frequency region (all ell at small p and vice versa), so the scaling
    part is always at full (L, P).
    """
    L, P = limits.L, limits.P
    radial = scale_range(P, params.nu, params.j0_rad)
    keys = [(j, jp) for j in scale_range(L, params.lam, params.j0_ang) for jp in radial]
    bands = [
        (scale_band_limit(j, params.lam, L), scale_band_limit(jp, params.nu, P))
        if multires else (L, P)
        for j, jp in keys
    ]
    return keys, [(L, P), *bands]


class AngularGroup(NamedTuple):
    """One angular transform of a decomposition: its window on the degrees
    below its band limit (one for its FlagletParts, or one row per sphere part
    name, "scaling" or j), the SpherePlan at that band limit, and its parts."""

    window: np.ndarray
    plan: SpherePlan
    parts: list


@dataclass
class SphereKernels:
    """Harmonic-line windows at band limit L: scaling eta and wavelets kappa_j.

    group_plan(multires), what both transforms read in each storage mode, is
    made from the windows on first use and kept, so the windows are not to
    be changed after a transform has used them."""

    L: int
    params: TilingParams
    eta: np.ndarray                 # (L,)
    kappas: list[np.ndarray]        # one (L,) array per j in [j0, J]
    _group_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def j0(self) -> int:
        return self.params.j0_ang

    @property
    def jmax(self) -> int:
        return self.j0 + len(self.kappas) - 1

    def band_limit(self, j: int) -> int:
        """Effective band limit of scale j: smallest grid holding its support."""
        return scale_band_limit(j, self.params.lam, self.L)

    def group_plan(self, multires: bool) -> list[AngularGroup]:
        """Runs of parts sharing a band limit, in storage order: their windows
        below it stacked (n, band), its SpherePlan and their names."""
        return _made_once(self._group_plans, bool(multires), self._group_plan)

    def _group_plan(self, multires: bool) -> list[AngularGroup]:
        names = ["scaling", *range(self.j0, self.jmax + 1)]
        windows = [self.eta, *self.kappas]
        groups, start = [], 0
        for band, run in itertools.groupby(sphere_part_bands(self.L, self.params, multires)):
            part = slice(start, start + len(list(run)))
            window = np.stack([w[:band] for w in windows[part]])
            groups.append(AngularGroup(window, get_plan(band), names[part]))
            start = part.stop
        return groups


class FlagletPart(NamedTuple):
    """One part of a flaglet decomposition as the transforms run it: its key
    ("scaling" or (j, j')), the limits (L_j, P_j', tau) it is stored at, the
    rows p its radial window reaches (an interval), and on them the
    radially weighted synthesis (P_j', rows) and projection (rows, P_j')."""

    key: object
    limits: BandLimits
    rows: slice
    synth: np.ndarray
    project: np.ndarray


@dataclass
class FlagletKernels:
    """Separable 2D windows on the (l, p) harmonic grid of the ball.

    Psi^{jj'} is the outer product of the line windows kappas_ang[j - j0_ang]
    on l and kappas_rad[j' - j0_rad] on p, which the transforms apply one axis
    at a time.  part_plan(multires) gives what the transforms read per part
    in each storage mode; it is made from the windows on first use and kept,
    so the windows are not to be changed after a transform has used them.
    """

    limits: BandLimits
    params: TilingParams
    phi: np.ndarray                      # (L, P)
    psis: dict[tuple[int, int], np.ndarray]  # (j, j') -> (L, P)
    kappas_ang: list[np.ndarray]         # one (L,) array per j in [j0_ang, J]
    kappas_rad: list[np.ndarray]         # one (P,) array per j' in [j0_rad, J']
    _part_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def part_plan(self, multires: bool) -> list[AngularGroup]:
        """The angular groups of the multiresolution (or full-resolution)
        layout in storage order, as SphereKernels.group_plan gives them: the
        scaling part's, then one per angular scale j, whose FlagletParts
        are the (j, j') in storage order."""
        return _made_once(self._part_plans, bool(multires), functools.partial(_part_plan, self))


def _part_plan(kernels: FlagletKernels, multires: bool) -> list[AngularGroup]:
    """First the scaling part: Phi on (p, l) at band L, all P rows, unit
    radial weights; then per angular scale j, kappa_j below L_j and, per part
    (j, j'), the rows where kappa_j' is nonzero (ending below P_j').  P_j'
    depends on j' alone, so the kappa_j'-weighted matrices are made once per
    radial scale and shared by every angular scale (radial_nbytes)."""
    limits, params = kernels.limits, kernels.params
    keys, bands = flaglet_parts(limits, params, multires)
    part_limits = [BandLimits(lj, pj, limits.tau) for lj, pj in bands]
    radial = {}

    def weighted(part: BandLimits, weights: np.ndarray):
        nonzero = np.flatnonzero(weights)
        rows = slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else slice(0, 0)
        plan, w = get_flag_plan(part.radial), weights[rows, None]
        return rows, (plan.kbasis[rows] * w).T, plan.kforward[rows] * w

    scaling = FlagletPart("scaling", part_limits[0], *weighted(part_limits[0], np.ones(limits.P)))
    groups = [AngularGroup(kernels.phi.T, get_plan(limits.L), [scaling])]
    for j, group in itertools.groupby(zip(keys, part_limits[1:]), key=lambda kp: kp[0][0]):
        parts = []
        for (_, jp), part in group:
            if jp not in radial:
                radial[jp] = weighted(part, kernels.kappas_rad[jp - params.j0_rad])
            parts.append(FlagletPart((j, jp), part, *radial[jp]))
        lj = parts[0].limits.L
        groups.append(AngularGroup(kernels.kappas_ang[j - params.j0_ang][:lj], get_plan(lj), parts))
    return groups


def radial_nbytes(groups: list[AngularGroup]) -> int:
    """Bytes of the radial matrices a part plan holds, each once: its windows
    are views of the kernels' and its SpherePlans are the cached ones."""
    parts = [part for group in groups for part in group.parts]
    held = {id(m): m for part in parts for m in (part.synth, part.project)}
    return sum(m.nbytes for m in held.values())


def smooth_bump(t):
    """Infinitely smooth bump: e^{-1/(1-t^2)} inside |t| < 1, zero outside."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out if out.ndim else float(out)


_panel_rule = None


def _bump_integral(lam: float, lo, hi: float) -> np.ndarray:
    """Integral of s_lam^2(u)/u over [lo, hi], composite 64-point Gauss panels."""
    global _panel_rule
    if _panel_rule is None:
        _panel_rule = gauss_legendre(64)
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    npanels = 16
    edges = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, npanels + 1)[None, :]
    a = edges[:, :-1]
    half = 0.5 * (edges[:, 1:] - a)
    # u: (npts, npanels, 64)
    u = a[:, :, None] + half[:, :, None] * (_panel_rule.nodes[None, None, :] + 1.0)
    s = smooth_bump(2.0 * lam / (lam - 1.0) * (u - 1.0 / lam) - 1.0)
    vals = s * s / u
    return np.einsum("ijk,k,ij->i", vals, _panel_rule.weights, half)


def k_lambda(lam: float, t) -> np.ndarray | float:
    """Smooth transition function of the tiling.

    Equals 1 for t <= 1/lam, 0 for t >= 1, and in between the normalized
    tail integral of the squared bump s_lam^2(u)/u from t to 1.  Monotone
    non-increasing in t.
    """
    if not (lam > 1 and math.isfinite(2.0 * lam)):  # the bump's slope 2 lam / (lam - 1)
        raise ValueError(f"dilation must exceed 1 and twice it be finite, got {lam}")
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if not np.all(t >= 0):  # NaN fails too
        raise ValueError("argument must be non-negative")
    out = np.empty_like(t)
    out[t <= 1.0 / lam] = 1.0
    out[t >= 1.0] = 0.0
    mid = (t > 1.0 / lam) & (t < 1.0)
    if np.any(mid):
        norm = _bump_integral(lam, np.array([1.0 / lam]), 1.0)[0]
        out[mid] = np.clip(_bump_integral(lam, t[mid], 1.0) / norm, 0.0, 1.0)
    return float(out[0]) if scalar else out


def kappa_eta(lam: float, t):
    """Wavelet and scaling generators at t: (kappa_lam(t), eta_lam(t))."""
    kt = k_lambda(lam, t)
    kts = k_lambda(lam, np.asarray(t, dtype=np.float64) / lam)
    kappa = np.sqrt(np.maximum(0.0, kts - kt))
    eta = np.sqrt(np.maximum(0.0, kt))
    if np.ndim(t) == 0:
        return float(kappa), float(eta)
    return kappa, eta


def _line_kernels(band_limit: int, dilation: float, j0: int):
    """eta(l) and kappa_j(l) on l = 0..band_limit-1, telescoping exactly.

    k_lambda is evaluated once per (j, l) boundary and the squared windows
    are formed as differences of the same table, so the partition of unity
    holds to rounding error by construction.
    """
    scales = scale_range(band_limit, dilation, j0)
    ells = np.arange(band_limit, dtype=np.float64)
    # ktab[j - j0] = k_lambda(l / dilation^j) for j = j0 .. jmax+1
    ktab = np.empty((len(scales) + 1, band_limit))
    for row, j in enumerate(range(j0, scales.stop + 1)):
        ktab[row] = k_lambda(dilation, ells / dilation ** j)
    eta = np.sqrt(np.maximum(0.0, ktab[0]))
    kappas = [np.sqrt(np.maximum(0.0, ktab[r + 1] - ktab[r])) for r in range(len(scales))]
    return eta, kappas


def build_sphere_kernels(L: int, params: TilingParams) -> SphereKernels:
    """Scaling and wavelet windows on the harmonic line at band limit L."""
    L = _check_band_limit(L)
    eta, kappas = _line_kernels(L, params.lam, params.j0_ang)
    return SphereKernels(L, params, eta, kappas)


def flaglet_line_windows(limits: BandLimits, params: TilingParams):
    """The angular windows kappa_j(l) and the radial windows kappa_j'(p)."""
    _, kappas_a = _line_kernels(limits.L, params.lam, params.j0_ang)
    _, kappas_r = _line_kernels(limits.P, params.nu, params.j0_rad)
    return kappas_a, kappas_r


def build_flaglet_kernels(limits: BandLimits, params: TilingParams) -> FlagletKernels:
    """Separable flaglet windows Psi^{jj'} and residual scaling window Phi."""
    kappas_a, kappas_r = flaglet_line_windows(limits, params)

    psis: dict[tuple[int, int], np.ndarray] = {}
    total = np.zeros((limits.L, limits.P))
    for j, ka in enumerate(kappas_a, start=params.j0_ang):
        for jp, kr in enumerate(kappas_r, start=params.j0_rad):
            psi = np.outer(ka, kr)
            psis[(j, jp)] = psi
            total += psi * psi
    residual = 1.0 - total
    if np.min(residual) < _NEG_RESIDUAL_LIMIT:
        raise RuntimeError(
            f"tiling residual fell to {np.min(residual):.3e}; admissibility is broken"
        )
    phi = np.sqrt(np.maximum(0.0, residual))
    return FlagletKernels(limits, params, phi, psis, kappas_a, kappas_r)
