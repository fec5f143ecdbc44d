"""Fourier-Laguerre transform on the ball.

Separable composition of the spherical harmonic transform and the
spherical Laguerre transform.  Each direction is one batched SHT pass over
all P radial shells plus one radial GEMM over all L^2 harmonic indices.
Exact in both directions for signals band-limited at (L, P).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .radial_laguerre import RadialParams, basis_matrix, radial_nodes
from .sphere_harmonics import (
    MAX_BAND_LIMIT,
    _real_matmul,
    _sht_forward_batch,
    _sht_inverse_batch,
    get_plan,
)

__all__ = ["BandLimits", "BallGrid", "FlagCoeffs", "FlagPlan", "flag_forward", "flag_inverse"]

# plans for this many limits stay cached: more than the at most 36 scale
# limits (L_j, P_j') plus full limits of multiresolution flaglets at L=P=32
_PLAN_CACHE_SIZE = 64


@dataclass(frozen=True)
class BandLimits:
    """Angular band limit L, radial band limit P and radial scale tau."""

    L: int
    P: int
    tau: float = 1.0

    def __post_init__(self):
        if self.L < 1 or self.L > MAX_BAND_LIMIT:
            raise ValueError(f"angular band limit must be in [1, {MAX_BAND_LIMIT}], got {self.L}")
        self.radial  # RadialParams checks P and tau

    @property
    def radial(self) -> RadialParams:
        return RadialParams(self.P, self.tau)


@dataclass
class BallGrid:
    """Samples on the exact ball grid: (P shells, L colatitudes, 2L-1 longitudes)."""

    limits: BandLimits
    values: np.ndarray

    def __post_init__(self):
        L, P = self.limits.L, self.limits.P
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.shape != (P, L, 2 * L - 1):
            raise ValueError(
                f"grid shape {self.values.shape} does not match limits (L={L}, P={P})"
            )


@dataclass
class FlagCoeffs:
    """Fourier-Laguerre coefficients, shape (P, L^2); flat angular index ell^2+ell+m."""

    limits: BandLimits
    coeffs: np.ndarray

    def __post_init__(self):
        L, P = self.limits.L, self.limits.P
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (P, L * L):
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match limits (L={L}, P={P})"
            )


class FlagPlan:
    """Precomputed radial quadrature rule and basis tables for one BandLimits.

    Immutable after construction; safe to share across transforms.  It holds
    no SpherePlan, so this cache does not keep evicted sphere plans alive.
    """

    def __init__(self, limits: BandLimits):
        self.limits = limits
        self.radii, self.radial_weights = radial_nodes(limits.radial)
        # K[p, i] = K_p(r_i)
        self.kbasis = basis_matrix(limits.radial, self.radii)
        # forward radial operator: (p, i) entries weight_i * K_p(r_i)
        self.kforward = self.kbasis * self.radial_weights[None, :]


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def get_flag_plan(limits: BandLimits) -> FlagPlan:
    return FlagPlan(limits)


def _radial_plan(limits: BandLimits, plan: FlagPlan | None) -> FlagPlan:
    """`plan`, checked against the radial limits (P, tau), or the cached plan."""
    if plan is None:
        return get_flag_plan(limits)
    if plan.limits.radial != limits.radial:
        have = plan.limits
        raise ValueError(
            f"plan radial limits (P={have.P}, tau={have.tau}) do not match the data's "
            f"(P={limits.P}, tau={limits.tau})"
        )
    return plan


def flag_forward(grid: BallGrid, plan: FlagPlan | None = None) -> FlagCoeffs:
    """Forward Fourier-Laguerre transform; exact for band-limited signals.

    Raises ValueError if `plan` was built for another (P, tau).
    """
    plan = _radial_plan(grid.limits, plan)
    shell_coeffs = _sht_forward_batch(grid.values, get_plan(grid.limits.L))  # (shells, L^2)
    return FlagCoeffs(grid.limits, _real_matmul(plan.kforward, shell_coeffs))


def flag_inverse(coeffs: FlagCoeffs, plan: FlagPlan | None = None) -> BallGrid:
    """Inverse Fourier-Laguerre transform onto the exact ball grid.

    Raises ValueError if `plan` was built for another (P, tau).
    """
    plan = _radial_plan(coeffs.limits, plan)
    # radial synthesis at the sampling nodes, then angular synthesis of all shells
    shell_coeffs = _real_matmul(plan.kbasis.T, coeffs.coeffs)  # (shells, L^2)
    return BallGrid(coeffs.limits, _sht_inverse_batch(shell_coeffs, get_plan(coeffs.limits.L)))
