"""Fourier-Laguerre transform on the ball.

Separable composition of the spherical harmonic transform and the
spherical Laguerre transform.  Each direction is one batched SHT pass over
all P radial shells plus one radial GEMM over all L^2 harmonic indices.
Exact in both directions for signals band-limited at (L, P).  Real grids
and Hermitian coefficients take the engine's real-signal path, and the
radial GEMM of real shells is a real GEMM.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .quadrature import _check_integer
from .radial_laguerre import RadialParams, basis_matrix, radial_nodes
from .sphere_harmonics import (
    MAX_BAND_LIMIT,
    _PLAN_CACHE_SIZE,
    _fill_negative_orders,
    _grid_dtype,
    _is_hermitian,
    _made_once,
    _real_matmul,
    _sht_forward_batch,
    _sht_inverse_batch,
    get_plan,
)

__all__ = ["BandLimits", "BallGrid", "FlagCoeffs", "FlagPlan", "flag_forward", "flag_inverse"]


@dataclass(frozen=True)
class BandLimits:
    """Angular band limit L, radial band limit P and radial scale tau."""

    L: int
    P: int
    tau: float = 1.0
    radial: RadialParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # frozen: the checked limits are stored, as Python ints, through object.__setattr__
        L = _check_integer(self.L, 1, MAX_BAND_LIMIT, "angular band limit")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "radial", RadialParams(self.P, self.tau))  # checks P and tau
        object.__setattr__(self, "P", self.radial.P)


@dataclass
class BallGrid:
    """Samples on the exact ball grid: (P shells, L colatitudes, 2L-1 longitudes);
    float64 for real samples, complex128 otherwise."""

    limits: BandLimits
    values: np.ndarray

    def __post_init__(self):
        L, P = self.limits.L, self.limits.P
        self.values = np.ascontiguousarray(self.values, dtype=_grid_dtype(self.values))
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
    """Radial quadrature rule and basis tables for one radial limit (P, tau).

    The tables do not depend on L, so one plan serves every angular band
    limit.  Immutable after construction; safe to share across transforms.
    """

    def __init__(self, radial: RadialParams):
        self.radial = radial
        self.radii, self.radial_weights = radial_nodes(radial)
        # K[p, i] = K_p(r_i)
        self.kbasis = basis_matrix(radial, self.radii)
        # forward radial operator: (p, i) entries weight_i * K_p(r_i)
        self.kforward = self.kbasis * self.radial_weights[None, :]

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the plan holds: radii, weights and the two
        (P, P) tables, 16 P^2 + 16 P."""
        arrays = (self.radii, self.radial_weights, self.kbasis, self.kforward)
        return sum(a.nbytes for a in arrays)


_live_flag_plans = weakref.WeakValueDictionary()  # radial -> the plan made, while alive


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def get_flag_plan(radial: RadialParams) -> FlagPlan:
    """The plan for (P, tau), made once however many threads ask for it
    together; like get_plan, a plan the cache evicted is returned while
    something else still holds it."""
    return _made_once(_live_flag_plans, radial, FlagPlan)


def _radial_plan(limits: BandLimits, plan: FlagPlan | None) -> FlagPlan:
    """`plan`, checked against the radial limits (P, tau), or the cached plan."""
    if plan is None:
        return get_flag_plan(limits.radial)
    if plan.radial != limits.radial:
        have = plan.radial
        raise ValueError(
            f"plan radial limits (P={have.P}, tau={have.tau}) do not match the data's "
            f"(P={limits.P}, tau={limits.tau})"
        )
    return plan


def flag_forward(grid: BallGrid, plan: FlagPlan | None = None) -> FlagCoeffs:
    """Forward Fourier-Laguerre transform; exact for band-limited signals.

    The coefficients of a real grid are exactly Hermitian.  Raises
    ValueError if `plan` was built for another (P, tau).
    """
    plan = _radial_plan(grid.limits, plan)
    L = grid.limits.L
    shell_coeffs = _sht_forward_batch(grid.values, get_plan(L))  # (shells, L^2)
    coeffs = _real_matmul(plan.kforward, shell_coeffs)
    if not np.iscomplexobj(grid.values):
        # a GEMM need not round its columns alike: make -m from +m after it
        _fill_negative_orders(coeffs, L)
    return FlagCoeffs(grid.limits, coeffs)


def flag_inverse(coeffs: FlagCoeffs, plan: FlagPlan | None = None) -> BallGrid:
    """Inverse Fourier-Laguerre transform onto the exact ball grid.

    Exactly Hermitian coefficients give a real (float64) grid.  Raises
    ValueError if `plan` was built for another (P, tau).
    """
    plan = _radial_plan(coeffs.limits, plan)
    L = coeffs.limits.L
    real = _is_hermitian(coeffs.coeffs, L)
    # radial synthesis at the sampling nodes, then angular synthesis of all shells
    shell_coeffs = _real_matmul(plan.kbasis.T, coeffs.coeffs)  # (shells, L^2)
    return BallGrid(coeffs.limits, _sht_inverse_batch(shell_coeffs, get_plan(L), real))
