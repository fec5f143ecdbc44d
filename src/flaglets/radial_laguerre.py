"""Exact spherical Laguerre transform on the radial half-line.

Basis: K_p(r) = sqrt(p! / (p+2)!) tau^{-3/2} e^{-r/(2 tau)} L_p^{(2)}(r / tau),
orthonormal against the r^2 dr measure.  Sampling at the scaled
generalized Gauss-Laguerre nodes makes the forward projection exact for
signals band-limited at P.  K_p is evaluated by the quadrature module's
compensated Laguerre recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import MAX_NODES, _check_integer, _laguerre_steps, gauss_laguerre_gen

__all__ = [
    "RadialParams",
    "RadialCoeffs",
    "laguerre_basis",
    "basis_matrix",
    "radial_nodes",
    "slag_forward",
    "slag_inverse",
    "tau_for_boundary",
]


# radial scales tau in this range keep tau^3 and tau^(-3/2) normal doubles
TAU_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class RadialParams:
    """Radial band limit P and scale tau."""

    P: int
    tau: float = 1.0

    def __post_init__(self):
        # frozen: the checked value is stored through object.__setattr__
        object.__setattr__(self, "P", _check_integer(self.P, 1, MAX_NODES, "radial band limit"))
        lo, hi = TAU_RANGE
        if not lo <= self.tau <= hi:
            raise ValueError(f"radial scale must be in [{lo:g}, {hi:g}], got {self.tau}")


@dataclass
class RadialCoeffs:
    """Spherical Laguerre coefficients f_p, p = 0..P-1."""

    params: RadialParams
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.params.P,):
            raise ValueError(
                f"coefficient length {self.coeffs.shape} does not match P={self.params.P}"
            )


def basis_matrix(params: RadialParams, radii: np.ndarray) -> np.ndarray:
    """Evaluate K_p at the given radii; returns shape (P, len(radii)).

    K_p(r) = (-1)^p tau^{-3/2} phi_p(r / tau) for the alpha = 2 weighted
    Laguerre functions phi_p that also make the quadrature rule.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
    if not np.all((radii >= 0) & (radii < np.inf)):  # NaN fails too
        raise ValueError("radii must be finite and non-negative")
    out = np.empty((params.P, radii.size))
    with np.errstate(under="ignore"):
        for p, (u, _, c, _) in enumerate(_laguerre_steps(params.P - 1, 2, radii / params.tau)):
            np.multiply(u, np.exp(c), out=out[p])
    out[1::2] *= -1.0
    return out * params.tau ** -1.5


def laguerre_basis(params: RadialParams, r: float) -> np.ndarray:
    """Basis values K_0(r) .. K_{P-1}(r) at a single radius."""
    return basis_matrix(params, np.array([float(r)]))[:, 0]


def radial_nodes(params: RadialParams):
    """Sampling radii and effective quadrature weights.

    Returns (radii, weights) with radii = tau * x_i for Gauss-Laguerre
    nodes x_i (alpha = 2) and weights = tau^3 * scaled weights, so that
    f_p = sum_i weights_i f(r_i) K_p(r_i) exactly for band-limited f.
    """
    rule = gauss_laguerre_gen(params.P, 2)
    return params.tau * rule.nodes, params.tau ** 3 * rule.weights


def tau_for_boundary(P: int, boundary: float) -> float:
    """Radial scale placing the outermost sampling node at `boundary`."""
    if not boundary > 0:  # NaN fails too
        raise ValueError(f"boundary radius must be positive, got {boundary}")
    rule = gauss_laguerre_gen(P, 2)
    return boundary / rule.nodes[-1]


def slag_forward(samples: np.ndarray, params: RadialParams) -> RadialCoeffs:
    """Project samples taken at the radial_nodes radii onto the basis."""
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape != (params.P,):
        raise ValueError(
            f"expected {params.P} node samples, got shape {samples.shape}"
        )
    radii, weights = radial_nodes(params)
    basis = basis_matrix(params, radii)
    return RadialCoeffs(params, basis @ (weights * samples))


def slag_inverse(coeffs: RadialCoeffs, radii: np.ndarray) -> np.ndarray:
    """Synthesize f(r) = sum_p f_p K_p(r) at arbitrary radii."""
    radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
    basis = basis_matrix(coeffs.params, radii)
    return coeffs.coeffs @ basis
