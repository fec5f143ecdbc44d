"""Gaussian quadrature rules underpinning the exact transforms.

Two families are provided: Gauss-Legendre on [-1, 1] (used for the
colatitude sampling on the sphere) and generalized Gauss-Laguerre on
[0, inf) with weight x^alpha e^{-x} (used for the radial sampling on the
ball, alpha = 2 matching the r^2 volume element).

Laguerre weights are returned in *scaled* form, w_i * e^{x_i}, computed
without overflow so they can be applied directly to integrands that carry
their own exponential damping.  One compensated Laguerre recurrence,
`_laguerre_steps`, polishes the nodes, sums the weights and evaluates the
radial basis of `radial_laguerre`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = ["QuadRule", "gauss_legendre", "gauss_laguerre_gen", "MAX_NODES"]

MAX_NODES = 100_000

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def _check_integer(value, lo: int, hi: int, what: str) -> None:
    """Raise ValueError unless `value` is a Python or numpy integer in [lo, hi].

    A bool is refused: True would pass as a count of 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{what} must be in [{lo}, {hi}], got {value}")


@dataclass(frozen=True)
class QuadRule:
    """A Gaussian quadrature rule.

    Attributes:
        kind: "legendre" or "laguerre".
        alpha: Laguerre exponent (0 for Legendre rules).
        nodes: Strictly increasing abscissae, shape (n,).
        weights: Quadrature weights, shape (n,).  For Laguerre rules these
            are the scaled weights w_i * e^{x_i}.
    """

    kind: str
    alpha: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size


def _legendre_value_deriv(n: int, x: np.ndarray):
    """Evaluate P_n and P_n' at x via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    # derivative from P_n and P_{n-1}
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(n: int) -> QuadRule:
    """Gauss-Legendre rule with n nodes on [-1, 1].

    Nodes are the roots of the degree-n Legendre polynomial, found by
    Newton iteration from the classical cosine initial guesses; weights
    follow from the derivative formula w = 2 / ((1 - x^2) P_n'(x)^2).
    Exact for polynomials of degree <= 2n - 1.
    """
    _check_integer(n, 1, MAX_NODES, "node count")
    if n == 1:
        return QuadRule("legendre", 0, np.zeros(1), np.full(1, 2.0))

    i = np.arange(n, dtype=np.float64)
    x = np.cos(np.pi * (i + 0.75) / (n + 0.5))  # descending initial guesses
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre_value_deriv(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise RuntimeError("Gauss-Legendre Newton iteration failed to converge")

    # enforce exact symmetry of the rule about zero
    x = 0.5 * (x - x[::-1])
    if n % 2 == 1:
        x[n // 2] = 0.0
    _, dp = _legendre_value_deriv(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    order = np.argsort(x)
    return QuadRule("legendre", 0, np.ascontiguousarray(x[order]),
                    np.ascontiguousarray(w[order]))


def _laguerre_steps(n: int, alpha: int, x: np.ndarray):
    """Step the orthonormal weighted Laguerre recurrence from order 0 to n.

    phi_k(x) = (-1)^k N_k L_k^{(alpha)}(x) e^{-x/2} stays O(1) where the
    raw polynomials overflow and the damping underflows.  Values are
    carried as stored * e^{c} with a per-point exponent c, rescaled when
    the stored magnitude passes 1e140, so the squared sum cannot overflow.

    Yields (u_k, u_{k-1}, c, s_k) for k = 0..n: phi_k = u_k e^{c} and the
    Christoffel sum sum_{j<k} phi_j^2 = s_k e^{2c}.  Arrays are replaced,
    never written in place, so yielded values stay valid.
    """
    x = np.asarray(x, dtype=np.float64)
    # start phi_0 = e^{-x/2} / sqrt(Gamma(alpha+1))
    c = -0.5 * x
    u_prev = np.zeros_like(x)
    u = np.full_like(x, 1.0 / math.sqrt(math.gamma(alpha + 1)))
    s = np.zeros_like(x)
    yield u, u_prev, c, s
    for k in range(1, n + 1):
        s = s + u * u
        a_km1 = 2.0 * (k - 1) + alpha + 1.0
        b_km1 = math.sqrt((k - 1) * (k - 1 + alpha))
        b_k = math.sqrt(k * (k + alpha))
        u_prev, u = u, ((x - a_km1) * u - b_km1 * u_prev) / b_k
        big = np.abs(u) > 1e140
        if np.any(big):
            f = np.where(big, 1e-140, 1.0)
            u = u * f
            u_prev = u_prev * f
            s = s * (f * f)
            c = c + np.where(big, np.log(1e140), 0.0)
        yield u, u_prev, c, s


def _laguerre_last(n: int, alpha: int, x: np.ndarray):
    """Final state (u_n, u_{n-1}, c, s_n) of _laguerre_steps."""
    for state in _laguerre_steps(n, alpha, x):
        pass
    return state


def gauss_laguerre_gen(n: int, alpha: int) -> QuadRule:
    """Generalized Gauss-Laguerre rule for the weight x^alpha e^{-x}.

    Nodes come from the symmetric tridiagonal Jacobi matrix
    (Golub-Welsch), then each is polished by Newton iteration on the
    weighted orthonormal Laguerre function to machine precision.  The
    returned weights are the scaled weights w_i * e^{x_i}, obtained from
    the Christoffel sum of weighted basis functions, which avoids the
    overflow/underflow pair affecting raw weights for n of a few hundred
    and up.
    """
    _check_integer(alpha, 0, 2, "alpha")
    _check_integer(n, 1, MAX_NODES, "node count")

    if n == 1:
        x = np.array([alpha + 1.0])
    else:
        k = np.arange(n, dtype=np.float64)
        diag = 2.0 * k + alpha + 1.0
        off = np.sqrt(k[1:] * (k[1:] + alpha))
        x = eigh_tridiagonal(diag, off, eigvals_only=True)

    # Newton polish on phi_n; the recurrence polynomials carry a (-1)^k sign
    # relative to the classical Laguerre family, hence the + on the b_n term:
    # x phi_n' = (n - x/2) phi_n + b_n phi_{n-1}
    b_n = math.sqrt(n * (n + alpha))
    # converge to 1e-15 relative or to the evaluation noise floor (steps
    # enter a limit cycle of a few ulp once the roots are exhausted)
    prev_step = np.inf
    for it in range(_NEWTON_MAX_ITER):
        u_n, u_nm1, _, _ = _laguerre_last(n, alpha, x)
        dphi = ((n - 0.5 * x) * u_n + b_n * u_nm1) / x
        dx = u_n / dphi
        x = x - dx
        step = float(np.max(np.abs(dx) / (1.0 + x)))
        if step <= _NEWTON_TOL or (it >= 1 and step >= 0.5 * prev_step):
            break
        prev_step = step
    else:
        bad = int(np.argmax(np.abs(dx) / (1.0 + x)))
        raise RuntimeError(f"Laguerre root refinement failed to converge at node {bad}")
    if not np.all(np.abs(dx) <= 1e-11 * (1.0 + x)):
        bad = int(np.argmax(np.abs(dx) / (1.0 + x)))
        raise RuntimeError(f"Laguerre root refinement failed to converge at node {bad}")

    _, _, c, christoffel = _laguerre_last(n, alpha, x)
    if np.any(christoffel <= 0) or not np.all(np.isfinite(christoffel)):
        bad = int(np.argmin(christoffel))
        raise RuntimeError(f"Laguerre weight computation failed at node {bad}")
    # sum phi_k^2 = christoffel * e^{2c};  scaled weight = 1 / sum phi_k^2
    log_w = -(np.log(christoffel) + 2.0 * c)
    w_scaled = np.exp(log_w)

    order = np.argsort(x)
    return QuadRule("laguerre", alpha, np.ascontiguousarray(x[order]),
                    np.ascontiguousarray(w_scaled[order]))
