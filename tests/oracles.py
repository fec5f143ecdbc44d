"""Independent brute-force oracles used to check the fast transforms.

Everything here deliberately avoids the library's FFT/quadrature code
paths: naive quadruple sums, high-precision recurrences, and symbolic
moment systems.  The one exception is the per-part flaglet path, which
checks the separable flaglet transforms against the Fourier-Laguerre
transform they are built from: one full FLAG transform per part, windowed
by the 2D window Psi^{jj'} itself.
"""

import functools
import math

import numpy as np

from flaglets.flag_transform import BandLimits, FlagCoeffs, flag_forward, flag_inverse
from flaglets.flaglet_transform import FlagletDecomposition
from flaglets.kernel_tiling import flaglet_parts
from flaglets.quadrature import gauss_legendre
from flaglets.radial_laguerre import RadialParams, basis_matrix, radial_nodes
from flaglets.sphere_harmonics import assoc_legendre_table, sphere_sampling, window_coeffs


_TABLE_CACHE = {}


def _point_table(L, theta):
    key = (L, theta)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = assoc_legendre_table(L, math.cos(theta))
    return _TABLE_CACHE[key]


def ylm_point(L, ell, m, theta, phi):
    """Single spherical harmonic value from the point-evaluation table."""
    table = _point_table(L, theta)
    p = table[ell * L + abs(m)]
    if m < 0 and abs(m) % 2 == 1:
        p = -p
    return p * np.exp(1j * m * phi) / math.sqrt(2.0 * math.pi)


def naive_sht_forward(values, L):
    """O(L^4) direct-summation forward spherical harmonic transform."""
    thetas, phis = sphere_sampling(L)
    w = gauss_legendre(L).weights
    dphi = 2.0 * np.pi / (2 * L - 1)
    coeffs = np.zeros(L * L, dtype=np.complex128)
    for ell in range(L):
        for m in range(-ell, ell + 1):
            acc = 0.0
            for i, th in enumerate(thetas):
                for k, ph in enumerate(phis):
                    acc += w[i] * dphi * values[i, k] * np.conj(ylm_point(L, ell, m, th, ph))
            coeffs[ell * ell + ell + m] = acc
    return coeffs


def naive_sht_inverse(coeffs, L):
    """O(L^4) direct synthesis onto the exact grid."""
    thetas, phis = sphere_sampling(L)
    values = np.zeros((L, 2 * L - 1), dtype=np.complex128)
    for i, th in enumerate(thetas):
        for k, ph in enumerate(phis):
            acc = 0.0
            for ell in range(L):
                for m in range(-ell, ell + 1):
                    acc += coeffs[ell * ell + ell + m] * ylm_point(L, ell, m, th, ph)
            values[i, k] = acc
    return values


def hermitian_coeffs(rng, L, shape=()):
    """Random coefficients (*shape, L^2) of real signals: f_l0 real and
    f_{l,-m} = (-1)^m conj f_lm, set degree by degree."""
    size = shape + (L * L,)
    c = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
    for ell in range(L):
        centre, ms = ell * ell + ell, np.arange(1, ell + 1)
        c[..., centre] = c[..., centre].real
        c[..., centre - ms] = (-1.0) ** ms * np.conj(c[..., centre + ms])
    return c


def naive_flag_forward(values, limits, sht=naive_sht_forward):
    """Direct-sum Fourier-Laguerre forward transform (angular then radial);
    `sht` is the per-shell oracle (direct_sht_forward past small L)."""
    L, P = limits.L, limits.P
    _, wr = radial_nodes(limits.radial)
    radii, _ = radial_nodes(limits.radial)
    kmat = basis_matrix(limits.radial, radii)  # (P, P shells)
    shell = np.array([sht(values[i], L) for i in range(P)])
    coeffs = np.zeros((P, L * L), dtype=np.complex128)
    for p in range(P):
        for i in range(P):
            coeffs[p] += wr[i] * kmat[p, i] * shell[i]
    return coeffs


def naive_flag_inverse(coeffs, limits, sht=naive_sht_inverse):
    """Direct-sum Fourier-Laguerre synthesis at the exact grid; `sht` is the
    per-shell oracle (direct_sht_inverse past small L)."""
    L, P = limits.L, limits.P
    radii, _ = radial_nodes(limits.radial)
    kmat = basis_matrix(limits.radial, radii)
    values = np.zeros((P, L, 2 * L - 1), dtype=np.complex128)
    for i in range(P):
        shell = np.zeros(L * L, dtype=np.complex128)
        for p in range(P):
            shell += coeffs[p] * kmat[p, i]
        values[i] = sht(shell, L)
    return values


def laguerre_rule_from_moments():
    """2-point alpha=2 Gauss-Laguerre rule solved from the moment system.

    Matches moments Gamma(3..6) = 2, 6, 24, 120: the monic orthogonal
    quadratic x^2 + b x + c satisfies the two linear orthogonality
    conditions; its roots are the nodes and the weights follow from the
    first two moments.
    """
    m = [2.0, 6.0, 24.0, 120.0]
    # orthogonality of x^2 + b x + c against 1 and x
    a = np.array([[m[1], m[0]], [m[2], m[1]]])
    rhs = np.array([-m[2], -m[3]])
    b, c = np.linalg.solve(a, rhs)
    x1 = (-b - math.sqrt(b * b - 4 * c)) / 2
    x2 = (-b + math.sqrt(b * b - 4 * c)) / 2
    w = np.linalg.solve(np.array([[1.0, 1.0], [x1, x2]]), np.array([m[0], m[1]]))
    return np.array([x1, x2]), w


def legendre_per_order(L, m, xs):
    """Ptilde_l^m(xs) for l = m..L-1, shape (L - m, len(xs)), one order at a time.

    The library's earlier per-order loop, kept as the reference the streamed
    tables must match bit for bit: the sectoral seed is rebuilt from k = 1,
    then the recurrence over l runs for this order alone, with the same
    1e-250 / 1e250 compensation and the same sin(theta) = sqrt((1 - x)(1 + x)).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    sinx = np.sqrt(np.maximum(0.0, (1.0 - xs) * (1.0 + xs)))
    out = np.zeros((L - m, xs.size))
    u = np.full(xs.size, 1.0 / math.sqrt(2.0))
    c = np.zeros(xs.size)
    for k in range(1, m + 1):
        u = u * (-math.sqrt((2 * k + 1) / (2.0 * k))) * sinx
        small = (np.abs(u) < 1e-250) & (u != 0.0)
        u = np.where(small, u * 1e250, u)
        c = c - np.where(small, math.log(1e250), 0.0)
    out[0] = u * np.exp(c)
    if m + 1 < L:
        u_prev, u_cur = u, math.sqrt(2 * m + 3.0) * xs * u
        out[1] = u_cur * np.exp(c)
        for ell in range(m + 2, L):
            a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = math.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
            u_prev, u_cur = u_cur, a * (xs * u_cur - b * u_prev)
            big = np.abs(u_cur) > 1e250
            f = np.where(big, 1.0 / 1e250, 1.0)
            u_cur, u_prev = u_cur * f, u_prev * f
            c = c + np.where(big, math.log(1e250), 0.0)
            out[ell - m] = u_cur * np.exp(c)
    return out


@functools.lru_cache(maxsize=1)
def _direct_tables(L):
    """Gauss-Legendre weights, longitudes and the per-order tables at every node
    (kept for the last L: 108 MB and 2 s at L = 300)."""
    rule = gauss_legendre(L)
    _, phis = sphere_sampling(L)
    return rule.weights, phis, [legendre_per_order(L, m, rule.nodes) for m in range(L)]


def direct_sht_forward(values, L):
    """Forward SHT by direct sums: an explicit DFT matrix over phi, then the
    per-order reference tables at every node; no FFT, fold or blocks."""
    w, phis, tables = _direct_tables(L)
    ms = np.arange(-(L - 1), L)
    dft = np.exp(-1j * np.outer(phis, ms)) * (2.0 * np.pi / (2 * L - 1)) / math.sqrt(2.0 * np.pi)
    fm = (values @ dft) * w[:, None]  # (node, m + L - 1)
    coeffs = np.zeros(L * L, dtype=np.complex128)
    for m, table in enumerate(tables):
        ells = np.arange(m, L)
        coeffs[ells * (ells + 1) + m] = table @ fm[:, L - 1 + m]
        coeffs[ells * (ells + 1) - m] = (-1) ** m * (table @ fm[:, L - 1 - m])
    return coeffs


def direct_sht_inverse(coeffs, L):
    """Synthesis by direct sums, the adjoint of direct_sht_forward's path."""
    _, phis, tables = _direct_tables(L)
    ms = np.arange(-(L - 1), L)
    fm = np.zeros((L, 2 * L - 1), dtype=np.complex128)
    for m, table in enumerate(tables):
        ells = np.arange(m, L)
        fm[:, L - 1 + m] = coeffs[ells * (ells + 1) + m] @ table
        fm[:, L - 1 - m] = (-1) ** m * (coeffs[ells * (ells + 1) - m] @ table)
    return fm @ np.exp(1j * np.outer(ms, phis)) / math.sqrt(2.0 * np.pi)


def legendre_column_high_precision(L, m, x, dps=60):
    """Orthonormalized Ptilde_l^m(x) for l = m..L-1 via mpmath recurrence."""
    import mpmath as mp

    with mp.workdps(dps):
        xm = mp.mpf(x)
        sinx = mp.sqrt(1 - xm * xm)
        val = 1 / mp.sqrt(2)
        for k in range(1, m + 1):
            val = val * (-mp.sqrt(mp.mpf(2 * k + 1) / (2 * k))) * sinx
        col = [val]
        if m + 1 < L:
            col.append(mp.sqrt(mp.mpf(2 * m + 3)) * xm * val)
        for l in range(m + 2, L):
            a = mp.sqrt(mp.mpf(4 * l * l - 1) / (l * l - m * m))
            b = mp.sqrt((mp.mpf(l - 1) ** 2 - m * m) / (4 * mp.mpf(l - 1) ** 2 - 1))
            col.append(a * (xm * col[-1] - b * col[-2]))
        return np.array([float(v) for v in col])


def legendre_high_precision(ell, m, x, dps=60):
    """Orthonormalized associated Legendre value via mpmath recurrence."""
    return float(legendre_column_high_precision(ell + 1, m, x, dps)[-1])


def laguerre_basis_high_precision(P, tau, r, dps=60):
    """K_p(r) for p = 0..P-1 via the classical L_p^{(2)} recurrence in mpmath.

    (p + 1) L_{p+1} = (2p + 3 - x) L_p - (p + 2) L_{p-1} at x = r / tau,
    with K_p = sqrt(p! / (p+2)!) tau^{-3/2} e^{-x/2} L_p^{(2)}(x): no
    rescaling, no orthonormal form, no sign convention shared with the
    library.
    """
    import mpmath as mp

    with mp.workdps(dps):
        x = mp.mpf(r) / mp.mpf(tau)
        damp = mp.exp(-x / 2) * mp.mpf(tau) ** mp.mpf(-1.5)
        lag = [mp.mpf(1), 3 - x]
        for p in range(1, P - 1):
            lag.append(((2 * p + 3 - x) * lag[p] - (p + 2) * lag[p - 1]) / (p + 1))
        return np.array(
            [float(damp * lag[p] / mp.sqrt((p + 1) * (p + 2))) for p in range(P)]
        )


def per_part_flaglet_analyze(f, kernels, multires=False):
    """Flaglet analysis with one windowed flag_inverse per part."""
    limits = f.limits
    keys, bands = flaglet_parts(limits, kernels.params, multires)
    windows = [kernels.phi, *(kernels.psis[key] for key in keys)]
    grids = []
    for window, (lj, pj) in zip(windows, bands):
        # the first lj^2 flat indices hold exactly the degrees below lj
        windowed = window_coeffs(f.coeffs[:pj, : lj * lj], window.T[:pj, :lj])
        grids.append(flag_inverse(FlagCoeffs(BandLimits(lj, pj, limits.tau), windowed)))
    wavelets = dict(zip(keys, grids[1:]))
    return FlagletDecomposition(limits, kernels.params, grids[0], wavelets, multires)


def per_part_flaglet_synthesize(d, kernels):
    """Flaglet synthesis with one flag_forward per part, windowed by Psi."""
    limits = kernels.limits
    keys, bands = flaglet_parts(limits, kernels.params, d.multires)
    parts = [(d.scaling, kernels.phi), *((d.wavelets[key], kernels.psis[key]) for key in keys)]
    out = np.zeros((limits.P, limits.L * limits.L), dtype=np.complex128)
    for (grid, window), (lj, pj) in zip(parts, bands):
        out[:pj, : lj * lj] += window_coeffs(flag_forward(grid).coeffs, window.T[:pj, :lj])
    return FlagCoeffs(limits, out)


def per_row_is_hermitian(coeffs, L):
    """The Hermitian test one row at a time: Im f_l0 == 0 in every row, then
    f_{l,-m} == (-1)^m conj f_lm compared row by row with ==."""
    rows = coeffs.reshape(-1, L * L)
    ells = np.arange(L)
    if np.any(rows[:, ells * (ells + 1)].imag != 0.0):
        return False
    neg = [ell * ell + ell - m for ell in range(L) for m in range(1, ell + 1)]
    pos = [ell * ell + ell + m for ell in range(L) for m in range(1, ell + 1)]
    sign = np.array([(-1.0) ** m for ell in range(L) for m in range(1, ell + 1)])
    return all(np.array_equal(row[neg], sign * row[pos].conj()) for row in rows)
