"""Exact spherical harmonic transform on a Gauss-Legendre grid.

Sampling: L Gauss-Legendre colatitudes (theta descending, x = cos(theta)
ascending) by 2L-1 equispaced longitudes.  The longitudinal sums are done
by FFT, the colatitude projection by Gauss-Legendre quadrature, which is
exact for the degree <= 2L-2 Legendre integrands arising for signals
band-limited at L.

Conventions: orthonormal harmonics with the Condon-Shortley phase folded
into the normalized associated Legendre functions,
Y_lm(theta, phi) = Ptilde_l^m(cos theta) e^{i m phi} / sqrt(2 pi).

The Ptilde_l^m come from one compensated recurrence, _legendre_tiles, on the
x >= 0 half of the symmetric nodes.  It steps a group of orders together
over k = l - m and yields tiles of orders by degrees, whose shape only
SpherePlan chooses: up to the table cache, blocks of orders with all their
degrees, which the plan keeps; past it, groups of B orders in tiles of D
degrees, B and D sized from the byte constants so that a group's recurrence
state and inverse sums stay small (SpherePlan._tile_shape).  A pass past the
cache, over any number of rows, then takes about L^2 / 2B recurrence steps
on arrays of B orders, writes x Ptilde into a scratch of one group and each
tile row once, and holds one tile of B x D x L/2 doubles, degree-major so
that each row is one block (kept tiles are order-major).  What a pass
steps from, the sectoral seeds, the recurrence coefficients and the nodes
repeated for B orders, and the tiles' index maps, depends only on the tile
geometry, so a plan past the cache makes it tile by tile before its first
pass and keeps it while its bytes stay within _FFT_BLOCK_BYTES (the L
that keep it are in BENCH_pr26.json); its passes then only step.  The
engine never mirrors the tiles: Ptilde_l^m(-x) = (-1)^{l+m} Ptilde_l^m(x),
so it folds a grid into f(x) + f(-x) and f(x) - f(-x) on the half nodes,
which the even and the odd degrees of an order project onto.
The inverse sums the tiles of a group of orders in one order-major buffer
and unfolds it the same way, into each Fourier column once.  The forward
copies the folded Fourier columns of every order once per block of grids,
and every tile reads them there.

Real signals take the same loops with the +-m axis cut to the +m half.  A
grid is real when its dtype is real (SphereGrid keeps float64 samples), and
coefficients are those of real signals exactly when they are Hermitian,
f_{l,-m} = (-1)^m conj f_lm with Im f_l0 = 0, which each public entry point
checks once on its input (_is_hermitian).  The forward then folds in
float64, takes an rfft, projects the m >= 0 columns only and makes the -m
coefficients from the +m ones; the inverse gathers m >= 0 only and takes an
irfft of the half spectrum.  That halves the FFT work, the GEMM columns and
the scatter, and a real grid is half the bytes of a complex one.

The shells (rows) of a batch are independent, so an engine call of more
than one FFT block of rows splits them into shares, each a run of whole
blocks, one per usable core (the process's CPU affinity, as taskset sets
it): the calling thread runs the first share and threads started for the
call the others, each with its own work space and table pass, into its own
rows of one output.  The threads have ended when the call returns, so a
process keeps no engine thread between calls.  Every block is the block one
share makes, so the output has the same bytes on any number of cores.  A
call of one block, and a windowed sum, run inline and start no thread.
Shares make a many-row call faster on more cores, at the cost of a work
space each (BENCH_pr28.json).  numpy's BLAS and FFT calls release the GIL,
but BLAS threads of its own compete with the shares for the cores: run BLAS
on one thread (OPENBLAS_NUM_THREADS=1).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _buffers
from .quadrature import _check_integer, gauss_legendre

__all__ = [
    "MAX_BAND_LIMIT",
    "SphereGrid",
    "SphereCoeffs",
    "sphere_sampling",
    "assoc_legendre_table",
    "legendre_matrix",
    "sht_forward",
    "sht_inverse",
    "coeff_index",
]

MAX_BAND_LIMIT = 4096

_RESCALE_THRESHOLD = 1e250
_RESCALE_LOG = math.log(1e250)

# sphere plans for this many L, and ball plans for this many (P, tau), stay
# cached: more than the 9 band limits of a multiresolution sphere-wavelet pass
# at L=288, or the 5 radial limits of a multiresolution flaglet pass at P=32.
# Nothing bounds their bytes: 32 plans in 225 <= L <= 256 could hold about
# 0.9 GB of tables, and 32 plans past the cache up to 32 x _FFT_BLOCK_BYTES =
# 256 MiB of kept maps, seeds and coefficients
_PLAN_CACHE_SIZE = 32

# the forward transform works on blocks of at most this many bytes of grids,
# so a batch of shells never holds a full-size Fourier copy of its grid; a
# plan past the table cache keeps at most this many bytes of pass invariants
_FFT_BLOCK_BYTES = 8 << 20

# within a block it folds and FFTs this many bytes of grid rows at a time, then
# copies their columns out, so a chunk never holds the block's whole grids
_FOLD_CHUNK_BYTES = 1 << 20

# a cached plan steps blocks of this many bytes of table values in lock step;
# past the cache a group of orders holds at most this many bytes of inverse sums
_LEGENDRE_BLOCK_BYTES = 2 << 20


# taken to build what a plan or kernels keep on first use, and to look up a
# plan, so that threads which reach a fresh one together build it once;
# re-entrant, since building kernels' plans looks up sphere plans
_build_lock = threading.RLock()

# guards _most_shares, the most shares one engine call has run on in this process
_shares_lock = threading.Lock()
_most_shares = 0


def _made_once(store, key, make):
    """store[key], made by make(key) under _build_lock when the store has no
    live value for it, so threads that ask for a fresh one together make it
    once.  `store` is a dict or a weakref.WeakValueDictionary."""
    value = store.get(key)
    if value is None:
        with _build_lock:
            value = store.get(key)
            if value is None:
                value = store[key] = make(key)
    return value


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity (taskset), where the
    platform has one, else every core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _after_fork_in_child() -> None:
    """A forked child has only the forking thread, so a lock another thread
    held stays held: start it with fresh locks, the recycler's included."""
    global _shares_lock, _build_lock
    _shares_lock, _build_lock = threading.Lock(), threading.RLock()
    _buffers._lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _share_bounds(rows: int, step: int) -> list[int]:
    """Row bounds of the shares of an engine call of `rows` rows in blocks of
    `step`: one share per usable core, never more than the call's blocks,
    each a run of whole blocks, so every block is the one a single share
    would make, and the output the same bytes."""
    blocks = -(-rows // step)
    shares = min(_usable_cores(), blocks) if blocks > 1 else 1
    return [min(rows, i * blocks // shares * step) for i in range(shares + 1)]


def _run_shares(start, rows: int, step: int) -> None:
    """Run the shares of an engine call (_share_bounds): start(lo, hi) is
    called on this thread for the rows lo:hi of each share in turn and
    returns a function of no arguments that does its work.  A call of one
    share runs it inline and starts no thread.  Otherwise this thread runs
    the first share and threads of this call the others; every one of them
    has ended when the call returns or raises, so a share's error is raised
    only once all shares are done.

    start() takes a share's work space on this thread: taken on a worker
    thread, it came from that thread's malloc arena, which kept a freed
    forward buffer and raised the benchmark's peak RSS (BENCH_pr28.json).
    At interpreter exit, when no thread may start, every share runs on this
    thread."""
    global _most_shares
    bounds = _share_bounds(rows, step)
    jobs = [start(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    with _shares_lock:
        _most_shares = max(_most_shares, len(jobs))
    if len(jobs) == 1:
        jobs[0]()
        return
    with ThreadPoolExecutor(len(jobs) - 1, "flaglets-sht") as workers:
        try:
            futures = [workers.submit(job) for job in jobs[1:]]
        except RuntimeError:  # the interpreter is exiting
            futures = []
            for job in jobs[1:]:
                job()
        jobs[0]()  # leaving the block waits for the workers, even when this raises
    for future in futures:
        future.result()


def _empty(shape: tuple, dtype) -> np.ndarray:
    """np.empty(shape, dtype), over recycled storage (flaglets._buffers) when
    it holds more than _FOLD_CHUNK_BYTES and at most _FFT_BLOCK_BYTES.

    A larger buffer goes back to the operating system once freed, so the
    recycler never holds a ball round trip's full-size grids and work
    buffers, which raised its peak RSS.  A smaller one the allocator's heap
    serves warm without a fault, where recycling made flaglet denoising's
    small grids slower (both in BENCH_pr27.json)."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if not _FOLD_CHUNK_BYTES < nbytes <= _FFT_BLOCK_BYTES:
        return np.empty(shape, dtype)
    return _buffers.take(nbytes).view(dtype).reshape(shape)


def _check_band_limit(L: int) -> int:
    return _check_integer(L, 1, MAX_BAND_LIMIT, "band limit")


def coeff_index(ell: int, m: int) -> int:
    """Flat index of the (ell, m) coefficient: ell^2 + ell + m."""
    return ell * ell + ell + m


def window_coeffs(coeffs: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Multiply coefficients (..., L^2) by a per-degree window (..., L)."""
    L = window.shape[-1]
    return coeffs * np.repeat(window, 2 * np.arange(L) + 1, axis=-1)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _negative_orders(L: int):
    """Flat indices of (l, -m) and of (l, m) for 1 <= m <= l < L, and (-1)^m,
    read-only and cached for as many L as plans are (12 L^2 bytes each)."""
    ells = np.repeat(np.arange(L), np.arange(L))  # degree l once for each m = 1..l
    ms = np.arange(ells.size) - ells * (ells - 1) // 2 + 1
    centre = ells * (ells + 1)
    arrays = centre - ms, centre + ms, 1.0 - 2.0 * (ms % 2)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _is_hermitian(coeffs: np.ndarray, L: int) -> bool:
    """True when every row of coeffs (..., L^2) is the expansion of a real
    signal: Im f_l0 == 0 and f_{l,-m} == (-1)^m conj f_lm, compared with ==.

    Order 0 is read first, so complex input is told apart after O(L) reads
    per row; NaN is never Hermitian.  The -m and +m halves are compared a
    block of at most _fft_block_grids(L) rows at a time, so the gathered
    halves take at most about an FFT block.
    """
    rows = coeffs.reshape(-1, L * L)
    ells = np.arange(L)
    if np.any(rows[:, ells * (ells + 1)].imag != 0.0):
        return False
    neg, pos, sign = _negative_orders(L)
    step = _fft_block_grids(L)
    return all(
        np.array_equal(rows[i : i + step, neg], sign * rows[i : i + step, pos].conj())
        for i in range(0, len(rows), step)
    )


def _fill_negative_orders(coeffs: np.ndarray, L: int) -> None:
    """Set f_{l,-m} = (-1)^m conj f_lm for m >= 1 in place, in every row of
    coeffs (..., L^2): exactly Hermitian wherever Im f_l0 == 0."""
    neg, pos, sign = _negative_orders(L)
    coeffs[..., neg] = sign * coeffs[..., pos].conj()


def _grid_dtype(values) -> type:
    """float64 for real samples, complex128 for complex ones."""
    return np.complex128 if np.iscomplexobj(values) else np.float64


@dataclass
class SphereGrid:
    """Samples of a function on the exact sphere grid at band limit L.

    values has shape (L, 2L-1), row i holding the equispaced longitudes at
    colatitude theta_i (theta descending); float64 for real samples,
    complex128 otherwise.
    """

    L: int
    values: np.ndarray

    def __post_init__(self):
        self.L = _check_band_limit(self.L)
        self.values = np.ascontiguousarray(self.values, dtype=_grid_dtype(self.values))
        if self.values.shape != (self.L, 2 * self.L - 1):
            raise ValueError(
                f"grid shape {self.values.shape} does not match band limit {self.L}"
            )


@dataclass
class SphereCoeffs:
    """Spherical harmonic coefficients, flat index ell^2 + ell + m."""

    L: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.L = _check_band_limit(self.L)
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.L * self.L,):
            raise ValueError(
                f"coefficient length {self.coeffs.shape} does not match band limit {self.L}"
            )


def sphere_sampling(L: int):
    """Colatitudes and longitudes of the exact grid at band limit L.

    Returns (thetas, phis) with thetas descending (x = cos theta ascending,
    matching the Gauss-Legendre node order) and phis = 2 pi k / (2L - 1).
    """
    L = _check_band_limit(L)
    rule = gauss_legendre(L)
    thetas = np.arccos(rule.nodes)
    phis = 2.0 * np.pi * np.arange(2 * L - 1) / (2 * L - 1)
    return thetas, phis


def _sectoral_seeds(L: int, xs: np.ndarray, orders: int, m_first: int):
    """Yield (seed_u, box) for each group of `orders` orders from m_first.

    Ptilde_m^m(xs[j]) = seed_u[i, j] e^{c[i, j]} for m = m0 + i.  The seed is
    carried from one order to the next, and rescaled by 1e250 where it falls
    below 1e-250, so high-m values near the poles underflow to zero instead
    of poisoning the recurrence.  c is nonzero only in the box (r0, c0, c1,
    c_box) = (first scaled order, first and past the last scaled node,
    c[r0:, c0:c1]).  sin(theta) is taken as sqrt((1 - x)(1 + x)), which
    keeps its last bits near the poles.
    """
    n = xs.size
    sinx = np.sqrt(np.maximum(0.0, (1.0 - xs) * (1.0 + xs)))
    u = np.full(n, 1.0 / math.sqrt(2.0))
    c = np.zeros(n)
    m = 0
    for m0 in range(m_first, L, orders):
        nb = min(orders, L - m0)
        seed_u, seed_c = np.empty((nb, n)), np.empty((nb, n))
        for i in range(nb):
            while m < m0 + i:
                m += 1
                u = u * (-math.sqrt((2 * m + 1) / (2.0 * m))) * sinx
                small = (np.abs(u) < 1e-250) & (u != 0.0)
                if small.any():
                    u = np.where(small, u * _RESCALE_THRESHOLD, u)
                    c = c - np.where(small, _RESCALE_LOG, 0.0)
            seed_u[i], seed_c[i] = u, c
        rows, cols = np.flatnonzero(seed_c.any(axis=1)), np.flatnonzero(seed_c.any(axis=0))
        r0, c0, c1 = (rows[0], cols[0], cols[-1] + 1) if rows.size else (nb, 0, 0)
        box = (r0, c0, c1, seed_c[r0:, c0:c1].copy())
        del seed_c
        yield seed_u, box


def _tile_geometry(L: int, orders: int, depth: int, m_first: int = 0):
    """Yield (m0, k0, nb, dk) for each tile of a pass, in pass order: groups
    of `orders` orders from m_first, each cut into tiles of `depth` degrees
    from k0 = 0, of which a tile holds the nb orders still running at k0."""
    for m0 in range(m_first, L, orders):
        d = min(depth, L - m0)
        for k0 in range(0, L - m0, d):
            yield m0, k0, min(orders, L - m0 - k0), min(d, L - m0 - k0)


def _recurrence_coeffs(m0: int, k0: int, nb: int, dk: int):
    """The coefficients a, b (k, i, 1) of the degree steps k = max(k0, 2)..k0+dk-1
    of a tile: Ptilde_l^m = a (x Ptilde_{l-1}^m - b Ptilde_{l-2}^m) at l = m + k,
    m = m0 + i."""
    ms = np.arange(m0, m0 + nb, dtype=np.float64)
    ells = ms + np.arange(max(k0, 2), k0 + dk, dtype=np.float64)[:, None]
    mm = ms * ms
    a = np.sqrt((4.0 * ells * ells - 1.0) / (ells * ells - mm))
    b = np.sqrt(((ells - 1.0) ** 2 - mm) / (4.0 * (ells - 1.0) ** 2 - 1.0))
    return a[..., None], b[..., None]


def _pass_invariants(L: int, xs, orders: int, depth: int, m_first: int = 0):
    """What _legendre_tiles steps from, made as the pass goes: each group's
    _sectoral_seeds, each tile's _recurrence_coeffs and xs repeated for `orders`."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    coeffs = itertools.starmap(_recurrence_coeffs, _tile_geometry(L, orders, depth, m_first))
    return _sectoral_seeds(L, xs, orders, m_first), coeffs, np.tile(xs, (orders, 1))


def _legendre_tiles(L: int, orders: int, depth: int, m_first: int, invariants: tuple):
    """Yield (m0, k0, tile) over the orders m_first..L-1 and their degrees.

    tile[i, k, j] = Ptilde_{m0+i+k0+k}^{m0+i}(x_j), zero where the degree
    passes L - 1.  Groups of `orders` orders from m_first are stepped in lock
    step over k = l - m from their sectoral seeds (_sectoral_seeds), and an
    order drops out once it passes degree L - 1, so a tile holds the orders
    still running at k0 (_tile_geometry).  Tiles hold `depth` degrees and are
    views of one buffer, which the next tile overwrites, so a pass holds one
    tile; with depth >= L - m_first a group is one tile from k0 = 0, in a
    buffer of its own, which a cached plan keeps.  Each step writes x u_l into
    a scratch of one group's orders and each tile row once.  int_{-1}^{1}
    Ptilde_l^m Ptilde_l'^m dx = delta_{ll'}, Condon-Shortley phase included.

    A kept tile is order-major in memory.  The reused one is degree-major,
    (depth, orders, n) seen transposed, so a step writes its row and rescaled
    box as one block, not as `orders` pieces 8 depth n bytes apart, which
    made a pass faster past the cache (kept tiles laid out so made a cached
    round trip slower; BENCH_pr25.json).

    The pass steps from `invariants`, a plan's kept lists or _pass_invariants
    made as it goes: each group's (seed_u, box), copied since the recurrence
    steps in its memory, each tile's coefficients, and the nodes x_j repeated
    for `orders` orders, so x u is one contiguous product.  The reused tile
    buffer and the scratch are recycled storage when their size allows
    (_empty), so a warm pass faults no page; a whole group's tile, which a
    cached plan keeps, is a plain array.  A rescale is tested for only once
    a scalar bound on the box, grown step by step by the largest
    coefficients of the tile, may pass _RESCALE_THRESHOLD, so rescales fire
    at the same steps as a test on every step would, and the box is read
    far less often (BENCH_pr27.json).
    """
    seeds, coeffs, nodes = iter(invariants[0]), iter(invariants[1]), invariants[2]
    n, whole = nodes.shape[1], depth >= L - m_first
    buf = None
    with np.errstate(under="ignore"):
        for m0, k0, nb, dk in _tile_geometry(L, orders, depth, m_first):
            if k0 == 0:  # a new group of nb orders
                seed_u, (r0, c0, c1, c_box) = next(seeds)
                # u = Ptilde, |u| <= sqrt((2l+1)/2) <= 64, wherever the seed is
                # unscaled: only in the box [r0:, c0:c1] around the scaled seeds
                # does u carry an exponent c, and only there can it pass the threshold
                scale = np.exp(c_box)  # recomputed only when a rescale fires
                ms = np.arange(m0, m0 + nb, dtype=np.float64)
                if buf is None or whole:  # the first group is the largest
                    axes, empty = ((0, 1, 2), np.empty) if whole else ((1, 0, 2), _empty)
                    buf = empty(tuple((nb, dk, n)[i] for i in axes), np.float64).transpose(axes)
                    scratch = empty((nb, n), np.float64)
                u_prev, u_cur = None, seed_u.copy()
                top = np.abs(u_cur[r0:, c0:c1]).max(initial=0.0)
            tile = buf[:nb, :dk]
            a, b = next(coeffs)
            lo = max(k0, 2)
            # the box's |u| is read only once `top`, a bound on it, may pass the
            # threshold: |a (x u - b u_prev)| <= a_k (|u| + b_k |u_prev|) for
            # |x| <= 1, a_k and b_k the step's largest, a_k raised to cover roundings
            a_top = (a.max(axis=(1, 2)) * (1.0 + 1e-12)).tolist()
            b_top = b.max(axis=(1, 2)).tolist()
            for k in range(k0, k0 + dk):
                run = min(nb, L - m0 - k)  # orders with degree m + k <= L - 1
                row, x_cur = tile[:, k - k0], scratch[:run]
                if k == 1:
                    np.multiply(np.sqrt(2.0 * ms[:run] + 3.0)[:, None], nodes[:run], out=x_cur)
                    u_prev, u_cur = u_cur, x_cur * u_cur[:run]
                    top_prev, top = top, top * math.sqrt(2.0 * ms[-1] + 3.0) * (1.0 + 1e-12)
                elif k >= 2:
                    # u_prev <- a (x u_cur - b u_prev) in place, then swap
                    u_prev, u_cur = u_prev[:run], u_cur[:run]
                    np.multiply(nodes[:run], u_cur, out=x_cur)
                    np.multiply(b[k - lo, :run], u_prev, out=u_prev)
                    np.subtract(x_cur, u_prev, out=u_prev)
                    np.multiply(a[k - lo, :run], u_prev, out=u_prev)
                    u_prev, u_cur = u_cur, u_prev
                    top_prev, top = top, a_top[k - lo] * (top + b_top[k - lo] * top_prev)
                    if r0 < run and top > _RESCALE_THRESHOLD:
                        box = np.abs(u_cur[r0:, c0:c1])
                        top = box.max()
                        if top > _RESCALE_THRESHOLD:
                            big = box > _RESCALE_THRESHOLD
                            f = np.where(big, 1.0 / _RESCALE_THRESHOLD, 1.0)
                            u_cur[r0:, c0:c1] *= f
                            u_prev[r0:, c0:c1] *= f
                            c_box = c_box[: run - r0] + np.where(big, _RESCALE_LOG, 0.0)
                            scale = np.exp(c_box)
                            top = np.abs(u_cur[r0:, c0:c1]).max()
                            top_prev = np.abs(u_prev[r0:, c0:c1]).max()
                row[:run] = u_cur[:run]
                row[run:] = 0.0
                if r0 < run:
                    np.multiply(u_cur[r0:run, c0:c1], scale[: run - r0], out=row[r0:run, c0:c1])
            yield m0, k0, tile


def legendre_matrix(L: int, m: int, xs: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values Ptilde_l^m for l = m..L-1.

    Returns shape (L - m, len(xs)); see _legendre_tiles.
    """
    L = _check_band_limit(L)
    m = _check_integer(m, 0, L - 1, "order")
    if not np.all(np.abs(np.asarray(xs, dtype=np.float64)) <= 1.0):  # NaN fails too
        raise ValueError("arguments must satisfy |x| <= 1")
    return next(_legendre_tiles(L, 1, L, m, _pass_invariants(L, xs, 1, L, m)))[2][0]


def assoc_legendre_table(L: int, x: float) -> np.ndarray:
    """Table of Ptilde_l^m(x) for 0 <= m <= l < L at a single point.

    Returns a flat array of length L^2 addressed by l * L + m; entries
    with m > l are zero.  All orders are stepped together, so this takes
    O(L) recurrence steps.
    """
    L = _check_band_limit(L)
    if not abs(x) <= 1.0:  # NaN fails too
        raise ValueError(f"argument must satisfy |x| <= 1, got {x}")
    table = np.zeros(L * L)
    for _, k, tile in _legendre_tiles(L, L, 1, 0, _pass_invariants(L, float(x), L, 1)):
        # degree l = m + k of every order m: the k-th diagonal below the main one
        table[k * L :: L + 1] = tile[:, 0, 0]
    return table


def _nbytes(held) -> int:
    """Bytes of the arrays in nested tuples and lists."""
    if isinstance(held, np.ndarray):
        return held.nbytes
    if isinstance(held, (tuple, list)):
        return sum(_nbytes(item) for item in held)
    return 0


class SpherePlan:
    """Quadrature rule and folded Legendre tiles with their index maps for one L.

    The nodes are symmetric, x_{half+j} = -x_{L-1-half-j} with half = L // 2
    (exact in gauss_legendre), so tables() yields the tiles of
    _legendre_tiles on the L - half nodes x >= 0 only.  Row k of a tile from
    k0 is even in x when k0 + k (that is l + m) is even, odd otherwise; at odd
    L the odd rows vanish at x = 0.  Tiles come in two kinds:

    - up to _CACHE_LIMIT, blocks of orders of about _LEGENDRE_BLOCK_BYTES,
      each with all of its degrees (k0 = 0), all made on first use and
      kept, maps included, each order's degrees in one block.
    - past the cache, for every pass, groups of B orders in tiles of D
      degrees, made per pass in one reused buffer whose degree rows are each
      one block (_legendre_tiles says why).  The inverse holds the
      sums of a group until its last tile, for every FFT block of rows.  B
      orders hold those of one block of complex rows in
      _LEGENDRE_BLOCK_BYTES and D = 32 degrees of them a tile within a grid's
      share of an FFT block: (B, D) = (75, 32) at L = 288 (3-row blocks),
      (128, 32) at 512 and (64, 32) at 1024.  A pass takes about L^2 / 2B
      recurrence steps on arrays of B orders, which stay in cache where all L
      orders at once did not, so a round trip is faster than with all-order
      tiles (BENCH_pr23.json).

    _tile_shape() chooses between them for tables() and for the forward's
    work space, and _tile_geometry lists a pass's tiles.  Past the cache the
    tiles are stepped anew on every pass, from the maps, sectoral seeds,
    recurrence coefficients and repeated nodes that _kept_tiling makes once
    and keeps while they fit in _FFT_BLOCK_BYTES (the L that keep them are
    in BENCH_pr26.json).  nbytes counts what the plan holds.

    maps[p] serves parity p of a tile of nb orders from m0 and degrees from
    k0, for real and complex passes alike: `index[i, k', s]` (int32) is the
    flat coefficient index of (l, m) = (m0+i+k0+k, +-(m0+i)) for the k'-th
    row k of parity p (k0 + k = p mod 2) and s = 0, 1, and -1 past the band
    limit, where the table rows are zero, and at -0 of order 0, whose sums
    are never unfolded; the inverse gathers through index[..., :S].  `valid`
    (int32) lists the flat positions in `index` that the forward transform
    stores, each coefficient once, first the `plus` +m entries (s = 0), then
    the -m ones, each sign in coefficient order; `dest` = index.flat[valid].
    A real forward stores the +m prefix only, whose entry 2q of index.flat
    is q of index[..., :1].
    """

    # folded blocks are O(L^3/4) doubles; beyond this, regenerate per pass
    _CACHE_LIMIT = 256

    def __init__(self, L: int):
        self.L = L = _check_band_limit(L)
        self.half = L // 2
        self.rule = gauss_legendre(L)
        nphi, odd = 2 * L - 1, L % 2
        # Y_l^-m = (-1)^m conj(Y_l^m): the -m Fourier columns of odd m change sign
        cols = np.arange(nphi)
        self.signs = np.where((cols >= L) & ((nphi - cols) % 2 == 1), -1.0, 1.0)
        # rows of a folded grid: f(x_j) + f(-x_j) for the L - half nodes x_j >= 0,
        # then f(x_j) - f(-x_j) for those x_j > 0; their weights w (2 pi / (2L-1))
        # / sqrt(2 pi), halved at the x = 0 node of odd L, which folds onto itself
        weights = self.rule.weights[self.half :] * (math.sqrt(2.0 * np.pi) / nphi)
        self.fold_weights = np.concatenate((weights, weights[odd:]))
        if odd:
            self.fold_weights[0] *= 0.5
        self._tiles = None
        self._streamed = None  # (invariants, maps per tile) once kept, () once past budget

    def _tile_maps(self, m0: int, k0: int, nb: int, depth: int):
        ms = np.arange(m0, m0 + nb, dtype=np.int32)[:, None]
        maps = []
        for p in (0, 1):
            ells = ms + np.arange(k0 + (p - k0) % 2, k0 + depth, 2, dtype=np.int32)  # (nb, K')
            index = np.empty(ells.shape + (2,), dtype=np.int32)
            base = ells * (ells + 1)
            np.add(base, ms, out=index[..., 0])
            np.subtract(base, ms, out=index[..., 1])
            index[ells >= self.L] = -1
            if m0 == 0:
                index[0, :, 1] = -1  # -0 is +0: order 0 is stored once
            # stored entries +m first, each sign in coefficient order, so the scatter
            # writes runs: in (sign, row, order) order they are 2K' ascending runs
            kept = index.transpose(2, 1, 0) >= 0
            flat = np.arange(index.size, dtype=np.int32).reshape(index.shape)
            valid, dest = flat.transpose(2, 1, 0)[kept], index.transpose(2, 1, 0)[kept]
            order = np.argsort(dest + (valid % 2) * self.L**2, kind="stable")
            maps.append((index, valid[order], dest[order], int(np.count_nonzero(kept[0]))))
        return maps

    def _tile_shape(self) -> tuple[int, int]:
        """(orders, degrees) of the first and largest tile of a pass.

        Up to the cache a block of orders has all its degrees and
        _LEGENDRE_BLOCK_BYTES of values.  Past it, for FFT blocks of `step`
        rows, B orders hold the inverse's sums of one block of complex rows,
        64 B n step bytes on the n = L - half nodes, within
        _LEGENDRE_BLOCK_BYTES, and their tiles of D degrees, 8 B D n bytes,
        within one grid's share _FFT_BLOCK_BYTES / step of an FFT block (D =
        32 with the module's constants, unless B or D is cut to L or raised
        to 1).
        """
        L, n, step = self.L, self.L - self.half, _fft_block_grids(self.L)
        if L <= self._CACHE_LIMIT:
            return min(L, max(1, _LEGENDRE_BLOCK_BYTES // (8 * L * n))), L
        orders = min(L, max(1, _LEGENDRE_BLOCK_BYTES // (64 * n * step)))
        return orders, min(L, max(1, _FFT_BLOCK_BYTES // (8 * orders * n * step)))

    def _kept_tiling(self, nodes: np.ndarray, orders: int, depth: int):
        """The _pass_invariants and maps of a tiling past the cache, made tile
        by tile while their _nbytes stays within _FFT_BLOCK_BYTES; else ()."""
        made_seeds, made_coeffs, repeated = _pass_invariants(self.L, nodes, orders, depth)
        seeds, coeffs, maps, held = [], [], [], repeated.nbytes
        for tile in _tile_geometry(self.L, orders, depth):
            if tile[1] == 0:
                seeds.append(next(made_seeds))
                held += _nbytes(seeds[-1])
            coeffs.append(next(made_coeffs))
            maps.append(self._tile_maps(*tile))
            held += _nbytes((coeffs[-1], maps[-1]))
            if held > _FFT_BLOCK_BYTES:
                return ()
        return (seeds, coeffs, repeated), maps

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the plan holds: its rule, signs and weights, the
        tiles and maps of a cached plan, and the maps, seeds, coefficients and
        repeated nodes kept for a streamed one."""
        arrays = (self.rule.nodes, self.rule.weights, self.signs, self.fold_weights)
        return _nbytes((arrays, self._tiles, self._streamed))

    def _prepare(self) -> None:
        """Make what the plan keeps, once (_made_once over its own attributes):
        a cached plan's _tiles, its tiles and maps from its one table pass, or
        past the cache the _streamed tiling that _kept_tiling decides to keep
        (no pass).  Afterwards tables() only reads the plan, and the engine's
        shares read it from several threads."""

        def make(name: str):
            L, nodes, shape = self.L, self.rule.nodes[self.half :], self._tile_shape()
            if name == "_streamed":
                return self._kept_tiling(nodes, *shape)
            tiles = _legendre_tiles(L, *shape, 0, _pass_invariants(L, nodes, *shape))
            maps = itertools.starmap(self._tile_maps, _tile_geometry(L, *shape))
            return [(*tile, tile_maps) for tile, tile_maps in zip(tiles, maps)]

        _made_once(vars(self), "_tiles" if self.L <= self._CACHE_LIMIT else "_streamed", make)

    def tables(self):
        """Yield (m0, k0, tile, maps) over all orders and degrees; see _legendre_tiles.

        A cached plan makes all its tiles and maps on first use and replays
        them.  Past _CACHE_LIMIT a pass yields the tiles of groups of orders,
        each overwritten by the next one, from what _kept_tiling decided once
        to keep, or from seeds, coefficients and maps made as the pass goes.
        """
        self._prepare()
        if self.L <= self._CACHE_LIMIT:
            yield from self._tiles
            return
        L, nodes, shape = self.L, self.rule.nodes[self.half :], self._tile_shape()
        kept, maps = self._streamed or (
            _pass_invariants(L, nodes, *shape),
            itertools.starmap(self._tile_maps, _tile_geometry(L, *shape)),
        )
        for tile, tile_maps in zip(_legendre_tiles(L, *shape, 0, kept), maps):
            yield *tile, tile_maps


_live_plans = weakref.WeakValueDictionary()  # L -> the plan get_plan made, while alive


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def get_plan(L: int) -> SpherePlan:
    """The plan for L: the cache holds _PLAN_CACHE_SIZE plans, and a plan it
    evicted is returned while something else (kernels) still holds it, so
    each L has at most one live plan from here."""
    return _made_once(_live_plans, L, SpherePlan)


def _real_matmul(a: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real matrix times a matrix of z's dtype as one real GEMM: a complex z
    is taken as (re, im) pairs.  `out`, if given, is a C-contiguous array of
    the product's shape and z's dtype that the GEMM writes."""
    z = np.ascontiguousarray(z)
    if not np.iscomplexobj(z):
        return np.matmul(a, z, out=out)
    pairs = None if out is None else out.view(np.float64)
    return np.matmul(a, z.view(np.float64), out=pairs).view(np.complex128)


def _fft_block_grids(L: int) -> int:
    """Grids per block of a batch: _FFT_BLOCK_BYTES of Fourier buffer, at least one."""
    return max(1, _FFT_BLOCK_BYTES // (16 * L * (2 * L - 1)))


def _column_ranges(L: int, m0: int, nb: int):
    """(first order, Fourier columns) of the +m and of the -m columns of a block.

    The -m columns of orders m0..m0+nb-1 run down from 2L-1-m0; order 0 has
    only column 0, which is its +m column.
    """
    nphi, skip = 2 * L - 1, int(m0 == 0)
    return (0, slice(m0, m0 + nb)), (skip, slice(nphi - m0 - skip, nphi - m0 - nb, -1))


def _sht_forward_batch(
    grids: np.ndarray | list[np.ndarray], plan: SpherePlan, windows=None, total=None
) -> np.ndarray:
    """Forward SHT of every grid of `grids` (n, L, 2L-1); returns (n, L^2).

    With `windows` (n, L) it adds each grid's coefficients times its window
    to `total` (L^2,) in grid order instead, holding one block's rows, and
    returns `total`.  The grids, an array or a list, are never copied, and
    real when none is complex.  They are taken in blocks of at most
    _fft_block_grids(L), and the blocks of a plain call in shares, each a
    run of whole blocks, one per usable core (_run_shares): each share folds,
    FFTs, copies columns, projects and scatters its own blocks into its own
    rows of the output, with a work space of its own, so the output has the
    bytes of one share.  A windowed sum runs as one share, in grid order.
    The plan's lazy tables are made before the shares start (_prepare).
    See _forward_blocks for a share's steps.
    """
    L = plan.L
    real = not any(map(np.iscomplexobj, grids))
    step = min(_fft_block_grids(L), max(len(grids), 1))
    plan._prepare()
    if windows is not None:
        out = _empty((step, L * L), np.complex128)
        space = _forward_space(plan, real, step)
        _forward_blocks(grids, plan, real, step, out, space, windows, total)
        return total
    out = _empty((len(grids), L * L), np.complex128)

    def start(lo: int, hi: int):
        space = _forward_space(plan, real, min(step, max(hi - lo, 1)))
        return lambda: _forward_blocks(grids[lo:hi], plan, real, step, out[lo:hi], space)

    _run_shares(start, len(grids), step)
    return out


def _forward_space(plan: SpherePlan, real: bool, width: int):
    """(rows, columns, work) of a forward share whose largest block holds
    `width` grids: the rows of a fold chunk, room for a block's columns[m,
    j, s, r] (order m, folded row j, sign s, grid r), and the work space for
    a chunk of folded rows or a tile's projections and stored degrees (the
    first tile's are the largest).  The two are views of one allocation,
    since two of about a grid block each upset glibc's dynamic mmap
    threshold and made a cold flaglet denoising pass fault more pages
    (BENCH_pr10.json).  A real chunk is folded in float64 and its L rfft
    columns written after it."""
    L, nphi, S = plan.L, 2 * plan.L - 1, 1 if real else 2
    rows = min(L, max(1, _FOLD_CHUNK_BYTES // (16 * nphi * width)))
    orders, depth = plan._tile_shape()
    proj_size = orders * ((depth + 1) // 2) * S * width
    fold_size = rows * width * ((nphi + 1) // 2 + L if real else nphi)
    buf = _empty((L * L * S * width + max(fold_size, 2 * proj_size),), np.complex128)
    return rows, buf[: L * L * S * width], buf[L * L * S * width :]


def _forward_blocks(grids, plan: SpherePlan, real: bool, step: int, out, space, windows=None, total=None):
    """The forward SHT of `grids` in blocks of `step` into the rows of `out`,
    or windowed into `total` through one block's rows of `out`, in the
    (rows, columns, work) `space` of _forward_space.

    Per block of grids, chunks of at most
    _FOLD_CHUNK_BYTES of rows are folded about the equator grid by grid,
    f(x) + f(-x) then f(x) - f(-x) on the half nodes, FFT'd along their
    contiguous last axis, and the Fourier columns of every order copied out
    of them weighted and signed: +m and -m for complex grids (S = 2), and
    for real grids only +m, from an rfft of rows folded in float64 (S = 1).
    Per tile and parity, the columns of the sums (even l + m) or the
    differences (odd l + m) of the tile's orders are projected by one
    stacked GEMM over the orders, on 2 S float columns per grid, and the
    stored degrees scattered through the tile's maps, for real grids through
    their +m prefix.  The -m coefficients of real grids are then made from
    the +m ones, so they are exactly Hermitian.  Past the table cache the
    tiles are regenerated per block of grids, since generating them once
    would hold a full-size Fourier copy.

    The output and the columns-and-work buffer are recycled storage (_empty)
    when their size allows, so a warm call does not fault their pages anew
    (BENCH_pr27.json).  The returned coefficients keep their storage alive
    through their views.
    """
    L, nphi, half = plan.L, 2 * plan.L - 1, plan.half
    nh, odd = L - half, L % 2
    folds = (slice(0, nh), slice(nh, L))
    S = 1 if real else 2
    rows, column_buf, work = space
    for start in range(0, len(grids), step):
        block = grids[start : start + step]
        n = len(block)
        columns = column_buf[: L * L * S * n].reshape(L, L, S, n)
        for j0 in range(0, L, rows):
            j1 = min(j0 + rows, L)
            size = n * (j1 - j0) * nphi
            if real:
                folded = work.view(np.float64)[:size].reshape(n, j1 - j0, nphi)
                fm = work[(size + 1) // 2 :][: n * (j1 - j0) * L].reshape(n, j1 - j0, L)
            else:
                folded = fm = work[:size].reshape(n, j1 - j0, nphi)
            # folded rows j0..add_end are sums, sub_start..j1 differences
            add_end, sub_start = max(j0, min(j1, nh)), min(j1, max(j0, nh))
            d0, d1 = sub_start - nh + odd, j1 - nh + odd
            for dst, src in zip(folded, block):
                north, south = src[half:], src[nh - 1 :: -1]
                np.add(north[j0:add_end], south[j0:add_end], out=dst[: add_end - j0])
                np.subtract(north[d0:d1], south[d0:d1], out=dst[sub_start - j0 :])
            if real:
                np.fft.rfft(folded, axis=-1, out=fm)
            else:
                np.fft.fft(fm, axis=-1, out=fm)
            # weighted, signed +m and -m columns; the -0 column of order 0 is zero
            for s, (lo, cols) in enumerate(_column_ranges(L, 0, L)[:S]):
                weights = np.multiply.outer(plan.signs[cols], plan.fold_weights[j0:j1])
                np.multiply(
                    fm[:, :, cols].transpose(2, 1, 0),
                    weights[..., None],
                    out=columns[lo:, j0:j1, s],
                )
            if not real:
                columns[0, j0:j1, 1] = 0.0
        coeffs = out[start : start + n] if windows is None else out[:n]
        for m0, k0, tile, maps in plan.tables():
            nb = tile.shape[0]
            for p, fold, (index, valid, dest, plus) in zip((0, 1), folds, maps):
                if real:
                    valid, dest = valid[:plus] // 2, dest[:plus]
                nodes = fold.stop - fold.start
                size = index.size // 2 * S * n
                proj = work[:size].reshape(-1, n)
                np.matmul(
                    tile[:, (p - k0) % 2 :: 2, odd * p :],
                    columns[m0 : m0 + nb, fold].view(np.float64).reshape(nb, nodes, 2 * S * n),
                    out=proj.view(np.float64).reshape(nb, -1, 2 * S * n),
                )
                stored = work[size : size + valid.size * n].reshape(-1, n)
                np.take(proj, valid, axis=0, out=stored, mode="clip")
                coeffs.T[dest] = stored
        if real:
            _fill_negative_orders(coeffs, L)
        for c, w in zip(coeffs, [] if windows is None else windows[start : start + n]):
            total += window_coeffs(c, w)


def _sht_inverse_batch(coeffs: np.ndarray, plan: SpherePlan, real: bool) -> np.ndarray:
    """Inverse SHT of every row of coeffs (..., L^2); returns (..., L, 2L-1),
    float64 when `real` says the rows are Hermitian (_is_hermitian), complex
    otherwise.

    The rows are taken in blocks of at most _fft_block_grids(L), and the
    blocks in shares, each a run of whole blocks, one per usable core
    (_run_shares).  Each share makes its own table pass over its own blocks
    and writes their grids into its rows of the one output, so the output
    has the bytes of one share; the plan's lazy tables are made before the
    shares start (_prepare).  See _inverse_blocks for a share's steps.  The
    returned grids keep their storage alive through their views.
    """
    L = plan.L
    rows = coeffs.reshape(-1, L * L)
    step = min(_fft_block_grids(L), max(len(rows), 1))
    plan._prepare()
    # real rows are unfolded into their m >= 0 half spectrum, then irfft'd
    spectrum = _empty((len(rows), L, L), np.complex128) if real else None
    grids = _empty((len(rows), L, 2 * L - 1), np.float64 if real else np.complex128)
    spectrum = grids if spectrum is None else spectrum

    def start(lo: int, hi: int):
        space = _inverse_sums(plan, real, step, hi - lo)
        return lambda: _inverse_blocks(
            rows[lo:hi], plan, real, step, spectrum[lo:hi], grids[lo:hi], space
        )

    _run_shares(start, len(rows), step)
    return grids.reshape(coeffs.shape[:-1] + (L, 2 * L - 1))


def _inverse_sums(plan: SpherePlan, real: bool, step: int, n: int):
    """(scratch, sums) of an inverse share of n rows in blocks of `step`, in
    one allocation: sums[b] is room for the first (largest) group's sums of
    block b of rows, and scratch (float64) for one parity's sums of a group
    for one block.  Past the cache, where a group has several tiles, every
    block has sums of its own; where a group is one tile, every block gets
    the same view, and no scratch is needed (_inverse_blocks)."""
    L = plan.L
    _, _, nb, dk = next(_tile_geometry(L, *plan._tile_shape()))
    tiled, blocks = dk < L, -(-n // step)
    kept = blocks if tiled else 1
    one = nb * (L - plan.half) * (1 if real else 2) * min(step, max(n, 1))
    buf = _empty(((2 * kept + tiled) * one,), np.complex128)
    sums = [buf[2 * one * (b % kept) :][: 2 * one] for b in range(blocks)]
    return buf[2 * one * kept :].view(np.float64), sums


def _inverse_blocks(rows: np.ndarray, plan: SpherePlan, real: bool, step: int, g, grids, space):
    """The inverse SHT of `rows` (n, L^2) in blocks of `step` into `grids`
    (n, L, 2L-1), through `g`, their m >= 0 half spectrum (n, L, L) for real
    rows and `grids` itself for complex ones, in the (scratch, sums) `space`
    of _inverse_sums.

    A tile from k0 = 0 starts a group of orders; the later tiles of a pass
    hold those of its orders that still run.  For each tile and block of
    rows, the tile's maps gather the +m and -m coefficients of each parity
    (S = 2), or only the +m ones of real rows (S = 1), and one stacked GEMM
    per parity synthesises the even and odd sums S_even, S_odd on the half
    nodes into the block's order-major sums[parity, order, node, s, row].  A
    tile from k0 = 0 writes them; a later tile adds its GEMM there through
    the scratch.  Past the cache a group has several tiles, so every block
    of rows has sums of its own: a share makes one table pass, and gives
    the bytes of one call per block.  A cached plan's groups are one tile
    each, and every block reuses the same sums.  After a group's last tile
    f(+-x) = S_even +- S_odd is written into its orders' Fourier columns
    once, which are then signed, scaled and inverse-FFT'd: in place, or for
    real rows from the half spectrum by irfft into `grids`.

    The grids, the half spectrum of real rows, and the sums and scratch are
    recycled storage (_empty) when their size allows, so a warm call does
    not fault their pages anew (BENCH_pr27.json).
    """
    L, nphi, half = plan.L, 2 * plan.L - 1, plan.half
    nh, S = L - half, 1 if real else 2
    north, south = g[:, half:], g[:, nh - 1 :: -1]
    scratch, block_sums = space
    for m0, k0, tile, maps in plan.tables():
        nb, dk = tile.shape[:2]
        if k0 == 0:
            group = nb
        for start, flat in zip(range(0, len(rows), step), block_sums):
            block = rows[start : start + step]
            n = len(block)
            sums = flat[: 2 * group * nh * S * n].reshape(2, group, nh, S, n)
            for p, (index, *_) in enumerate(maps):
                values = tile[:, (p - k0) % 2 :: 2].transpose(0, 2, 1)
                sums_p = sums[p].view(np.float64).reshape(group, nh, 2 * S * n)
                out = scratch[: nb * nh * 2 * S * n].reshape(nb, nh, 2 * S * n) if k0 else sums_p
                # the gather is freed before the next one, so a call's peak
                # memory holds one gather, not two
                np.matmul(
                    values,
                    block.T[index[..., :S]].view(np.float64).reshape(nb, -1, 2 * S * n),
                    out=out,
                )
                if k0:
                    sums_p[:nb] += out
            if k0 + dk == L - m0:  # the group's last tile
                here = slice(start, start + n)
                for s, (lo, cols) in enumerate(_column_ranges(L, m0, group)[:S]):
                    even, odd = sums[:, lo:, :, s].transpose(0, 2, 3, 1)
                    np.add(even, odd, out=north[here, :, cols].transpose(1, 0, 2))
                    np.subtract(even, odd, out=south[here, :, cols].transpose(1, 0, 2))
    g *= plan.signs[: g.shape[-1]] / math.sqrt(2.0 * np.pi)
    if real:
        np.fft.irfft(g, n=nphi, axis=-1, norm="forward", out=grids)
    else:
        np.fft.ifft(g, axis=-1, norm="forward", out=g)


def _plan_for(L: int, plan: SpherePlan | None) -> SpherePlan:
    """`plan`, checked against band limit L, or the cached plan for L."""
    if plan is None:
        return get_plan(L)
    if plan.L != L:
        raise ValueError(f"plan band limit {plan.L} does not match the data's band limit {L}")
    return plan


def sht_forward(grid: SphereGrid, plan: SpherePlan | None = None) -> SphereCoeffs:
    """Forward spherical harmonic transform, exact for band-limited input.

    f_lm = sum_i sum_k w_i (2 pi / (2L-1)) f(theta_i, phi_k) conj(Y_lm),
    with the k-sum carried out by FFT.  The coefficients of a real grid are
    exactly Hermitian.  Raises ValueError if `plan` was built for another
    band limit.
    """
    return SphereCoeffs(grid.L, _sht_forward_batch(grid.values[None], _plan_for(grid.L, plan))[0])


def sht_inverse(coeffs: SphereCoeffs, plan: SpherePlan | None = None) -> SphereGrid:
    """Inverse spherical harmonic transform onto the exact grid.

    Exactly Hermitian coefficients give a real (float64) grid.  Raises
    ValueError if `plan` was built for another band limit.
    """
    plan = _plan_for(coeffs.L, plan)
    real = _is_hermitian(coeffs.coeffs, coeffs.L)
    return SphereGrid(coeffs.L, _sht_inverse_batch(coeffs.coeffs, plan, real))
