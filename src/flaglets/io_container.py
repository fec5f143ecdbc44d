"""FLG1 binary container: bit-exact serialization of every library object.

Layout (all integers u32 little-endian, all reals IEEE-754 binary64
little-endian, complex values interleaved re, im):

    magic   4 bytes  "FLG1"
    version u32      currently 1
    kind    u32      1 SphereGrid, 2 SphereCoeffs, 3 BallGrid,
                     4 FlagCoeffs, 5 SphereKernels, 6 FlagletKernels,
                     7 Decomposition
    header  kind-specific fixed fields (see _HEADERS below)
    payload float64 array data, in the exact in-memory layout of the type

Decompositions (kind 7) carry a flags word: bit 0 = multiresolution
storage, bit 1 = sphere decomposition (P, nu, tau unused and written as
zero) rather than ball decomposition.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .flag_transform import BallGrid, BandLimits, FlagCoeffs
from .flaglet_transform import FlagletDecomposition
from .kernel_tiling import (
    FlagletKernels,
    SphereKernels,
    TilingParams,
    scale_band_limit,
    scale_range,
)
from .quadrature import MAX_NODES
from .sphere_harmonics import MAX_BAND_LIMIT, SphereCoeffs, SphereGrid
from .sphere_wavelets import SphereDecomposition

__all__ = [
    "ContainerError",
    "MagicError",
    "VersionError",
    "TruncatedError",
    "LengthMismatchError",
    "KindError",
    "HeaderError",
    "write_container",
    "read_container",
]

MAGIC = b"FLG1"
VERSION = 1

KIND_SPHERE_GRID = 1
KIND_SPHERE_COEFFS = 2
KIND_BALL_GRID = 3
KIND_FLAG_COEFFS = 4
KIND_SPHERE_KERNELS = 5
KIND_FLAGLET_KERNELS = 6
KIND_DECOMPOSITION = 7

_FLAG_MULTIRES = 1
_FLAG_SPHERE = 2

# payloads are read in pieces of at most this many bytes, so memory grows
# with the bytes actually present, not with the sizes a header declares
_READ_CHUNK_BYTES = 1 << 24


class ContainerError(Exception):
    """Base error for FLG1 reading/writing."""


class MagicError(ContainerError):
    pass


class VersionError(ContainerError):
    pass


class TruncatedError(ContainerError):
    pass


class LengthMismatchError(ContainerError):
    pass


class KindError(ContainerError):
    pass


class HeaderError(ContainerError, ValueError):
    """A header field is out of range or describes an invalid object."""


def _read_exact(source, n: int, what: str) -> bytes:
    parts, got = [], 0
    while got < n:
        part = source.read(min(n - got, _READ_CHUNK_BYTES))
        if not part:
            raise TruncatedError(f"{what}: expected {n} bytes, got {got}")
        parts.append(part)
        got += len(part)
    return b"".join(parts)


def _check_limits(L: int, P: int = 1):
    """Reject band limits no library object can have, before any allocation."""
    if not 1 <= L <= MAX_BAND_LIMIT:
        raise HeaderError(f"band limit {L} is outside [1, {MAX_BAND_LIMIT}]")
    if not 1 <= P <= MAX_NODES:
        raise HeaderError(f"radial band limit {P} is outside [1, {MAX_NODES}]")


def _complex_le(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype="<c16")


def _real_le(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype="<f8")


def _read_complex(source, count: int, what: str) -> np.ndarray:
    raw = _read_exact(source, 16 * count, what)
    return np.frombuffer(raw, dtype="<c16").astype(np.complex128)


def _read_real(source, count: int, what: str) -> np.ndarray:
    raw = _read_exact(source, 8 * count, what)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def write_container(obj, sink) -> int:
    """Serialize an object to a binary sink; returns the byte count written.

    `sink` may be a file-like object opened in binary mode or a path.
    """
    if isinstance(sink, (str, bytes, os.PathLike)):
        with open(sink, "wb") as fh:
            return write_container(obj, fh)

    if isinstance(obj, SphereGrid):
        header = struct.pack("<II", KIND_SPHERE_GRID, obj.L)
        payload = [_complex_le(obj.values)]
    elif isinstance(obj, SphereCoeffs):
        header = struct.pack("<II", KIND_SPHERE_COEFFS, obj.L)
        payload = [_complex_le(obj.coeffs)]
    elif isinstance(obj, BallGrid):
        header = struct.pack("<IIId", KIND_BALL_GRID, obj.limits.L, obj.limits.P, obj.limits.tau)
        payload = [_complex_le(obj.values)]
    elif isinstance(obj, FlagCoeffs):
        header = struct.pack("<IIId", KIND_FLAG_COEFFS, obj.limits.L, obj.limits.P, obj.limits.tau)
        payload = [_complex_le(obj.coeffs)]
    elif isinstance(obj, SphereKernels):
        header = struct.pack("<IIId", KIND_SPHERE_KERNELS, obj.L, obj.j0, obj.params.lam)
        payload = [_real_le(a) for a in [obj.eta, *obj.kappas]]
    elif isinstance(obj, FlagletKernels):
        p, lim = obj.params, obj.limits
        fields = (lim.L, lim.P, p.j0_ang, p.j0_rad, p.lam, p.nu, lim.tau)
        header = struct.pack("<IIIIIddd", KIND_FLAGLET_KERNELS, *fields)
        psis = [obj.psis[(j, jp)] for j in obj.j_range for jp in obj.jp_range]
        payload = [_real_le(a) for a in [obj.phi, *psis]]
    elif isinstance(obj, (SphereDecomposition, FlagletDecomposition)):
        flags = _FLAG_MULTIRES if obj.multires else 0
        if isinstance(obj, SphereDecomposition):
            fields = (obj.L, 0, obj.j0, 0, flags | _FLAG_SPHERE, obj.lam, 0.0, 0.0)
        else:
            p, lim = obj.params, obj.limits
            fields = (lim.L, lim.P, p.j0_ang, p.j0_rad, flags, p.lam, p.nu, lim.tau)
        header = struct.pack("<IIIIIIddd", KIND_DECOMPOSITION, *fields)
        grids = [obj.scaling] + [obj.wavelets[key] for key in sorted(obj.wavelets)]
        payload = [_complex_le(g.values) for g in grids]
    else:
        raise KindError(f"object of type {type(obj).__name__} is not serializable")

    header = MAGIC + struct.pack("<I", VERSION) + header
    try:
        sink.write(header)
        for a in payload:
            sink.write(a)
    except OSError as exc:
        raise ContainerError(f"write failed: {exc}") from exc
    return len(header) + sum(a.nbytes for a in payload)


def read_container(source):
    """Read and validate an FLG1 container; returns the deserialized object.

    `source` may be a binary file-like object or a path.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "rb") as fh:
            return read_container(fh)

    magic = _read_exact(source, 4, "magic")
    if magic != MAGIC:
        raise MagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<I", _read_exact(source, 4, "version"))
    if version != VERSION:
        raise VersionError(f"unsupported version {version}")
    (kind,) = struct.unpack("<I", _read_exact(source, 4, "kind"))
    try:
        obj = _read_object(source, kind)
    except ContainerError:
        raise
    except (ValueError, OverflowError) as exc:
        raise HeaderError(f"invalid header: {exc}") from exc

    trailing = source.read(1)
    if trailing:
        raise LengthMismatchError("trailing bytes after declared payload")
    return obj


def _read_object(source, kind: int):
    if kind == KIND_SPHERE_GRID:
        (L,) = struct.unpack("<I", _read_exact(source, 4, "header"))
        _check_limits(L)
        vals = _read_complex(source, L * (2 * L - 1), "payload")
        return SphereGrid(L, vals.reshape(L, 2 * L - 1))
    if kind == KIND_SPHERE_COEFFS:
        (L,) = struct.unpack("<I", _read_exact(source, 4, "header"))
        _check_limits(L)
        return SphereCoeffs(L, _read_complex(source, L * L, "payload"))
    if kind in (KIND_BALL_GRID, KIND_FLAG_COEFFS):
        L, P, tau = struct.unpack("<IId", _read_exact(source, 16, "header"))
        _check_limits(L, P)
        limits = BandLimits(L, P, tau)
        if kind == KIND_BALL_GRID:
            vals = _read_complex(source, P * L * (2 * L - 1), "payload")
            return BallGrid(limits, vals.reshape(P, L, 2 * L - 1))
        vals = _read_complex(source, P * L * L, "payload")
        return FlagCoeffs(limits, vals.reshape(P, L * L))
    if kind == KIND_SPHERE_KERNELS:
        L, j0, lam = struct.unpack("<IId", _read_exact(source, 16, "header"))
        _check_limits(L)
        params = TilingParams(lam=lam, nu=2.0, j0_ang=j0, j0_rad=0)
        eta = _read_real(source, L, "eta payload")
        kappas = [_read_real(source, L, "kappa payload") for _ in scale_range(L, lam, j0)]
        return SphereKernels(L, params, eta, kappas)
    if kind == KIND_FLAGLET_KERNELS:
        L, P, j0a, j0r, lam, nu, tau = struct.unpack(
            "<IIIIddd", _read_exact(source, 40, "header")
        )
        _check_limits(L, P)
        limits = BandLimits(L, P, tau)
        params = TilingParams(lam=lam, nu=nu, j0_ang=j0a, j0_rad=j0r)
        phi = _read_real(source, L * P, "phi payload").reshape(L, P)
        psis = {
            (j, jp): _read_real(source, L * P, "psi payload").reshape(L, P)
            for j in scale_range(L, lam, j0a)
            for jp in scale_range(P, nu, j0r)
        }
        return FlagletKernels(limits, params, phi, psis)
    if kind == KIND_DECOMPOSITION:
        L, P, j0a, j0r, flags, lam, nu, tau = struct.unpack(
            "<IIIIIddd", _read_exact(source, 44, "header")
        )
        multires = bool(flags & _FLAG_MULTIRES)
        if flags & _FLAG_SPHERE:
            _check_limits(L)
            return _read_sphere_decomposition(source, L, j0a, lam, multires)
        _check_limits(L, P)
        return _read_flaglet_decomposition(source, L, P, j0a, j0r, lam, nu, tau, multires)
    raise KindError(f"unknown container kind {kind}")


def _read_sphere_decomposition(source, L, j0, lam, multires):
    TilingParams(lam=lam, j0_ang=j0)  # validates the header's tiling

    def read_grid(band):
        band = band if multires else L
        vals = _read_complex(source, band * (2 * band - 1), "scale payload")
        return SphereGrid(band, vals.reshape(band, 2 * band - 1))

    scaling = read_grid(scale_band_limit(j0, lam, L))
    wavelets = {j: read_grid(scale_band_limit(j, lam, L)) for j in scale_range(L, lam, j0)}
    return SphereDecomposition(L, lam, j0, scaling, wavelets, multires)


def _read_flaglet_decomposition(source, L, P, j0a, j0r, lam, nu, tau, multires):
    limits = BandLimits(L, P, tau)
    params = TilingParams(lam=lam, nu=nu, j0_ang=j0a, j0_rad=j0r)

    def read_grid(lj, pj):
        if not multires:
            lj, pj = L, P
        vals = _read_complex(source, pj * lj * (2 * lj - 1), "scale payload")
        return BallGrid(BandLimits(lj, pj, tau), vals.reshape(pj, lj, 2 * lj - 1))

    scaling = read_grid(L, P)  # scaling part is always stored at full limits
    wavelets = {
        (j, jp): read_grid(scale_band_limit(j, lam, L), scale_band_limit(jp, nu, P))
        for j in scale_range(L, lam, j0a)
        for jp in scale_range(P, nu, j0r)
    }
    return FlagletDecomposition(limits, params, scaling, wavelets, multires)
