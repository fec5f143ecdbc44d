"""FLG1 binary container: bit-exact serialization of every library object.

Layout (all integers u32 little-endian, all reals IEEE-754 binary64
little-endian, complex values interleaved re, im):

    magic   4 bytes  "FLG1"
    version u32      currently 1
    kind    u32      1 SphereGrid, 2 SphereCoeffs, 3 BallGrid,
                     4 FlagCoeffs, 5 SphereKernels, 6 FlagletKernels,
                     7 Decomposition, 8 real SphereGrid, 9 real BallGrid
    header  kind-specific fixed fields, packed by _HEADERS[kind]
    payload float64/complex128 arrays back to back, each in the exact
            in-memory layout of the object (dict parts in sorted key order)

A grid is real when its values are float64 (the grids keep real samples
real); kinds 8 and 9 store them as float64 and read back float64.

Each kind is described once for both directions: _describe(obj) gives the
kind, header fields and payload arrays of an object, and _layout(kind,
fields) gives the (dtype, shape) of each array a header declares plus the
builder of the object. _layout validates the header before anything is
allocated. The writer refuses arrays that do not match their header's
layout, but does not look at values; the reader rejects NaN and Inf, and
flaglet windows Psi^{jj'} that are not the products of the line windows it
rebuilds from the header's tiling.

Decompositions (kind 7) carry a flags word: bit 0 = multiresolution
storage, bit 1 = sphere decomposition (P, j0_rad, nu and tau unused,
written as zero and a HeaderError otherwise) rather than ball
decomposition, bit 2 = real parts (float64 payloads, set when every part
is real); any other bit is a HeaderError.
Which parts a decomposition or a flaglet kernel set holds, in which order
and at which band limits, is defined in kernel_tiling (sphere_part_bands,
flaglet_parts).
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .flag_transform import BallGrid, BandLimits, FlagCoeffs
from .flaglet_transform import FlagletDecomposition
from .kernel_tiling import (
    FlagletKernels,
    SphereKernels,
    TilingParams,
    flaglet_line_windows,
    flaglet_parts,
    scale_range,
    sphere_part_bands,
)
from .sphere_harmonics import SphereCoeffs, SphereGrid
from .sphere_wavelets import SphereDecomposition

__all__ = [
    "ContainerError",
    "MagicError",
    "VersionError",
    "TruncatedError",
    "LengthMismatchError",
    "KindError",
    "HeaderError",
    "PayloadError",
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
KIND_REAL_SPHERE_GRID = 8
KIND_REAL_BALL_GRID = 9

_FLAG_MULTIRES = 1
_FLAG_SPHERE = 2
_FLAG_REAL = 4

# header fields after the kind word
_HEADERS = {
    KIND_SPHERE_GRID: struct.Struct("<I"),  # L
    KIND_SPHERE_COEFFS: struct.Struct("<I"),  # L
    KIND_BALL_GRID: struct.Struct("<IId"),  # L, P, tau
    KIND_FLAG_COEFFS: struct.Struct("<IId"),  # L, P, tau
    KIND_SPHERE_KERNELS: struct.Struct("<IId"),  # L, j0, lam
    KIND_FLAGLET_KERNELS: struct.Struct("<IIIIddd"),  # L, P, j0_ang, j0_rad, lam, nu, tau
    KIND_DECOMPOSITION: struct.Struct("<IIIIIddd"),  # ... j0_rad, flags, lam, nu, tau
    KIND_REAL_SPHERE_GRID: struct.Struct("<I"),  # L
    KIND_REAL_BALL_GRID: struct.Struct("<IId"),  # L, P, tau
}

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


class PayloadError(ContainerError, ValueError):
    """A payload holds NaN or infinite values, or flaglet windows that are not
    the separable windows of their header's tiling."""


def _describe(obj):
    """(kind, header fields, payload arrays in order) of a library object."""
    if isinstance(obj, SphereGrid):
        kind = KIND_SPHERE_GRID if np.iscomplexobj(obj.values) else KIND_REAL_SPHERE_GRID
        return kind, (obj.L,), [obj.values]
    if isinstance(obj, SphereCoeffs):
        return KIND_SPHERE_COEFFS, (obj.L,), [obj.coeffs]
    if isinstance(obj, BallGrid):
        lim = obj.limits
        kind = KIND_BALL_GRID if np.iscomplexobj(obj.values) else KIND_REAL_BALL_GRID
        return kind, (lim.L, lim.P, lim.tau), [obj.values]
    if isinstance(obj, FlagCoeffs):
        lim = obj.limits
        return KIND_FLAG_COEFFS, (lim.L, lim.P, lim.tau), [obj.coeffs]
    if isinstance(obj, SphereKernels):
        return KIND_SPHERE_KERNELS, (obj.L, obj.j0, obj.params.lam), [obj.eta, *obj.kappas]
    if isinstance(obj, FlagletKernels):
        p, lim = obj.params, obj.limits
        fields = (lim.L, lim.P, p.j0_ang, p.j0_rad, p.lam, p.nu, lim.tau)
        return KIND_FLAGLET_KERNELS, fields, [obj.phi, *(obj.psis[k] for k in sorted(obj.psis))]
    if isinstance(obj, (SphereDecomposition, FlagletDecomposition)):
        arrays = [obj.scaling.values, *(obj.wavelets[k].values for k in sorted(obj.wavelets))]
        flags = _FLAG_MULTIRES if obj.multires else 0
        if not any(np.iscomplexobj(a) for a in arrays):
            flags |= _FLAG_REAL
        if isinstance(obj, SphereDecomposition):
            fields = (obj.L, 0, obj.j0, 0, flags | _FLAG_SPHERE, obj.lam, 0.0, 0.0)
        else:
            p, lim = obj.params, obj.limits
            fields = (lim.L, lim.P, p.j0_ang, p.j0_rad, flags, p.lam, p.nu, lim.tau)
        return KIND_DECOMPOSITION, fields, arrays
    raise KindError(f"object of type {type(obj).__name__} is not serializable")


def _layout(kind: int, fields: tuple):
    """The (dtype, shape) of each payload array a header declares, in order,
    and the builder of its object from those arrays.

    Raises ValueError (or OverflowError) for a header no library object can
    have, before anything is allocated.
    """
    if kind in (KIND_SPHERE_GRID, KIND_SPHERE_COEFFS, KIND_REAL_SPHERE_GRID):
        (L,) = fields
        BandLimits(L, 1)  # checks L
        if kind == KIND_SPHERE_COEFFS:
            return [("<c16", (L * L,))], lambda a: SphereCoeffs(L, a[0])
        code = "<f8" if kind == KIND_REAL_SPHERE_GRID else "<c16"
        return [(code, (L, 2 * L - 1))], lambda a: SphereGrid(L, a[0])
    if kind in (KIND_BALL_GRID, KIND_FLAG_COEFFS, KIND_REAL_BALL_GRID):
        limits = BandLimits(*fields)
        L, P = limits.L, limits.P
        if kind == KIND_FLAG_COEFFS:
            return [("<c16", (P, L * L))], lambda a: FlagCoeffs(limits, a[0])
        code = "<f8" if kind == KIND_REAL_BALL_GRID else "<c16"
        return [(code, (P, L, 2 * L - 1))], lambda a: BallGrid(limits, a[0])
    if kind == KIND_SPHERE_KERNELS:
        L, j0, lam = fields
        BandLimits(L, 1)
        params = TilingParams(lam=lam, j0_ang=j0)
        count = 1 + len(scale_range(L, lam, j0))
        return [("<f8", (L,))] * count, lambda a: SphereKernels(L, params, a[0], a[1:])
    if kind == KIND_FLAGLET_KERNELS:
        L, P, j0a, j0r, lam, nu, tau = fields
        limits = BandLimits(L, P, tau)
        params = TilingParams(lam=lam, nu=nu, j0_ang=j0a, j0_rad=j0r)
        keys, _ = flaglet_parts(limits, params, False)

        def build(a):
            # the transforms window with the line windows of the tiling, so
            # the stored Psi must be their products; rounding leaves a few 1e-16
            kappas_a, kappas_r = flaglet_line_windows(limits, params)
            for (j, jp), psi in zip(keys, a[1:]):
                outer = np.outer(kappas_a[j - j0a], kappas_r[jp - j0r])
                if not np.max(np.abs(psi - outer)) <= 1e-12:
                    raise PayloadError(
                        f"window {(j, jp)} is not the product of its tiling's line windows"
                    )
            return FlagletKernels(
                limits, params, a[0], dict(zip(keys, a[1:])), kappas_a, kappas_r
            )

        return [("<f8", (L, P))] * (1 + len(keys)), build
    # KIND_DECOMPOSITION, the one kind left in _HEADERS
    L, P, j0a, j0r, flags, lam, nu, tau = fields
    if flags & ~(_FLAG_MULTIRES | _FLAG_SPHERE | _FLAG_REAL):
        raise ValueError(f"unknown decomposition flag bits in {flags:#010x}")
    multires = bool(flags & _FLAG_MULTIRES)
    code = "<f8" if flags & _FLAG_REAL else "<c16"
    if flags & _FLAG_SPHERE:
        if P or j0r or nu or tau:
            raise ValueError(
                "a sphere decomposition has P, j0_rad, nu and tau zero,"
                f" got {P}, {j0r}, {nu}, {tau}"
            )
        BandLimits(L, 1)
        bands = sphere_part_bands(L, TilingParams(lam=lam, j0_ang=j0a), multires)
        scales = scale_range(L, lam, j0a)

        def build(a):
            grids = [SphereGrid(band, v) for band, v in zip(bands, a)]
            wavelets = dict(zip(scales, grids[1:]))
            return SphereDecomposition(L, lam, j0a, grids[0], wavelets, multires)

        return [(code, (b, 2 * b - 1)) for b in bands], build
    limits = BandLimits(L, P, tau)
    params = TilingParams(lam=lam, nu=nu, j0_ang=j0a, j0_rad=j0r)
    keys, bands = flaglet_parts(limits, params, multires)

    def build(a):
        grids = [BallGrid(BandLimits(lj, pj, tau), v) for (lj, pj), v in zip(bands, a)]
        wavelets = dict(zip(keys, grids[1:]))
        return FlagletDecomposition(limits, params, grids[0], wavelets, multires)

    return [(code, (pj, lj, 2 * lj - 1)) for lj, pj in bands], build


def _checked_layout(kind: int, fields: tuple):
    try:
        return _layout(kind, fields)
    except (ValueError, OverflowError) as exc:
        raise HeaderError(f"invalid header: {exc}") from exc


def _opened(target, mode: str):
    """A path opened in `mode`, or a file-like object as it is."""
    if isinstance(target, (str, bytes, os.PathLike)):
        return open(target, mode)
    return contextlib.nullcontext(target)


def _read_exact(source, n: int, what: str) -> bytes:
    parts, got = [], 0
    while got < n:
        part = source.read(min(n - got, _READ_CHUNK_BYTES))
        if not part:
            raise TruncatedError(f"{what}: expected {n} bytes, got {got}")
        parts.append(part)
        got += len(part)
    return b"".join(parts)


def _read_payload(source, code: str, shape: tuple) -> np.ndarray:
    dtype = np.dtype(code)
    raw = _read_exact(source, dtype.itemsize * math.prod(shape), "payload")
    a = np.frombuffer(raw, dtype=dtype).astype(dtype.type).reshape(shape)
    if not np.isfinite(a.view(np.float64)).all():
        raise PayloadError(f"payload of shape {shape} holds NaN or infinite values")
    return a


def write_container(obj, sink) -> int:
    """Serialize an object to a binary sink; returns the byte count written.

    `sink` may be a file-like object opened in binary mode or a path.
    Nothing is written for an object whose arrays do not match its header.
    """
    kind, fields, arrays = _describe(obj)
    specs, _ = _checked_layout(kind, fields)
    shapes, declared = [np.shape(a) for a in arrays], [shape for _, shape in specs]
    if shapes != declared:
        raise LengthMismatchError(f"payload shapes {shapes}, header declares {declared}")
    payload = [np.ascontiguousarray(a, dtype=code) for a, (code, _) in zip(arrays, specs)]
    header = MAGIC + struct.pack("<II", VERSION, kind) + _HEADERS[kind].pack(*fields)

    with _opened(sink, "wb") as fh:
        try:
            fh.write(header)
            for a in payload:
                fh.write(a)
        except OSError as exc:
            raise ContainerError(f"write failed: {exc}") from exc
    return len(header) + sum(a.nbytes for a in payload)


def read_container(source):
    """Read and validate an FLG1 container; returns the deserialized object.

    `source` may be a binary file-like object or a path.
    """
    with _opened(source, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise MagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version, kind = struct.unpack("<II", _read_exact(fh, 8, "version and kind"))
        if version != VERSION:
            raise VersionError(f"unsupported version {version}")
        header = _HEADERS.get(kind)
        if header is None:
            raise KindError(f"unknown container kind {kind}")
        specs, build = _checked_layout(kind, header.unpack(_read_exact(fh, header.size, "header")))
        obj = build([_read_payload(fh, code, shape) for code, shape in specs])
        if fh.read(1):
            raise LengthMismatchError("trailing bytes after declared payload")
    return obj
