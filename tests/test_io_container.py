"""Binary container round trips for every serializable object."""

import copy
import hashlib
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaglets.cli import blob_field, random_flag_coeffs
from flaglets.flag_transform import BallGrid, BandLimits, FlagCoeffs, flag_forward, flag_inverse
from flaglets.flaglet_transform import FlagletDecomposition, flaglet_analyze
from flaglets.cli import main
from flaglets.io_container import (
    ContainerError,
    HeaderError,
    KindError,
    LengthMismatchError,
    MagicError,
    PayloadError,
    TruncatedError,
    VersionError,
    read_container,
    write_container,
)
from flaglets.kernel_tiling import (
    FlagletKernels,
    SphereKernels,
    TilingParams,
    build_flaglet_kernels,
    build_sphere_kernels,
)
from flaglets.sphere_harmonics import SphereCoeffs, SphereGrid, sht_forward, sht_inverse
from flaglets.sphere_wavelets import SphereDecomposition, sphere_analyze


def container_bytes(obj) -> bytes:
    buf = io.BytesIO()
    n = write_container(obj, buf)
    assert n == len(buf.getvalue())
    return buf.getvalue()


def roundtrip(obj):
    return read_container(io.BytesIO(container_bytes(obj)))


class TestRoundTrips:
    def test_sphere_coeffs(self):
        rng = np.random.default_rng(1)
        c = SphereCoeffs(8, rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64))
        back = roundtrip(c)
        assert isinstance(back, SphereCoeffs) and back.L == 8
        assert np.array_equal(back.coeffs, c.coeffs)

    def test_sphere_grid(self):
        rng = np.random.default_rng(2)
        g = sht_inverse(SphereCoeffs(6, rng.standard_normal(36) + 0j))
        back = roundtrip(g)
        assert isinstance(back, SphereGrid) and back.L == 6
        assert np.array_equal(back.values, g.values)

    def test_flag_objects(self):
        limits = BandLimits(8, 6, 1.5)
        c = random_flag_coeffs(limits, 3)
        back = roundtrip(c)
        assert back.limits == limits
        assert np.array_equal(back.coeffs, c.coeffs)

        g = flag_inverse(c)
        back = roundtrip(g)
        assert back.limits == limits
        assert np.array_equal(back.values, g.values)

    def test_kernels(self):
        sk = build_sphere_kernels(16, TilingParams(lam=3.0, j0_ang=1))
        back = roundtrip(sk)
        assert back.L == 16 and back.params.lam == 3.0 and back.j0 == 1
        assert np.array_equal(back.eta, sk.eta)
        assert all(np.array_equal(a, b) for a, b in zip(back.kappas, sk.kappas))

        limits = BandLimits(8, 8, 2.0)
        fk = build_flaglet_kernels(limits, TilingParams(nu=3.0))
        back = roundtrip(fk)
        assert back.limits == limits and back.params == fk.params
        assert np.array_equal(back.phi, fk.phi)
        assert set(back.psis) == set(fk.psis)
        assert all(np.array_equal(back.psis[k], fk.psis[k]) for k in fk.psis)
        # the transforms window with the line windows, which the reader rebuilds
        for got, want in [(back.kappas_ang, fk.kappas_ang), (back.kappas_rad, fk.kappas_rad)]:
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("multires", [False, True])
    def test_sphere_decomposition(self, multires):
        kernels = build_sphere_kernels(16, TilingParams())
        rng = np.random.default_rng(4)
        f = SphereCoeffs(16, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        d = sphere_analyze(f, kernels, multires=multires)
        back = roundtrip(d)
        assert back.L == 16 and back.multires == multires
        assert np.array_equal(back.scaling.values, d.scaling.values)
        assert set(back.wavelets) == set(d.wavelets)
        for j in d.wavelets:
            assert np.array_equal(back.wavelets[j].values, d.wavelets[j].values)

    @pytest.mark.parametrize("multires", [False, True])
    def test_flaglet_decomposition(self, multires):
        limits = BandLimits(8, 8, 1.0)
        kernels = build_flaglet_kernels(limits, TilingParams(j0_rad=1))
        d = flaglet_analyze(random_flag_coeffs(limits, 7), kernels, multires=multires)
        back = roundtrip(d)
        assert back.limits == limits and back.multires == multires
        assert np.array_equal(back.scaling.values, d.scaling.values)
        assert set(back.wavelets) == set(d.wavelets)
        for key in d.wavelets:
            assert np.array_equal(back.wavelets[key].values, d.wavelets[key].values)

    @pytest.mark.parametrize("multires", [False, True])
    def test_real_objects_read_back_float64_bit_for_bit(self, multires):
        # the grids and decompositions of a real field keep float64 values, and
        # their containers hold half the bytes of the complex ones
        limits = BandLimits(8, 8, 1.0)
        field = blob_field(limits, 2, 0.5, 1.5, seed=3)
        shell = SphereGrid(8, field.values[3])
        fk, sk = build_flaglet_kernels(limits, TilingParams()), build_sphere_kernels(8, TilingParams())
        objs = [
            field,
            shell,
            flaglet_analyze(flag_forward(field), fk, multires),
            sphere_analyze(sht_forward(shell), sk, multires),
        ]
        for obj in objs:
            raw = container_bytes(obj)
            back = read_container(io.BytesIO(raw))
            assert type(back) is type(obj)
            for a, b in zip(payload_arrays(obj), payload_arrays(back), strict=True):
                assert a.dtype == b.dtype == np.float64
                assert a.tobytes() == b.tobytes()
            half = sum(a.nbytes for a in payload_arrays(obj))
            assert len(container_bytes(_complex_copy(obj))) - len(raw) == half

    def test_path_io(self, tmp_path):
        c = random_flag_coeffs(BandLimits(4, 4, 1.0), 0)
        path = tmp_path / "coeffs.flg"
        write_container(c, path)
        back = read_container(path)
        assert np.array_equal(back.coeffs, c.coeffs)

    def test_deterministic_bytes(self):
        c = random_flag_coeffs(BandLimits(4, 4, 1.0), 0)
        a, b = io.BytesIO(), io.BytesIO()
        write_container(c, a)
        write_container(c, b)
        assert a.getvalue() == b.getvalue()


class TestLayout:
    def test_sphere_coeffs_byte_budget(self):
        # L = 1: magic(4) + version(4) + kind(4) + L(4) + one complex128
        c = SphereCoeffs(1, np.array([1.0 + 2.0j]))
        buf = io.BytesIO()
        n = write_container(c, buf)
        raw = buf.getvalue()
        assert n == 16 + 16
        assert raw[:4] == b"FLG1"
        assert struct.unpack("<I", raw[4:8])[0] == 1
        assert np.frombuffer(raw[16:], dtype="<c16")[0] == 1.0 + 2.0j

    def test_payload_goes_to_the_sink_without_a_copy(self):
        grid = SphereGrid(3, np.arange(15, dtype=np.complex128).reshape(3, 5))
        pieces = []

        class Sink:
            def write(self, data):
                pieces.append(data)

        n = write_container(grid, Sink())
        assert n == sum(memoryview(p).nbytes for p in pieces) == 16 + 15 * 16
        assert np.shares_memory(np.asarray(pieces[-1]), grid.values)


def payload_arrays(obj) -> list[np.ndarray]:
    """Every array an object stores, in the order its container holds them."""
    if isinstance(obj, (SphereGrid, BallGrid)):
        return [obj.values]
    if isinstance(obj, (SphereCoeffs, FlagCoeffs)):
        return [obj.coeffs]
    if isinstance(obj, SphereKernels):
        return [obj.eta, *obj.kappas]
    if isinstance(obj, FlagletKernels):
        return [obj.phi, *(obj.psis[key] for key in sorted(obj.psis))]
    return [obj.scaling.values, *(obj.wavelets[key].values for key in sorted(obj.wavelets))]


def _complex_copy(obj):
    """A copy of a grid or decomposition with complex128 values."""
    obj = copy.deepcopy(obj)
    single = isinstance(obj, (SphereGrid, BallGrid))
    for grid in [obj] if single else [obj.scaling, *obj.wavelets.values()]:
        grid.values = grid.values.astype(np.complex128)
    return obj


def _pinned_objects() -> dict:
    """One small object per container flavour, every payload value seeded and
    exactly representable, so the bytes do not depend on transform rounding."""
    limits = BandLimits(4, 3, 1.5)
    coeffs = random_flag_coeffs(limits, 5)
    sphere = SphereCoeffs(4, np.zeros(16, dtype=np.complex128))
    # zero coefficients are Hermitian, so their grids are real; imaginary ones
    # are not, so the complex sphere flavours are made from them
    imaginary = SphereCoeffs(4, np.full(16, 1j))
    real_coeffs = FlagCoeffs(limits, np.zeros((3, 16)))
    sk = build_sphere_kernels(4, TilingParams())
    fk = build_flaglet_kernels(limits, TilingParams(nu=3.0, j0_rad=1))
    objs = {
        "sphere_grid": sht_inverse(imaginary),
        "sphere_coeffs": sphere,
        "ball_grid": flag_inverse(coeffs),
        "flag_coeffs": coeffs,
        "sphere_kernels": build_sphere_kernels(8, TilingParams(lam=3.0, j0_ang=1)),
        "flaglet_kernels": fk,
        "sphere_decomposition": sphere_analyze(imaginary, sk, multires=False),
        "sphere_decomposition_multires": sphere_analyze(imaginary, sk, multires=True),
        "flaglet_decomposition": flaglet_analyze(coeffs, fk, multires=False),
        "flaglet_decomposition_multires": flaglet_analyze(coeffs, fk, multires=True),
        # the real flavours come last, so the values drawn above stay as pinned
        "real_sphere_grid": sht_inverse(sphere),
        "real_ball_grid": flag_inverse(real_coeffs),
        "real_sphere_decomposition": sphere_analyze(sphere, sk, multires=False),
        "real_sphere_decomposition_multires": sphere_analyze(sphere, sk, multires=True),
        "real_flaglet_decomposition": flaglet_analyze(real_coeffs, fk, multires=False),
        "real_flaglet_decomposition_multires": flaglet_analyze(real_coeffs, fk, multires=True),
    }
    rng = np.random.default_rng(2013)
    for obj in objs.values():
        for a in payload_arrays(obj):
            a[...] = rng.integers(-(2**20), 2**20, a.shape) / 1024
            if np.iscomplexobj(a):
                a.imag = rng.integers(-(2**20), 2**20, a.shape) / 1024
    return objs


# (byte length, SHA-256) of each flavour's container, as the format defines it
PINNED_CONTAINERS = {
    "ball_grid": (1372, "2a9f5848caa8039628304a09649cd97b8171fc4b82e5b2a5510ff5c249d9ab9a"),
    "flag_coeffs": (796, "734c1d4055d0e9d8b6953241993834e3cdcfc2ef518ed73af0e2dd6cbac96620"),
    "flaglet_decomposition": (
        5432, "0bf640855ada1025582e1a092fd1ccc61ee4304b9345095ecdd90aa597437ea8"
    ),
    "flaglet_decomposition_multires": (
        4376, "9de343fda324062f0c3fcb62530bed998b8fd32063527d02b1591366a08b4c18"
    ),
    "flaglet_kernels": (436, "37e305939c7677b10f0efaf9674c36db8dd2a906edfff43f7acebb4f29345369"),
    "real_ball_grid": (700, "e6f9826fda208cbc5b4078213242d0b7d358886b75764dab317b1cc66e7710f7"),
    "real_flaglet_decomposition": (
        2744, "15eb0addb844ce2b092d17d706096dc891feaf08c5d578fc9bd3ae53cdf47a19"
    ),
    "real_flaglet_decomposition_multires": (
        2216, "ab5e41bd2406bd9e36757b7569b3dac0576a2b1ac0b088d71624566a3926ac72"
    ),
    "real_sphere_decomposition": (
        952, "fd333cafb09e5145ddde32b442da5b38d947c5b80732c782e0442026c89e3f2e"
    ),
    "real_sphere_decomposition_multires": (
        600, "48c2392d29fbced075387fc9a1ab2db8717e89213b9cd3ab56f848a0ea122e49"
    ),
    "real_sphere_grid": (240, "3eaf552a9ce323101897dd8035caef289a5f5a845a56ccac6d1923b0e2ea5376"),
    "sphere_coeffs": (272, "38c3dc7d2cf7d65c32c2c0dd4ef4d6b5636ccc41aa2049349c396c7a0f6e136f"),
    "sphere_decomposition": (
        1848, "39468a7e0daf014889e67ab1ffb4c41a125a4479556bf15067fe1600015a4b22"
    ),
    "sphere_decomposition_multires": (
        1144, "ec0fa114d3772424fa8095e5052385a982a850a09837668f5b97ac0f9935376a"
    ),
    "sphere_grid": (464, "0f79ba8dbaf2741eca19a1d8a85e7905b9daf0808a8f2cd3f005b58bece248bd"),
    "sphere_kernels": (220, "99e6a4061441f0fac12e2e373ceb975d5e4873b569c4f5f009a16c93edd8495a"),
}


class TestPinnedFormat:
    @pytest.mark.parametrize("flavour", sorted(PINNED_CONTAINERS))
    def test_bytes_match_the_pinned_digest(self, flavour):
        raw = container_bytes(_pinned_objects()[flavour])
        assert (len(raw), hashlib.sha256(raw).hexdigest()) == PINNED_CONTAINERS[flavour]

    def test_every_flavour_is_pinned(self):
        assert set(_pinned_objects()) == set(PINNED_CONTAINERS)

    def test_real_flavours_hold_float64_grids_and_the_others_complex(self):
        for name, obj in _pinned_objects().items():
            if "grid" in name or "decomposition" in name:
                want = np.float64 if name.startswith("real_") else np.complex128
                assert all(a.dtype == want for a in payload_arrays(obj)), name


class TestErrors:
    def _bytes(self):
        buf = io.BytesIO()
        write_container(SphereCoeffs(2, np.arange(4, dtype=np.complex128)), buf)
        return bytearray(buf.getvalue())

    def test_sink_os_error_is_container_error(self):
        class FullDisk:
            def write(self, data):
                raise OSError(28, "No space left on device")

        with pytest.raises(ContainerError, match="write failed"):
            write_container(SphereCoeffs(2, np.arange(4, dtype=np.complex128)), FullDisk())

    def test_bad_magic(self):
        raw = self._bytes()
        raw[:4] = b"NOPE"
        with pytest.raises(MagicError):
            read_container(io.BytesIO(bytes(raw)))

    def test_bad_version(self):
        raw = self._bytes()
        raw[4:8] = struct.pack("<I", 99)
        with pytest.raises(VersionError):
            read_container(io.BytesIO(bytes(raw)))

    def test_bad_kind(self):
        raw = self._bytes()
        raw[8:12] = struct.pack("<I", 200)
        with pytest.raises(KindError):
            read_container(io.BytesIO(bytes(raw)))

    def test_truncated_payload(self):
        raw = self._bytes()
        with pytest.raises(TruncatedError):
            read_container(io.BytesIO(bytes(raw[:-8])))

    def test_trailing_garbage(self):
        raw = self._bytes() + b"\x00" * 4
        with pytest.raises(LengthMismatchError):
            read_container(io.BytesIO(bytes(raw)))


class RecordingSink:
    def __init__(self):
        self.pieces = []

    def write(self, data):
        self.pieces.append(data)


def _flaglet_decomposition(multires):
    limits = BandLimits(8, 4, 1.0)
    kernels = build_flaglet_kernels(limits, TilingParams())
    return flaglet_analyze(random_flag_coeffs(limits, 3), kernels, multires=multires)


def _sphere_decomposition(multires):
    f = SphereCoeffs(8, np.arange(64, dtype=np.complex128))
    return sphere_analyze(f, build_sphere_kernels(8, TilingParams()), multires=multires)


class TestWriterRefusesUnreadableObjects:
    """Objects whose arrays do not match their own header are not written."""

    def _refused(self, obj, error):
        sink = RecordingSink()
        with pytest.raises(error):
            write_container(obj, sink)
        assert sink.pieces == []

    def test_mislabelled_multires_flaglet_decomposition(self):
        d = _flaglet_decomposition(multires=True)
        d.multires = False
        self._refused(d, LengthMismatchError)

    def test_mislabelled_full_resolution_sphere_decomposition(self):
        d = _sphere_decomposition(multires=False)
        d.multires = True
        self._refused(d, LengthMismatchError)

    def test_missing_wavelet_key(self):
        d = _flaglet_decomposition(multires=False)
        del d.wavelets[max(d.wavelets)]
        self._refused(d, LengthMismatchError)

    def test_extra_wavelet_key(self):
        d = _sphere_decomposition(multires=False)
        d.wavelets[max(d.wavelets) + 1] = d.scaling
        self._refused(d, LengthMismatchError)

    def test_wrong_kappa_count(self):
        sk = build_sphere_kernels(16, TilingParams())
        sk.kappas.pop()
        self._refused(sk, LengthMismatchError)

    def test_wrong_window_shape(self):
        fk = build_flaglet_kernels(BandLimits(4, 4, 1.0), TilingParams())
        fk.phi = fk.phi[:, :3]
        self._refused(fk, LengthMismatchError)

    def test_invalid_dilation_is_header_error(self):
        d = _sphere_decomposition(multires=False)
        d.lam = 1.0
        self._refused(d, HeaderError)

    def test_minimum_scale_past_the_tiling_is_header_error(self):
        sk = build_sphere_kernels(8, TilingParams())
        sk.params = TilingParams(j0_ang=9)
        self._refused(sk, HeaderError)

    def test_refused_object_leaves_no_file(self, tmp_path):
        d = _flaglet_decomposition(multires=True)
        d.multires = False
        path = tmp_path / "d.flg"
        with pytest.raises(LengthMismatchError):
            write_container(d, path)
        assert not path.exists()


class TestNonFinitePayloads:
    """The writer stores any values; the reader rejects NaN and Inf."""

    def test_nan_in_complex_grid(self):
        grid = SphereGrid(3, np.ones((3, 5), dtype=np.complex128))
        grid.values[1, 2] = complex(1.0, math.nan)
        with pytest.raises(PayloadError):
            roundtrip(grid)

    def test_inf_in_real_kernel(self):
        sk = build_sphere_kernels(8, TilingParams())
        sk.kappas[-1][3] = -math.inf
        with pytest.raises(PayloadError):
            roundtrip(sk)

    def test_flaglet_window_off_its_tiling(self):
        # finite, but no longer the product of the line windows the reader
        # rebuilds from the header, with which the transforms would window
        fk = build_flaglet_kernels(BandLimits(8, 8, 1.0), TilingParams())
        fk.psis[(2, 1)][3, 1] += 1e-9
        with pytest.raises(PayloadError, match=r"\(2, 1\)"):
            roundtrip(fk)

    def test_payload_error_is_a_value_error(self):
        assert issubclass(PayloadError, ContainerError)
        assert issubclass(PayloadError, ValueError)


# headers that declare sizes no library object can have; read naively, the
# first overflows the payload size and the second allocates 8 GiB of kernels
OVERSIZED_HEADERS = {
    "sphere_grid_L_2_31": b"FLG1" + struct.pack("<III", 1, 1, 2**31),
    "decomposition_P_2_30": b"FLG1"
    + struct.pack("<II", 1, 7)
    + struct.pack("<IIIIIddd", 8, 2**30, 0, 0, 0, 2.0, 2.0, 1.0),
}


class TestOversizedHeaders:
    @pytest.mark.parametrize("name", sorted(OVERSIZED_HEADERS))
    def test_rejected_with_container_error(self, name):
        raw = OVERSIZED_HEADERS[name]
        assert len(raw) in (16, 56)
        with pytest.raises(ContainerError):
            read_container(io.BytesIO(raw))

    @pytest.mark.parametrize("name", sorted(OVERSIZED_HEADERS))
    def test_cli_exits_1_without_traceback(self, name, tmp_path, capsys):
        path = tmp_path / "bad.flg"
        path.write_bytes(OVERSIZED_HEADERS[name])
        code = main(["synthesize", "--input", str(path), "--output", str(tmp_path / "out.flg")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_in_range_header_without_payload_is_truncated(self):
        # the largest limits a header may declare; the payload is read in
        # bounded pieces, so the missing bytes surface as a typed error
        raw = b"FLG1" + struct.pack("<II", 1, 3) + struct.pack("<IId", 4096, 100_000, 1.0)
        with pytest.raises(TruncatedError):
            read_container(io.BytesIO(raw))


class TestNonFiniteHeaders:
    def test_infinite_dilation_is_header_error(self):
        # at lam = inf the tiling has one wavelet scale, so cut the payload to
        # eta plus one kappa: the reader must reject the header, not the length
        raw = bytearray(container_bytes(build_sphere_kernels(8, TilingParams())))
        raw[20:28] = struct.pack("<d", math.inf)
        raw = raw[: 28 + 2 * 8 * 8]
        with pytest.raises(HeaderError):
            read_container(io.BytesIO(bytes(raw)))


class TestOutOfRangeHeaders:
    @pytest.mark.parametrize("flags", [0xFFFFFFF0, 8, 2**31, 4 | 16])
    def test_unknown_decomposition_flag_bits_are_header_errors(self, flags):
        # the flags word sits at bytes 28..32 of a decomposition container;
        # bits 0, 1 and 2 are multiresolution, sphere and real parts
        coeffs = random_flag_coeffs(BandLimits(4, 3, 1.0), 5)
        d = flaglet_analyze(coeffs, build_flaglet_kernels(coeffs.limits, TilingParams()))
        raw = bytearray(container_bytes(d))
        assert struct.unpack("<I", raw[28:32]) == (0,)
        raw[28:32] = struct.pack("<I", flags)
        with pytest.raises(HeaderError, match="flag bits"):
            read_container(io.BytesIO(bytes(raw)))

    @pytest.mark.parametrize(
        "offset, code, value",
        [(16, "<I", 5), (24, "<I", 7), (40, "<d", 3.5), (48, "<d", 2.0)],
        ids=["P", "j0_rad", "nu", "tau"],
    )
    def test_sphere_decomposition_with_nonzero_unused_fields_is_header_error(
        self, offset, code, value
    ):
        # a sphere decomposition writes P, j0_rad, nu and tau as zero; each of
        # these used to read back as a SphereDecomposition
        sphere = SphereCoeffs(8, np.arange(64, dtype=np.complex128))
        d = sphere_analyze(sphere, build_sphere_kernels(8, TilingParams()))
        raw = bytearray(container_bytes(d))
        field = slice(offset, offset + struct.calcsize(code))
        assert struct.unpack(code, raw[field]) == (0,)
        raw[field] = struct.pack(code, value)
        with pytest.raises(HeaderError, match="sphere decomposition has P, j0_rad, nu and tau"):
            read_container(io.BytesIO(bytes(raw)))

    def test_real_flag_on_complex_payload_is_a_length_mismatch(self):
        # float64 payloads take half the bytes the complex ones hold
        coeffs = random_flag_coeffs(BandLimits(4, 3, 1.0), 5)
        d = flaglet_analyze(coeffs, build_flaglet_kernels(coeffs.limits, TilingParams()))
        raw = bytearray(container_bytes(d))
        raw[28:32] = struct.pack("<I", 4)
        with pytest.raises(LengthMismatchError):
            read_container(io.BytesIO(bytes(raw)))

    def test_extreme_radial_scale_is_header_error(self):
        # tau sits at bytes 20..28 of a ball grid container
        grid = flag_inverse(random_flag_coeffs(BandLimits(4, 3, 1.5), 5))
        raw = bytearray(container_bytes(grid))
        assert struct.unpack("<d", raw[20:28]) == (1.5,)
        raw[20:28] = struct.pack("<d", 1e308)
        with pytest.raises(HeaderError):
            read_container(io.BytesIO(bytes(raw)))

    def test_dilation_just_above_one_is_header_error(self):
        # lam sits at bytes 32..40 of a decomposition container; at 1.0000001
        # the header declares 19,459,104 angular scales
        coeffs = random_flag_coeffs(BandLimits(8, 4, 1.0), 5)
        d = flaglet_analyze(coeffs, build_flaglet_kernels(coeffs.limits, TilingParams()))
        raw = bytearray(container_bytes(d))
        assert struct.unpack("<d", raw[32:40]) == (2.0,)
        raw[32:40] = struct.pack("<d", 1.0000001)
        with pytest.raises(HeaderError):
            read_container(io.BytesIO(bytes(raw)))


def _valid_containers():
    """One small valid container per kind (both decomposition flavours, and
    real grids and decompositions)."""
    rng = np.random.default_rng(11)
    limits = BandLimits(4, 3, 1.5)
    coeffs = random_flag_coeffs(limits, 5)
    sphere = SphereCoeffs(4, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    field = blob_field(limits, 2, 0.5, 1.5, seed=11)
    objs = [
        field,
        SphereGrid(4, field.values[0]),
        flaglet_analyze(flag_forward(field), build_flaglet_kernels(limits, TilingParams())),
        sht_inverse(sphere),
        sphere,
        flag_inverse(coeffs),
        coeffs,
        build_sphere_kernels(8, TilingParams(lam=3.0)),
        build_flaglet_kernels(BandLimits(4, 4, 2.0), TilingParams(nu=3.0, j0_rad=1)),
        sphere_analyze(sphere, build_sphere_kernels(4, TilingParams()), multires=True),
        flaglet_analyze(coeffs, build_flaglet_kernels(limits, TilingParams()), multires=False),
    ]
    return [container_bytes(obj) for obj in objs]


VALID_CONTAINERS = _valid_containers()
READ_TYPES = (
    SphereGrid, SphereCoeffs, BallGrid, FlagCoeffs, SphereKernels, FlagletKernels,
    SphereDecomposition, FlagletDecomposition,
)

# (offset, struct format) of the header fields after magic and version, by kind
_PREAMBLE = [(8, "<I")]
HEADER_FIELDS = {
    1: _PREAMBLE + [(12, "<I")],
    2: _PREAMBLE + [(12, "<I")],
    3: _PREAMBLE + [(12, "<I"), (16, "<I"), (20, "<d")],
    4: _PREAMBLE + [(12, "<I"), (16, "<I"), (20, "<d")],
    5: _PREAMBLE + [(12, "<I"), (16, "<I"), (20, "<d")],
    6: _PREAMBLE + [(o, "<I") for o in (12, 16, 20, 24)] + [(o, "<d") for o in (28, 36, 44)],
    7: _PREAMBLE + [(o, "<I") for o in (12, 16, 20, 24, 28)] + [(o, "<d") for o in (32, 40, 48)],
    8: _PREAMBLE + [(12, "<I")],
    9: _PREAMBLE + [(12, "<I"), (16, "<I"), (20, "<d")],
}
# first payload byte, by kind: the header fields end there
PAYLOAD_START = {
    kind: max(offset + struct.calcsize(fmt) for offset, fmt in fields)
    for kind, fields in HEADER_FIELDS.items()
}
FLOAT_VALUES = [math.inf, -math.inf, math.nan, 1e308, 1.0000001, -2.0, 5e-324]
# 2**32 - 2 is -2 as a u32; 4 and 0xFFFFFFF0 are the real flag and unknown flag bits
INT_VALUES = [0, 1, 2, 3, 4, 7, 8, 9, 2**31, 0xFFFFFFF0, 2**32 - 2]


@st.composite
def mutated_containers(draw):
    raw = bytearray(draw(st.sampled_from(VALID_CONTAINERS)))
    kind = struct.unpack_from("<I", raw, 8)[0]
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["truncate", "flip", "field", "value"]))
        if how == "truncate" and raw:
            del raw[draw(st.integers(0, len(raw) - 1)):]
        elif how == "flip" and raw:
            # half the flips land in the first 64 bytes, where the header is
            header = st.integers(0, min(len(raw), 64) - 1)
            pos = draw(st.one_of(header, st.integers(0, len(raw) - 1)))
            raw[pos] ^= 1 << draw(st.integers(0, 7))
        elif how == "field":
            offset, fmt = draw(st.sampled_from(HEADER_FIELDS[kind]))
            if offset + struct.calcsize(fmt) <= len(raw):
                values = FLOAT_VALUES if fmt == "<d" else INT_VALUES
                struct.pack_into(fmt, raw, offset, draw(st.sampled_from(values)))
        elif how == "value":
            # one float64 of the payload (or one part of a complex value)
            start = PAYLOAD_START[kind]
            if len(raw) >= start + 8:
                pos = start + 8 * draw(st.integers(0, (len(raw) - start) // 8 - 1))
                value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
                struct.pack_into("<d", raw, pos, value)
    return bytes(raw)


class TestFuzz:
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(mutated_containers())
    def test_typed_error_or_object_with_bounded_memory(self, raw):
        tracemalloc.start()
        try:
            try:
                obj = read_container(io.BytesIO(raw))
            except ContainerError:
                pass
            else:
                assert isinstance(obj, READ_TYPES)
                assert all(np.isfinite(a).all() for a in payload_arrays(obj))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(raw) + (1 << 18), (peak, len(raw))
