"""The buffer recycler: a buffer comes back only once its last view is gone."""

import gc
import io
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import hermitian_coeffs

from flaglets import _buffers, flaglet_transform, io_container
from flaglets.cli import blob_field, random_flag_coeffs
from flaglets.flag_transform import BandLimits, FlagCoeffs, flag_forward, flag_inverse
from flaglets.flaglet_transform import flaglet_analyze, flaglet_synthesize, threshold_denoise
from flaglets.io_container import read_container, write_container
from flaglets.kernel_tiling import TilingParams, build_flaglet_kernels, build_sphere_kernels
from flaglets.sphere_harmonics import SphereCoeffs
from flaglets.sphere_wavelets import sphere_analyze, sphere_synthesize

LIMITS = BandLimits(8, 6, 1.0)
KERNELS = build_flaglet_kernels(LIMITS, TilingParams(nu=3.0))

# a view of a handed-out array, or of a view of it, as a caller may keep one
VIEWS = {
    "whole": lambda a: a,
    "slice": lambda a: a[8:],
    "float64": lambda a: a.view(np.float64),
    "split_reshape": lambda a: np.split(a.view(np.float64), [1])[1].reshape(-1, 1),
    "view_of_view": lambda a: a.view(np.complex128)[1:].reshape(-1)[::2],
}


def _invariant_holds() -> bool:
    counts = _buffers.stats()
    return 0 <= counts["held_bytes"] <= 2 * counts["peak_live_bytes"] - counts["live_bytes"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["take", "drop"]),
            st.sampled_from([32, 64, 96]),
            st.sampled_from(sorted(VIEWS)),
            st.integers(0, 7),
        ),
        max_size=40,
    )
)
def test_no_live_array_is_handed_out_twice(steps):
    kept = []  # (a view of a handed-out array, a copy of its values)
    for n, (action, nbytes, view, index) in enumerate(steps):
        if action == "drop":
            if kept:
                kept.pop(index % len(kept))
            continue
        array = _buffers.take(nbytes)
        assert array.shape == (nbytes,) and array.dtype == np.uint8
        assert array.flags.writeable and array.flags.c_contiguous
        assert not any(np.shares_memory(array, other) for other, _ in kept)
        array[:] = n + 1
        kept.append((VIEWS[view](array), VIEWS[view](array).copy()))
        del array
        assert _invariant_holds()
        assert all(other.tobytes() == want.tobytes() for other, want in kept)


def test_a_buffer_comes_back_only_after_its_last_view():
    array = _buffers.take(4096)
    part = array.view(np.float64)[128:]
    address = array.__array_interface__["data"][0]
    del array
    # `part` pins the first buffer, so this one is another
    other = _buffers.take(4096)
    assert not np.shares_memory(part, other)
    del part
    again = _buffers.take(4096)
    assert again.__array_interface__["data"][0] == address
    assert not np.shares_memory(again, other)
    assert _invariant_holds()


def test_threads_never_share_a_live_buffer():
    # more threads than cores and a short switch interval, so takes and
    # give-backs interleave; a lost update shows in the byte counts
    gc.collect()
    start = _buffers.stats()
    errors = []

    def work(fill):
        for n in range(500):
            a = _buffers.take(64 * (1 + n % 3)).view(np.float64)
            a[:] = fill
            b = _buffers.take(64)
            b[:] = fill
            if not ((a == fill).all() and (b == fill).all()):
                errors.append(fill)
            del a, b

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    end = _buffers.stats()
    assert end["live_bytes"] == start["live_bytes"]
    assert end["hits"] + end["misses"] == start["hits"] + start["misses"] + 8 * 500 * 2
    assert _invariant_holds()


def _decomposition(seed, real=False):
    if real:
        rng = np.random.default_rng(seed)
        coeffs = FlagCoeffs(LIMITS, hermitian_coeffs(rng, LIMITS.L, (LIMITS.P,)))
    else:
        coeffs = random_flag_coeffs(LIMITS, seed)
    return flaglet_analyze(coeffs, KERNELS)


def _container(seed):
    sink = io.BytesIO()
    write_container(_decomposition(seed), sink)
    return sink.getvalue()


# each call makes a decomposition of the same byte size, from new values
MAKERS = {
    "flaglet_analyze": _decomposition,
    "read_container": lambda seed: read_container(io.BytesIO(_container(seed))),
    "threshold_denoise": lambda seed: threshold_denoise(_decomposition(seed), 0.2, "soft"),
}


@pytest.mark.parametrize("maker", sorted(MAKERS))
def test_kept_views_keep_their_bytes_through_later_calls(maker):
    make = MAKERS[maker]
    d = make(1)
    part = d.wavelets[sorted(d.wavelets)[2]].values
    view = part[1:, ::2]
    view_of_view = view.reshape(-1)[3:].view(np.float64)
    kept = [(a, a.copy()) for a in (part, view, view_of_view)]
    del d
    gc.collect()
    for seed in range(2, 6):
        later = make(seed)
        parts = [later.scaling.values, *(grid.values for grid in later.wavelets.values())]
        for array, want in kept:
            assert array.tobytes() == want.tobytes()
            assert not any(np.shares_memory(array, p) for p in parts)
    # once every view is gone the buffer is free for the next call
    del part, view, view_of_view, kept, later, parts
    gc.collect()
    hits = _buffers.stats()["hits"]
    make(6)
    assert _buffers.stats()["hits"] > hits


def _denoise(d, kernels):
    sink = io.BytesIO()
    write_container(d, sink)
    sink.seek(0)
    stored = read_container(sink)
    kept = threshold_denoise(stored, 0.2, "hard")
    return flaglet_synthesize(kept, kernels).coeffs.copy()


def _denoising_cycle(seed, real):
    return _denoise(_decomposition(seed, real), KERNELS)


def count_decomposition_takes(monkeypatch) -> list:
    """Record, for each take of a decomposition buffer (analysis, container
    read, threshold), whether it reused storage; the engine's takes are not
    recorded."""
    reused = []

    def take(nbytes, take=_buffers.take):
        hits = _buffers.stats()["hits"]
        array = take(nbytes)
        reused.append(_buffers.stats()["hits"] == hits + 1)
        return array

    monkeypatch.setattr(flaglet_transform, "take", take)
    monkeypatch.setattr(io_container, "take", take)
    return reused


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_a_second_identical_cycle_allocates_no_buffer(monkeypatch, drain_recycler, real):
    # misses, not page faults: fault counts depend on the operating system.
    # The engine's grids and work space are recycled too, so every take of
    # the cycle is a hit, and so are its 3 decomposition buffers
    drain_recycler()
    first = _denoising_cycle(7, real)
    gc.collect()
    counts = _buffers.stats()
    reused = count_decomposition_takes(monkeypatch)
    second = _denoising_cycle(7, real)
    after = _buffers.stats()
    assert after["misses"] == counts["misses"]
    assert reused == [True] * 3
    assert second.tobytes() == first.tobytes()
    assert _invariant_holds()


def test_the_benchmark_denoising_cycle_makes_no_miss_beside_the_engine(monkeypatch, drain_recycler):
    # the flaglet denoising cycle of the benchmark (L = P = 32, full
    # resolution, a real field): its engine calls take work space beside 3
    # decomposition buffers of 19 MB, and neither may evict the other.  When
    # every engine buffer was recycled, a free list bounded by the peak live
    # bytes less those live now evicted a decomposition buffer every cycle
    limits = BandLimits(32, 32, 1.0)
    kernels = build_flaglet_kernels(limits, TilingParams(2.0, 2.0))
    field = blob_field(limits, n_blobs=3, width_ang=0.5, width_rad=1.5, seed=7)

    def cycle():
        d = flaglet_analyze(flag_forward(field), kernels)
        coeffs = FlagCoeffs(limits, _denoise(d, kernels))
        return flag_inverse(coeffs).values.copy()

    drain_recycler()
    first = cycle()
    gc.collect()
    counts = _buffers.stats()
    reused = count_decomposition_takes(monkeypatch)
    second = cycle()
    after = _buffers.stats()
    assert after["misses"] == counts["misses"]
    assert after["hits"] > counts["hits"] + 3  # the engine's buffers as well
    assert reused == [True] * 3
    assert second.tobytes() == first.tobytes()
    assert _invariant_holds()


def test_a_second_multiresolution_sphere_round_trip_past_the_table_cache_makes_no_miss(
    drain_recycler,
):
    # sphere wavelets at L = 288 multires, the benchmark's sizes: each
    # analysis and synthesis takes its grids, sums, tile buffers and columns
    # from the recycler, at every band limit of the tiling
    L = 288
    kernels = build_sphere_kernels(L, TilingParams(lam=2.0))
    rng = np.random.default_rng(288)
    f = SphereCoeffs(L, rng.uniform(-1, 1, L * L) + 1j * rng.uniform(-1, 1, L * L))

    def round_trip():
        d = sphere_analyze(f, kernels, multires=True)
        return sphere_synthesize(d, kernels).coeffs.copy()

    drain_recycler()
    first = round_trip()
    gc.collect()
    counts = _buffers.stats()
    second = round_trip()
    after = _buffers.stats()
    assert after["misses"] == counts["misses"]
    assert after["hits"] > counts["hits"]
    assert second.tobytes() == first.tobytes()
    assert _invariant_holds()
