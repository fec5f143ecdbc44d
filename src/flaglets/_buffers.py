"""Recycled storage for the decomposition buffers of flaglet denoising and for
the SHT engine's grids and work space.

take(nbytes) hands out a 1-D uint8 array over storage from a free list keyed
by byte size.  Its base is a memoryview, not an ndarray, so numpy stops
collapsing .base at it: every split, reshape, slice or .view(dtype) of it
keeps it alive, and a weakref.finalize puts its storage back on the free
list only once the last of them is gone.  A warm analysis, container read,
threshold or engine call then writes pages the process already holds, where
a fresh allocation of that size is a fresh mmap whose every page faults on
its first write.  The engine takes only buffers of more than
_FOLD_CHUNK_BYTES and at most _FFT_BLOCK_BYTES (sphere_harmonics._empty):
larger ones go back to the operating system once freed, so the free list
never holds a full-size ball grid, and smaller ones the allocator's heap
serves warm without a fault.

The recycler's storage, handed out and free, never passes twice the most
handed-out bytes live at once so far: a miss that would break this rule
evicts storage first from the size returned least recently.  The engine's
buffers come in many sizes that are never live at once, so a bound of the
peak alone made them evict each other, and every warm op faulted the pages
of its misses anew.  Under this rule all of them stay, and a warm op
faults none, at the cost of peak RSS for the storage of sizes not live at
its peak (BENCH_pr27.json).
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

# re-entrant: a garbage collection inside take() may run a finalizer
_lock = threading.RLock()
# byte size -> storage of that size, the size returned least recently first
_free: dict[int, list[np.ndarray]] = {}
_counts = {"held_bytes": 0, "live_bytes": 0, "peak_live_bytes": 0, "hits": 0, "misses": 0}


def take(nbytes: int) -> np.ndarray:
    """A writable 1-D uint8 array of `nbytes` bytes with undefined values."""
    with _lock:
        stack = _free.get(nbytes)
        storage = stack.pop() if stack else None
        if stack == []:
            del _free[nbytes]
        _counts["live_bytes"] += nbytes
        if storage is not None:
            _counts["hits"] += 1
            _counts["held_bytes"] -= nbytes
        else:
            _counts["misses"] += 1
            peak = max(_counts["peak_live_bytes"], _counts["live_bytes"])
            _counts["peak_live_bytes"] = peak
            while _counts["held_bytes"] > 2 * peak - _counts["live_bytes"]:
                size, oldest = next(iter(_free.items()))
                oldest.pop(0)
                if not oldest:
                    del _free[size]
                _counts["held_bytes"] -= size
    if storage is None:
        storage = np.empty(nbytes, dtype=np.uint8)
    array = np.frombuffer(memoryview(storage), dtype=np.uint8)
    weakref.finalize(array, _give_back, storage).atexit = False
    return array


def _give_back(storage: np.ndarray) -> None:
    with _lock:
        _counts["live_bytes"] -= storage.nbytes
        _counts["held_bytes"] += storage.nbytes
        stack = _free.pop(storage.nbytes, [])
        stack.append(storage)
        _free[storage.nbytes] = stack


def stats() -> dict:
    """Bytes the free list holds and handed-out arrays pin, the most of the
    latter live at once, and the hits and misses of take() so far."""
    with _lock:
        return dict(_counts)
