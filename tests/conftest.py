import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from flaglets import _buffers  # noqa: E402


@pytest.fixture
def drain_recycler():
    """A function that empties the buffer recycler's free list and restarts
    its peak live bytes from those live now, as in a fresh process.  The next
    takes are then fresh allocations, which tracemalloc counts (a reused
    buffer it does not), and a cycle's hits and misses do not depend on what
    earlier tests left behind."""

    def drain():
        with _buffers._lock:
            _buffers._free.clear()
            _buffers._counts["held_bytes"] = 0
            _buffers._counts["peak_live_bytes"] = _buffers._counts["live_bytes"]

    return drain
