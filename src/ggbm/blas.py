"""The process-wide OpenBLAS thread count: read it, and pin it to one
thread around a block of code.

OpenBLAS splits GEMM and Cholesky work differently for different thread
counts, so their results differ in the last bits.  Code whose bytes must
depend only on its inputs runs its BLAS calls inside `single_threaded()`.
The count is reached through the `*_get_num_threads` / `*_set_num_threads`
symbols of the OpenBLAS that numpy wheels bundle in `numpy.libs`; with any
other BLAS, `threads()` returns None and the pin does nothing.

The pin's reference count is module state because the thread count it
guards is process state: one OpenBLAS serves every caller in the process.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["threads", "single_threaded"]


@functools.cache
def _bundled_openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or Nones."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None, None


_lock = threading.Lock()
_pins = 0
_saved = None


def threads() -> int | None:
    """The current OpenBLAS thread count (None if it cannot be reached)."""
    get, _ = _bundled_openblas()
    return None if get is None else get()


@contextmanager
def single_threaded():
    """Run the block with OpenBLAS on one thread.

    Blocks that overlap, from one thread or several, share one pin: the
    first to enter saves the caller's count and the last to leave restores
    it, also when the block raises.
    """
    global _pins, _saved
    get, put = _bundled_openblas()
    if put is None:
        yield
        return
    with _lock:
        if _pins == 0:
            _saved = get()
            put(1)
        _pins += 1
    try:
        yield
    finally:
        with _lock:
            _pins -= 1
            if _pins == 0:
                put(_saved)
