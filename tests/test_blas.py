"""Tests for the OpenBLAS thread pin."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from ggbm import blas

pytestmark = pytest.mark.skipif(blas.threads() is None,
                                reason="numpy's BLAS is not a bundled OpenBLAS")


def test_pin_is_one_thread_and_restores():
    before = blas.threads()
    with blas.single_threaded():
        assert blas.threads() == 1
        with blas.single_threaded():
            assert blas.threads() == 1
        assert blas.threads() == 1
    assert blas.threads() == before


def test_pin_restores_on_exception():
    before = blas.threads()
    with pytest.raises(RuntimeError):
        with blas.single_threaded():
            raise RuntimeError("inside the pin")
    assert blas.threads() == before


def test_concurrent_pins_share_one_pin():
    """More workers than cores, switching often: a lost update of the pin
    count would unpin a block early or never restore the caller's count."""
    before = blas.threads()

    def inside(_):
        with blas.single_threaded():
            return blas.threads()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            seen = list(pool.map(inside, range(2000), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert seen == [1] * 2000
    assert blas.threads() == before
