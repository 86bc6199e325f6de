"""Property tests of the special functions over their parameter ranges."""

import math

import pytest

from ggbm import m_wright
from ggbm.specfun import m_wright_cutoff

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(beta=st.floats(0.001, 0.95), frac=st.floats(0.0, 1.0))
def test_m_wright_finite_and_nonnegative(beta, frac):
    tau = frac * m_wright_cutoff(beta)
    value = m_wright(beta, tau).value
    assert math.isfinite(value) and value >= 0.0, (beta, tau, value)
