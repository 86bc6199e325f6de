"""Property tests of the special functions over their parameter ranges."""

import math
import sys

import numpy as np
import pytest

from ggbm import DomainError, m_wright, mittag_leffler, specfun
from ggbm.randvar import SeedSpec, make_stream, sample_y_beta_array
from ggbm.specfun import m_wright_cutoff, m_wright_quad_rule

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(beta=st.floats(0.001, 0.95), frac=st.floats(0.0, 1.0))
@hypothesis.example(beta=0.5, frac=1.1125369292536007e-308)
def test_m_wright_finite_and_nonnegative(beta, frac):
    tau = frac * m_wright_cutoff(beta)
    value = m_wright(beta, tau).value
    assert math.isfinite(value) and value >= 0.0, (beta, tau, value)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(beta=st.floats(sys.float_info.min, 1.0), x=st.floats(0.01, 50.0))
@hypothesis.example(beta=0.5, x=5e-324)
@hypothesis.example(beta=0.9999999889, x=11.6)
def test_mittag_leffler_finite_in_unit_interval(beta, x):
    """E_beta(-x) is completely monotone in x and 1 at x = 0, so it lies
    in (0, 1] on the range of x the analytic benchmark draws, and at the
    smallest subnormal x.  The subnormal beta below make up the rest of
    (0, 1], and are refused, and so is the band (_BETA_MAX, 1), where the
    M-Wright rule that E_beta sums does not hold its mass."""
    if specfun._BETA_MAX < beta < 1.0:
        with pytest.raises(DomainError, match="outside the M-Wright rule's range"):
            mittag_leffler(beta, -x)
        return
    value = mittag_leffler(beta, -x).value
    assert math.isfinite(value) and 0.0 < value <= 1.0, (beta, x, value)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(beta=st.floats(0.001, 1.0, exclude_max=True))
@hypothesis.example(beta=specfun._BETA_MAX)
@hypothesis.example(beta=float(np.nextafter(specfun._BETA_MAX, 1.0)))
def test_m_wright_quad_rule_unit_mass_or_band(beta):
    """The M-Wright rule has unit mass within 1e-10 on [0.001, _BETA_MAX]
    and is a DomainError on (_BETA_MAX, 1)."""
    if beta > specfun._BETA_MAX:
        with pytest.raises(DomainError, match="outside the M-Wright rule's range"):
            m_wright_quad_rule(beta)
        return
    nodes, weights, mvals = m_wright_quad_rule(beta)
    assert abs(float(weights @ mvals) - 1.0) <= 1e-10, beta


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(beta=st.floats(0.0, sys.float_info.min, exclude_min=True, exclude_max=True))
@hypothesis.example(beta=5e-324)
def test_subnormal_beta_is_a_domain_error(beta):
    """Below the smallest normal float beta keeps too few bits: unchecked,
    E_beta(-x) is inf or fails to converge, M_beta(1) is 16 % low with a
    2e-12 error estimate, the rule's mass is 16 % short and the sampler
    draws non-finite values.  Every function that takes beta refuses it."""
    calls = (lambda: mittag_leffler(beta, -1.0), lambda: m_wright(beta, 1.0),
             lambda: m_wright_quad_rule(beta),
             lambda: sample_y_beta_array(beta, make_stream(SeedSpec(0, 0)), 16))
    for call in calls:
        with pytest.raises(DomainError, match="beta"):
            call()
