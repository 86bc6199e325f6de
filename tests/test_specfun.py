"""Special function tests against independent closed forms and quadrature."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import airy, erfcx, gammaln

from ggbm import DomainError, ModelParams, gamma, green_constant, m_wright, \
    m_wright_moment, mittag_leffler, time_kernel_constant
from ggbm import specfun, verify
from ggbm.exceptions import ConvergenceError, PoleError
from ggbm.specfun import m_wright_cutoff, m_wright_quad_rule
from ggbm.verify import moment_quadrature


def test_gamma_matches_math():
    for x in (0.5, 1.0, 2.5, 7.0, -0.5):
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-15)


def test_gamma_pole():
    with pytest.raises(PoleError):
        gamma(0.0)
    with pytest.raises(PoleError):
        gamma(-3.0)


def test_mittag_leffler_beta_one_is_exp():
    for z in (-30.0, -5.0, -1.0, -0.1, 0.0):
        r = mittag_leffler(1.0, z)
        assert r.value == pytest.approx(math.exp(z), rel=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 3.0, 10.0, 100.0])
def test_mittag_leffler_half_closed_form(x):
    # E_{1/2}(-x) = exp(x^2) erfc(x), via erfcx to avoid overflow
    expected = float(erfcx(x))
    r = mittag_leffler(0.5, -x)
    assert r.value == pytest.approx(expected, rel=1e-9)


def test_mittag_leffler_at_zero_is_one():
    for beta in (0.3, 0.5, 0.7, 0.9, 1.0):
        assert mittag_leffler(beta, 0.0).value == 1.0


@pytest.mark.parametrize("beta", [0.002, 0.005, 0.3, 0.5, 0.7, 0.9])
def test_mittag_leffler_monotone_and_bounded(beta):
    zs = np.linspace(-80.0, 0.0, 161)
    vals = np.array([mittag_leffler(beta, z).value for z in zs])
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)


def test_mittag_leffler_domain_errors():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, -1.0)
    with pytest.raises(DomainError):
        mittag_leffler(1.2, -1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, 1.0)
    for beta in (0.5, 1.0):
        for z in (math.nan, -math.inf):
            with pytest.raises(DomainError):
                mittag_leffler(beta, z)


def test_m_wright_domain_errors():
    for tau in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            m_wright(0.5, tau)


def _mittag_leffler_mpmath(mpmath, beta, x):
    """E_beta(-x) in mpmath.  Where x^(1/beta) <= 100, by its series with
    enough digits to absorb its cancellation, which the largest term,
    about exp(x^(1/beta)), sets; the terms are log-concave in n, so the
    first shrinking term below 1e-30 of the sum ends the sum.  Beyond, by
    its asymptotic series -sum_{k>=1} (-x)^-k / Gamma(1 - beta k), whose
    terms are bounded by Gamma(beta k) x^-k / pi and shrink until beta k
    is near x^(1/beta), so that the bound falls below 1e-32 of the sum
    long before the smallest term, about exp(-x^(1/beta)) < 1e-43."""
    reach = math.exp(min(math.log(x) / beta, 700.0))  # x^(1/beta)
    with mpmath.workdps(30 + int(min(reach, 100.0) / math.log(10.0))):
        b, t = mpmath.mpf(beta), mpmath.mpf(x)
        total, k = mpmath.mpf(0), 0
        if reach > 100.0:
            while True:
                k += 1
                total -= (-t) ** (-k) * mpmath.rgamma(1 - b * k)
                if k > 2 and mpmath.gamma(b * k) / mpmath.pi * t ** (-k) < 1e-32 * abs(total):
                    return float(total)
        power, prev = mpmath.mpf(1), mpmath.inf  # power = (-x)^k
        while True:
            term = power * mpmath.rgamma(b * k + 1)
            total += term
            if abs(term) < prev and abs(term) < 1e-30 * abs(total):
                return float(total)
            prev, power, k = abs(term), -power * t, k + 1


def test_mittag_leffler_error_bound_vs_mpmath():
    """est_abs_error bounds the error of every value, the rule's Laplace
    sum, on random (beta, z) with -z log-uniform in [0.01, 50] and at
    (0.6, -4.79)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    betas = np.concatenate([[0.6], rng.uniform(0.05, 0.99, 400)])
    xs = np.concatenate([[4.79], np.exp(rng.uniform(math.log(0.01), math.log(50.0), 400))])
    for beta, x in zip(betas.tolist(), xs.tolist()):
        r = mittag_leffler(beta, -x)
        assert abs(r.value - _mittag_leffler_mpmath(mpmath, beta, x)) <= r.est_abs_error, \
            (beta, x, r)


@pytest.mark.parametrize("beta", [0.85, 0.9, 0.95, 0.99, 0.995, 0.999])
def test_mittag_leffler_toward_beta_one_vs_mpmath(beta):
    """Up to the band, where the spectral integral missed the peak of its
    integrand, E_beta holds its reported error on x in [0.01, 50]."""
    mpmath = pytest.importorskip("mpmath")
    for x in np.geomspace(0.01, 50.0, 12):
        r = mittag_leffler(beta, -x)
        assert abs(r.value - _mittag_leffler_mpmath(mpmath, beta, x)) <= r.est_abs_error, (x, r)


def test_mittag_leffler_half_within_reported_error_to_1e300():
    """E_1/2(-x) = erfcx(x) for x up to 1e300: the rule's Laplace sum, and
    past 1e15 the one-term asymptote, within the reported error."""
    for x in np.geomspace(1e-3, 1e300, 400):
        r = mittag_leffler(0.5, -x)
        assert abs(r.value - float(erfcx(x))) <= r.est_abs_error, (x, r)


def test_mittag_leffler_at_most_one_where_rule_mass_exceeds_one():
    """E_beta(-x) <= 1 also where the rule's mass is a little above 1: the
    Laplace sum is divided by that mass, in the same summation order."""
    heavy = [k / 100 for k in range(1, 100)
             if float(np.dot(*m_wright_quad_rule(k / 100)[1:])) > 1.0]
    assert heavy
    for beta in heavy:
        for x in (5e-324, 1e-300, 1e-17):
            assert 0.0 < mittag_leffler(beta, -x).value <= 1.0, (beta, x)


def test_mittag_leffler_band_is_domain_error():
    """beta in (_BETA_MAX, 1) is a DomainError that names the band, for
    the rule, everything built on it and m_wright, up to the float just
    below 1."""
    for beta in (np.nextafter(specfun._BETA_MAX, 1.0), 0.9999999889, np.nextafter(1.0, 0.0)):
        with pytest.raises(DomainError, match="outside the M-Wright rule's range"):
            mittag_leffler(beta, -11.6)
        with pytest.raises(DomainError, match="outside the M-Wright rule's range"):
            m_wright_quad_rule(beta)
        with pytest.raises(DomainError, match="outside the M-Wright rule's range"):
            m_wright(beta, 0.999)
    assert mittag_leffler(specfun._BETA_MAX, -11.6).value > 0.0
    assert specfun._BETA_MAX >= 0.995


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_m_wright_half_is_gaussian(tau):
    expected = math.exp(-tau * tau / 4.0) / math.sqrt(math.pi)
    assert m_wright(0.5, tau).value == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75, 0.9])
def test_m_wright_normalization(beta):
    cutoff = m_wright_cutoff(beta)
    total, err = quad(lambda t: m_wright(beta, t).value, 0.0, cutoff,
                      epsabs=1e-12, epsrel=1e-10, limit=200)
    assert total == pytest.approx(1.0, abs=1e-7)


def test_m_wright_nonnegative():
    for beta in (0.3, 0.6, 0.85):
        taus = np.linspace(0.0, m_wright_cutoff(beta), 64)
        for tau in taus:
            assert m_wright(beta, tau).value >= 0.0


def test_m_wright_moment_closed_form():
    for beta in (0.3, 0.5, 0.8):
        for delta in (0.5, 1.0, 2.0, 3.0):
            expected = math.gamma(delta + 1.0) / math.gamma(beta * delta + 1.0)
            assert m_wright_moment(beta, delta) == pytest.approx(
                expected, rel=1e-15)
    assert m_wright_moment(0.5, 1.0) == pytest.approx(
        1.0 / math.gamma(1.5), rel=1e-15)


def test_m_wright_moment_vs_quadrature():
    for beta in (0.4, 0.7):
        for delta in (-0.6, -0.5, 1.5):
            mom = m_wright_moment(beta, delta)
            assert moment_quadrature(beta, delta) == pytest.approx(
                mom, rel=1e-9)


def test_m_wright_moment_divergent_order():
    with pytest.raises(DomainError):
        m_wright_moment(0.5, -1.0)
    with pytest.raises(DomainError):
        m_wright_moment(0.5, -1.5)


@pytest.mark.parametrize("beta", [0.002, 0.005] + [k / 100 for k in range(1, 100)] + [0.995])
def test_m_wright_quad_rule_integrates_density(beta):
    nodes, weights, mvals = m_wright_quad_rule(beta)
    assert float(np.dot(weights, mvals)) == pytest.approx(1.0, abs=1e-10)


def test_m_wright_quad_rule_mass_sweep():
    """Unit mass within 1e-10 at every beta = k/1000 up to _BETA_MAX and
    at 50 beta log-spaced in 1 - beta from 0.5 down to 1 - _BETA_MAX; the
    build also checks it, and raises ConvergenceError where it fails."""
    betas = [k / 1000 for k in range(1, 1000) if k / 1000 <= specfun._BETA_MAX]
    betas += (1.0 - np.geomspace(0.5, 1.0 - specfun._BETA_MAX, 50)).tolist()
    for beta in betas:
        nodes, weights, mvals = specfun._mw_rule_cached.__wrapped__(beta)
        assert abs(float(weights @ mvals) - 1.0) <= 1e-10, beta


def test_m_wright_quad_rule_mass_guard(monkeypatch):
    """A rule whose mass is off 1 by more than _MASS_TOL raises
    ConvergenceError instead of being cached."""
    monkeypatch.setattr(specfun, "_MASS_TOL", -1.0)  # no mass is that close
    with pytest.raises(ConvergenceError, match="mass"):
        specfun._mw_rule_cached.__wrapped__(0.3)


def _series_routed(monkeypatch, build):
    """The values that _series returns to _mw_values while `build` runs,
    concatenated."""
    seen = []

    def recorded(beta, tau, errors=True, _f=specfun._series):
        out = _f(beta, tau, errors)
        seen.append(out[0])
        return out

    with monkeypatch.context() as m:
        m.setattr(specfun, "_series", recorded)
        build()
    return np.concatenate(seen)


@pytest.mark.parametrize("beta", [k / 100 for k in range(1, 100)])
def test_series_exit_changes_no_rule_node(monkeypatch, beta):
    """No exit of the series (the cancellation test, the overflow exit, the
    term cap) fires on a node of the rule that _mw_values routes to it, so
    the routing alone decides which kernel serves each node; and the
    ceiling e (1-b) tau M_beta(tau) <= 1, from u exp(-u) <= 1/e in Kanter's
    form, holds at every node, from the series or from Kanter's integral."""
    values = _series_routed(monkeypatch, lambda: specfun._mw_rule_cached.__wrapped__(beta))
    assert not np.isnan(values).any()
    nodes, _, mvals = m_wright_quad_rule(beta)
    assert np.all(math.e * (1.0 - beta) * nodes * mvals <= 1.0)


@pytest.mark.parametrize("beta", [k / 20 for k in range(1, 20)])
def test_series_exit_changes_no_scalar_value(monkeypatch, beta):
    """One node at a time, as m_wright calls the series: on tau in
    [1e-3, 20] no exit of the series fires where the routing sends tau to
    it, and M_beta(tau) is under its ceiling 1/(e (1-b) tau)."""
    for tau in np.geomspace(1e-3, 20.0, 30):
        values = _series_routed(monkeypatch, lambda: m_wright(beta, float(tau)))
        assert not np.isnan(values).any(), tau
        assert math.e * (1.0 - beta) * tau * m_wright(beta, float(tau)).value <= 1.0, tau


def _m_wright_envelope(beta, tau, value):
    """log(tau^n Gamma(beta(n+1)) / n!), the size of the series terms of
    M_beta(tau) but for their sine factors, for n = 0, 1, ... in doubling
    blocks until it is past its maximum and below 1e-30 `value`, past
    the row where _m_wright_mpmath stops.  The envelope is unimodal, so
    its maximum there is its maximum over every n."""
    size = 64
    while True:
        n = np.arange(float(size))
        log_env = n * math.log(tau) - gammaln(n + 1.0) + gammaln(beta * (n + 1.0))
        if log_env.argmax() < size - 1 and log_env[-1] < math.log(1e-30 * value):
            return log_env
        size *= 2


def _m_wright_mpmath(mpmath, beta, tau, value):
    """M_beta(tau) by its series in mpmath, carrying enough digits to absorb
    the cancellation between the largest term and `value`."""
    log_env = _m_wright_envelope(beta, tau, value)
    digits = int((log_env.max() - math.log(value)) / math.log(10.0)) + 25
    with mpmath.workdps(digits):
        b, t = mpmath.mpf(beta), mpmath.mpf(tau)
        total, power, k = mpmath.mpf(0), mpmath.mpf(1), 0  # power = (-t)^k / k!
        while True:
            total += power * mpmath.rgamma(1 - b * (k + 1))
            k += 1
            power *= -t / k
            # past the largest term the envelope |power| Gamma(b(k+1)) decays
            if (k > 5 and log_env[k] < log_env.max()
                    and abs(power) * mpmath.gamma(b * (k + 1)) < 1e-25 * abs(total)):
                return float(total)


def test_m_wright_within_reported_error_vs_mpmath():
    """Each value within its own reported error, at round beta too, where
    some coefficients of the series vanish; values that underflow to 0
    are skipped, since the oracle scales its precision by the value."""
    mpmath = pytest.importorskip("mpmath")
    betas = sorted({k / 100 for k in range(1, 81)} | {1 / k for k in range(2, 51)})
    for beta in betas:
        for tau in (1.0, 2.0, 3.0):
            r = m_wright(beta, tau)
            if r.value == 0.0:
                continue
            ref = _m_wright_mpmath(mpmath, beta, tau, r.value)
            assert abs(r.value - ref) <= r.est_abs_error + 1e-12 * ref, (beta, tau, r, ref)


@pytest.mark.parametrize("beta", [0.005, 0.1, 0.5, 0.8, 0.97])
def test_m_wright_quad_rule_values_match_mpmath(beta):
    mpmath = pytest.importorskip("mpmath")
    nodes, _, mvals = m_wright_quad_rule(beta)
    live = np.flatnonzero(mvals > 1e-20)
    for i in live[np.linspace(0, live.size - 1, 20).astype(int)]:
        ref = _m_wright_mpmath(mpmath, beta, nodes[i], mvals[i])
        assert mvals[i] == pytest.approx(ref, rel=1e-6, abs=0.0), (beta, nodes[i])


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.8])
def test_m_wright_quad_rule_far_tail_matches_mpmath(beta):
    """The far-tail nodes come from Kanter's integral, accurate relative to
    their own size."""
    mpmath = pytest.importorskip("mpmath")
    nodes, _, mvals = m_wright_quad_rule(beta)
    tail = np.flatnonzero(mvals <= 1e-20)
    for i in tail[np.linspace(0, tail.size - 1, 3).astype(int)]:
        ref = _m_wright_mpmath(mpmath, beta, nodes[i], mvals[i])
        assert mvals[i] == pytest.approx(ref, rel=1e-10, abs=0.0), (beta, nodes[i])


def test_m_wright_quad_rule_half_is_gaussian():
    nodes, _, mvals = m_wright_quad_rule(0.5)
    expected = np.exp(-nodes * nodes / 4.0) / math.sqrt(math.pi)
    np.testing.assert_allclose(mvals, expected, rtol=1e-8)


def test_m_wright_half_is_gaussian_to_rounding():
    """M_1/2(tau) = exp(-tau^2/4)/sqrt(pi) within 2e-14 relative on tau in
    [1, 8], at the rule's nodes there and one tau at a time: where the
    series would cancel, the routing sends a node to Kanter's integral."""
    nodes, _, mvals = m_wright_quad_rule(0.5)
    band = (nodes >= 1.0) & (nodes <= 8.0)
    assert band.sum() >= 50
    grid = np.linspace(1.0, 8.0, 29)
    tau = np.concatenate([nodes[band], grid])
    value = np.concatenate([mvals[band], [m_wright(0.5, float(t)).value for t in grid]])
    expected = np.exp(-tau * tau / 4.0) / math.sqrt(math.pi)
    np.testing.assert_allclose(value, expected, rtol=2e-14, atol=0.0)


def test_m_wright_third_is_airy():
    """M_1/3(tau) = 3^(2/3) Ai(tau / 3^(1/3)) within 1e-13 relative on tau
    in [0.01, 12], wherever the value exceeds 1e-200."""
    tau = np.geomspace(0.01, 12.0, 120)
    expected = 3.0 ** (2.0 / 3.0) * airy(tau / 3.0 ** (1.0 / 3.0))[0]
    live = expected > 1e-200
    value = np.array([m_wright(1.0 / 3.0, float(t)).value for t in tau[live]])
    np.testing.assert_allclose(value, expected[live], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("beta", [1e-8, 1e-4, 0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
def test_m_wright_quad_rule_mass_to_rounding(beta):
    """At beta <= 0.6 the rule's mass is 1 within 1e-14, far inside the
    build's own guard _MASS_TOL."""
    _, weights, mvals = m_wright_quad_rule(beta)
    assert abs(float(weights @ mvals) - 1.0) <= 1e-14


@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 50.0, 1e6])
def test_mittag_leffler_half_is_erfcx_to_rounding(x):
    """E_1/2(-x) = erfcx(x) within 1e-15 relative."""
    expected = float(erfcx(x))
    assert abs(mittag_leffler(0.5, -x).value - expected) <= 1e-15 * expected


@pytest.mark.parametrize("beta", [1e-7, 0.05, 0.5, 0.9, 0.999])
def test_series_over_a_rule_equals_node_by_node(beta):
    """_series over all of a rule's nodes at once, which carries each
    node's sum, peak and spread from block to block, gives every node the
    value, error and term count, bit for bit, that a call with that node
    alone gives, whose lone column is carried twice."""
    nodes, _, _ = m_wright_quad_rule(beta)
    whole = specfun._series(beta, nodes)
    for i in range(nodes.size):
        alone = specfun._series(beta, nodes[i:i + 1])
        assert [a[i:i + 1].tobytes() for a in whole] == [a.tobytes() for a in alone], i


def _series_first_exit(beta, tau):
    """The series' value at each tau, NaN where it gives up, by the rule
    that stops each node at its first row: the term-order running sum
    (np.cumsum) up to the first row n >= 4 where the bound B_n tau^n is
    below 1e-17 max(|sum|, 1e-300) and at most 1e-16 of the largest |term|
    so far; NaN where some log B_n tau^n passes 700 up to that row, where
    the largest term exceeds the sum by more than the cancellation limit,
    or where _MAX_TERMS pass.  Slow: it rebuilds every row each time it
    doubles them."""
    log_tau = np.log(tau)
    rows = 64
    while True:
        n = np.arange(float(rows))
        log_b, sign = specfun._mw_coefficients(beta, n)
        log_mag = np.multiply.outer(n, log_tau) + log_b[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.exp(log_mag)
            term = sign[:, None] * bound
            sums = np.cumsum(term, axis=0)
            peaks = np.maximum.accumulate(np.abs(term), axis=0)
            stop = (bound < 1e-17 * np.maximum(np.abs(sums), 1e-300)) & (bound <= 1e-16 * peaks)
        stop[:4] = False
        over = log_mag > 700.0
        decided = (stop | over).any(axis=0)
        if decided.all() or rows == specfun._MAX_TERMS:
            break
        rows = min(2 * rows, specfun._MAX_TERMS)
    k = np.where(stop.any(axis=0), stop.argmax(axis=0), rows)
    cols = np.arange(tau.size)
    good = (k < rows) & ~(over & (np.arange(rows)[:, None] <= k)).any(axis=0)
    kk = np.minimum(k, rows - 1)
    total, peak = sums[kk, cols], peaks[kk, cols]
    good &= peak / np.maximum(np.abs(total), 1e-300) <= specfun._CANCELLATION_LIMIT
    return np.where(good, np.maximum(total, 0.0), np.nan), np.where(good, k + 1, 0)


def _assert_series_matches_first_exit(beta, tau):
    """_series gives the first-exit value bit for bit, NaN where it is NaN,
    and ends each node with a value at the first block end past its row."""
    value, _, terms = specfun._series(beta, tau)
    ref, ref_terms = _series_first_exit(beta, tau)
    assert np.array_equal(np.isnan(value), np.isnan(ref)), beta
    assert value[~np.isnan(ref)].tobytes() == ref[~np.isnan(ref)].tobytes(), beta
    ends = np.array(specfun._BLOCK_ENDS)
    first_end = ends[np.searchsorted(ends, ref_terms)]
    assert np.array_equal(terms, np.where(ref_terms > 0, first_end, 0)), beta


@pytest.mark.parametrize("beta", [1e-7] + [k / 10 for k in range(1, 10)] + [0.99, 0.999])
def test_series_block_exit_equals_first_exit_over_a_rule(beta):
    """Each node leaves the series at the end of the block where its stop
    row lies; the terms past that row are each below half an ulp of the
    sum, so its value keeps the bits of the first-exit sum, at every node
    of the rule that the series finishes."""
    nodes = m_wright_quad_rule(beta)[0]
    series = nodes[specfun._mw_values(beta, nodes, errors=False)[2] > 0]
    assert series.size
    _assert_series_matches_first_exit(beta, series)


def test_series_leaves_nodes_whose_terms_head_for_overflow():
    """At beta = BETA_MIN, log B_0 = log(Gamma(beta)/pi) is about 707, past
    the overflow guard of 700, though the term s_0 B_0 is about 1: every
    node of the rule leaves the series as NaN at its first block, as by
    the first-exit rule, for Kanter's integral to take."""
    beta = specfun.BETA_MIN
    nodes = m_wright_quad_rule(beta)[0]
    _assert_series_matches_first_exit(beta, nodes)
    assert np.isnan(specfun._series(beta, nodes)[0]).all()


def test_series_block_exit_equals_first_exit_one_node_at_a_time():
    """One node at a time, as m_wright calls the series, at 200 (beta, tau)
    over beta in (0, 1) and tau in [0.01, 5]: numpy sums a lone column
    pairwise, which once moved the node (0.7097, 3.3172) by 1.2e-10
    relative, so the kernel must keep term order there too."""
    rng = np.random.default_rng(43)
    pairs = [(0.7097, 3.3172)] + list(zip(rng.uniform(0.0, 1.0, 199),
                                          np.exp(rng.uniform(math.log(0.01), math.log(5.0), 199))))
    for beta, tau in pairs:
        _assert_series_matches_first_exit(float(beta), np.array([tau]))
    # the first pair is a series value of many blocks' terms
    tau = np.array([3.3172])
    assert specfun._series(0.7097, tau)[2][0] > specfun._BLOCK_ENDS[1]


def test_rule_build_forms_no_coarse_kanter_rule(monkeypatch):
    """A rule build asks for no error, so it forms only Kanter's fine theta
    rule; m_wright at a node that goes to Kanter's integral forms the
    coarse one too and reports their gap in its error."""
    asked = []

    def recorded(beta, nodes, _rule=specfun._kanter_rule):
        asked.append(nodes)
        return _rule(beta, nodes)

    monkeypatch.setattr(specfun, "_kanter_rule", recorded)
    beta = 0.4321
    nodes, _, mvals = specfun._mw_rule_cached.__wrapped__(beta)
    fine_nodes, coarse_nodes = specfun._KANTER_NODES
    assert asked and set(asked) == {fine_nodes}
    kanter = specfun._mw_values(beta, nodes, errors=False)[2] == 0
    tau = float(nodes[kanter][np.argmax(mvals[kanter])])
    asked.clear()
    got = m_wright(beta, tau)
    assert got.terms_used == 0 and set(asked) == {fine_nodes, coarse_nodes}
    log_u0 = specfun._log_u0(beta, np.array([tau]))
    pref = 1.0 / ((1.0 - beta) * math.pi * tau)
    fine, coarse = (pref * (specfun._kanter_matrix(d, log_u0) @ w)[0]
                    for d, w in (specfun._kanter_rule(beta, n) for n in specfun._KANTER_NODES))
    gap = abs(fine - coarse)
    assert got.value == fine and 0.0 < gap <= got.est_abs_error <= gap + 1e-13 * fine


def test_mittag_leffler_refused_z_builds_no_rule():
    """A z that mittag_leffler refuses is refused before the rule at beta
    is built, so the rule cache is left as it was; beta's own errors still
    come first."""
    before = specfun._mw_rule_cached.cache_info()
    for z in (math.nan, 1.0, -math.inf):
        with pytest.raises(DomainError, match="finite z <= 0"):
            mittag_leffler(0.4321, z)
    assert specfun._mw_rule_cached.cache_info() == before
    with pytest.raises(DomainError, match="beta <= 1"):
        mittag_leffler(1.5, math.nan)
    with pytest.raises(DomainError, match="outside the M-Wright rule's range"):
        mittag_leffler(0.9995, math.nan)


@pytest.mark.parametrize("beta", [1e-7, 0.3, 0.9, 0.999])
def test_kanter_window_equals_full_width_integrand(beta):
    """_kanter_matrix, formed only on each group's window, equals the
    full-width _kanter_integrand exactly, at every node of the rule (those
    that go to Kanter's integral among them), at a node whose window is
    empty and at one whose window is the whole row."""
    log_u0 = specfun._log_u0(beta, m_wright_quad_rule(beta)[0])
    for d, _ in (specfun._kanter_rule(beta, n) for n in specfun._KANTER_NODES):
        # v >= 7 on the whole first row, and v < 7 up to the last cell of
        # the second
        empty, whole = specfun._KANTER_ZERO - d.min(), specfun._KANTER_ZERO - d.max() - 1.0
        for rows in (log_u0, np.array([empty]), np.array([whole])):
            full = specfun._kanter_integrand(d, rows)
            assert specfun._kanter_matrix(d, rows).tobytes() == full.tobytes()
        assert not specfun._kanter_integrand(d, np.array([empty])).any()
        assert specfun._kanter_integrand(d, np.array([whole]))[0, -1] > 0.0


def test_kanter_rules_read_a_nondecreasing_table(monkeypatch):
    """d = log(a/a0) falls within rounding of pi at many beta; every table
    that _kanter_edges hands np.interp is nondecreasing, as np.interp
    requires, over a sweep of beta from BETA_MIN to _BETA_MAX."""
    tables = []

    def interp(x, xp, fp, _interp=np.interp):
        tables.append(np.array(xp))
        return _interp(x, xp, fp)

    monkeypatch.setattr(np, "interp", interp)
    betas = np.concatenate([np.geomspace(specfun.BETA_MIN, 1e-3, 40),
                            np.linspace(1e-3, specfun._BETA_MAX, 40)])
    for beta in betas:
        tables.clear()
        specfun._kanter_edges.__wrapped__(float(beta))
        assert len(tables) == 2
        for xp in tables:
            assert np.all(np.diff(xp) >= 0.0), beta


def test_kanter_edges_equal_the_np_unique_form():
    """_kanter_edges sorts its panel ends and drops repeats itself; the
    edges are bit for bit np.unique's of the same ends at 200 beta from
    BETA_MIN to _BETA_MAX."""
    for beta in np.geomspace(specfun.BETA_MIN, specfun._BETA_MAX, 200):
        beta = float(beta)
        d = specfun._kanter_log_a(beta, specfun._THETA_TABLE) - specfun._log_a0(beta)
        table = np.maximum.accumulate(d)
        grading = np.interp(specfun._KANTER_GRADING, table, specfun._THETA_TABLE)
        ends = np.concatenate([[0.0], np.interp(specfun._KANTER_LEVELS, table, specfun._THETA_TABLE),
                               grading[grading > 0.5 * math.pi], [math.pi]])
        edges, reach = specfun._kanter_edges.__wrapped__(beta)
        assert edges.tobytes() == np.unique(ends).tobytes(), beta
        assert reach == float(d[-1])


@pytest.mark.parametrize("beta", [0.05, 0.3, 0.7, 0.9])
def test_kanter_kernel_matches_adaptive_quad(beta):
    """The array kernel of Kanter's integral against the mpmath series,
    which shares nothing with Kanter's integrand, past the mode and where
    M_beta > 1e-4, with an error of at most 1e-12 of the value."""
    mpmath = pytest.importorskip("mpmath")
    nodes, _, mvals = m_wright_quad_rule(beta)
    tau = nodes[(nodes > 1.25) & (mvals > 1e-4)]
    tau = tau[np.linspace(0, tau.size - 1, 6).astype(int)]
    value, err = specfun._mw_integral(beta, tau)
    ref = [_m_wright_mpmath(mpmath, beta, float(t), float(v)) for t, v in zip(tau, value)]
    np.testing.assert_allclose(value, ref, rtol=1e-9)
    assert np.all(err <= 1e-12 * value)


@pytest.mark.parametrize("beta", [specfun.BETA_MIN, 1e-12, 1e-10, 1e-8, 1e-7, 1e-6]
                         + [k / 20 for k in range(1, 20)] + [0.999])
def test_kanter_fine_and_coarse_rules_agree(beta):
    """At every node of the M-Wright rule that goes to Kanter's integral
    and has a normal value, its fine and coarse theta rules agree within
    1e-12 relative, at small beta too, where the panels are graded toward
    pi; and the fine rule has at most 800 nodes."""
    rules = [specfun._kanter_rule(beta, n) for n in specfun._KANTER_NODES]
    assert rules[0][0].size <= 800
    nodes = m_wright_quad_rule(beta)[0]
    tau = nodes[specfun._mw_values(beta, nodes, errors=False)[2] == 0]
    log_u0 = specfun._log_u0(beta, tau)
    fine, coarse = (specfun._kanter_matrix(d, log_u0) @ w for d, w in rules)
    normal = fine / ((1.0 - beta) * math.pi * tau) >= sys.float_info.min
    assert normal.any()
    gap = np.abs(fine - coarse)[normal]
    assert np.all(gap <= 1e-12 * fine[normal]), (gap / fine[normal]).max()


@pytest.mark.parametrize("beta", [1e-12, 1e-10, 1e-8, 1e-7])
@pytest.mark.parametrize("tau", [16.355, 30.583, 78.209, 200.0])
def test_m_wright_small_beta_within_reported_error_vs_mpmath(beta, tau):
    """Scalar m_wright at small beta, where Kanter's panels near pi are
    graded, within its own reported error of the mpmath series."""
    mpmath = pytest.importorskip("mpmath")
    r = m_wright(beta, tau)
    ref = _m_wright_mpmath(mpmath, beta, tau, r.value)
    assert abs(r.value - ref) <= r.est_abs_error + 1e-12 * ref, (r, ref)


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.8, 0.97])
def test_m_wright_quad_rule_equals_scalar_per_node(beta):
    nodes, _, mvals = m_wright_quad_rule(beta)
    scalar = np.array([m_wright(beta, float(t)).value for t in nodes])
    diff = np.abs(mvals - scalar)
    assert np.all((diff <= 1e-12 * np.abs(scalar)) | (diff <= 1e-300))


def test_m_wright_quad_rule_point_mass_at_beta_one():
    """M_1 is delta(tau - 1): one node 1, weight 1, value 1, shared and
    read-only, built without the cached series rule."""
    misses = specfun._mw_rule_cached.cache_info().misses
    rule = m_wright_quad_rule(1.0)
    assert rule is m_wright_quad_rule(1.0)
    for a in rule:
        assert a.shape == (1,) and a[0] == 1.0 and not a.flags.writeable
    assert specfun._mw_rule_cached.cache_info().misses == misses
    for beta in (0.0, 1.5):
        with pytest.raises(DomainError):
            m_wright_quad_rule(beta)


@pytest.mark.parametrize("beta", [0.25, 0.5])
def test_m_wright_quad_rule_cached_read_only(beta):
    """The cached rule is shared by every caller for its beta, so no caller
    can edit it in place."""
    rule = m_wright_quad_rule(beta)
    again = m_wright_quad_rule(beta)
    assert all(a is b for a, b in zip(rule, again))
    for a in rule:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_m_wright_quad_rule_makes_no_scalar_calls(monkeypatch):
    def refuse(*args):
        raise AssertionError("the rule build called m_wright per node")
    monkeypatch.setattr(specfun, "m_wright", refuse)
    nodes, weights, mvals = specfun._mw_rule_cached.__wrapped__(0.5)
    assert np.all(np.isfinite(mvals))
    assert float(np.dot(weights, mvals)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("beta", [1e-7, 1e-3, 0.05, 0.3, 0.5, 0.8, 0.9, 0.97, 0.999])
def test_m_wright_quad_rule_values_equal_values_with_errors(beta):
    """The rule asks _mw_values for values only, and gets the values and
    term counts, bit for bit, that the call with errors gives, at nodes
    from the series and from Kanter's integral (term count 0) alike."""
    nodes, _, mvals = specfun._mw_rule_cached.__wrapped__(beta)
    value, err, terms = specfun._mw_values(beta, nodes)
    assert mvals.tobytes() == value.tobytes()
    assert np.isfinite(err).all() and (terms == 0).any() and (terms > 0).any()
    lean, no_err, lean_terms = specfun._mw_values(beta, nodes, errors=False)
    assert no_err is None
    assert lean.tobytes() == value.tobytes() and lean_terms.tobytes() == terms.tobytes()


def test_geomspace_equals_numpy():
    """_geomspace is np.geomspace bit for bit, at random ends and lengths
    in _rule_edges' ranges and in the Monte Carlo clock's (build_time_grid:
    from 1e-3 or more to horizons up to 1e12, hundreds of points), and at
    every call _rule_edges makes over a sweep of beta that takes each of
    its three branches."""
    rng = np.random.default_rng(3)
    for _ in range(2000):
        start, stop = 10.0 ** rng.uniform(-14.0, 3.0, 2)
        num = int(rng.integers(2, 70))
        assert specfun._geomspace(start, stop, num).tobytes() == \
            np.geomspace(start, stop, num).tobytes(), (start, stop, num)
    for _ in range(2000):
        start = 10.0 ** rng.uniform(-3.0, 2.0)
        stop = start * 10.0 ** rng.uniform(0.01, 12.0)
        num = int(rng.integers(2, 1500))
        assert specfun._geomspace(start, stop, num).tobytes() == \
            np.geomspace(start, stop, num).tobytes(), (start, stop, num)
    calls = []

    def recorded(start, stop, num, _f=specfun._geomspace):
        calls.append((start, stop, num, _f(start, stop, num)))
        return calls[-1][-1]

    betas = np.concatenate([np.geomspace(1e-7, 0.5, 20), 1.0 - np.geomspace(0.5, 1e-3, 60)])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(specfun, "_geomspace", recorded)
        for beta in betas:
            specfun._rule_edges(float(beta))
    below = specfun._RULE_PANELS - specfun._SPIKE_PANELS
    assert {num for _, _, num, _ in calls} >= {specfun._RULE_PANELS, below,
                                                below - specfun._POLE_PANELS}
    for start, stop, num, out in calls:
        assert out.tobytes() == np.geomspace(start, stop, num).tobytes(), (start, stop, num)


@pytest.mark.parametrize("beta,tau", [(0.5, 0.3), (1e-7, 0.5), (0.9, 0.5), (0.999, 0.2)])
def test_series_m_wright_skips_kanter(monkeypatch, beta, tau):
    """A scalar m_wright that the series finishes makes no call to
    Kanter's integral, whose set-up on empty arrays it used to pay."""
    def refuse(*args):
        raise AssertionError("m_wright called Kanter's integral with no node left")
    expected = m_wright(beta, tau)
    monkeypatch.setattr(specfun, "_mw_integral", refuse)
    got = m_wright(beta, tau)
    assert got.terms_used > 0 and got == expected


def test_series_takes_every_node_routed_to_it(monkeypatch):
    """The routing census: every node that _mw_values routes to the series
    gets a value from it, so none leaves through the cancellation test (nor
    any other exit) for Kanter's integral to take.  Over the rules at
    beta = k/100 and at 10 beta log-spaced down to 1e-300, and over 2000
    lone (beta, tau), tau log-uniform on [1e-3, 50]."""
    betas = [k / 100 for k in range(1, 100)] + np.geomspace(1e-300, 1e-3, 10).tolist()
    values = _series_routed(
        monkeypatch, lambda: [specfun._mw_rule_cached.__wrapped__(b) for b in betas])
    assert values.size > 100 * len(betas)
    assert not np.isnan(values).any()
    rng = np.random.default_rng(45)
    pairs = list(zip(rng.uniform(0.0, specfun._BETA_MAX, 2000).tolist(),
                     np.exp(rng.uniform(math.log(1e-3), math.log(50.0), 2000)).tolist()))
    # Kanter's integral, not under test here, returns zeros at once
    monkeypatch.setattr(specfun, "_mw_integral", lambda beta, tau, errors: (tau * 0.0, None))
    values = _series_routed(
        monkeypatch, lambda: [specfun._mw_values(b, np.array([t]), errors=False) for b, t in pairs])
    assert values.size > 1000
    assert not np.isnan(values).any()


def test_m_wright_underflow_is_zero():
    """M_0.999(5): tau^(1/(1-beta)) = 5^1000 overflows a float, but Kanter's
    integrand u exp(-u) is at most u0 exp(-u0) with log u0 about 1600, so
    the value underflows, and it is 0."""
    assert specfun._log_u0(0.999, 5.0) > 1600.0
    assert m_wright(0.999, 5.0) == specfun.EvalResult(0.0, 0.0, 0)


def test_kanter_log_a_finite_where_powers_underflow():
    """At beta = 0.997021 the textbook form's powers underflow to 0/0 for
    theta <= 0.1; the log form stays at a0 = (1-b) b^(b/(1-b)) ~ 1.098e-3
    there and increases."""
    beta, theta = 0.997021, np.array([1e-6, 1e-3, 1e-2, 0.1])
    with np.errstate(all="ignore"):
        textbook = (np.sin(beta * theta) ** (beta / (1.0 - beta)) * np.sin((1.0 - beta) * theta)
                    / np.sin(theta) ** (1.0 / (1.0 - beta)))
    assert np.all(np.isnan(textbook))
    a = specfun.kanter_a(beta, theta)
    a0 = (1.0 - beta) * beta ** (beta / (1.0 - beta))
    assert np.all(np.isfinite(a)) and np.all(np.diff(a) > 0.0)
    np.testing.assert_allclose(a[:3], [a0, 1.0976e-3, 1.0976e-3], rtol=1e-4)
    assert a[3] == pytest.approx(1.1030e-3, rel=1e-4)


@pytest.mark.parametrize("beta", [np.float64(0.001855027861893177), 0.005])
@pytest.mark.parametrize("s", [0.5, 6.74, 50.0])
def test_mittag_leffler_is_laplace_transform_of_m_wright(beta, s):
    """mittag_leffler is E_beta(-s) = int_0^inf exp(-s tau) M_beta(tau) dtau
    summed over the rule; at small beta, where the rule's far nodes come
    from Kanter's integral, it holds its reported error against the
    mpmath series, which shares nothing with the rule (the closed forms
    at beta = 1/2 and 1/3 are verify laplace's)."""
    mpmath = pytest.importorskip("mpmath")
    r = mittag_leffler(beta, np.float64(-s))
    assert abs(r.value - _mittag_leffler_mpmath(mpmath, float(beta), s)) <= r.est_abs_error


def test_time_kernel_constant_values():
    # (1/alpha) 2^{-1/alpha} pi^{-d/2} Gamma(d/2 - 1/alpha)
    for alpha, d in ((1.5, 3), (2.0, 2), (1.2, 2), (1.0, 3)):
        expected = (2.0 ** (-1.0 / alpha) / alpha * math.pi ** (-0.5 * d)
                    * math.gamma(0.5 * d - 1.0 / alpha))
        assert time_kernel_constant(alpha, d) == pytest.approx(
            expected, rel=1e-15)


def test_time_kernel_constant_requires_decay():
    with pytest.raises(DomainError):
        time_kernel_constant(1.5, 1)


def test_green_constant_brownian_case():
    assert green_constant(1.0, 1.0, 3) == pytest.approx(
        1.0 / (2.0 * math.pi), abs=1e-12)


def test_green_constant_fbm_below_alpha_one():
    """At beta = 1 the process is fBm and d*alpha > 2 is the only condition:
    alpha = 0.8 in d = 3 is admitted, and D is the time-kernel constant."""
    assert ModelParams(1.0, 0.8, 3).green_exists
    assert green_constant(1.0, 0.8, 3) == time_kernel_constant(0.8, 3)


def test_green_constant_reference_value():
    # beta=0.5, alpha=1.5, d=2: C(3/2,2) * Gamma(1/3)/Gamma(2/3)
    c = time_kernel_constant(1.5, 2)
    expected = c * math.gamma(1.0 - 1.0 / 1.5) / math.gamma(1.0 - 0.5 / 1.5)
    assert green_constant(0.5, 1.5, 2) == pytest.approx(expected, rel=1e-14)
    assert green_constant(0.5, 1.5, 2) == pytest.approx(0.7085, abs=5e-5)


def test_verify_constant_checks_see_a_wrong_gamma_ratio(monkeypatch):
    """verify specfun reaches D's moment E[Y^(-1/alpha)] a second way, by
    quadrature of M_beta, so a Gamma ratio 1e-10 off fails all three of its
    constant checks, where reading the ratio on both sides could not fail."""
    def off(beta, delta):
        return math.gamma(delta + 1.0) / math.gamma(beta * delta + 1.0) * (1.0 + 1e-10)

    monkeypatch.setattr(specfun, "m_wright_moment", off)
    monkeypatch.setattr(verify, "m_wright_moment", off)
    checks = [c for c in verify.run_suite("specfun")["checks"]
              if c["anchor"] == "potential-constant-factorization"]
    assert len(checks) == 3 and not any(c["pass"] for c in checks)


def test_green_constant_domain_errors():
    """green_constant raises the message of the one admissibility rule,
    ModelParams.failed_green_constraint, for each rule it can violate."""
    for beta, alpha, d in [
        (1.0, 1.0, 2),   # Brownian case needs d >= 3
        (0.5, 0.9, 3),   # alpha <= 1 with beta < 1
        (1.0, 0.5, 4),   # d*alpha <= 2 for fBm with alpha < 1
        (0.5, 1.5, 1),   # d*alpha <= 2
    ]:
        message = ModelParams(beta, alpha, d).failed_green_constraint()
        assert message is not None
        with pytest.raises(DomainError) as exc:
            green_constant(beta, alpha, d)
        assert str(exc.value) == message
