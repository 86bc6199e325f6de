"""Special function tests against independent closed forms and quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx, gammaln

from ggbm import DomainError, ModelParams, gamma, green_constant, m_wright, \
    m_wright_moment, mittag_leffler, time_kernel_constant
from ggbm import specfun
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


def _mittag_leffler_mpmath(mpmath, beta, x):
    """E_beta(-x) by its series in mpmath at 60 digits.  The terms are
    log-concave in n, so the first shrinking term below 1e-30 of the sum
    ends the sum."""
    with mpmath.workdps(60):
        b, t = mpmath.mpf(beta), mpmath.mpf(x)
        total, power, prev, k = mpmath.mpf(0), mpmath.mpf(1), mpmath.inf, 0
        while True:
            term = power * mpmath.rgamma(b * k + 1)  # power = (-x)^k
            total += term
            if abs(term) < prev and abs(term) < 1e-30 * abs(total):
                return float(total)
            prev, power, k = abs(term), -power * t, k + 1


def test_mittag_leffler_error_bound_vs_mpmath():
    """est_abs_error bounds the error of every series value, including the
    rounding of each term's logarithm, on random (beta, z) with -z
    log-uniform in [0.01, 50] and at (0.6, -4.79)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    betas = np.concatenate([[0.6], rng.uniform(0.05, 0.99, 400)])
    xs = np.concatenate([[4.79], np.exp(rng.uniform(math.log(0.01), math.log(50.0), 400))])
    n_series = 0
    for beta, x in zip(betas.tolist(), xs.tolist()):
        r = mittag_leffler(beta, -x)
        if r.terms_used == 0:  # integral continuation
            continue
        n_series += 1
        assert abs(r.value - _mittag_leffler_mpmath(mpmath, beta, x)) <= r.est_abs_error, \
            (beta, x, r)
    assert mittag_leffler(0.6, -4.79).terms_used > 0
    assert n_series > 200


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
                mom, rel=1e-6)


def test_m_wright_moment_divergent_order():
    with pytest.raises(DomainError):
        m_wright_moment(0.5, -1.0)
    with pytest.raises(DomainError):
        m_wright_moment(0.5, -1.5)


def test_m_wright_quad_rule_integrates_density():
    for beta in (0.002, 0.005, 0.3, 0.5, 0.7):
        nodes, weights, mvals = m_wright_quad_rule(beta)
        assert float(np.dot(weights, mvals)) == pytest.approx(1.0, abs=1e-8)


def _m_wright_mpmath(mpmath, beta, tau, value):
    """M_beta(tau) by its series in mpmath, carrying enough digits to absorb
    the cancellation between the largest term and `value`."""
    n = np.arange(100_000.0)
    log_env = n * math.log(tau) - gammaln(n + 1.0) + gammaln(beta * (n + 1.0))
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


def _no_adaptive_quad(*args):
    raise AssertionError("Kanter's kernel fell back to adaptive quad")


@pytest.mark.parametrize("beta", [0.05, 0.3, 0.7, 0.9])
def test_kanter_kernel_matches_adaptive_quad(monkeypatch, beta):
    """The array kernel of Kanter's integral, with no fallback, against its
    adaptive-quad fallback, past the mode and where M_beta > 1e-4, so that
    the quad's absolute tolerance does not bind."""
    nodes, _, mvals = m_wright_quad_rule(beta)
    tau = nodes[(nodes > 1.25) & (mvals > 1e-4)]
    tau = tau[np.linspace(0, tau.size - 1, 6).astype(int)]
    ref = [specfun._mw_quad(beta, float(t))[0] for t in tau]
    monkeypatch.setattr(specfun, "_mw_quad", _no_adaptive_quad)
    value, err = specfun._mw_integral(beta, tau)
    np.testing.assert_allclose(value, ref, rtol=1e-9)
    assert np.all(err <= 1e-12 * value)


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


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
def test_m_wright_quad_rule_needs_no_adaptive_quad(monkeypatch, beta):
    """The fixed theta rules of Kanter's kernel pass their check at every
    far-tail node of these rules, so the build runs no per-node quad."""
    monkeypatch.setattr(specfun, "_mw_quad", _no_adaptive_quad)
    nodes, weights, mvals = specfun._mw_rule_cached.__wrapped__(beta)
    assert np.all(np.isfinite(mvals))
    assert float(np.dot(weights, mvals)) == pytest.approx(1.0, abs=1e-8)


def test_m_wright_overflow_is_convergence_error():
    # tau^(1/(1-beta)) = 5^1000 overflows a float
    with pytest.raises(ConvergenceError):
        m_wright(0.999, 5.0)


@pytest.mark.parametrize("beta", [np.float64(0.001855027861893177), 0.005])
@pytest.mark.parametrize("s", [0.5, 6.74, 50.0])
def test_mittag_leffler_is_laplace_transform_of_m_wright(beta, s):
    # E_beta(-s) = int_0^inf exp(-s tau) M_beta(tau) dtau at small beta,
    # where both functions reach their integral continuations
    nodes, weights, mvals = m_wright_quad_rule(beta)
    laplace = float(np.dot(weights, np.exp(-s * nodes) * mvals))
    assert abs(mittag_leffler(beta, np.float64(-s)).value - laplace) <= 1e-6


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


def test_green_constant_reference_value():
    # beta=0.5, alpha=1.5, d=2: C(3/2,2) * Gamma(1/3)/Gamma(2/3)
    c = time_kernel_constant(1.5, 2)
    expected = c * math.gamma(1.0 - 1.0 / 1.5) / math.gamma(1.0 - 0.5 / 1.5)
    assert green_constant(0.5, 1.5, 2) == pytest.approx(expected, rel=1e-14)
    assert green_constant(0.5, 1.5, 2) == pytest.approx(0.7085, abs=5e-5)


def test_green_constant_domain_errors():
    """green_constant raises the message of the one admissibility rule,
    ModelParams.failed_green_constraint, for each rule it can violate."""
    for beta, alpha, d in [
        (1.0, 1.0, 2),   # Brownian case needs d >= 3
        (0.5, 0.9, 3),   # alpha <= 1 with beta < 1
        (1.0, 0.5, 8),   # alpha <= 1 off the Brownian point
        (0.5, 1.5, 1),   # d*alpha <= 2
    ]:
        message = ModelParams(beta, alpha, d).failed_green_constraint()
        assert message is not None
        with pytest.raises(DomainError) as exc:
            green_constant(beta, alpha, d)
        assert str(exc.value) == message
