"""Tests for the Green density, potentials and ball measures."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import gammaincc

from ggbm import DomainError, GreenDensity, ModelParams, \
    bump_test_function, continuity_constant, gaussian_test_function, \
    green_density_at, green_measure_of_ball, potential, tail_bound, \
    time_integral_kernel
from ggbm import green
from ggbm.green import _TAIL_MASS, _sphere_rule, unit_sphere_area
from ggbm.specfun import green_constant


def gaussian_center_potential(gd, sigma):
    """Closed form of the potential of a unit-amplitude Gaussian at its
    center: D * area(S^{d-1}) * 2^{1/alpha - 1} Gamma(1/alpha) sigma^{2/alpha}.
    """
    alpha, d = gd.params.alpha, gd.params.dim
    return (gd.D * unit_sphere_area(d) * 2.0 ** (1.0 / alpha - 1.0)
            * math.gamma(1.0 / alpha) * sigma ** (2.0 / alpha))


def test_unit_sphere_area():
    assert unit_sphere_area(1) == pytest.approx(2.0, rel=1e-15)
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_gaussian_test_function_norms():
    f = gaussian_test_function(2.0, 3)
    assert f.sup_norm == 1.0
    assert f.l1_norm == pytest.approx((2.0 * math.pi * 4.0) ** 1.5, rel=1e-14)
    assert f(np.zeros(3)) == pytest.approx(1.0)
    # the mass outside the reach, by radial quadrature of the profile
    outside, _ = quad(lambda r: 4.0 * math.pi * r * r * math.exp(-r * r / 8.0),
                      f.reach, np.inf, epsabs=0.0, epsrel=1e-10)
    assert 0.5 * _TAIL_MASS <= outside <= _TAIL_MASS * (1.0 + 1e-8)


@pytest.mark.parametrize("sigma", [0.05, 1.0, 7.0])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("amplitude", [1e-9, 1.0, 1e4])
def test_gaussian_reach_leaves_tail_mass(sigma, d, amplitude):
    """Outside the reach the L1 mass is at most _TAIL_MASS (up to the
    rounding of gammainccinv and gammaincc) and at least half of it."""
    f = gaussian_test_function(sigma, d, amplitude=amplitude)
    outside = f.l1_norm * gammaincc(0.5 * d, 0.5 * (f.reach / sigma) ** 2)
    assert 0.5 * _TAIL_MASS <= outside <= _TAIL_MASS * (1.0 + 1e-12)


def test_gaussian_reach_zero_below_tail_mass():
    # all of the L1 mass fits under _TAIL_MASS, so nothing needs a reach
    sigma, d = 0.5, 3
    amplitude = 0.75 * _TAIL_MASS / (2.0 * math.pi * sigma * sigma) ** 1.5
    f = gaussian_test_function(sigma, d, amplitude=amplitude)
    assert f.reach == 0.0
    assert 0.5 * _TAIL_MASS <= f.l1_norm <= _TAIL_MASS
    assert potential(GreenDensity.from_params(ModelParams(0.5, 1.5, d)),
                     f, np.zeros(d)) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_eval_matches_reference_expression(d):
    """The in-place evaluator gives the bits of the one-line expression, on
    C-contiguous points and on a component-major (strided) view."""
    sigma, amplitude = 0.7, 2.5
    c = np.linspace(-0.3, 0.4, d)
    f = gaussian_test_function(sigma, d, center=c, amplitude=amplitude)
    planes = 1.5 * np.random.default_rng(5).standard_normal((d, 1000))
    for pts in (np.ascontiguousarray(planes.T), planes.T):
        ref = amplitude * np.exp(-0.5 * np.sum((pts - c) ** 2, axis=-1) / (sigma * sigma))
        assert np.array_equal(f.eval_many(pts), ref)


def test_bump_test_function_support():
    f = bump_test_function(1.5, 2)
    assert f(np.zeros(2)) == pytest.approx(1.0)
    assert f(np.array([2.0, 0.0])) == 0.0
    assert f.reach == 1.5
    assert f(np.array([1.5, 0.0])) == 0.0  # the support ends at the reach
    # L1 norm agrees with direct radial quadrature
    val, _ = quad(
        lambda r: f(np.array([r, 0.0])) * 2.0 * math.pi * r, 0.0, 1.5)
    assert f.l1_norm == pytest.approx(val, rel=1e-8)


@pytest.mark.parametrize("make_f", [gaussian_test_function, bump_test_function],
                         ids=["gaussian", "bump"])
def test_signed_test_function_norms(make_f):
    """sup_norm and l1_norm are the norms of |f|: amplitude -1 gives the
    norms, reach and tail bound of amplitude 1 and the negated potential;
    amplitude 0 gives V = 0 and a zero tail.  No warning is raised."""
    params = ModelParams(0.5, 1.5, 3)
    gd = GreenDensity.from_params(params)
    x = np.zeros(3)
    pos, neg, zero = (make_f(1.0, 3, amplitude=a) for a in (1.0, -1.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (neg.sup_norm, neg.l1_norm, neg.reach) == (pos.sup_norm, pos.l1_norm, pos.reach)
        assert potential(gd, neg, x) == pytest.approx(-potential(gd, pos, x), rel=1e-12)
        assert tail_bound(params, neg, 50.0) == tail_bound(params, pos, 50.0) > 0.0
        assert potential(gd, zero, x) == 0.0
        assert tail_bound(params, zero, 50.0) == 0.0


def test_green_density_values():
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 3))
    r = 2.0
    expected = green_constant(0.5, 1.5, 3) * r ** (2.0 / 1.5 - 3.0)
    assert green_density_at(gd, np.zeros(3), np.array([2.0, 0.0, 0.0])) == \
        pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        green_density_at(gd, np.zeros(3), np.zeros(3))


def test_green_density_requires_transience():
    with pytest.raises(DomainError):
        GreenDensity.from_params(ModelParams(0.5, 1.5, 1))


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("tau", [0.5, 2.0])
def test_time_integral_kernel_vs_quadrature(alpha, d, tau):
    if d * alpha <= 2.0:
        pytest.skip("transient regime only")
    r = 1.3

    def integrand(t):
        v = t ** alpha * tau
        return (2.0 * math.pi * v) ** (-0.5 * d) * math.exp(-0.5 * r * r / v)

    num, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11,
                  limit=300)
    assert time_integral_kernel(alpha, d, tau, r) == pytest.approx(
        num, rel=1e-8)


@pytest.mark.parametrize("beta,alpha,d", [(0.5, 1.5, 3), (0.8, 1.2, 2),
                                          (0.9, 2.0, 2), (1.0, 1.0, 3)])
def test_potential_gaussian_center_closed_form(beta, alpha, d):
    gd = GreenDensity.from_params(ModelParams(beta, alpha, d))
    for sigma in (0.7, 1.0):
        f = gaussian_test_function(sigma, d)
        v = potential(gd, f, np.zeros(d))
        assert v == pytest.approx(gaussian_center_potential(gd, sigma),
                                  rel=1e-8)


def test_potential_translation_invariance():
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 3))
    shift = np.array([0.4, -0.2, 0.1])
    f = gaussian_test_function(1.0, 3)
    f_shift = gaussian_test_function(1.0, 3, center=shift)
    v0 = potential(gd, f, np.zeros(3))
    v1 = potential(gd, f_shift, shift)
    assert v1 == pytest.approx(v0, rel=1e-9)


def test_potential_off_center_vs_time_integral():
    # Brownian case: V(f, x) = int_0^inf E[f(x + B_t)] dt with the Gaussian
    # mean in closed form, an oracle independent of the radial quadrature
    gd = GreenDensity.from_params(ModelParams(1.0, 1.0, 3))
    sigma = 1.0
    f = gaussian_test_function(sigma, 3)
    x = np.array([0.8, 0.0, 0.0])
    v = potential(gd, f, x)
    s2 = float(np.dot(x, x))

    def mean_at_t(t):
        var = sigma * sigma + t
        return (sigma * sigma / var) ** 1.5 * math.exp(-0.5 * s2 / var)

    direct, _ = quad(mean_at_t, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11,
                     limit=300)
    assert v == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("d,m", [(1, 0), (2, 24), (3, 48)])
def test_sphere_rule_cached_read_only(d, m):
    nodes, w = _sphere_rule(d, m)
    assert _sphere_rule(d, m)[0] is nodes
    assert not nodes.flags.writeable and not w.flags.writeable
    fresh_nodes, fresh_w = _sphere_rule.__wrapped__(d, m)
    assert np.array_equal(nodes, fresh_nodes) and np.array_equal(w, fresh_w)
    assert math.isclose(w.sum(), unit_sphere_area(d), rel_tol=1e-12)


@pytest.mark.parametrize("d,x", [(2, [0.7, -0.3]), (3, [0.4, 0.2, -0.5])])
def test_potential_same_with_cached_rules(d, x, monkeypatch):
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, d))
    f = gaussian_test_function(1.0, d)
    first = potential(gd, f, x)
    assert potential(gd, f, x) == first
    monkeypatch.setattr(green, "_sphere_rule", _sphere_rule.__wrapped__)
    assert potential(gd, f, x) == first


def test_potential_positive_and_decaying():
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 3))
    f = gaussian_test_function(1.0, 3)
    vals = [potential(gd, f, np.array([s, 0.0, 0.0])) for s in (0.0, 1.0, 3.0)]
    assert all(v > 0.0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


def test_continuity_bound_over_gaussian_family():
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 3))
    K = continuity_constant(gd)
    rng = np.random.default_rng(0)
    for _ in range(10):
        sigma = float(rng.uniform(0.3, 2.0))
        amp = float(rng.uniform(0.2, 3.0))
        center = rng.uniform(-1.0, 1.0, 3)
        f = gaussian_test_function(sigma, 3, center=center, amplitude=amp)
        v = potential(gd, f, np.zeros(3))
        assert abs(v) <= K * f.cl_norm


def test_green_measure_ball_concentric():
    gd = GreenDensity.from_params(ModelParams(1.0, 1.0, 3))
    # classical Bm: G(B(x, r)) = 2 pi r^2 / (2 pi) * ... = r^2 / 2 * 4 pi D
    r = 1.0
    expected = gd.D * 4.0 * math.pi * 0.5 * r ** 2
    assert green_measure_of_ball(gd, np.zeros(3), np.zeros(3), r) == \
        pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.0, rel=1e-12)


def test_green_measure_ball_off_center_vs_cubature():
    # d = 2: integrate the kernel over the disk in polar coordinates
    # centered at the disk center, a smooth 2-D integrand
    gd = GreenDensity.from_params(ModelParams(0.8, 1.2, 2))
    x = np.array([0.5, 0.0])
    c = np.array([1.5, 0.0])
    r = 0.6
    val = green_measure_of_ball(gd, x, c, r)
    expo = 2.0 / 1.2 - 2.0

    def integrand(theta, s):
        y = c + s * np.array([math.cos(theta), math.sin(theta)])
        return s * float(np.linalg.norm(y - x)) ** expo

    direct, _ = dblquad(integrand, 0.0, r, 0.0, 2.0 * math.pi,
                        epsabs=1e-10, epsrel=1e-9)
    assert val == pytest.approx(gd.D * direct, rel=1e-6)


def test_green_measure_ball_far_apart_vs_density():
    # ball far from x: measure ~ density at center times ball volume
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 3))
    x = np.zeros(3)
    c = np.array([10.0, 0.0, 0.0])
    r = 0.05
    vol = 4.0 / 3.0 * math.pi * r ** 3
    approx = green_density_at(gd, x, c) * vol
    val = green_measure_of_ball(gd, x, c, r)
    assert val == pytest.approx(approx, rel=1e-3)


def test_green_measure_ball_monotone_in_radius():
    gd = GreenDensity.from_params(ModelParams(0.8, 1.2, 2))
    x = np.array([0.3, 0.3])
    c = np.zeros(2)
    vals = [green_measure_of_ball(gd, x, c, r) for r in (0.2, 0.5, 1.0)]
    assert vals[0] < vals[1] < vals[2]
