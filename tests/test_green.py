"""Tests for the Green density, potentials and ball measures."""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import gammaincc, hyp1f1, hyp2f1

from ggbm import ConvergenceError, DomainError, GreenDensity, ModelParams, \
    PerpetualSpec, SeedSpec, bump_test_function, continuity_constant, \
    estimate_potential_mc, gaussian_test_function, green_density_at, \
    green_measure_of_ball, potential, tail_bound, time_integral_kernel
from ggbm import green
from ggbm.montecarlo import exact_gaussian_moments
from ggbm.green import _TAIL_MASS, unit_sphere_area
from ggbm.specfun import green_constant


def gaussian_center_potential(gd, sigma):
    """Closed form of the potential of a unit-amplitude Gaussian at its
    center: D * area(S^{d-1}) * 2^{1/alpha - 1} Gamma(1/alpha) sigma^{2/alpha}.
    """
    alpha, d = gd.params.alpha, gd.params.dim
    return (gd.D * unit_sphere_area(d) * 2.0 ** (1.0 / alpha - 1.0)
            * math.gamma(1.0 / alpha) * sigma ** (2.0 / alpha))


def by_quadrature(f):
    """f without the Gaussian fact, so its potential goes through the radial
    quadrature."""
    return dataclasses.replace(f, gaussian=False)


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
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, d))
    # the quadrature stops at the reach; the closed form keeps the tiny value
    assert potential(gd, by_quadrature(f), np.zeros(d)) == 0.0
    assert potential(gd, f, np.zeros(d)) == pytest.approx(
        amplitude * gaussian_center_potential(gd, sigma), rel=1e-12)


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


def _direct_test_function(scale, dim, center):
    return green.TestFunction(eval_many=lambda pts: np.ones(len(pts)), sup_norm=1.0, l1_norm=1.0,
                              dim=dim, reach=scale, center=center)


@pytest.mark.parametrize("make_f", [gaussian_test_function, bump_test_function,
                                    _direct_test_function], ids=["gaussian", "bump", "direct"])
@pytest.mark.parametrize("center", [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [5.0],
                                    np.zeros((1, 3))], ids=["nan", "inf", "short", "2-d"])
def test_test_function_center_is_a_finite_point(make_f, center):
    """A centre that is not finite, or not of shape (dim,), is refused when
    f is built, not broadcast or carried into a nan or zero potential."""
    with pytest.raises(DomainError, match="finite in dim 3"):
        make_f(1.0, 3, center=center)


@pytest.mark.parametrize("reach", [math.nan, -1.0, math.inf])
def test_test_function_reach_is_not_negative(reach):
    """A reach that is nan, negative or infinite is refused when f is
    built, not carried into the radial quadrature's bounds."""
    with pytest.raises(DomainError, match="reach"):
        dataclasses.replace(bump_test_function(1.0, 3), reach=reach)


@pytest.mark.parametrize("make", [lambda: gaussian_test_function(1e160, 3),
                                  lambda: gaussian_test_function(1e120, 3),
                                  lambda: gaussian_test_function(1.0, 3, amplitude=1e308),
                                  lambda: bump_test_function(1e150, 3)],
                         ids=["gaussian-spread", "gaussian-pow", "gaussian-amplitude", "bump"])
def test_factory_whose_l1_norm_overflows_is_domain_error(make):
    """A test function whose L1 norm overflows a float is refused by name,
    not declared with an inf norm (which made tail_bound NaN) nor raised as
    Python's OverflowError."""
    with pytest.raises(DomainError, match="l1_norm must be finite"):
        make()


@pytest.mark.parametrize("fact", ["sup_norm", "l1_norm", "spread"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_test_function_norms_and_spread_are_finite(fact, value):
    """Each declared norm and the spread is finite and >= 0, as the reach
    is."""
    with pytest.raises(DomainError, match=f"{fact} must be finite"):
        dataclasses.replace(gaussian_test_function(1.0, 3), **{fact: value})


def test_green_measure_of_ball_that_overflows_is_domain_error():
    """r^(2/alpha) past the float range names the overflow, where Python
    raised OverflowError."""
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 3))
    with pytest.raises(DomainError, match="overflows a float"):
        green_measure_of_ball(gd, np.zeros(3), np.zeros(3), 1e300)


@pytest.mark.parametrize("make_f", [gaussian_test_function, bump_test_function],
                         ids=["gaussian", "bump"])
@pytest.mark.parametrize("scale,amplitude", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                             (1.0, math.inf)])
def test_factory_scale_and_amplitude_are_finite(make_f, scale, amplitude):
    """A scale that is not positive and finite, or an amplitude that is not
    finite, is refused, not carried into a nan or a ZeroDivisionError."""
    with pytest.raises(DomainError, match="positive and finite"):
        make_f(scale, 3, amplitude=amplitude)


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


@pytest.mark.parametrize("beta,alpha,d", [(1.0, 1.2, 4), (1.0, 1.8, 4),
                                          (1.0, 1.5, 5)])
@pytest.mark.parametrize("offset", [0.0, 1.3])
def test_gaussian_potential_vs_time_integral_high_dim(beta, alpha, d, offset):
    """At beta = 1, V(f, x) = int_0^inf E f(x + B^H_t) dt with Var B^H_t = t^alpha
    and the Gaussian mean in closed form: one quad, independent of both the
    closed form and the radial quadrature."""
    gd = GreenDensity.from_params(ModelParams(beta, alpha, d))
    sigma = 0.8
    c = np.linspace(-0.2, 0.3, d)
    x = c + offset * np.ones(d) / math.sqrt(d)
    v = potential(gd, gaussian_test_function(sigma, d, center=c), x)

    def mean_at_t(t):
        var = sigma * sigma + t ** alpha
        return (sigma * sigma / var) ** (0.5 * d) * math.exp(-0.5 * offset ** 2 / var)

    direct, _ = quad(mean_at_t, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=300)
    assert v == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gaussian_potential_exact_in_amplitude_sign(d):
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, d))
    c, x = np.full(d, 0.3), np.full(d, -0.4)
    pos, neg, zero = (gaussian_test_function(0.9, d, center=c, amplitude=a)
                      for a in (2.0, -2.0, 0.0))
    assert potential(gd, pos, x) > 0.0
    assert potential(gd, neg, x) == -potential(gd, pos, x)
    assert potential(gd, zero, x) == 0.0


def test_gaussian_fact_survives_replace_and_needs_spread():
    f = gaussian_test_function(1.0, 3)
    traced = dataclasses.replace(f, eval_many=lambda pts: f.eval_many(pts))
    assert traced.gaussian
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 3))
    assert potential(gd, traced, np.ones(3)) == potential(gd, f, np.ones(3))
    with pytest.raises(DomainError):
        dataclasses.replace(f, spread=0.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_potential_refuses_non_radial_f(d):
    """An f declared neither Gaussian nor radial has no potential, in any d;
    the bump has a finite, positive one in d = 4 as in d = 2, 3."""
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, d))
    bump = bump_test_function(1.0, d)
    for f in (dataclasses.replace(bump, radial=False),
              dataclasses.replace(gaussian_test_function(1.0, d), gaussian=False, radial=False)):
        with pytest.raises(DomainError, match="Gaussian or radial"):
            potential(gd, f, np.zeros(d))
    for x in (np.zeros(d), np.full(d, 2.0)):
        v = potential(gd, bump, x)
        assert math.isfinite(v) and v > 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("distance", [0.8, 5.0, 20.0, 50.0, 200.0])
def test_potential_quadrature_matches_gaussian_closed_form(d, distance):
    """The radial quadrature on a Gaussian against its 1F1 closed form, near
    and far, at alpha = 1.5, 1 and 2 wherever d alpha > 2."""
    f = gaussian_test_function(1.0, d, center=np.resize([0.5, 1.5, 3.0], d))
    x = f.center + distance * np.ones(d) / math.sqrt(d)
    for beta, alpha in ((0.5, 1.5), (1.0, 1.0), (0.5, 2.0)):
        if d * alpha <= 2.0:
            continue
        gd = GreenDensity.from_params(ModelParams(beta, alpha, d))
        assert potential(gd, by_quadrature(f), x) == pytest.approx(potential(gd, f, x),
                                                                   rel=1e-10)


def bump_radial_oracle(gd, distance):
    """V of the radius-1 unit bump from x at |x - c| = distance, as one radial
    quad over the bump's profile: V = D int_0^1 f(rho) rho^(d-1) A(rho) drho,
    with A(rho) the integral of |x - y|^(-p) over the sphere |y - c| = rho in
    closed form.  In d = 3, A = 2 pi ((s + rho)^q - |s - rho|^q) / (s rho q)
    with q = 2 - p; in d = 2, A = 2 pi (s^2 + rho^2)^(-q)
    2F1(q/2, q/2 + 1/2; 1; (2 s rho / (s^2 + rho^2))^2) with q = p/2; at s = 0
    both are area(S^(d-1)) rho^(-p).
    """
    d, p, s = gd.params.dim, gd.exponent, distance

    def sphere(rho):
        if s == 0.0:
            return unit_sphere_area(d) * rho ** (-p)
        if d == 3:
            q = 2.0 - p
            return 2.0 * math.pi * ((s + rho) ** q - abs(s - rho) ** q) / (s * rho * q)
        q = 0.5 * p
        a = s * s + rho * rho
        return 2.0 * math.pi * a ** (-q) * hyp2f1(0.5 * q, 0.5 * q + 0.5, 1.0,
                                                    (2.0 * s * rho / a) ** 2)

    def shell(rho):
        return math.exp(1.0 - 1.0 / (1.0 - rho * rho)) * rho ** (d - 1) * sphere(rho)

    radial, _ = quad(shell, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200,
                     points=[s] if 0.0 < s < 1.0 else None)
    return gd.D * radial


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("distance", [0.0, 0.5, 0.99, 3.0, 10.0, 30.0])
def test_potential_bump_vs_radial_oracle(d, distance):
    """alpha = 1.5, from x at the center, inside the reach and outside it."""
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, d))
    c = np.array([0.5, 1.5, 3.0][:d])
    f = bump_test_function(1.0, d, center=c)
    direction = np.array([0.6, -0.8]) if d == 2 else np.array([0.6, 0.0, -0.8])
    x = c + distance * direction
    assert potential(gd, f, x) == pytest.approx(bump_radial_oracle(gd, distance),
                                                rel=1e-12)


def test_potential_quadrature_raises_when_it_does_not_converge():
    """A radial profile that flips sign about 1e5 times inside its reach
    raises instead of returning the quadrature's last value."""
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 3))
    def flips(pts):
        return np.sign(np.sin(1e5 * np.linalg.norm(pts, axis=-1)))

    f = green.TestFunction(eval_many=flips, sup_norm=1.0, l1_norm=unit_sphere_area(3) / 3.0,
                           dim=3, reach=1.0, radial=True)
    for x in (np.zeros(3), np.array([0.5, 0.0, 0.0])):
        with pytest.raises(ConvergenceError):
            potential(gd, f, x)


@pytest.mark.parametrize("beta,alpha,d", [(0.5, 1.5, 4), (0.5, 1.5, 5), (0.5, 1.5, 8),
                                          (0.5, 2.0, 4), (0.7, 1.8, 5), (1.0, 0.5, 8)])
@pytest.mark.parametrize("distance", [0.0, 0.5, 0.99, 1.5, 10.0])
def test_potential_bump_vs_layer_cake(beta, alpha, d, distance):
    """The bump is the layer cake f = int_0^1 (-phi'(rho)) 1{|y - c| < rho}
    drho, so V(f, x) = int_0^1 (-phi'(rho)) G(x; c, rho) drho with G the ball
    measure in closed form: other 2F1 parameters, integrated against phi'."""
    gd = GreenDensity.from_params(ModelParams(beta, alpha, d))
    c = np.linspace(-1.0, 1.0, d)
    x = c.copy()
    x[-1] += distance

    def layer(rho):
        slope = 2.0 * rho / (1.0 - rho * rho) ** 2 * math.exp(1.0 - 1.0 / (1.0 - rho * rho))
        return slope * green_measure_of_ball(gd, x, c, rho)

    ref, _ = quad(layer, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200,
                  points=[distance] if 0.0 < distance < 1.0 else None)
    assert potential(gd, bump_test_function(1.0, d, center=c), x) == pytest.approx(
        ref, rel=1e-12)


@pytest.mark.parametrize("amplitude", [1e-9, 1e-6, 1e3])
def test_potential_quadrature_scales_with_amplitude(amplitude):
    """The quadrature's tolerance is relative only, so V(A f) / A is V(f)
    for a small amplitude as for a large one."""
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 2))
    x = np.array([3.0, 3.0])
    unit = potential(gd, bump_test_function(1.0, 2), x)
    scaled = potential(gd, bump_test_function(1.0, 2, amplitude=amplitude), x)
    assert scaled / amplitude == pytest.approx(unit, rel=1e-9)


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


@pytest.mark.parametrize("beta,alpha,d", [(0.5, 1.5, 4), (0.7, 1.8, 5)])
def test_green_measure_ball_off_center_tends_to_concentric(beta, alpha, d):
    gd = GreenDensity.from_params(ModelParams(beta, alpha, d))
    concentric = green_measure_of_ball(gd, np.zeros(d), np.zeros(d), 1.0)
    assert concentric == pytest.approx(gd.D * unit_sphere_area(d) * 0.5 * alpha, rel=1e-14)
    for offset in (1e-1, 1e-2, 1e-3, 1e-4):
        x = np.zeros(d)
        x[-1] = offset
        # the measure is even in the offset, so it moves by O(offset^2)
        assert abs(green_measure_of_ball(gd, x, np.zeros(d), 1.0) / concentric - 1.0) \
            <= offset ** 2


def test_green_measure_ball_monotone_in_radius():
    gd = GreenDensity.from_params(ModelParams(0.8, 1.2, 2))
    x = np.array([0.3, 0.3])
    c = np.zeros(2)
    vals = [green_measure_of_ball(gd, x, c, r) for r in (0.2, 0.5, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def ball_measure_mpmath(alpha, d, s, r):
    """int over B(c, r) of |x - y|^(-p) dy / area(S^(d-1)), |x - c| = s, at
    40 digits: the kernel's mean over the sphere |y - c| = rho,
    max(s, rho)^(-p) 2F1(p/2, p/2 - d/2 + 1; d/2; (min/max)^2), integrated
    numerically in rho, split at rho = s.  Below the split v = (rho/m)^d,
    m = min(s, r), takes rho^(d-1) out; above it w = rho^(2/alpha) takes
    out rho^(2/alpha - 1).  For alpha < 2 only: at alpha = 2 the sphere
    mean is log-singular at rho = s."""
    with mp.workdps(40):
        alpha, s, r = mp.mpf(alpha), mp.mpf(s), mp.mpf(r)
        p, h = d - 2 / alpha, mp.mpf(d) / 2

        def mean(rho):
            lo, hi = min(s, rho), max(s, rho)
            return hi ** (-p) * mp.hyp2f1(p / 2, p / 2 - h + 1, h, (lo / hi) ** 2)

        m = min(s, r)
        total = m ** d / d * mp.quad(lambda v: mean(m * v ** (mp.mpf(1) / d)), [0, 1])
        if s < r:
            def shell(w):
                rho = w ** (alpha / 2)
                return mean(rho) * rho ** p
            total += alpha / 2 * mp.quad(shell, [s ** (2 / alpha), r ** (2 / alpha)])
        return float(total)


@pytest.mark.parametrize("beta,alpha,d,s_over_r,r", [
    (0.5, 1.5, 3, 0.3, 1.0), (0.5, 1.5, 3, 2.0, 1.0), (0.8, 1.2, 2, 1.0, 0.6),
    (0.5, 1.5, 30, 1.0 - 1e-9, 1.0), (0.5, 1.5, 30, 1.0 + 1e-9, 1.0),
    (1.0, 0.3, 8, 1e-4, 20.0), (0.7, 1.9, 4, 500.0, 2.0), (1.0, 0.5, 5, 0.999, 0.01)])
def test_green_measure_ball_vs_mpmath_sphere_means(beta, alpha, d, s_over_r, r):
    """The closed form against the radial integral of the kernel's sphere
    means, inside, on and outside the sphere, up to d = 30."""
    gd = GreenDensity.from_params(ModelParams(beta, alpha, d))
    c = np.linspace(-1.0, 1.0, d)
    x = c.copy()
    x[0] += s_over_r * r
    ref = gd.D * unit_sphere_area(d) * ball_measure_mpmath(alpha, d, s_over_r * r, r)
    assert green_measure_of_ball(gd, x, c, r) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [1.0 - 1e-7, 1.0 + 1e-7, 1.0 - 1e-9])
def test_green_measure_ball_at_its_sphere_vs_chord_integral(s):
    """At (0.9, 2.0, 2) the kernel is 1/|x - y|, so in polar coordinates
    around x the measure is D times the integral over the direction phi of
    the length R(phi) of the ray's chord through the unit disk."""
    gd = GreenDensity.from_params(ModelParams(0.9, 2.0, 2))
    with mp.workdps(30):
        sm = mp.mpf(s)
        if s < 1.0:
            chords = mp.quad(lambda phi: mp.sqrt(1 - (sm * mp.sin(phi)) ** 2) - sm * mp.cos(phi),
                             [0, mp.pi / 2, mp.pi, 3 * mp.pi / 2, 2 * mp.pi])
        else:
            edge = mp.asin(1 / sm)
            chords = mp.quad(lambda phi: 2 * mp.sqrt(1 - (sm * mp.sin(phi)) ** 2), [-edge, 0, edge])
    val = green_measure_of_ball(gd, np.array([s, 0.0]), np.zeros(2), 1.0)
    assert val == pytest.approx(gd.D * float(chords), rel=1e-13, abs=0.0)


def test_green_ball_and_density_validate_their_inputs():
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 3))
    x, c = np.zeros(3), np.ones(3)
    for bad in (np.zeros(2), np.zeros((1, 3)), np.zeros(4), np.array([0.0, math.nan, 0.0]),
                np.array([math.inf, 0.0, 0.0])):
        with pytest.raises(DomainError):
            green_measure_of_ball(gd, bad, c, 1.0)
        with pytest.raises(DomainError):
            green_measure_of_ball(gd, x, bad, 1.0)
        with pytest.raises(DomainError):
            green_density_at(gd, bad, c)
        with pytest.raises(DomainError):
            green_density_at(gd, x, bad)
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            green_measure_of_ball(gd, x, c, r)


# ---------------------------------------------------------------------------
# Far and near points, and the Kummer function the Gaussian's potential uses
# ---------------------------------------------------------------------------

CENSUS_TRIPLES = [(0.5, 1.5, 3), (0.8, 1.2, 2), (0.9, 2.0, 2), (1.0, 1.0, 3), (0.5, 1.01, 2)]
CENSUS_OFFSETS = [1e-170, 1e-160, 1e4, 1e8, 1e20, 1e100, 1e150, 1e154, 1e200, 1e300]


@pytest.mark.parametrize("triple", CENSUS_TRIPLES, ids=lambda t: "-".join(map(str, t)))
def test_far_and_near_census(triple):
    """At x = offset e_1 from the centre of a unit Gaussian and of a
    radius-1 bump, every entry point returns a finite value >= 0, with no
    warning: potential, estimate_potential_mc and exact_gaussian_moments up
    to 1e150 from the centre, where they take x, and green_density_at,
    green_measure_of_ball and time_integral_kernel at every offset.  From
    1e154 on, past green._FAR, the first three raise DomainError.  Before,
    the Gaussian's potential and its estimate were NaN from 1e8 on at
    (0.5, 1.01, 2), and every entry point warned past 1e154."""
    params = ModelParams(*triple)
    d, gd = params.dim, GreenDensity.from_params(params)
    gauss, bump = gaussian_test_function(1.0, d), bump_test_function(1.0, d)
    spec = PerpetualSpec(50.0, 256, SeedSpec(0, 0))
    origin = np.zeros(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for offset in CENSUS_OFFSETS:
            x = origin.copy()
            x[0] = offset
            gated = [lambda: potential(gd, gauss, x), lambda: potential(gd, bump, x),
                     lambda: estimate_potential_mc(params, gauss, x, spec).mean,
                     lambda: estimate_potential_mc(params, bump, x, spec).mean,
                     lambda: exact_gaussian_moments(params, gauss, x, spec)[0]]
            for call in gated:
                if offset > green._FAR:
                    with pytest.raises(DomainError, match="must be at most"):
                        call()
                else:
                    value = call()
                    assert math.isfinite(value) and value >= 0.0, (offset, value)
            for value in (green_density_at(gd, x, origin),
                          green_measure_of_ball(gd, x, origin, 1.0),
                          time_integral_kernel(params.alpha, d, 1.0, offset)):
                assert math.isfinite(value) and value >= 0.0, (offset, value)


@pytest.mark.parametrize("offset", [1e8, 1e20, 1e100])
def test_gaussian_potential_far_out_near_the_boundary_vs_mpmath(offset):
    """At (0.5, 1.01, 2), d alpha = 2.02 next to the paper's boundary
    d alpha = 2, the Gaussian's potential far from its centre holds 1e-12
    against the closed form D (2 pi s)^(d/2) (2 s)^(-p/2) Gamma(1/alpha) /
    Gamma(d/2) 1F1(p/2; d/2; -z), z = |x - c|^2 / (2 s), summed by mpmath;
    scipy's 1F1 alone was NaN there."""
    params = ModelParams(0.5, 1.01, 2)
    gd = GreenDensity.from_params(params)
    sigma = 0.8
    f = gaussian_test_function(sigma, 2, center=np.array([0.25, -1.0]))
    x = f.center + offset * np.array([0.6, 0.8])
    with mp.workdps(40):
        alpha, s, r = mp.mpf(params.alpha), mp.mpf(sigma) ** 2, mp.mpf(offset)
        p = 2 - 2 / alpha
        exact = ((2 * mp.pi * s) * (2 * s) ** (-p / 2) * mp.gamma(1 / alpha)
                 * mp.hyp1f1(p / 2, 1, -r * r / (2 * s)))
    assert potential(gd, f, x) == pytest.approx(gd.D * float(exact), rel=1e-12, abs=0.0)


# (alpha, d) of the domain: the criterion-1 pairs, alpha = 1.01 in d = 2,
# 1F1(1/6; 3/2) at alpha = 0.75, and d = 30 at three alpha
KUMMER_PAIRS = [(1.5, 3), (1.2, 2), (2.0, 2), (1.0, 3), (1.01, 2), (0.75, 3),
                (1.0 / 0.53, 30), (0.3, 30), (2.0, 30)]


@pytest.mark.parametrize("alpha,d", KUMMER_PAIRS, ids=str)
def test_kummer_vs_mpmath_on_both_sides_of_its_switch(alpha, d):
    """green.kummer holds 1e-14 against mpmath's 1F1(d/2 - 1/alpha; d/2; -z)
    below its switch, where it is scipy's value, and above it, where it is
    the large-z series, out to 1e300 wherever the value is a normal float;
    at z below 2^-54 it is exactly 1."""
    switch = green._KUMMER_SWITCH
    a, b = 0.5 * d - 1.0 / alpha, 0.5 * d
    for z in (0.0, 1e-320, 1e-160, 1e-20, 1e-17, 0.1, 8.0, 0.5 * switch,
              (1.0 - 1e-9) * switch, switch, 1.5 * switch, 1e4, 1e8, 1e20, 1e100, 1e300):
        got = green.kummer(alpha, d, z)
        with mp.workdps(40):
            exact = float(mp.hyp1f1(a, b, -mp.mpf(z)))
        if z < 2.0 ** -54:
            assert got == 1.0, z
        elif exact > 1e-290:
            assert got == pytest.approx(exact, rel=1e-14, abs=0.0), z
        else:  # a value near or past the float range's bottom
            assert 0.0 <= got <= 1e-290, z


@pytest.mark.parametrize("alpha,d", KUMMER_PAIRS, ids=str)
def test_kummer_is_scipy_below_its_switch(alpha, d):
    """Between 2^-54 and the switch kummer returns scipy's hyp1f1 bit for
    bit, so every value the workloads compute keeps its bits."""
    a, b = 0.5 * d - 1.0 / alpha, 0.5 * d
    for z in np.geomspace(1e-16, green._KUMMER_SWITCH, 40, endpoint=False):
        assert green.kummer(alpha, d, z) == hyp1f1(a, b, -z)


def test_kummer_series_that_does_not_settle_raises():
    """At d = 400, alpha = 0.01 (a = 100, 1 - 1/alpha = -99) the series'
    terms still grow at the switch: ConvergenceError, not a wrong value."""
    with pytest.raises(ConvergenceError, match="does not settle"):
        green.kummer(0.01, 400, green._KUMMER_SWITCH)


def test_distance_is_the_sum_of_squares_where_that_is_normal():
    """Where |x - y|^2 is a normal float, _distance gives np.sum((x - y)**2)
    bit for bit and its square root; closer or further apart, the distance
    is math.hypot's within an ulp, with no warning, and only its square
    leaves the float range; an offset past the float range is inf."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, y = rng.standard_normal((2, 3)) * 10.0 ** rng.uniform(-100, 100)
        r, r2 = green._distance(x, y)
        assert r2 == float(np.sum((x - y) ** 2)) and r == math.sqrt(r2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in ((np.array([3e-170, 4e-170, 0.0]), np.zeros(3)),
                     (np.array([3e200, -4e200, 0.0]), np.zeros(3)),
                     (np.array([5e-324, 0.0]), np.zeros(2))):
            r, r2 = green._distance(x, y)
            assert r == pytest.approx(math.hypot(*(x - y)), rel=2.3e-16, abs=0.0)
            assert r2 == r * r
        assert green._distance(np.array([1.5e308, 0.0]), np.array([-1.5e308, 0.0])) == \
            (math.inf, math.inf)
        assert green._distance(np.ones(3), np.ones(3)) == (0.0, 0.0)


def test_green_density_at_near_points_is_finite_or_names_its_overflow():
    """Two distinct points 1e-170 apart have the finite density D r^(-p),
    where the norm's square underflowed and the density was refused as
    singular; at 1e-200 apart the power overflows, which raises DomainError
    in place of Python's OverflowError."""
    gd = GreenDensity.from_params(ModelParams(0.5, 1.5, 3))
    near = np.array([1e-170, 0.0, 0.0])
    assert green_density_at(gd, near, np.zeros(3)) == pytest.approx(
        gd.D * 1e-170 ** (2.0 / 1.5 - 3.0), rel=1e-14)
    with pytest.raises(DomainError, match="overflows a float"):
        green_density_at(gd, np.array([1e-200, 0.0, 0.0]), np.zeros(3))


def test_time_integral_kernel_that_overflows_is_domain_error():
    """r^(2/alpha - d) past the float range raises DomainError naming the
    overflow, where Python raised OverflowError."""
    with pytest.raises(DomainError, match="overflows a float"):
        time_integral_kernel(1.5, 3, 1.0, 1e-300)
