"""Verification suites driving the identity checks of every module.

Each check is a dict {name, anchor, expected, observed, tolerance, pass}
so reports serialize directly to JSON.  Anchors name the mathematical
identity being exercised.

The law suites draw their paths from `process.ggbm_paths` on `_GRID`,
which holds every time they check, and compare them with the analytic law.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from . import green as green_mod
from . import montecarlo as mc
from .fbm import GridSpec
from .model import ModelParams
from .process import ggbm_paths
from .randvar import SeedSpec, make_stream, sample_y_beta_array
from .specfun import (green_constant, m_wright, m_wright_cutoff,
                      m_wright_moment, m_wright_quad_rule, mittag_leffler,
                      time_kernel_constant)

__all__ = ["run_suite", "SUITES", "moment_quadrature"]

_GRID = GridSpec(t_max=2.0, n_steps=4)  # dt = 0.5 holds every checked time
_CDF_BLOCK = 1024  # sample points per block of the analytic marginal CDF


def moment_quadrature(beta: float, delta: float) -> float:
    """int_0^inf tau^delta M_beta(tau) dtau by adaptive quadrature; the
    origin singularity for delta < 0 is removed by u = tau^(delta+1).
    """
    p = delta + 1.0
    lo, _ = quad(lambda u: m_wright(beta, u ** (1.0 / p)).value, 0.0, 1.0,
                 epsabs=1e-11, epsrel=1e-10, limit=200)
    hi, _ = quad(lambda t: t ** delta * m_wright(beta, t).value, 1.0,
                 m_wright_cutoff(beta), epsabs=1e-12, epsrel=1e-10, limit=200)
    return lo / p + hi


def _check(name, anchor, expected, observed, tolerance):
    return {
        "name": name,
        "anchor": anchor,
        "expected": float(expected),
        "observed": float(observed),
        "tolerance": float(tolerance),
        "pass": bool(abs(observed - expected) <= tolerance),
    }


def _mc_check(name, anchor, expected, samples):
    """The sample mean against the expected value within 3 standard errors."""
    se = float(np.std(samples, ddof=1)) / math.sqrt(len(samples))
    return _check(name, anchor, expected, float(np.mean(samples)), 3.0 * se)


def _at(paths: np.ndarray, t: float) -> np.ndarray:
    """Values of a (n_paths, n_steps+1, d) batch on _GRID at time t."""
    return paths[:, int(round(t / _GRID.dt))]


def suite_specfun(**_):
    checks = []
    for beta in (0.3, 0.5, 0.7):
        for delta in (-0.6, 0.5, 1.0, 2.0):
            mom = m_wright_moment(beta, delta)
            quad_mom = moment_quadrature(beta, delta)
            checks.append(_check(
                f"moment beta={beta} delta={delta}",
                "generalized-moment-identity", mom, quad_mom,
                1e-6 * abs(mom)))
    # complete monotonicity proxy: strictly decreasing on [-50, 0]
    for beta in (0.3, 0.5, 0.7):
        zs = np.linspace(-50.0, 0.0, 101)
        vals = [mittag_leffler(beta, z).value for z in zs]
        checks.append(_check(
            f"monotone-decreasing beta={beta}", "complete-monotonicity",
            1.0, 1.0 if all(a < b for a, b in zip(vals, vals[1:])) else 0.0,
            0.0))
    # D = C * moment(-1/alpha) consistency
    for beta, alpha, dim in ((0.5, 1.5, 3), (0.8, 1.2, 2), (0.9, 2.0, 2)):
        d_val = green_constant(beta, alpha, dim)
        prod = time_kernel_constant(alpha, dim) * m_wright_moment(beta, -1.0 / alpha)
        checks.append(_check(
            f"constant-consistency beta={beta} alpha={alpha} d={dim}",
            "potential-constant-factorization", d_val, prod, 1e-14 * d_val))
    return checks


def suite_laplace(paths=1_000_000, seed=42, **_):
    """E_beta(-s) = E[exp(-s Y_beta)]: against the M-Wright quadrature rule,
    and against the exact Y_beta sampler within 3 standard errors."""
    checks = []
    for beta in (0.3, 0.5, 0.7):
        nodes, weights, mvals = m_wright_quad_rule(beta)
        for s in (0.1, 1.0, 5.0):
            lhs = mittag_leffler(beta, -s).value
            rhs = float(np.dot(weights, np.exp(-s * nodes) * mvals))
            checks.append(_check(
                f"laplace-transform beta={beta} s={s}",
                "laplace-transform-identity", lhs, rhs, 1e-6))
    rng = make_stream(SeedSpec(seed, 500))
    for beta in (0.5, 0.7):
        y = sample_y_beta_array(beta, rng, paths)
        for s in (0.5, 2.0):
            checks.append(_mc_check(
                f"laplace-sampler beta={beta} s={s}", "laplace-transform-identity",
                mittag_leffler(beta, -s).value, np.exp(-s * y)))
    return checks


def suite_moments(beta=0.5, alpha=1.5, paths=100_000, seed=42, **_):
    params = ModelParams(beta, alpha, 1)
    b = ggbm_paths(params, _GRID, paths, SeedSpec(seed, 900))
    checks = []
    for t in (0.5, 1.0, 2.0):
        x = _at(b, t)[:, 0]
        checks.append(_mc_check(f"odd-moment t={t}", "moments-of-any-order", 0.0, x))
        for n_mom in (1, 2):
            expected = (math.factorial(2 * n_mom)
                        / (2 ** n_mom * math.gamma(beta * n_mom + 1.0))
                        * t ** (alpha * n_mom))
            checks.append(_mc_check(
                f"even-moment 2n={2 * n_mom} t={t}", "moments-of-any-order",
                expected, x ** (2 * n_mom)))
    return checks


def suite_covariance(beta=0.5, alpha=1.5, dim=2, paths=100_000, seed=42, **_):
    params = ModelParams(beta, alpha, dim)
    b = ggbm_paths(params, _GRID, paths, SeedSpec(seed, 901))
    checks = []
    for (s, t) in ((0.5, 1.0), (0.5, 2.0), (1.0, 2.0)):
        expected = dim / (2.0 * math.gamma(beta + 1.0)) * (
            s ** alpha + t ** alpha - abs(t - s) ** alpha)
        checks.append(_mc_check(
            f"covariance s={s} t={t}", "covariance-identity",
            expected, np.sum(_at(b, s) * _at(b, t), axis=1)))
    return checks


def suite_charfun(beta=0.5, alpha=1.5, dim=1, paths=100_000, seed=42, **_):
    params = ModelParams(beta, alpha, dim)
    b = ggbm_paths(params, _GRID, paths, SeedSpec(seed, 902))
    checks = []
    for (s, t, k) in ((0.0, 1.0, 1.0), (0.5, 1.0, 1.0), (0.5, 2.0, 0.5)):
        incr = _at(b, t)[:, 0] - _at(b, s)[:, 0]
        expected = mittag_leffler(beta, -0.5 * k * k * abs(t - s) ** alpha).value
        checks.append(_mc_check(
            f"increment-charfun s={s} t={t} k={k}",
            "increment-characteristic-function", expected, np.cos(k * incr)))
    return checks


def _marginal_cdf(beta: float, hurst: float, t: float, y) -> np.ndarray:
    """P(B_1(t) <= y) = int Phi(y / (sqrt(tau) t^H)) M_beta(tau) dtau, by the
    M-Wright quadrature rule."""
    u = np.asarray(y) / t ** hurst
    nodes, weights, mvals = m_wright_quad_rule(beta)
    inv_sd, wm = 1.0 / np.sqrt(nodes), weights * mvals
    blocks = np.split(u, np.arange(_CDF_BLOCK, u.size, _CDF_BLOCK))
    return np.concatenate([ndtr(b[:, None] * inv_sd) @ wm for b in blocks])


def suite_representation(beta=0.5, alpha=1.5, dim=1, paths=10_000, seed=42, **_):
    """One-sample KS against the analytic marginal and two-sample KS between
    independent batches, at t = 0.5 and 1; each accepts at 0.01."""
    # imported here, so that starting the CLI does not load scipy.stats
    from scipy.stats import ks_2samp, kstest

    params = ModelParams(beta, alpha, dim)
    first = ggbm_paths(params, _GRID, paths, SeedSpec(seed, 0))
    second = ggbm_paths(params, _GRID, paths, SeedSpec(seed, 1))
    checks = []
    for t in (0.5, 1.0):
        x = _at(first, t)[:, 0]
        one = kstest(x, lambda y: _marginal_cdf(beta, params.hurst, t, y))
        checks.append(_check(
            f"one-sample-ks t={t}", "marginal-scale-mixture-law",
            1.0, 1.0 if one.pvalue > 0.01 else 0.0, 0.0))
        two = ks_2samp(x, _at(second, t)[:, 0])
        checks.append(_check(
            f"two-sample-ks t={t}", "independent-batches-agree",
            1.0, 1.0 if two.pvalue > 0.01 else 0.0, 0.0))
    return checks


def suite_green(beta=0.5, alpha=1.5, dim=3, paths=100_000, seed=42,
                t_max=50.0, threads=1, **_):
    params = ModelParams(beta, alpha, dim)
    f = green_mod.gaussian_test_function(1.0, dim)
    gd = green_mod.GreenDensity.from_params(params)
    analytic = green_mod.potential(gd, f, np.zeros(dim))
    spec = mc.PerpetualSpec(t_max=t_max, n_paths=paths, seed=SeedSpec(seed, 0))
    est = mc.estimate_potential_mc(params, f, np.zeros(dim), spec,
                                   threads=threads)
    budget = 3.0 * est.std_error + est.tail_bound + est.discretization_bound
    checks = [_check(
        f"perpetual-integral beta={beta} alpha={alpha} d={dim}",
        "potential-identity", analytic, est.mean, budget)]
    checks.append(_check(
        "brownian-constant", "classical-brownian-green-function",
        1.0 / (2.0 * math.pi), green_constant(1.0, 1.0, 3), 1e-12))
    return checks


SUITES = {
    "specfun": suite_specfun,
    "laplace": suite_laplace,
    "moments": suite_moments,
    "covariance": suite_covariance,
    "charfun": suite_charfun,
    "representation": suite_representation,
    "green": suite_green,
}


def run_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise KeyError(name)
    checks = SUITES[name](**kwargs)
    return {"suite": name, "checks": checks,
            "pass": all(c["pass"] for c in checks)}
