"""Verification suites driving the identity checks of every module.

Each check is a dict {name, anchor, expected, observed, tolerance, pass}
so reports serialize directly to JSON.  Anchors name the mathematical
identity being exercised.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from . import green as green_mod
from . import montecarlo as mc
from .fbm import GridSpec
from .model import ModelParams
from .process import ggbm_path_product, ggbm_path_subordinated
from .randvar import SeedSpec, make_stream, sample_y_beta_array
from .specfun import (green_constant, m_wright, m_wright_cutoff,
                      m_wright_moment, m_wright_quad_rule, mittag_leffler,
                      time_kernel_constant)

__all__ = ["run_suite", "SUITES", "moment_quadrature"]


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


def suite_specfun(**_):
    checks = []
    for beta in (0.3, 0.5, 0.7):
        nodes, weights, mvals = m_wright_quad_rule(beta)
        for s in (0.1, 1.0, 5.0):
            lhs = mittag_leffler(beta, -s).value
            rhs = float(np.dot(weights, np.exp(-s * nodes) * mvals))
            checks.append(_check(
                f"laplace-transform beta={beta} s={s}",
                "laplace-transform-identity", lhs, rhs, 1e-6))
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


def _marginal_samples(params, t, n, seed):
    """Vectorized one-point marginals from the product construction."""
    rng = make_stream(seed)
    y = sample_y_beta_array(params.beta, rng, n)
    z = rng.standard_normal(n)
    return np.sqrt(y) * t ** params.hurst * z


def suite_moments(beta=0.5, alpha=1.5, paths=100_000, seed=42, **_):
    params = ModelParams(beta, alpha, 1)
    checks = []
    for t in (0.5, 1.0, 2.0):
        x = _marginal_samples(params, t, paths, SeedSpec(seed, 900))
        se1 = np.std(x, ddof=1) / math.sqrt(paths)
        checks.append(_check(
            f"odd-moment t={t}", "moments-of-any-order", 0.0,
            float(np.mean(x)), 3.0 * se1))
        for n_mom in (1, 2):
            emp = x ** (2 * n_mom)
            se = float(np.std(emp, ddof=1)) / math.sqrt(paths)
            expected = (math.factorial(2 * n_mom)
                        / (2 ** n_mom * math.gamma(beta * n_mom + 1.0))
                        * t ** (alpha * n_mom))
            checks.append(_check(
                f"even-moment 2n={2 * n_mom} t={t}", "moments-of-any-order",
                expected, float(np.mean(emp)), 3.0 * se))
    return checks


def suite_covariance(beta=0.5, alpha=1.5, dim=2, paths=100_000, seed=42, **_):
    params = ModelParams(beta, alpha, dim)
    rng = make_stream(SeedSpec(seed, 901))
    checks = []
    for (s, t) in ((0.5, 1.0), (0.5, 2.0), (1.0, 2.0)):
        y = sample_y_beta_array(beta, rng, paths)
        z = rng.standard_normal((paths, 2, dim))
        h = params.hurst
        # correlate the two time points per component with the fBm correlation
        corr = 0.5 * (s ** alpha + t ** alpha - (t - s) ** alpha) / (
            s ** alpha * t ** alpha) ** 0.5
        bs = s ** h * z[:, 0, :]
        bt = t ** h * (corr * z[:, 0, :]
                       + math.sqrt(max(0.0, 1.0 - corr * corr)) * z[:, 1, :])
        dot = y * np.sum(bs * bt, axis=1)
        se = float(np.std(dot, ddof=1)) / math.sqrt(paths)
        expected = dim / (2.0 * math.gamma(beta + 1.0)) * (
            s ** alpha + t ** alpha - abs(t - s) ** alpha)
        checks.append(_check(
            f"covariance s={s} t={t}", "covariance-identity",
            expected, float(np.mean(dot)), 3.0 * se))
    return checks


def suite_charfun(beta=0.5, alpha=1.5, dim=1, paths=100_000, seed=42, **_):
    params = ModelParams(beta, alpha, dim)
    rng = make_stream(SeedSpec(seed, 902))
    checks = []
    for (s, t, k) in ((0.0, 1.0, 1.0), (0.5, 1.0, 1.0), (0.5, 2.0, 0.5)):
        y = sample_y_beta_array(beta, rng, paths)
        z = rng.standard_normal(paths)
        # increment B(t) - B(s) is centered with variance Y |t-s|^alpha
        incr = np.sqrt(y) * abs(t - s) ** params.hurst * z
        emp = np.cos(k * incr)
        se = float(np.std(emp, ddof=1)) / math.sqrt(paths)
        expected = mittag_leffler(beta, -0.5 * k * k * abs(t - s) ** alpha).value
        checks.append(_check(
            f"increment-charfun s={s} t={t} k={k}",
            "increment-characteristic-function",
            expected, float(np.mean(emp)), 3.0 * se))
    return checks


def suite_representation(beta=0.5, alpha=1.5, dim=1, paths=10_000, seed=42, **_):
    # imported here, so that starting the CLI does not load scipy.stats
    from scipy.stats import ks_2samp

    params = ModelParams(beta, alpha, dim)
    grid = GridSpec(t_max=1.0, n_steps=16)
    prod = np.empty((paths, grid.n_steps + 1))
    subo = np.empty((paths, grid.n_steps + 1))
    for i in range(paths):
        prod[i] = ggbm_path_product(params, grid, SeedSpec(seed, 2 * i)).values[:, 0]
        subo[i] = ggbm_path_subordinated(
            params, grid, SeedSpec(seed, 2 * i + 1)).values[:, 0]
    checks = []
    for t in (0.5, 1.0):
        idx = int(round(t / grid.dt))
        stat = ks_2samp(prod[:, idx], subo[:, idx])
        checks.append(_check(
            f"two-sample-ks t={t}", "representation-equivalence",
            1.0, 1.0 if stat.pvalue > 0.01 else 0.0, 0.0))
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
