"""Verification suites driving the identity checks of every module.

Each check is a dict {name, anchor, expected, observed, tolerance, pass}
so reports serialize directly to JSON.  Anchors name the mathematical
identity being exercised.  The perpetual-integral checks of suite_green
also report their budget over V and the share of each term in it.  A suite's
signature is the one statement of its options and defaults; `ggbm verify` reads it.

The law suites draw their paths from `process.ggbm_paths` on `_GRID`,
which holds every time they check, and compare them with the analytic law.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import airy, erfcx, ndtr

from . import green as green_mod
from . import montecarlo as mc
from .exceptions import DomainError
from .fbm import GridSpec
from .model import ModelParams
from .process import fdd_charfun, ggbm_paths
from .randvar import SeedSpec, make_stream, sample_y_beta_array
from .specfun import (green_constant, m_wright, m_wright_cutoff,
                      m_wright_moment, m_wright_quad_rule, mittag_leffler,
                      time_kernel_constant)

__all__ = ["run_suite", "SUITES", "moment_quadrature"]

_GRID = GridSpec(t_max=2.0, n_steps=4)  # dt = 0.5 holds every checked time
_CDF_BLOCK = 1024  # sample points per block of the analytic marginal CDF
_EPS = np.finfo(float).eps


def moment_quadrature(beta: float, delta: float) -> float:
    """int_0^inf tau^delta M_beta(tau) dtau by adaptive quadrature; the
    origin singularity for delta < 0 is removed by u = tau^(delta+1).
    """
    from scipy.integrate import quad

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


def suite_specfun():
    checks = []
    for beta in (0.3, 0.5, 0.7):
        for delta in (-0.6, 0.5, 1.0, 2.0):
            mom = m_wright_moment(beta, delta)
            quad_mom = moment_quadrature(beta, delta)
            checks.append(_check(
                f"moment beta={beta} delta={delta}",
                "generalized-moment-identity", mom, quad_mom,
                1e-9 * abs(mom)))
    # complete monotonicity proxy: strictly decreasing on [-50, 0]
    for beta in (0.3, 0.5, 0.7):
        zs = np.linspace(-50.0, 0.0, 101)
        vals = [mittag_leffler(beta, z).value for z in zs]
        checks.append(_check(
            f"monotone-decreasing beta={beta}", "complete-monotonicity",
            1.0, 1.0 if all(a < b for a, b in zip(vals, vals[1:])) else 0.0,
            0.0))
    # D against C times the quadrature of moment(-1/alpha), its second route
    for beta, alpha, dim in ((0.5, 1.5, 3), (0.8, 1.2, 2), (0.9, 2.0, 2)):
        d_val = green_constant(beta, alpha, dim)
        prod = time_kernel_constant(alpha, dim) * moment_quadrature(beta, -1.0 / alpha)
        checks.append(_check(
            f"constant-consistency beta={beta} alpha={alpha} d={dim}",
            "potential-constant-factorization", d_val, prod, 1e-14 * d_val))
    return checks


def suite_laplace(paths=1_000_000, seed=42):
    """E_beta(-s) = E[exp(-s Y_beta)], where mittag_leffler sums the
    M-Wright rule: the rule and E_beta against closed forms that share
    nothing with it, E_1/2(-x) = erfcx(x), M_1/2(tau) = exp(-tau^2/4)/sqrt(pi)
    and M_1/3(tau) = 3^(2/3) Ai(tau/3^(1/3)), within the reported error, and
    E_beta against the exact Y_beta sampler within 3 standard errors."""
    checks = []
    for x in (0.1, 1.0, 5.0, 50.0, 1e6):
        r = mittag_leffler(0.5, -x)
        checks.append(_check(f"laplace-erfcx x={x:g}", "mittag-leffler-half-closed-form",
                             float(erfcx(x)), r.value, r.est_abs_error))
    taus = np.linspace(0.01, 12.0, 100)
    for beta, closed in ((0.5, np.exp(-0.25 * taus ** 2) / math.sqrt(math.pi)),
                         (1.0 / 3.0, 3.0 ** (2.0 / 3.0) * airy(taus / 3.0 ** (1.0 / 3.0))[0])):
        # the largest error in units of the reported error, which here
        # also carries the closed form's own rounding, 4 eps, over 100 tau
        worst = max(abs(r.value - c) / (r.est_abs_error + 4.0 * _EPS * c)
                    for r, c in zip((m_wright(beta, t) for t in taus), closed))
        checks.append(_check(f"m-wright-closed-form beta={beta:.4g}", "m-wright-closed-form",
                             0.0, worst, 1.0))
    rng = make_stream(SeedSpec(seed, 500))
    for beta in (0.5, 0.7):
        y = sample_y_beta_array(beta, rng, paths)
        for s in (0.5, 2.0):
            checks.append(_mc_check(
                f"laplace-sampler beta={beta} s={s}", "laplace-transform-identity",
                mittag_leffler(beta, -s).value, np.exp(-s * y)))
    return checks


def suite_moments(beta=0.5, alpha=1.5, dim=1, paths=100_000, seed=42):
    params = ModelParams(beta, alpha, dim)
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


def suite_covariance(beta=0.5, alpha=1.5, dim=2, paths=100_000, seed=42):
    """E[B(s) . B(t)] = d E[Y] K_st within 3 exact standard errors.  With
    B = sqrt(Y) B_H and K fBm's covariance, X = Y sum_i B_Hi(s) B_Hi(t) has
    Var X = E[Y^2] (d K_ss K_tt + d (d + 1) K_st^2) - (d E[Y] K_st)^2,
    E[Y] = 1 / Gamma(1 + beta) and E[Y^2] = 2 / Gamma(1 + 2 beta)."""
    params = ModelParams(beta, alpha, dim)
    b = ggbm_paths(params, _GRID, paths, SeedSpec(seed, 901))
    ey, ey2 = 1.0 / math.gamma(1.0 + beta), 2.0 / math.gamma(1.0 + 2.0 * beta)
    checks = []
    for (s, t) in ((0.5, 1.0), (0.5, 2.0), (1.0, 2.0)):
        kss, ktt = s ** alpha, t ** alpha
        kst = 0.5 * (kss + ktt - abs(t - s) ** alpha)
        expected = dim * ey * kst
        var = ey2 * (dim * kss * ktt + dim * (dim + 1) * kst * kst) - expected * expected
        checks.append(_check(
            f"covariance s={s} t={t}", "covariance-identity", expected,
            float(np.mean(np.sum(_at(b, s) * _at(b, t), axis=1))),
            3.0 * math.sqrt(var / paths)))
    return checks


def suite_charfun(beta=0.5, alpha=1.5, dim=1, paths=100_000, seed=42):
    params = ModelParams(beta, alpha, dim)
    b = ggbm_paths(params, _GRID, paths, SeedSpec(seed, 902))
    checks = []
    for (s, t, k) in ((0.0, 1.0, 1.0), (0.5, 1.0, 1.0), (0.5, 2.0, 0.5)):
        incr = _at(b, t)[:, 0] - _at(b, s)[:, 0]
        expected = mittag_leffler(beta, -0.5 * k * k * abs(t - s) ** alpha).value
        checks.append(_mc_check(
            f"increment-charfun s={s} t={t} k={k}",
            "increment-characteristic-function", expected, np.cos(k * incr)))
    # the two-point law, with theta on the first component
    times, first = (0.5, 1.0), (0.7, -0.4)
    theta = np.zeros((2, dim))
    theta[:, 0] = first
    phase = sum(th * _at(b, t)[:, 0] for th, t in zip(first, times))
    checks.append(_mc_check(
        f"two-point-charfun t={times} theta={first}",
        "finite-dimensional-characteristic-function",
        fdd_charfun(params, times, theta), np.cos(phase)))
    return checks


def _marginal_cdf(beta: float, hurst: float, t: float, y) -> np.ndarray:
    """P(B_1(t) <= y) = int Phi(y / (sqrt(tau) t^H)) M_beta(tau) dtau, by the
    M-Wright quadrature rule."""
    u = np.asarray(y) / t ** hurst
    nodes, weights, mvals = m_wright_quad_rule(beta)
    inv_sd, wm = 1.0 / np.sqrt(nodes), weights * mvals
    blocks = np.split(u, np.arange(_CDF_BLOCK, u.size, _CDF_BLOCK))
    return np.concatenate([ndtr(b[:, None] * inv_sd) @ wm for b in blocks])


def suite_representation(beta=0.5, alpha=1.5, dim=1, paths=10_000, seed=42):
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


def _potential_checks(tag, params, f, spec, threads):
    """Three checks of a Gaussian f's perpetual integral from x = 0.

    - The estimate against the analytic potential within the certified
      budget, with the budget over V and the share of each term in it.
    - The sampled SE against the exact SE of the grid variance, a check of
      the two-time law of the paths on the estimator's clock, which the
      mean does not see.  The sample SD's relative spread
      is sqrt((kappa - 1) / (4 n)) for per-path kurtosis kappa; the check
      allows three of it.
    - The fold's m B(b, 1/alpha) s^(1/alpha) / alpha against the
      potential's prefactor through D, both at f's centre, where the 1F1
      they share is 1: a deterministic check at 1e-12.
    """
    x = np.zeros(params.dim)
    gd = green_mod.GreenDensity.from_params(params)
    analytic = green_mod.potential(gd, f, x)
    est = mc.estimate_potential_mc(params, f, x, spec, threads=threads)
    budget = est.budget
    identity = _check(f"perpetual-integral {tag}", "potential-identity", analytic,
                      est.mean, budget)
    identity.update(budget_rel=float(budget / analytic),
                    se_share=3.0 * est.std_error / budget,
                    tail_share=est.tail_bound / budget,
                    disc_share=est.discretization_bound / budget)
    _, exact_se = mc.exact_gaussian_moments(params, f, x, spec)
    spread = math.sqrt(max(est.kurtosis - 1.0, 0.0) / (4.0 * est.n_paths))
    se = _check(f"standard-error {tag}", "grid-variance-identity", exact_se,
                est.std_error, 3.0 * spread * exact_se)
    se.update(kurtosis=float(est.kurtosis))
    centre = green_mod.potential(gd, f, f.center)
    prefactor = _check(f"potential-prefactor {tag}", "potential-prefactor-identity", centre,
                       mc.exact_gaussian_moments(params, f, f.center, spec)[0],
                       1e-12 * abs(centre))
    return [identity, se, prefactor]


def suite_green(beta=0.5, alpha=1.5, dim=3, paths=100_000, seed=42,
                t_max=50.0, threads=1):
    """The potential identity, the exact SE and the prefactor for a unit
    Gaussian centred at x = 0 and for one centred at 1.5 e_1, on the same
    paths, then the Brownian constant."""
    params = ModelParams(beta, alpha, dim)
    spec = mc.PerpetualSpec(t_max=t_max, n_paths=paths, seed=SeedSpec(seed, 0))
    tag = f"beta={beta} alpha={alpha} d={dim}"
    off = green_mod.gaussian_test_function(1.0, dim, center=1.5 * np.eye(dim)[0])
    return [
        *_potential_checks(tag, params, green_mod.gaussian_test_function(1.0, dim),
                           spec, threads),
        *_potential_checks(f"off-centre {tag}", params, off, spec, threads),
        _check("brownian-constant", "classical-brownian-green-function",
               1.0 / (2.0 * math.pi), green_constant(1.0, 1.0, 3), 1e-12),
    ]


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
    suite = SUITES[name]
    if kwargs.get("paths", 2) < 2:
        raise DomainError(f"a suite needs at least 2 paths, got {kwargs['paths']}")
    checks = suite(**kwargs)
    return {"suite": name, "checks": checks,
            "pass": all(c["pass"] for c in checks)}
