"""Special functions used throughout the package.

Provides the Euler gamma function, the Mittag-Leffler function on the
negative real axis, the M-Wright probability density on [0, inf) with a
cached quadrature rule over its support, its generalized moments, and the
two model constants built from them.  The M-Wright series is one array
kernel that sums every node of a rule at once; the scalar `m_wright` calls
it with one node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .exceptions import ConvergenceError, DomainError, PoleError

__all__ = [
    "EvalResult",
    "gamma",
    "mittag_leffler",
    "m_wright",
    "m_wright_moment",
    "m_wright_cutoff",
    "m_wright_quad_rule",
    "time_kernel_constant",
    "green_constant",
    "kanter_a",
]

# Series summation is abandoned when the largest term exceeds the running
# sum by this factor; it caps the cancellation loss at ~6 digits so at
# least 10 good digits survive in float64.
_CANCELLATION_LIMIT = 1e6
_MAX_TERMS = 20000
# The array M-Wright series builds at most this many terms per block, in a
# row count that starts at _FIRST_ROWS and doubles, so a one-node call does
# not build thousands of rows and a many-node call stays small in memory.
_BLOCK_TERMS = 1 << 12
_FIRST_ROWS = 32


@dataclass(frozen=True)
class EvalResult:
    """Value of a special-function evaluation with an error estimate.

    est_abs_error is an upper bound on the truncation/quadrature error of
    the representation that produced the value; terms_used is 0 when an
    integral representation was used instead of a series.
    """

    value: float
    est_abs_error: float
    terms_used: int


def gamma(x: float) -> float:
    """Euler gamma function for real x away from the poles.

    Negative non-integer arguments go through the platform libm, which
    applies the reflection formula internally; accuracy is well beyond 12
    significant digits on the range this package uses.
    """
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x = {x:g}")
    return math.gamma(x)


def _log_abs_gamma(x: float) -> float:
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# Mittag-Leffler function E_beta on the negative real axis
# ---------------------------------------------------------------------------

def _ml_series(beta: float, z: float) -> EvalResult | None:
    """Taylor series sum_{n} z^n / Gamma(beta*n + 1) with compensated
    summation.  Returns None when cancellation makes the result unreliable.
    """
    total = 0.0
    comp = 0.0  # Kahan compensation
    max_abs = 0.0
    log_abs_z = math.log(abs(z)) if z != 0.0 else -math.inf
    n = 0
    term = 1.0
    while n < _MAX_TERMS:
        # Kahan step
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        max_abs = max(max_abs, abs(term))
        n += 1
        log_term = n * log_abs_z - _log_abs_gamma(beta * n + 1.0)
        if log_term > 700.0:  # heading for overflow: series unusable
            return None
        if log_term < -745.0:  # underflow: series has converged
            break
        term = math.copysign(math.exp(log_term), (-1.0) ** (n % 2) if z < 0 else 1.0)
        if abs(term) < 1e-17 * abs(total) and abs(term) < max_abs * 1e-17:
            break
    else:
        return None
    if abs(total) == 0.0 or max_abs / max(abs(total), 1e-300) > _CANCELLATION_LIMIT:
        return None
    err = abs(term) + max_abs * 1e-16
    return EvalResult(total, err, n)


def _ml_spectral(beta: float, z: float) -> EvalResult:
    """Spectral (completely monotone) representation for z < 0, 0 < beta < 1:

        E_beta(-x) = int_0^inf exp(-r * x^(1/beta)) K_beta(r) dr,
        K_beta(r) = sin(beta*pi)/pi * r^(beta-1) / (r^(2b) + 2 r^b cos(b*pi) + 1).
    """
    x = -z
    t = x ** (1.0 / beta)
    c = math.cos(beta * math.pi)
    s = math.sin(beta * math.pi) / math.pi

    # r in (0,1): substitute w = r^beta to remove the endpoint singularity
    def low(w):
        r = w ** (1.0 / beta)
        return np.exp(-r * t) / (w * w + 2.0 * w * c + 1.0)

    def high(r):
        rb = r ** beta
        return r ** (beta - 1.0) * np.exp(-r * t) / (rb * rb + 2.0 * rb * c + 1.0)

    # the integrand lives on the scale r ~ 1/t; split there so the adaptive
    # rule resolves the boundary layer even when t is very large
    r0 = min(1.0, 50.0 / t) if t > 0.0 else 1.0
    v1, e1 = quad(low, 0.0, r0 ** beta, epsabs=1e-13, epsrel=1e-12, limit=200)
    value = s * v1 / beta
    err = s * e1 / beta
    if r0 < 1.0:
        v1b, e1b = quad(high, r0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
        value += s * v1b
        err += s * e1b
    v2, e2 = quad(high, 1.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    value += s * v2
    err += s * e2
    if err > 1e-8:
        raise ConvergenceError(
            f"Mittag-Leffler integral representation did not converge at "
            f"beta={beta:g}, z={z:g} (err={err:.2e})"
        )
    return EvalResult(value, err, 0)


def mittag_leffler(beta: float, z: float) -> EvalResult:
    """E_beta(z) for 0 < beta <= 1 and z <= 0.

    Uses the Taylor series with compensated summation while it is
    numerically safe, and falls back to the spectral integral
    representation on the negative axis when the series cancels.
    """
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"mittag_leffler requires 0 < beta <= 1, got {beta:g}")
    if z > 0.0:
        raise DomainError(f"mittag_leffler requires z <= 0, got {z:g}")
    if z == 0.0:
        return EvalResult(1.0, 0.0, 1)
    if beta == 1.0:
        return EvalResult(math.exp(z), abs(math.exp(z)) * 1e-16, 0)
    res = _ml_series(beta, z)
    if res is not None:
        return res
    return _ml_spectral(beta, z)


# ---------------------------------------------------------------------------
# M-Wright function M_beta on [0, inf)
# ---------------------------------------------------------------------------

def kanter_a(beta: float, theta):
    """Kanter's auxiliary function on (0, pi).

    a(theta) = sin(b*th)^(b/(1-b)) * sin((1-b)*th) / sin(th)^(1/(1-b)),
    increasing from (1-b)*b^(b/(1-b)) at 0+ to +inf at pi-.
    """
    b = beta
    return (
        np.sin(b * theta) ** (b / (1.0 - b))
        * np.sin((1.0 - b) * theta)
        / np.sin(theta) ** (1.0 / (1.0 - b))
    )


def _stable_density(beta: float, x: float) -> tuple[float, float]:
    """Density of the one-sided stable law with Laplace transform e^{-s^beta},
    from the integral form of Kanter's representation.  Returns (value, err).
    """
    lam = x ** (-beta / (1.0 - beta))

    def integrand(theta):
        a = kanter_a(beta, theta)
        return a * np.exp(-a * lam)

    val, err = quad(integrand, 0.0, math.pi, epsabs=1e-14, epsrel=1e-11, limit=300)
    pref = beta / (1.0 - beta) * x ** (-1.0 / (1.0 - beta)) / math.pi
    return pref * val, pref * err


def _mw_coefficients(beta: float, n: np.ndarray):
    """log|c_n| and sign(c_n) of the series terms c_n tau^n, with the
    reciprocal gamma computed by reflection:
    1/Gamma(1 - b(n+1)) = Gamma(b(n+1)) sin(pi b(n+1)) / pi.
    Where b(n+1) is an integer the coefficient is 0 and log|c_n| is -inf.
    """
    zb = beta * (n + 1.0)
    r = np.round(zb)
    # sin(pi*zb) with argument reduction; exactly 0.0 at integers
    sin_part = np.sin(np.pi * (zb - r)) * np.where(r % 2, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        log_c = (gammaln(zb) - gammaln(n + 1.0) + np.log(np.abs(sin_part))
                 - math.log(math.pi))
    return log_c, np.sign(sin_part) * np.where(n % 2, -1.0, 1.0)


def _mw_series(beta: float, tau: np.ndarray):
    """Series sum_n (-tau)^n / (n! Gamma(-beta*n + 1 - beta)) at every
    tau > 0 at once.  Returns arrays (value, est_abs_error, terms_used).

    The terms of all unfinished nodes are built in blocks of rows n, at
    most _BLOCK_TERMS terms per block, with a row count that starts at
    _FIRST_ROWS and doubles.  Each node stops at the first row where its
    last nonzero term is negligible against both the sum and the largest
    term.  The value is NaN, and the integral continuation must be used,
    where a term heads for overflow before that row, where the largest
    term exceeds the sum by more than _CANCELLATION_LIMIT, or where
    _MAX_TERMS pass without stopping.
    """
    tau = np.asarray(tau, dtype=float)
    log_tau = np.log(tau)
    value = np.full(tau.size, np.nan)
    err = np.full(tau.size, np.nan)
    terms = np.zeros(tau.size, dtype=np.int64)
    live = np.arange(tau.size)
    # per live node: running sum, largest |term|, last nonzero |term|
    total = np.zeros(tau.size)
    peak = np.zeros(tau.size)
    last = np.full(tau.size, np.inf)
    start, rows = 0, _FIRST_ROWS
    while live.size and start < _MAX_TERMS:
        m = min(rows, max(1, _BLOCK_TERMS // live.size), _MAX_TERMS - start)
        n = np.arange(start, start + m)
        log_c, sign = _mw_coefficients(beta, n)
        log_mag = n[:, None] * log_tau[live] + log_c[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            term = sign[:, None] * np.exp(np.where(log_mag > -745.0, log_mag, -np.inf))
            mag = np.abs(term)
            # the carried state is row 0, so every sum runs in term order
            sums = np.cumsum(np.vstack([total, term]), axis=0)[1:]
            peaks = np.maximum.accumulate(np.vstack([peak, mag]), axis=0)[1:]
            nz_row = np.maximum.accumulate(
                np.where(term != 0.0, np.arange(m)[:, None], -1), axis=0)
            lasts = np.where(nz_row >= 0,
                             np.take_along_axis(mag, np.maximum(nz_row, 0), axis=0), last)
            stop = ((n[:, None] >= 4) & (lasts < 1e-17 * np.maximum(np.abs(sums), 1e-300))
                    & (lasts <= peaks * 1e-16))
        over = log_mag > 700.0
        k_stop = np.where(stop.any(axis=0), stop.argmax(axis=0), m)
        k_over = np.where(over.any(axis=0), over.argmax(axis=0), m)
        ok = np.flatnonzero(k_stop < k_over)
        k = k_stop[ok]
        tot, pk = sums[k, ok], peaks[k, ok]
        good = pk / np.maximum(np.abs(tot), 1e-300) <= _CANCELLATION_LIMIT
        node = live[ok[good]]
        value[node] = np.maximum(tot[good], 0.0)
        err[node] = lasts[k, ok][good] + pk[good] * 1e-16
        terms[node] = start + k[good] + 1
        going = np.minimum(k_stop, k_over) == m
        live = live[going]
        total, peak, last = sums[-1, going], peaks[-1, going], lasts[-1, going]
        start += m
        rows *= 2
    return value, err, terms


def _mw_integral(beta: float, tau: float) -> EvalResult:
    """M_beta(tau) by the integral continuation of m_wright."""
    x = tau ** (-1.0 / beta)
    g, gerr = _stable_density(beta, x)
    jac = tau ** (-1.0 - 1.0 / beta) / beta
    value = g * jac
    if not math.isfinite(value):
        raise ConvergenceError(
            f"m_wright failed at beta={beta:g}, tau={tau:g}"
        )
    return EvalResult(value, gerr * jac, 0)


def m_wright(beta: float, tau: float) -> EvalResult:
    """M-Wright density M_beta(tau) for 0 < beta < 1, tau >= 0.

    The Taylor series is reliable for small and moderate tau; beyond its
    cancellation range the value is obtained from the one-sided stable
    density through the change of variables y = s^(-beta), which is exact
    and non-oscillatory for every tau.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"m_wright requires 0 < beta < 1, got {beta:g}")
    if tau < 0.0:
        raise DomainError(f"m_wright requires tau >= 0, got {tau:g}")
    if tau == 0.0:
        return EvalResult(1.0 / gamma(1.0 - beta), 0.0, 1)
    value, err, terms = _mw_series(beta, np.array([tau]))
    if math.isnan(value[0]):
        return _mw_integral(beta, tau)
    return EvalResult(float(value[0]), float(err[0]), int(terms[0]))


def m_wright_cutoff(beta: float, tol: float = 1e-40) -> float:
    """Radius T such that M_beta(tau) < tol for tau > T.

    From the stretched-exponential decay M_beta(tau) ~ exp(-B tau^(1/(1-b)))
    with B = (1-b) * b^(b/(1-b)); the prefactor is absorbed by a margin.
    """
    b = beta
    big = -math.log(tol) + 20.0
    B = (1.0 - b) * b ** (b / (1.0 - b))
    return (big / B) ** (1.0 - b)


@lru_cache(maxsize=32)
def _mw_rule_cached(beta: float, n_panels: int, n_nodes: int):
    t_hi = m_wright_cutoff(beta)
    # log-spaced panels concentrate nodes near 0 where integrands with
    # negative powers of tau need them
    edges = np.concatenate(
        [[0.0], np.geomspace(1e-14, t_hi, n_panels)]
    )
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    values, _, _ = _mw_series(beta, nodes)
    for i in np.flatnonzero(np.isnan(values)):
        values[i] = _mw_integral(beta, float(nodes[i])).value
    return nodes, weights, values


def m_wright_quad_rule(beta: float, n_panels: int = 64, n_nodes: int = 16):
    """Fixed quadrature rule (nodes, weights, M_beta(nodes)) covering the
    effective support of M_beta.  Cached per beta; intended for integrals
    of the form int phi(tau) M_beta(tau) dtau with smooth-away-from-zero phi.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"m_wright_quad_rule requires 0 < beta < 1, got {beta:g}")
    return _mw_rule_cached(float(beta), n_panels, n_nodes)


def m_wright_moment(beta: float, delta: float) -> float:
    """Generalized moment int_0^inf tau^delta M_beta(tau) dtau
    = Gamma(delta+1) / Gamma(beta*delta+1), finite for delta > -1.

    For beta = 1 the density is the point mass at 1 and every moment is 1.
    """
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"m_wright_moment requires 0 < beta <= 1, got {beta:g}")
    if beta == 1.0:
        return 1.0
    if delta <= -1.0:
        raise DomainError(
            f"moment of order delta = {delta:g} diverges (requires delta > -1)"
        )
    return gamma(delta + 1.0) / gamma(beta * delta + 1.0)


# ---------------------------------------------------------------------------
# Model constants
# ---------------------------------------------------------------------------

def time_kernel_constant(alpha: float, d: int) -> float:
    """C(alpha, d) = (1/alpha) * 2^(-1/alpha) * pi^(-d/2) * Gamma(d/2 - 1/alpha),
    the constant produced by integrating the scale-mixture heat kernel in time.
    Requires d*alpha > 2 so the gamma argument is positive.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha:g}")
    if d * alpha <= 2.0:
        raise DomainError(f"requires d*alpha > 2, got d*alpha = {d * alpha:g}")
    return (
        (1.0 / alpha)
        * 2.0 ** (-1.0 / alpha)
        * math.pi ** (-0.5 * d)
        * gamma(0.5 * d - 1.0 / alpha)
    )


def green_constant(beta: float, alpha: float, d: int) -> float:
    """D(beta, alpha, d) = C(alpha, d) * Gamma(1 - 1/alpha) / Gamma(1 - beta/alpha).

    Defined for d*alpha > 2 with 1 < alpha <= 2, and at the Brownian
    boundary beta = alpha = 1 (d >= 3) where the gamma ratio is taken as
    its limit value 1, recovering the classical Brownian constant.
    """
    if beta == 1.0 and alpha == 1.0:
        if d < 3:
            raise DomainError(
                f"requires d >= 3 in the Brownian case, got d = {d}"
            )
        return time_kernel_constant(alpha, d)
    if not 1.0 < alpha <= 2.0:
        raise DomainError(f"requires 1 < alpha <= 2, got alpha = {alpha:g}")
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"requires 0 < beta <= 1, got beta = {beta:g}")
    if d * alpha <= 2.0:
        raise DomainError(f"requires d*alpha > 2, got d*alpha = {d * alpha:g}")
    return time_kernel_constant(alpha, d) * m_wright_moment(beta, -1.0 / alpha)
