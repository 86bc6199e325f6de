"""Special functions used throughout the package.

Provides the Euler gamma function, the Mittag-Leffler function on the
negative real axis, the M-Wright probability density on [0, inf) with a
cached quadrature rule over its support, its generalized moments, and the
two model constants built from them.

Both functions are summed by one power-series kernel, `_series`, which
takes the coefficients of either and sums every node of an array at
once; the scalar functions call it with one node, the quadrature rule
with all of its nodes.  Where the series cancels or overflows, each
function has an integral continuation (the spectral form of E_beta,
Kanter's form of M_beta) in which the powers of order 1/beta are
cancelled analytically, so both stay finite as beta -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .exceptions import ConvergenceError, DomainError, PoleError
from .model import ModelParams

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
# The series kernel builds at most this many terms per block, in a
# row count that starts at _FIRST_ROWS and doubles, so a one-node call does
# not build thousands of rows and a many-node call stays small in memory.
_BLOCK_TERMS = 1 << 12
_FIRST_ROWS = 32
# The M-Wright quadrature rule: _RULE_PANELS log-spaced panels up to the
# radius past which M_beta < _CUTOFF_TOL, each with _RULE_NODES
# Gauss-Legendre nodes.
_RULE_PANELS = 64
_RULE_NODES = 16
_CUTOFF_TOL = 1e-40


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


# ---------------------------------------------------------------------------
# One power series for both functions
# ---------------------------------------------------------------------------

def _ml_coefficients(beta: float, n: np.ndarray):
    """log|c_n| and sign(c_n) of E_beta(-tau) = sum_n c_n tau^n,
    c_n = (-1)^n / Gamma(beta*n + 1)."""
    return -gammaln(beta * n + 1.0), np.where(n % 2, -1.0, 1.0)


def _mw_coefficients(beta: float, n: np.ndarray):
    """log|c_n| and sign(c_n) of M_beta(tau) = sum_n c_n tau^n,
    c_n = (-1)^n / (n! Gamma(1 - b(n+1))), with the reciprocal gamma
    computed by reflection: 1/Gamma(1 - b(n+1)) = Gamma(b(n+1)) sin(pi b(n+1)) / pi.
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


def _series(coefficients, beta: float, tau: np.ndarray):
    """Power series sum_n c_n tau^n at every tau > 0 at once, with
    (log|c_n|, sign c_n) = coefficients(beta, n).  Returns arrays (value,
    est_abs_error, terms_used); the value is clamped at 0, since both
    functions summed here are nonnegative.

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
    # per live node: running sum, largest |term|, last nonzero |term|, and
    # sum |term| (|n log tau| + |log c_n| + 1): exp() passes the rounding of
    # each term's logarithm on to the term, so eps times this bounds it
    total = np.zeros(tau.size)
    peak = np.zeros(tau.size)
    last = np.full(tau.size, np.inf)
    spread = np.zeros(tau.size)
    start, rows = 0, _FIRST_ROWS
    while live.size and start < _MAX_TERMS:
        m = min(rows, max(1, _BLOCK_TERMS // live.size), _MAX_TERMS - start)
        n = np.arange(start, start + m)
        log_c, sign = coefficients(beta, n)
        log_mag = n[:, None] * log_tau[live] + log_c[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            term = sign[:, None] * np.exp(np.where(log_mag > -745.0, log_mag, -np.inf))
            mag = np.abs(term)
            # the carried state is row 0, so every sum runs in term order
            sums = np.cumsum(np.vstack([total, term]), axis=0)[1:]
            peaks = np.maximum.accumulate(np.vstack([peak, mag]), axis=0)[1:]
            scale = np.abs(n[:, None] * log_tau[live]) + np.abs(log_c)[:, None] + 1.0
            spreads = np.cumsum(np.vstack([spread, np.where(mag > 0.0, mag * scale, 0.0)]),
                                axis=0)[1:]
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
        err[node] = (lasts[k, ok][good] + pk[good] * 1e-16
                     + spreads[k, ok][good] * np.finfo(float).eps)
        terms[node] = start + k[good] + 1
        going = np.minimum(k_stop, k_over) == m
        live = live[going]
        total, peak, last = sums[-1, going], peaks[-1, going], lasts[-1, going]
        spread = spreads[-1, going]
        start += m
        rows *= 2
    return value, err, terms


def _series_or_integral(coefficients, integral, beta: float, tau: float) -> EvalResult:
    """The series at one tau > 0, or integral(beta, tau) where it is NaN."""
    value, err, terms = _series(coefficients, beta, np.array([tau]))
    if math.isnan(value[0]):
        return integral(beta, tau)
    return EvalResult(float(value[0]), float(err[0]), int(terms[0]))


# ---------------------------------------------------------------------------
# Mittag-Leffler function E_beta on the negative real axis
# ---------------------------------------------------------------------------

def _ml_spectral(beta: float, x: float) -> EvalResult:
    """E_beta(-x) for x > 0, 0 < beta < 1, from the spectral (completely
    monotone) representation

        E_beta(-x) = int_0^inf exp(-r x^(1/beta)) K_beta(r) dr,
        K_beta(r) = sin(b*pi)/pi * r^(b-1) / (r^(2b) + 2 r^b cos(b*pi) + 1),

    with r = s / x^(1/beta) substituted on paper, so that no power of order
    1/beta of x is taken:

        E_beta(-x) = sin(b*pi)/pi * x
                     * int_0^inf e^(-s) s^(b-1) / (s^(2b) + 2 x s^b cos(b*pi) + x^2) ds.
    """
    c = math.cos(beta * math.pi)
    pref = math.sin(beta * math.pi) / math.pi * x

    # s in (0,1): substitute w = s^beta to remove the endpoint singularity
    def low(w):
        return np.exp(-w ** (1.0 / beta)) / (w * w + 2.0 * x * w * c + x * x)

    def high(s):
        sb = s ** beta
        return s ** (beta - 1.0) * np.exp(-s) / (sb * sb + 2.0 * x * sb * c + x * x)

    # relative tolerance only: the integrals scale like 1/x^2 for large x
    v1, e1 = quad(low, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
    v2, e2 = quad(high, 1.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    value = pref * (v1 / beta + v2)
    err = pref * (e1 / beta + e2)
    if err > 1e-8:
        raise ConvergenceError(
            f"Mittag-Leffler integral representation did not converge at "
            f"beta={beta:g}, z={-x:g} (err={err:.2e})"
        )
    return EvalResult(value, err, 0)


def mittag_leffler(beta: float, z: float) -> EvalResult:
    """E_beta(z) for 0 < beta <= 1 and z <= 0.

    Uses the Taylor series while it is numerically safe, and falls back to
    the spectral integral representation on the negative axis when the
    series cancels or overflows.
    """
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"mittag_leffler requires 0 < beta <= 1, got {beta:g}")
    if z > 0.0:
        raise DomainError(f"mittag_leffler requires z <= 0, got {z:g}")
    if z == 0.0:
        return EvalResult(1.0, 0.0, 1)
    if beta == 1.0:
        return EvalResult(math.exp(z), abs(math.exp(z)) * 1e-16, 0)
    return _series_or_integral(_ml_coefficients, _ml_spectral, beta, -z)


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


def _mw_integral(beta: float, tau: float) -> EvalResult:
    """M_beta(tau) for tau > 0 from Kanter's integral form of the one-sided
    stable density, with the change of variables to tau carried out on
    paper, so that no power of order 1/beta of tau is taken:

        M_beta(tau) = tau^(b/(1-b)) / ((1-b) pi)
                      * int_0^pi a(th) exp(-a(th) tau^(1/(1-b))) dth.
    """
    lam = tau ** (1.0 / (1.0 - beta))

    def integrand(theta):
        a = kanter_a(beta, theta)
        return a * np.exp(-a * lam)

    val, err = quad(integrand, 0.0, math.pi, epsabs=1e-14, epsrel=1e-11, limit=300)
    pref = tau ** (beta / (1.0 - beta)) / ((1.0 - beta) * math.pi)
    value = pref * val
    if not math.isfinite(value):
        raise ConvergenceError(
            f"m_wright failed at beta={beta:g}, tau={tau:g}"
        )
    return EvalResult(value, pref * err, 0)


def m_wright(beta: float, tau: float) -> EvalResult:
    """M-Wright density M_beta(tau) for 0 < beta < 1, tau >= 0.

    The Taylor series is reliable for small and moderate tau; beyond its
    cancellation range the value comes from Kanter's integral form of the
    one-sided stable density, which is non-oscillatory for every tau.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"m_wright requires 0 < beta < 1, got {beta:g}")
    if tau < 0.0:
        raise DomainError(f"m_wright requires tau >= 0, got {tau:g}")
    if tau == 0.0:
        return EvalResult(1.0 / gamma(1.0 - beta), 0.0, 1)
    return _series_or_integral(_mw_coefficients, _mw_integral, beta, tau)


def m_wright_cutoff(beta: float) -> float:
    """Radius T such that M_beta(tau) < _CUTOFF_TOL for tau > T.

    From the stretched-exponential decay M_beta(tau) ~ exp(-B tau^(1/(1-b)))
    with B = (1-b) * b^(b/(1-b)); the prefactor is absorbed by a margin.
    """
    b = beta
    big = -math.log(_CUTOFF_TOL) + 20.0
    B = (1.0 - b) * b ** (b / (1.0 - b))
    return (big / B) ** (1.0 - b)


@lru_cache(maxsize=32)
def _mw_rule_cached(beta: float):
    t_hi = m_wright_cutoff(beta)
    # log-spaced panels concentrate nodes near 0 where integrands with
    # negative powers of tau need them
    edges = np.concatenate(
        [[0.0], np.geomspace(1e-14, t_hi, _RULE_PANELS)]
    )
    x, w = np.polynomial.legendre.leggauss(_RULE_NODES)
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    values, _, _ = _series(_mw_coefficients, beta, nodes)
    for i in np.flatnonzero(np.isnan(values)):
        values[i] = _mw_integral(beta, float(nodes[i])).value
    return nodes, weights, values


# M_1 = delta(tau - 1), the limit of M_beta: node 1, weight 1, value 1
_POINT_MASS_RULE = (np.broadcast_to(1.0, (1,)),) * 3


def m_wright_quad_rule(beta: float):
    """Fixed quadrature rule (nodes, weights, M_beta(nodes)) covering the
    effective support of M_beta, 0 < beta <= 1.  Cached per beta; intended
    for integrals of the form int phi(tau) M_beta(tau) dtau with
    smooth-away-from-zero phi.
    """
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"m_wright_quad_rule requires 0 < beta <= 1, got {beta:g}")
    if beta == 1.0:
        return _POINT_MASS_RULE
    return _mw_rule_cached(float(beta))


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

    Defined where ModelParams.failed_green_constraint() is None: d*alpha > 2
    with 1 < alpha <= 2, and the Brownian boundary beta = alpha = 1 (d >= 3),
    where the gamma ratio is taken as its limit value 1, recovering the
    classical Brownian constant.
    """
    failed = ModelParams(beta, alpha, d).failed_green_constraint()
    if failed is not None:
        raise DomainError(failed)
    return time_kernel_constant(alpha, d) * m_wright_moment(beta, -1.0 / alpha)
