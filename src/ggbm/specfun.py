"""Special functions used throughout the package.

Provides the Euler gamma function, the Mittag-Leffler function on the
negative real axis, the M-Wright probability density on [0, inf) with a
cached quadrature rule over its support, its generalized moments, and the
two model constants built from them.

Both functions are summed by one power-series kernel, `_series`, which
takes the coefficients of either and sums every node of an array at
once; the scalar functions call it with one node, the quadrature rule
with all of its nodes.  Each coefficient comes as (log B_n, s_n), with
c_n = s_n B_n, B_n > 0 and |s_n| <= 1, and a node stops where the bound
B_n tau^n is negligible; M_beta's coefficients vanish wherever beta(n+1)
is an integer, but their bound never does.  Where the series cancels or
overflows, each function has an integral continuation (the spectral form
of E_beta, Kanter's form of M_beta) in which the powers of order 1/beta
are cancelled analytically, so both stay finite as beta -> 0.  Kanter's
form is an array kernel too, `_mw_integral`: two fixed theta rules shared
by every node, with adaptive quad only at the nodes where they disagree.

A node whose cancellation is already certain leaves the series early.
Each caller passes the scale of a proven ceiling, |f(tau)| * scale <= 1,
and a node exits to the integral once its largest term times that scale
passes 2 _CANCELLATION_LIMIT, where the cancellation test at its stop row
would reject it anyway, so the exit changes no value.  The ceilings:
E_beta(-x) <= 1, since E_beta(-x) is completely monotone in x and 1 at
x = 0 (scale 1); and M_beta(tau) <= 1/(e (1-b) tau) (scale e (1-b) tau),
since in Kanter's form a exp(-a lam) <= 1/(e lam) for every theta.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
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

# The smallest beta that mittag_leffler, m_wright, the quadrature rule and
# the Y sampler take.  Below the smallest normal float beta keeps only a
# few bits: E_beta(-x) overflows to inf or its integral fails, M_beta from
# Kanter's integral is silently low (16 % at beta = 5e-324, tau = 1, 0.8 %
# at 1e-322) and the sampler returns non-finite draws.  So a subnormal beta
# is a DomainError.
BETA_MIN = sys.float_info.min

# Series summation is abandoned when the largest term exceeds the running
# sum by this factor; it caps the cancellation loss at ~6 digits so at
# least 10 good digits survive in float64.
_CANCELLATION_LIMIT = 1e6
_MAX_TERMS = 20000
# The series kernel builds at most this many terms per block, in a
# row count that starts at _FIRST_ROWS and doubles, so a one-node call does
# not build thousands of rows and a many-node call stays small in memory.
# At 8192 the first block of a 1024-node rule is 8 rows deep, so the
# 70-77 % of its nodes that lie below tau = 1e-3, which stop within 5-7
# terms, finish in that block.
_BLOCK_TERMS = 1 << 13
_FIRST_ROWS = 32
# The M-Wright quadrature rule: _RULE_PANELS log-spaced panels up to the
# radius past which M_beta < _CUTOFF_TOL, each with _RULE_NODES
# Gauss-Legendre nodes.
_RULE_PANELS = 64
_RULE_NODES = 16
_CUTOFF_TOL = 1e-40
# Kanter's integral over theta in (0, pi): _KANTER_NODES Gauss-Legendre
# nodes on panels graded geometrically from _KANTER_EDGE to pi/2 and
# mirrored about pi/2.  The grading toward 0 resolves the flat minimum of
# a(theta), around which the integrand narrows as tau grows; the grading
# toward pi resolves the blow-up of a(theta), which sharpens as beta -> 0.
# A node whose fine and coarse sums differ by more than _KANTER_RTOL
# relative goes to adaptive quad.
_KANTER_EDGE = 1e-3
_KANTER_HALF_PANELS = 16
_KANTER_NODES = 20
_KANTER_RTOL = 1e-12


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


def check_beta(name: str, beta: float) -> None:
    """Raise DomainError unless BETA_MIN <= beta <= 1."""
    if not BETA_MIN <= beta <= 1.0:
        raise DomainError(f"{name} requires {BETA_MIN:g} <= beta <= 1, got {beta:g}")


def gamma(x: float) -> float:
    """Euler gamma function for real x away from the poles.

    Negative non-integer arguments go through the platform libm, which
    applies the reflection formula internally; accuracy is well beyond 12
    significant digits on the range this package uses.
    """
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x = {x:g}")
    return math.gamma(x)


@lru_cache(maxsize=4)
def _legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], built once per n and
    read-only, since every caller shares it."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gauss_legendre(edges: np.ndarray, n: int):
    """Nodes and weights of the composite n-point Gauss-Legendre rule on
    the panels between consecutive edges."""
    x, w = _legendre(n)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


# ---------------------------------------------------------------------------
# One power series for both functions
# ---------------------------------------------------------------------------

def _ml_coefficients(beta: float, n: np.ndarray):
    """(log B_n, s_n) of E_beta(-tau) = sum_n s_n B_n tau^n:
    B_n = 1/Gamma(beta*n + 1) and s_n = (-1)^n."""
    return -gammaln(beta * n + 1.0), np.where(n % 2, -1.0, 1.0)


def _mw_coefficients(beta: float, n: np.ndarray):
    """(log B_n, s_n) of M_beta(tau) = sum_n s_n B_n tau^n, whose
    coefficient (-1)^n / (n! Gamma(1 - b(n+1))) is written by reflection,
    1/Gamma(1 - z) = Gamma(z) sin(pi z) / pi, as B_n = Gamma(b(n+1)) / (n! pi)
    and s_n = (-1)^n sin(pi b(n+1)).  s_n vanishes where b(n+1) is an
    integer; B_n never does.
    """
    zb = beta * (n + 1.0)
    r = np.round(zb)
    # sin(pi*zb) with argument reduction; exactly 0.0 at integers
    sin_part = np.sin(np.pi * (zb - r)) * np.where(r % 2, -1.0, 1.0)
    log_b = gammaln(zb) - gammaln(n + 1.0) - math.log(math.pi)
    return log_b, sin_part * np.where(n % 2, -1.0, 1.0)


def _series(coefficients, beta: float, tau: np.ndarray, scale: np.ndarray):
    """Power series sum_n s_n B_n tau^n at every tau > 0 at once, with
    (log B_n, s_n) = coefficients(beta, n), B_n > 0 and |s_n| <= 1, of a
    function f with the proven ceiling |f(tau)| * scale <= 1 at each node.
    Returns arrays (value, est_abs_error, terms_used); the value is clamped
    at 0, since both functions summed here are nonnegative.

    The terms of all unfinished nodes are built in blocks of rows n, at
    most _BLOCK_TERMS terms per block, with a row count that starts at
    _FIRST_ROWS and doubles.  Each node stops at the first row where the
    bound B_n tau^n on its term is negligible against both the sum and the
    largest term, and that bound is the truncation part of the error.  The
    bound never vanishes, so a coefficient that s_n makes zero or tiny does
    not stop the sum early.  The value is NaN, and the integral
    continuation must be used, where a term heads for overflow before that
    row, where the largest term exceeds the sum by more than
    _CANCELLATION_LIMIT, or where _MAX_TERMS pass without stopping.

    A node leaves the sum, with the value NaN, at the end of the first
    block where its largest term times its scale exceeds
    2 _CANCELLATION_LIMIT.  The callers' ceilings are E_beta(-x) <= 1
    (scale 1) and M_beta(tau) <= 1/(e (1-b) tau) (scale e (1-b) tau, from
    a exp(-a lam) <= 1/(e lam) in Kanter's form; see _mw_scale).  The
    largest term never shrinks and the sum stays within rounding of
    |f| <= 1/scale, so at its stop row such a node would fail the
    cancellation test and end as NaN all the same: the exit changes no
    result, and since every sum runs in term order, no other node's bits
    either.  A scale of 0 never exits.  The test multiplies by the scale
    and never divides by it, which would overflow at subnormal tau.
    """
    tau = np.asarray(tau, dtype=float)
    log_tau = np.log(tau)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), tau.shape)
    value = np.full(tau.size, np.nan)
    err = np.full(tau.size, np.nan)
    terms = np.zeros(tau.size, dtype=np.int64)
    live = np.arange(tau.size)
    # per live node: running sum, largest |term|, and sum |term|
    # (|n log tau| + |log B_n| + 1): exp() passes the rounding of each
    # term's logarithm on to the term, so eps times this bounds it
    total = np.zeros(tau.size)
    peak = np.zeros(tau.size)
    spread = np.zeros(tau.size)
    start, rows = 0, _FIRST_ROWS
    while live.size and start < _MAX_TERMS:
        m = min(rows, max(1, _BLOCK_TERMS // live.size), _MAX_TERMS - start)
        n = np.arange(start, start + m)
        log_b, sign = coefficients(beta, n)
        log_mag = n[:, None] * log_tau[live] + log_b[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.exp(log_mag)
            term = sign[:, None] * bound
            mag = np.abs(term)
            # the carried state is row 0, so every sum runs in term order
            sums = np.cumsum(np.vstack([total, term]), axis=0)[1:]
            peaks = np.maximum.accumulate(np.vstack([peak, mag]), axis=0)[1:]
            reach = np.abs(n[:, None] * log_tau[live]) + np.abs(log_b)[:, None] + 1.0
            spreads = np.cumsum(np.vstack([spread, mag * reach]), axis=0)[1:]
            stop = ((n[:, None] >= 4) & (bound < 1e-17 * np.maximum(np.abs(sums), 1e-300))
                    & (bound <= peaks * 1e-16))
            # an overflowed peak times a scale of 0 is NaN, which never exits
            lost = peaks[-1] * scale[live] > 2.0 * _CANCELLATION_LIMIT
        over = log_mag > 700.0
        k_stop = np.where(stop.any(axis=0), stop.argmax(axis=0), m)
        k_over = np.where(over.any(axis=0), over.argmax(axis=0), m)
        ok = np.flatnonzero(k_stop < k_over)
        k = k_stop[ok]
        tot, pk = sums[k, ok], peaks[k, ok]
        good = pk / np.maximum(np.abs(tot), 1e-300) <= _CANCELLATION_LIMIT
        node = live[ok[good]]
        value[node] = np.maximum(tot[good], 0.0)
        err[node] = (bound[k, ok][good] + pk[good] * 1e-16
                     + spreads[k, ok][good] * np.finfo(float).eps)
        terms[node] = start + k[good] + 1
        going = (np.minimum(k_stop, k_over) == m) & ~lost
        live = live[going]
        total, peak, spread = sums[-1, going], peaks[-1, going], spreads[-1, going]
        start += m
        rows *= 2
    return value, err, terms


def _series_or_integral(coefficients, integral, beta: float, tau: float,
                        scale: float) -> EvalResult:
    """The series at one tau > 0, or integral(beta, tau) where it is NaN."""
    value, err, terms = _series(coefficients, beta, np.array([tau]), scale)
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
    from scipy.integrate import quad

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
    """E_beta(z) for BETA_MIN <= beta <= 1 and finite z <= 0.

    Uses the Taylor series while it is numerically safe, and falls back to
    the spectral integral representation on the negative axis when the
    series cancels or overflows.
    """
    check_beta("mittag_leffler", beta)
    if not -math.inf < z <= 0.0:
        raise DomainError(f"mittag_leffler requires a finite z <= 0, got {z:g}")
    if z == 0.0:
        return EvalResult(1.0, 0.0, 1)
    if beta == 1.0:
        return EvalResult(math.exp(z), abs(math.exp(z)) * 1e-16, 0)
    # E_beta(-x) <= 1: it is completely monotone in x and 1 at x = 0
    return _series_or_integral(_ml_coefficients, _ml_spectral, beta, -z, 1.0)


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


@lru_cache(maxsize=1)
def _kanter_rules():
    """(theta, weight) of the fine theta rule and of the coarse one, whose
    panels join the fine panels in pairs, so the two share no node."""
    half = np.geomspace(_KANTER_EDGE, 0.5 * math.pi, _KANTER_HALF_PANELS + 1)
    fine = np.concatenate([[0.0], half, math.pi - half[-2::-1], [math.pi]])
    return _gauss_legendre(fine, _KANTER_NODES), _gauss_legendre(fine[::2], _KANTER_NODES)


def _mw_integral(beta: float, tau: np.ndarray):
    """M_beta at every tau > 0 of an array from Kanter's integral form of
    the one-sided stable density, with the change of variables to tau
    carried out on paper, so that no power of order 1/beta of tau is taken:

        M_beta(tau) = tau^(b/(1-b)) / ((1-b) pi)
                      * int_0^pi a(th) exp(-a(th) tau^(1/(1-b))) dth.

    With lam = tau^(1/(1-b)) and a0 = a(0+) = (1-b) b^(b/(1-b)), the
    minimum of a, the kernel integrates a exp(-(a - a0) lam) and multiplies
    by exp(-a0 lam) in closed form, so each value is accurate relative to
    its own size however far out in the tail.  a(theta) is evaluated once
    on the fine and the coarse rule of _kanter_rules, and the normalized
    integrand is summed on both at every node at once; the fine sum gives
    the value and the difference of the two sums its error.  A node where
    they differ by more than _KANTER_RTOL relative, or where lam
    overflows, goes to the adaptive quad of _mw_quad instead (a non-finite
    a(theta) makes both sums NaN, which fails the same check).  Returns
    arrays (value, est_abs_error).
    """
    tau = np.asarray(tau, dtype=float)
    a0 = (1.0 - beta) * beta ** (beta / (1.0 - beta))
    log_tau = np.log(tau)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = np.exp(log_tau / (1.0 - beta))
        sums = []
        for theta, weight in _kanter_rules():
            a = kanter_a(beta, theta)
            sums.append(np.sum(a * np.exp(-(a - a0) * lam[:, None]) * weight, axis=1))
        fine, coarse = sums
        scale = np.exp(beta / (1.0 - beta) * log_tau - a0 * lam
                       - math.log((1.0 - beta) * math.pi))
        value, err = scale * fine, scale * np.abs(fine - coarse)
        passed = np.isfinite(lam) & (np.abs(fine - coarse) <= _KANTER_RTOL * fine)
    for i in np.flatnonzero(~passed):
        value[i], err[i] = _mw_quad(beta, float(tau[i]))
    return value, err


def _mw_quad(beta: float, tau: float):
    """Kanter's integral at one tau > 0 by adaptive quad: the fallback where
    the fixed rules of _mw_integral fail their check.  Its absolute
    tolerance is met long before the relative one in the far tail, where
    the integral is about exp(-a0 lam).  Returns (value, est_abs_error)."""
    from scipy.integrate import quad

    try:
        lam = tau ** (1.0 / (1.0 - beta))
    except OverflowError:
        raise ConvergenceError(
            f"m_wright failed at beta={beta:g}, tau={tau:g}: "
            f"tau^(1/(1-beta)) overflows"
        ) from None

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
    return value, pref * err


def _mw_scale(beta: float, tau):
    """The scale e (1-b) tau of the ceiling M_beta(tau) <= 1/(e (1-b) tau)
    that _series exits on.  In Kanter's form (_mw_integral),
    a exp(-a lam) <= 1/(e lam) for every theta, so the integral over
    (0, pi) is at most pi/(e lam), and tau^(b/(1-b)) / lam = 1/tau."""
    return math.e * (1.0 - beta) * tau


def _mw_integral_at(beta: float, tau: float) -> EvalResult:
    """_mw_integral at one node."""
    value, err = _mw_integral(beta, np.array([tau]))
    return EvalResult(float(value[0]), float(err[0]), 0)


def m_wright(beta: float, tau: float) -> EvalResult:
    """M-Wright density M_beta(tau) for BETA_MIN <= beta < 1 and finite tau >= 0.

    The Taylor series is reliable for small and moderate tau; beyond its
    cancellation range the value comes from Kanter's integral form of the
    one-sided stable density, which is non-oscillatory for every tau.
    """
    check_beta("m_wright", beta)
    if beta == 1.0:
        raise DomainError("m_wright requires beta < 1: M_1 is the point mass at 1")
    if not 0.0 <= tau < math.inf:
        raise DomainError(f"m_wright requires a finite tau >= 0, got {tau:g}")
    if tau == 0.0:
        return EvalResult(1.0 / gamma(1.0 - beta), 0.0, 1)
    return _series_or_integral(_mw_coefficients, _mw_integral_at, beta, tau,
                               _mw_scale(beta, tau))


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
    nodes, weights = _gauss_legendre(edges, _RULE_NODES)
    values, _, _ = _series(_mw_coefficients, beta, nodes, _mw_scale(beta, nodes))
    tail = np.isnan(values)
    values[tail], _ = _mw_integral(beta, nodes[tail])
    # cached and shared by every caller for this beta, so read-only
    for a in (nodes, weights, values):
        a.flags.writeable = False
    return nodes, weights, values


# M_1 = delta(tau - 1), the limit of M_beta: node 1, weight 1, value 1
_POINT_MASS_RULE = (np.broadcast_to(1.0, (1,)),) * 3


def m_wright_quad_rule(beta: float):
    """Fixed quadrature rule (nodes, weights, M_beta(nodes)) covering the
    effective support of M_beta, BETA_MIN <= beta <= 1.  Cached per beta,
    so the arrays are shared and read-only; intended for integrals of the
    form int phi(tau) M_beta(tau) dtau with smooth-away-from-zero phi.
    """
    check_beta("m_wright_quad_rule", beta)
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

    Defined where ModelParams.failed_green_constraint() is None: d*alpha > 2,
    and alpha > 1 when beta < 1.  At beta = 1 (fBm) the gamma ratio is taken
    as its limit value 1 for every alpha, so D = C(alpha, d); at alpha = 1,
    d = 3 that is the classical Brownian constant 1/(2 pi).
    """
    failed = ModelParams(beta, alpha, d).failed_green_constraint()
    if failed is not None:
        raise DomainError(failed)
    return time_kernel_constant(alpha, d) * m_wright_moment(beta, -1.0 / alpha)
