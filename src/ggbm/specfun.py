"""Special functions used throughout the package.

Provides the Euler gamma function, the M-Wright probability density
M_beta on [0, inf) with a cached quadrature rule over its support, the
Mittag-Leffler function on the negative real axis as that rule's Laplace
sum, the generalized moments of M_beta, and the two model constants.

M_beta has two array kernels, which m_wright calls with one node and the
rule with all of its nodes: the power series `_series` for small and
moderate tau, and Kanter's integral `_mw_integral`, formed from
logarithms so that no power of order 1/beta or 1/(1-beta) is taken, on
theta panels that follow log a(theta), graded toward pi so that a fine
and a coarse rule on them agree within 1e-12 at every beta; their
difference is the error.  One rule on the depth -log u0 of Kanter's
integrand sends a node to Kanter's integral where the series would run
long or cancel (_mw_values); the series' own guards hand it the nodes
whose terms overflow.

The rule build is the cost of every quantity at a fresh beta, so both
kernels keep their bits while doing little beyond the arithmetic of the
sums.  The rule keeps only its nodes' values, checked as a whole by its
unit mass, so it asks the kernels for no per-node error: the series then
forms no rounding spread, and Kanter's integral neither builds nor sums
its coarse theta rule, while every exit test of the series, none of which
reads the error, still runs.  m_wright asks for the errors that its
EvalResult reports.  The series decides each node's exit once per block,
at the block's last row, on one schedule of block ends that every call
shares, and sums each block row by row from the carried sums, so every
sum runs in term order; past a node's stop row each term is below half
an ulp of its sum, so the rest of the block leaves the sum's bits as they
were at that row.  Kanter's integrand exp(v - e^v) is exactly 0.0 once
v >= 7, where numpy's exp costs over ten times what it costs in range, so
it is formed only on each node group's window of theta (_kanter_matrix)
and the rest of the matrix stays 0.  Each fresh rule finds numpy's
Python-level helpers cold, so the build calls the ufuncs and ndarray
methods they wrap instead.

E_beta(-x) = int_0^inf exp(-x tau) M_beta(tau) dtau (Mainardi, Mura &
Pagnini 2010), so E_beta, the characteristic functions and the densities
of the process share one evaluator, the rule.  Toward beta = 1 M_beta
narrows onto tau = 1; the rule puts panels on that spike and holds its
unit mass to _MASS_TOL up to _BETA_MAX.  beta in (_BETA_MAX, 1) is a
DomainError for the rule and everything built on it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, rgamma

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
# few bits: M_beta from Kanter's integral was silently low (16 % at
# beta = 5e-324, tau = 1, 0.8 % at 1e-322) and the sampler returns
# non-finite draws.  So a subnormal beta is a DomainError.
BETA_MIN = sys.float_info.min
# The largest beta below 1 that m_wright and the quadrature rule, and so
# mittag_leffler and every density built on it, take; the sampler takes
# more.
_BETA_MAX = 0.999

# Series summation is abandoned when the largest term exceeds the running
# sum by this factor; it caps the cancellation loss at ~6 digits so at
# least 10 good digits survive in float64.
_CANCELLATION_LIMIT = 1e6
_MAX_TERMS = 20000
_SERIES_REACH = 0.4  # see _mw_values
# The series kernel decides a node's exit at these block ends, the same
# for every call, so terms_used is the first end at or past the node's stop
# row.  The first block finishes 91 % of a rule's series nodes, most of
# which stop within 8 terms, and half the one-node calls at tau in
# [0.01, 5] (a median of 15 terms); the second finishes 98-99 % of both.
# A first block of 24 rows, 50 % more cells at every node of a rule, made
# an analytic_queries op 1.5-2 % slower.
_BLOCK_ENDS = (16, 64, 256, 1024, 4096, _MAX_TERMS)
# The M-Wright quadrature rule: _RULE_PANELS panels up to the radius past
# which M_beta < _CUTOFF_TOL, each with _RULE_NODES Gauss-Legendre nodes
# (_rule_edges).  Its mass must be 1 within _MASS_TOL.
_RULE_PANELS = 64
_RULE_NODES = 16
_CUTOFF_TOL = 1e-40
_SPIKE_PANELS = 12
_POLE_PANELS = 6
_SPIKE_DEPTH = 30.0
_MASS_TOL = 1e-10
# Kanter's integrand u exp(-u) peaks where d = log(a/a0) = -log u0, over a
# width of order 1 in d, or where u0 > 1 at theta = 0+, over 1/u0.  Its
# theta panels end where d crosses 2^-20 ... 1/2 and every integer up to
# _KANTER_DEPTH, four past the deepest peak the rule has, and past pi/2
# 2^-64 ... 2^-21 (_kanter_edges), with a fine and a coarse rule of
# _KANTER_NODES Gauss-Legendre nodes on each (_kanter_rule).
_KANTER_DEPTH = int(_SPIKE_DEPTH) + 4
_KANTER_NODES = (14, 11)
# _kanter_matrix: rows per group, and the v past which the integrand is 0.0
_KANTER_ROWS = 32
_KANTER_ZERO = 7.0
# mittag_leffler: the relative error of the rule's Laplace sum beyond its
# mass error, and the x past which the one-term asymptote takes over.
_ML_RTOL = 1e-12
_ML_ASYMPTOTE = 1e15
_EPS = sys.float_info.epsilon


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
# M-Wright function M_beta on [0, inf): its series and Kanter's integral
# ---------------------------------------------------------------------------

def _mw_coefficients(beta: float, n: np.ndarray):
    """(log B_n, s_n) of M_beta(tau) = sum_n s_n B_n tau^n, whose
    coefficient (-1)^n / (n! Gamma(1 - b(n+1))) is written by reflection,
    1/Gamma(1 - z) = Gamma(z) sin(pi z) / pi, as B_n = Gamma(b(n+1)) / (n! pi)
    and s_n = (-1)^n sin(pi b(n+1)).  s_n vanishes where b(n+1) is an
    integer; B_n never does.
    """
    n1 = n + 1.0
    zb = beta * n1
    r = np.rint(zb)
    # sin(pi*zb) with argument reduction, exactly 0.0 at integers, times
    # (-1)^n in one factor (-1)^(r+n): products of signs are exact
    sign = np.sin(np.pi * (zb - r)) * np.where((r + n) % 2, -1.0, 1.0)
    return gammaln(zb) - gammaln(n1) - math.log(math.pi), sign


def _series(beta: float, tau: np.ndarray, errors: bool = True):
    """The power series sum_n s_n B_n tau^n of M_beta at every tau > 0 at
    once, (log B_n, s_n) = _mw_coefficients(beta, n).  Returns arrays
    (value, est_abs_error, terms_used); the value is clamped at 0.  With
    errors false est_abs_error is None and no part of it is formed: the
    rule keeps only the values.

    The terms of all unfinished nodes are built in blocks of rows n that
    end at _BLOCK_ENDS.  A node stops at the first row where the bound
    B_n tau^n, which never vanishes, is negligible against both the sum and
    the largest term: below 1e-17 of the sum, under half an ulp of it, and
    at most 1e-16 of the largest term.  The test is made at each block's
    last row only.  It holds there exactly when it held at some row of the
    block, since past the largest term the bound keeps shrinking (log B_n
    tau^n is concave in n) while sum and largest term stay put, and each
    term past the stop row is below half an ulp of the sum, so adding it
    leaves the sum's bits as they were.  The node then leaves with that
    sum, the block end as terms_used and the bound at the block end as the
    truncation part of the error.  The value is NaN where a term heads for
    overflow before that row, where the largest term exceeds the sum by
    more than _CANCELLATION_LIMIT, or where _MAX_TERMS pass.  None of these
    exits reads the error, so both settings of errors give the same values
    and terms.

    Each block has one (1, m + 1, nodes) buffer, (2, m + 1, nodes) with
    errors: row 0 holds the carried sum and spread, rows 1..m the term and
    |term| times its reach, and np.add.reduce down the rows adds them row
    by row, so in term order per node, in one pass; the peak is one
    np.maximum.reduce of |term|.  numpy reduces a lone column pairwise
    instead, so a lone node is carried in two columns.  So a node's bits do
    not depend on the other nodes of the call, and the rule's nodes get the
    bits that one-node calls give them.
    """
    tau = np.asarray(tau, dtype=float)
    log_tau = np.log(tau)
    # the summed rows: the sum and, with errors, sum |term| (|n log tau| +
    # |log B_n| + 1): exp() passes the rounding of each term's logarithm
    # on to the term, so eps times this bounds it
    k = 2 if errors else 1
    # per node: the summed rows, the largest |term| and the last bound,
    # carried from block to block while it is live, and kept at its exit
    # (NaN for a node that leaves without a value)
    carry = np.zeros((k + 2, tau.size))
    fin = np.empty((k + 2, tau.size))
    fin.fill(np.nan)
    ends = np.zeros(tau.size, dtype=np.int64)
    live = np.arange(tau.size)
    start = 0
    for end in _BLOCK_ENDS:
        if not live.size:
            break
        if live.size == 1:
            # numpy sums a lone column pairwise, not in term order
            live, carry = live.repeat(2), carry.repeat(2, axis=1)
        n = np.arange(float(start), end)
        log_b, sign = _mw_coefficients(beta, n)
        buf = np.empty((k, n.size + 1, live.size))
        buf[:, 0] = carry[:k]
        term = buf[0, 1:]
        log_mag = np.multiply.outer(n, log_tau[live])
        if errors:
            # the reach |n log tau| + |log B_n| + 1, times |term| below
            spread = np.abs(log_mag, out=buf[1, 1:])
            spread += np.abs(log_b)[:, None]
            spread += 1.0
        log_mag += log_b[:, None]
        # a term heading for overflow: its node leaves as NaN
        over = None
        if np.maximum.reduce(log_mag, None) > 700.0:
            over = np.maximum.reduce(log_mag) > 700.0
        acc = np.empty((k + 2, live.size))
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.exp(log_mag, out=log_mag)
            np.multiply(sign[:, None], bound, out=term)
            acc[-1] = bound[-1]
            mag = np.abs(term, out=bound)
            if errors:
                spread *= mag
            # row by row, so in term order from the carried sums in buf[:, 0]
            np.add.reduce(buf, axis=1, out=acc[:k])
            peak = np.maximum(carry[k], np.maximum.reduce(mag), out=acc[k])
        # at the block's last row, bound < 1e-17 max(|sum|, 1e-300) and
        # bound <= 1e-16 peak
        last = acc[-1]
        floor = np.abs(acc[0])
        np.maximum(floor, 1e-300, out=floor)
        floor *= 1e-17
        stop = last < floor
        stop &= last <= peak * 1e-16
        going = ~stop
        if over is not None:
            stop &= ~over
            going &= ~over
        node = live[stop]
        fin[:, node] = acc[:, stop]
        ends[node] = end
        live, carry = live[going], acc[:, going]
        start = end
    total, peak, last = fin[0], fin[k], fin[-1]
    bad = ~(peak / np.maximum(np.abs(total), 1e-300) <= _CANCELLATION_LIMIT)
    value = np.maximum(total, 0.0)
    value[bad] = np.nan
    terms = np.where(bad, 0, ends)
    if not errors:
        return value, None, terms
    err = last + peak * 1e-16 + fin[1] * _EPS
    err[bad] = np.nan
    return value, err, terms


def _kanter_log_a(beta: float, theta):
    """log a(theta) = b/(1-b) log(sin(b th)/sin(th)) + log(sin((1-b) th)/sin(th)),
    whose ratios of sines stay in range where the powers of kanter_a's
    textbook form underflow (0/0 near b = 1).  For b >= 1/2 the first ratio
    minus 1 is formed exactly, -2 cos((1+b) th/2) sin((1-b) th/2)/sin(th),
    so its logarithm keeps its digits where b/(1-b) multiplies it."""
    c = 1.0 - beta
    s = np.sin(theta)
    if beta < 0.5:
        first = np.log(np.sin(beta * theta) / s)
    else:
        first = np.log1p(-2.0 * np.cos(0.5 * (1.0 + beta) * theta) * np.sin(0.5 * c * theta) / s)
    return beta / c * first + np.log(np.sin(c * theta) / s)


def kanter_a(beta: float, theta):
    """Kanter's auxiliary function on (0, pi),
    a(theta) = sin(b*th)^(b/(1-b)) * sin((1-b)*th) / sin(th)^(1/(1-b)),
    increasing from a0 = (1-b)*b^(b/(1-b)) at 0+ to +inf at pi-; taken as
    exp(_kanter_log_a), so it is finite wherever a is."""
    return np.exp(_kanter_log_a(beta, theta))


def _log_a0(beta: float) -> float:
    """log a0 = log a(0+) = log(1-b) + b/(1-b) log b, the minimum of log a."""
    return math.log(1.0 - beta) + beta / (1.0 - beta) * math.log(beta)


def _log_u0(beta: float, tau):
    """log u0 = log(a0 lam), lam = tau^(1/(1-b)), at tau > 0; neither lam
    nor a0 is formed."""
    return _log_a0(beta) + np.log(tau) / (1.0 - beta)


# The theta table that _kanter_edges reads the panel ends of Kanter's
# integral off, the levels of d that end them, and the lower levels that
# end them only past pi/2 (the grading near pi); none depends on beta.
_THETA_TABLE = np.concatenate([np.geomspace(1e-8, 0.5 * math.pi, 400),
                               math.pi - np.geomspace(0.5 * math.pi, 1e-15, 500)[1:]])
_KANTER_LEVELS = np.concatenate([2.0 ** np.arange(-20, 0), np.arange(1, _KANTER_DEPTH + 1)])
_KANTER_GRADING = 2.0 ** np.arange(-64, -20)
_THETA_TABLE.flags.writeable = False
_KANTER_LEVELS.flags.writeable = False
_KANTER_GRADING.flags.writeable = False


@lru_cache(maxsize=32)
def _kanter_edges(beta: float):
    """(edges, reach) of Kanter's integral: the theta panels end where d,
    increasing on (0, pi), crosses the levels of _KANTER_DEPTH and, past
    pi/2, those of _KANTER_GRADING, read off a table of d; reach is d at
    the table's end, pi - 1e-15, as near pi as a float resolves.  The
    edges are cached and shared, so read-only.

    The grading is there for small beta.  Near pi d ~ beta pi/(pi - theta),
    so below beta ~ 1e-6 d passes 2^-20 only at pi - theta ~ beta pi 2^20,
    and without the grading one panel would reach from pi/2 or less to
    there.  Across it u = u0 a/a0 moves by about u0 beta pi/(pi - theta),
    and the fine and the coarse sums differ by up to about 3e-8.  Level
    2^-k lies at pi - theta ~ beta pi 2^k, so the grading halves pi - theta
    from panel to panel; below pi/2, where d grows like theta^2, it would
    only crowd theta = 0.  It ends no panel where d(pi/2) ~ 1.45 beta passes
    2^-20 (beta >~ 7e-7), nor where d stays under 2^-64 (beta <~ 1e-21,
    where 1 - beta rounds to 1 and d moves u by less than its rounding).

    d increases on paper, but within rounding of pi it falls in floats (at
    428 of 803 beta from BETA_MIN to _BETA_MAX, at up to 87 points of the
    table), and np.interp needs a nondecreasing table, so the levels are
    read off the running maximum of d (the rules it gives were bit for bit
    those of d itself at 250 random beta)."""
    d = _kanter_log_a(beta, _THETA_TABLE) - _log_a0(beta)
    table = np.maximum.accumulate(d)
    grading = np.interp(_KANTER_GRADING, table, _THETA_TABLE)
    edges = np.concatenate([[0.0], np.interp(_KANTER_LEVELS, table, _THETA_TABLE),
                            grading[grading > 0.5 * math.pi], [math.pi]])
    # np.unique's sort and drop of repeats, without its wrapper
    edges.sort()
    edges = np.concatenate([edges[:1], edges[1:][edges[1:] != edges[:-1]]])
    edges.flags.writeable = False
    return edges, float(d[-1])


@lru_cache(maxsize=2 * 32)
def _kanter_rule(beta: float, nodes: int):
    """(d, weight) at the nodes of the composite `nodes`-point
    Gauss-Legendre rule on the panels of _kanter_edges: the fine rule at
    _KANTER_NODES[0], the coarse one at _KANTER_NODES[1].  Each is built
    on first use, so a beta whose values are asked for without errors
    never forms the coarse rule; cached and shared, so read-only."""
    theta, weight = _gauss_legendre(_kanter_edges(beta)[0], nodes)
    d = _kanter_log_a(beta, theta) - _log_a0(beta)
    for a in (d, weight):
        a.flags.writeable = False
    return d, weight


def _kanter_integrand(d, log_u0):
    """u exp(-u) = exp(v - e^v), v = log u0 + d, d = log(a/a0), at each
    log u0 (rows) and d (columns)."""
    with np.errstate(over="ignore"):
        v = np.add.outer(log_u0, d)
        v -= np.exp(v)
        return np.exp(v, out=v)


def _kanter_matrix(d, log_u0):
    """_kanter_integrand(d, log_u0), bit for bit, formed only where it can
    be nonzero.  Where v >= _KANTER_ZERO, v - e^v < -1089 lies below the
    smallest subnormal, e^-745, so the cell is exactly 0.0; numpy's exp
    takes about 18 ns on such a cell (130 ns where the result is
    subnormal) against about 1 ns in range on a 2-core x86 box.  The rows
    go in groups of _KANTER_ROWS in the order given (for the rule,
    increasing tau and so increasing log u0), and each group fills the
    columns before the suffix minimum of d passes _KANTER_ZERO - min(log u0).
    d increases on paper, but within rounding of pi not always in floats:
    it falls at 27 to 77 points of the theta table of _kanter_edges at
    beta = 1e-12 ... 1e-3, and at up to 13 of the rules' nodes at some beta
    in 1e-16 ... 1e-13 (at none elsewhere, over 801 beta from BETA_MIN to
    _BETA_MAX), hence the suffix minimum.  The rest stays 0, so a product
    with the whole matrix sums the same cells in the same order as the
    full-width one."""
    out = np.zeros((log_u0.size, d.size))
    low = np.minimum.accumulate(d[::-1])[::-1]
    for start in range(0, log_u0.size, _KANTER_ROWS):
        rows = log_u0[start:start + _KANTER_ROWS]
        width = int(low.searchsorted(_KANTER_ZERO - rows.min()))
        out[start:start + _KANTER_ROWS, :width] = _kanter_integrand(d[:width], rows)
    return out


def _mw_integral(beta: float, tau: np.ndarray, errors: bool = True):
    """M_beta at every tau > 0 of an array from Kanter's integral form of
    the one-sided stable density, changed to tau on paper, so that no power
    of order 1/beta of tau is taken:

        M_beta(tau) = 1/((1-b) pi tau) int_0^pi u exp(-u) dth,  u = u0 a/a0.

    The integrand comes from logarithms, so each value is accurate relative
    to its own size, and one that underflows everywhere is 0.  The fine
    theta rule (_kanter_rule) gives the value; its difference to the coarse
    one plus the rounding of v, (16 + 4 |log u0| + 4 u0) eps relative, the
    error, so a node where the two rules disagree reports it.  With the
    grading of _kanter_edges near pi they agree within 1e-12 relative at
    every normal value of the M-Wright rule from BETA_MIN to _BETA_MAX.  A
    peak past the rule's levels but short of its reach raises
    ConvergenceError; past the reach a float theta cannot resolve it.
    Returns arrays (value, est_abs_error); with errors false
    est_abs_error is None, and the coarse rule is neither summed nor, if
    no call with errors has asked for it at this beta, built: the edges,
    the fine rule and the coarse rule are cached apart, so a rule build
    never forms the coarse one (about 40 us of theta work on a 2-core x86
    box).

    The integrand is formed on windows (_kanter_matrix): 29-58 % of the
    rule's Kanter cells have v >= 7 and are exactly 0.  The fine and the
    coarse products still run over the whole zero-filled matrix, so BLAS
    sums the same cells in the same order as it did the full-width one;
    cutting the columns to the window instead moved 8 of 47 622 of the
    rules' row sums (400 beta) in the last bit.
    """
    tau = np.asarray(tau, dtype=float)
    log_u0 = _log_u0(beta, tau)
    reach = _kanter_edges(beta)[1]
    lost = (log_u0 < -_SPIKE_DEPTH) & (-log_u0 < reach)
    if lost.any():
        raise ConvergenceError(
            f"m_wright failed at beta={beta:g}, tau={tau[lost][0]:g}: the peak of "
            f"Kanter's integrand lies past the levels of its theta rule")
    pref = 1.0 / ((1.0 - beta) * math.pi * tau)
    d, weight = _kanter_rule(beta, _KANTER_NODES[0])
    fine = _kanter_matrix(d, log_u0) @ weight
    if not errors:
        return pref * fine, None
    d, weight = _kanter_rule(beta, _KANTER_NODES[1])
    coarse = _kanter_matrix(d, log_u0) @ weight
    rounding = _EPS * (16.0 + 4.0 * (np.abs(log_u0) + np.exp(np.minimum(log_u0, 700.0))))
    return pref * fine, pref * (np.abs(fine - coarse) + rounding * fine)


def m_wright(beta: float, tau: float) -> EvalResult:
    """M-Wright density M_beta(tau) for BETA_MIN <= beta <= _BETA_MAX and
    finite tau >= 0, from the series or Kanter's integral (_mw_values).
    In the band (_BETA_MAX, 1) Kanter's theta rule misses the peak of its
    integrand near tau = 1 and the series runs long, so the band is the
    rule's DomainError here too."""
    check_beta("m_wright", beta)
    if beta == 1.0:
        raise DomainError("m_wright requires beta < 1: M_1 is the point mass at 1")
    _refuse_band(beta)
    if not 0.0 <= tau < math.inf:
        raise DomainError(f"m_wright requires a finite tau >= 0, got {tau:g}")
    if tau == 0.0:
        return EvalResult(1.0 / gamma(1.0 - beta), 0.0, 1)
    value, err, terms = _mw_values(beta, np.array([tau]))
    return EvalResult(float(value[0]), float(err[0]), int(terms[0]))


def _mw_values(beta: float, tau: np.ndarray, errors: bool = True):
    """M_beta at every tau > 0 of an array, as arrays (value,
    est_abs_error, terms_used): the series, and Kanter's integral where it
    is NaN, called only when some node is left for it, so a node the
    series finishes pays none of its set-up.  With errors false
    est_abs_error is None: the rule keeps only the values, and neither
    kernel forms a per-node error, which costs the series a second summed
    row per block and Kanter's integral its coarse rule.

    One rule routes each node, by its depth -log u0: to the series where
    the depth is at least _SERIES_REACH/(1-b), or at least _SPIKE_DEPTH,
    past which Kanter's rule has no level to reach the peak of its
    integrand; to Kanter's integral at once everywhere else.  The series'
    terms grow up to n = u0/(1-b), then shrink by about
    (u0/((1-b) n))^(1-b) each, so it needs about 40/((1-b) log(1/u0))
    terms, at most 100 past the first bound.  Either bound gives u0 < 1-b
    (exp(-0.4/c) < c for every c > 0, and e^-30 < 1-b up to _BETA_MAX), so
    the terms' growth phase is shorter than one term, and the series sums
    a node routed to it without the cancellation that its final test
    refuses (test_series_takes_every_node_routed_to_it checks this).
    Kanter's integral also takes any node that the series leaves as NaN,
    as where log B_0 passes the overflow guard near BETA_MIN."""
    value = np.empty(tau.size)
    value.fill(np.nan)
    err = value.copy() if errors else None
    terms = np.zeros(tau.size, dtype=np.int64)
    depth = -_log_u0(beta, tau)
    head = (depth >= min(_SERIES_REACH / (1.0 - beta), _SPIKE_DEPTH)).nonzero()[0]
    value[head], head_err, terms[head] = _series(beta, tau[head], errors)
    if errors:
        err[head] = head_err
    tail = np.isnan(value).nonzero()[0]
    if tail.size:
        value[tail], tail_err = _mw_integral(beta, tau[tail], errors)
        if errors:
            err[tail] = tail_err
    return value, err, terms


def m_wright_cutoff(beta: float) -> float:
    """Radius T such that M_beta(tau) < _CUTOFF_TOL for tau > T.

    From the stretched-exponential decay M_beta(tau) ~ exp(-a0 tau^(1/(1-b)))
    with a0 = (1-b) * b^(b/(1-b)); the prefactor is absorbed by a margin.
    """
    big = -math.log(_CUTOFF_TOL) + 20.0
    return math.exp((1.0 - beta) * (math.log(big) - _log_a0(beta)))


def _geomspace(start: float, stop: float, num: int) -> np.ndarray:
    """np.geomspace(start, stop, num) for start, stop > 0 and num >= 2, bit
    for bit: numpy's own steps, linspace's arithmetic between the log10 of
    the ends (np.log10's, which math.log10 misses by an ulp at some ends)
    raised to base 10, both ends pinned, without the dtype, sign and axis
    handling that makes up most of np.geomspace's and np.linspace's time."""
    lo, hi = np.log10(start), np.log10(stop)
    y = np.arange(float(num))
    y *= (hi - lo) / (num - 1)
    y += lo
    np.power(10.0, y, out=y)
    y[0], y[-1] = start, stop
    return y


def _rule_edges(beta: float) -> np.ndarray:
    """The rule's panel ends: 0, then log-spaced from 1e-14 to the cutoff.
    Toward beta = 1 M_beta narrows onto tau = 1, over a width of order 1-b
    in log tau: where _SPIKE_PANELS panels from t_lo, u0 = exp(-_SPIKE_DEPTH),
    to the cutoff are under 1.5 times as wide, they cover it.  Below, M_beta
    falls off like 1/log(t1/tau)^2, u0(t1) = 1; where log(t1/t_lo) < 1 the
    last _POLE_PANELS there run geometrically in log(t1/tau) from 1."""
    t_hi, log_t1 = m_wright_cutoff(beta), -(1.0 - beta) * _log_a0(beta)
    near = (1.0 - beta) * _SPIKE_DEPTH  # log(t1/t_lo)
    t_lo, below = math.exp(log_t1 - near), _RULE_PANELS - _SPIKE_PANELS
    if math.log(t_hi / t_lo) / _SPIKE_PANELS >= 1.5 * math.log(t_hi / 1e-14) / (_RULE_PANELS - 1):
        return np.concatenate([[0.0], _geomspace(1e-14, t_hi, _RULE_PANELS)])
    if near >= 1.0:
        left = _geomspace(1e-14, t_lo, below)[:-1]
    else:
        left = np.concatenate([_geomspace(1e-14, math.exp(log_t1 - 1.0), below - _POLE_PANELS),
                               np.exp(log_t1 - _geomspace(1.0, near, _POLE_PANELS + 1)[1:-1])])
    return np.concatenate([[0.0], left, _geomspace(t_lo, t_hi, _SPIKE_PANELS + 1)])


@lru_cache(maxsize=32)
def _mw_rule_cached(beta: float):
    """(nodes, weights, M_beta(nodes)) of the rule at beta, built once per
    beta.  It asks _mw_values for values only: no caller of the rule reads a
    per-node error, and its check is the mass guard, so forming one would
    cost the series a second summed row per block for nothing."""
    # log-spaced panels concentrate nodes near 0 where integrands with
    # negative powers of tau need them, and _rule_edges adds the spike
    nodes, weights = _gauss_legendre(_rule_edges(beta), _RULE_NODES)
    values = _mw_values(beta, nodes, errors=False)[0]
    mass = float(weights @ values)
    if not abs(mass - 1.0) <= _MASS_TOL:
        raise ConvergenceError(f"the M-Wright rule at beta={beta!r} has mass {mass!r}, "
                               f"off 1 by more than {_MASS_TOL:g}")
    # cached and shared by every caller for this beta, so read-only
    for a in (nodes, weights, values):
        a.flags.writeable = False
    return nodes, weights, values


# M_1 = delta(tau - 1), the limit of M_beta: node 1, weight 1, value 1
_POINT_MASS_RULE = (np.broadcast_to(1.0, (1,)),) * 3


def m_wright_quad_rule(beta: float):
    """Fixed quadrature rule (nodes, weights, M_beta(nodes)) covering the
    effective support of M_beta, BETA_MIN <= beta <= _BETA_MAX or beta = 1,
    with unit mass to within _MASS_TOL.  Cached per beta, so the arrays
    are shared and read-only; intended for integrals of the form
    int phi(tau) M_beta(tau) dtau with smooth-away-from-zero phi.
    """
    _check_rule_beta(beta)
    if beta == 1.0:
        return _POINT_MASS_RULE
    return _mw_rule_cached(float(beta))


def _check_rule_beta(beta: float) -> None:
    """The DomainErrors of m_wright_quad_rule for beta: outside [BETA_MIN, 1],
    then in the band (_BETA_MAX, 1)."""
    check_beta("m_wright_quad_rule", beta)
    _refuse_band(beta)


def _refuse_band(beta: float) -> None:
    """DomainError for beta in the band (_BETA_MAX, 1)."""
    if _BETA_MAX < beta < 1.0:
        raise DomainError(
            f"beta in ({_BETA_MAX:g}, 1) is outside the M-Wright rule's range, "
            f"where M_beta narrows onto the point mass at 1; got beta = {beta!r}")


# ---------------------------------------------------------------------------
# Mittag-Leffler function E_beta on the negative real axis
# ---------------------------------------------------------------------------

def mittag_leffler(beta: float, z: float) -> EvalResult:
    """E_beta(z) for finite z <= 0 and BETA_MIN <= beta <= _BETA_MAX or
    beta = 1, as the Laplace transform of the M-Wright density,
    E_beta(-x) = int_0^inf exp(-x tau) M_beta(tau) dtau, summed over the
    cached rule of m_wright_quad_rule and divided by the rule's mass, so
    E_beta(0) = 1; at beta = 1 the point-mass rule gives exp(-x).  The
    error is the mass error plus _ML_RTOL, relative.  Past _ML_ASYMPTOTE,
    where the rule's first panel [0, 1e-14] no longer resolves
    exp(-x tau), the value is the asymptote x^-1 / Gamma(1-b), with the
    next terms, x^-2 / |Gamma(1-2b)| + x^-3, as its error.  terms_used is
    0: both are integral representations.
    """
    # beta's checks and then z's before the rule, so a refused z builds and
    # caches no rule
    _check_rule_beta(beta)
    if not -math.inf < z <= 0.0:
        raise DomainError(f"mittag_leffler requires a finite z <= 0, got {z:g}")
    nodes, weights, mvals = m_wright_quad_rule(beta)
    if z == 0.0:
        return EvalResult(1.0, 0.0, 1)
    x = -z
    if x > _ML_ASYMPTOTE:
        value = float(rgamma(1.0 - beta)) / x
        return EvalResult(value, (abs(float(rgamma(1.0 - 2.0 * beta))) + 1.0 / x) / x / x
                          + _EPS * value, 0)
    wm = weights * mvals
    # the same dot as the sum below, term by term no smaller, so value <= 1
    mass = float(wm @ np.ones(wm.size))
    value = float(wm @ np.exp(-x * nodes)) / mass
    return EvalResult(value, (abs(mass - 1.0) + _ML_RTOL) * value, 0)


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
