"""The non-Gaussian process itself: one batched path sampler (the product
construction, which by self-similarity is also the subordinated one),
finite-dimensional densities, characteristic functions.

Conventions: the n-point characteristic function is
E_beta(-(1/2) sum_j theta_.j^T R theta_.j) with R the fBm covariance
matrix (t_k^a + t_j^a - |t_k - t_j|^a)/2 per component.  This makes the
one-point case agree with the increment characteristic function
E_beta(-|k|^2 t^a / 2) and with the moment/covariance identities; the
same R appears inside the joint density.

Each density evaluation factors R afresh at a fresh beta's cold caches, so
the densities call the compiled kernels directly, not numpy's and scipy's
Python-level wrappers around them: numpy's potrf gufunc for the factor,
scipy's LAPACK potrs for the solve, and the ufuncs' own methods.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo
from scipy.linalg.lapack import dpotrs

from .exceptions import DomainError, SingularMatrixError
from .fbm import GridSpec, Path, _fbm_values, fbm_covariance
from .model import ModelParams
from .randvar import SeedSpec, make_stream, sample_y_beta_array
from .specfun import _check_rule_beta, m_wright_moment, m_wright_quad_rule, mittag_leffler

__all__ = [
    "ModelParams",
    "ggbm_paths",
    "ggbm_path_product",
    "ggbm_path_subordinated",
    "marginal_density",
    "fdd_density",
    "fdd_charfun",
]

_MAX_FDD_POINTS = 8


def _check_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim == 0:
        t = t.reshape(1)
    if t.ndim != 1 or len(t) < 1:
        raise DomainError("times must be a nonempty 1-D array")
    if len(t) > _MAX_FDD_POINTS:
        raise DomainError(f"at most {_MAX_FDD_POINTS} time points supported")
    if not (np.isfinite(t).all() and t[0] > 0.0 and (t[1:] > t[:-1]).all()):
        raise DomainError("times must be finite, strictly increasing and positive")
    return t


# ---------------------------------------------------------------------------
# Path construction
# ---------------------------------------------------------------------------

def ggbm_paths(params: ModelParams, grid: GridSpec, n_paths: int,
               seed: SeedSpec) -> np.ndarray:
    """(n_paths, n_steps+1, d) independent paths, zero at t = 0: sqrt(Y_beta)
    times a path of one circulant fBm batch of n_paths * d components."""
    rng = make_stream(seed)
    y = sample_y_beta_array(params.beta, rng, n_paths)
    values = _fbm_values(params.hurst, grid, n_paths * params.dim, rng)
    values = values.reshape(grid.n_steps + 1, n_paths, params.dim)
    return np.sqrt(y)[:, None, None] * values.transpose(1, 0, 2)


def ggbm_path_product(params: ModelParams, grid: GridSpec, seed: SeedSpec) -> Path:
    """Product representation: sqrt(Y_beta) times an independent fBm path,
    the batch of one of `ggbm_paths`.

    It is also the subordination representation, the fBm observed at the
    times t * Y^(1/alpha): by self-similarity the fBm on the clock c * t is
    c^H times the fBm on t, and (Y^(1/alpha))^H = sqrt(Y).  Y^(1/alpha)
    itself is never formed; it overflows or underflows for small alpha.
    """
    values = ggbm_paths(params, grid, 1, seed)[0]
    return Path(times=grid.times(), values=values, hurst=params.hurst, seed=seed)


ggbm_path_subordinated = ggbm_path_product


# ---------------------------------------------------------------------------
# Densities and characteristic functions
# ---------------------------------------------------------------------------

def _scale_mixture_integral(beta: float, power: float, q: float) -> float:
    """int_0^inf tau^(-power) exp(-q/(2 tau)) M_beta(tau) dtau by the cached
    fixed rule.  q > 0 for beta < 1; diverges as q -> 0 when power >= 1.
    """
    nodes, weights, mvals = m_wright_quad_rule(beta)
    with np.errstate(over="ignore"):
        integrand = nodes ** (-power) * np.exp(-0.5 * q / nodes) * mvals
    return float(np.dot(weights, integrand))


def _quadratic_form(th: np.ndarray, apply) -> float:
    """sum(th * apply(th)) for a linear map `apply`: formed directly, and
    where that is not finite, from u = th / s, s = max |th|, as
    sum(u * apply(u)) s s, which is +inf only where the form itself
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(np.add.reduce(th * apply(th), axis=None))
        if math.isfinite(q):
            return q
        s = float(np.max(np.abs(th)))
        u = th / s
        return float(np.add.reduce(u * apply(u), axis=None)) * s * s


def _check_theta(theta, n: int, d: int) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if th.size != n * d:
        raise DomainError(f"theta has {th.size} values, expected {n} x {d}")
    if not np.isfinite(th).all():
        raise DomainError("theta must be finite")
    return th.reshape(n, d)


def marginal_density(params: ModelParams, y, t: float) -> float:
    """Density of the process at time t > 0, evaluated at y in R^d: the
    one-point fdd_density.
    """
    return fdd_density(params, [t], y)


def fdd_density(params: ModelParams, times, theta) -> float:
    """Joint density of the process at the given times, evaluated at theta
    (an n x d array of positions).

    Where theta is 0 and beta < 1 the value is finite only for n*d = 1, the
    scale-mixture moment of order -1/2; for n*d >= 2 the scale mixture
    diverges there and +inf is returned.
    """
    t = _check_times(times)
    n = len(t)
    th = _check_theta(theta, n, params.dim)
    R = fbm_covariance(t, params.hurst)
    # np.linalg.cholesky's gufunc, NaN (with the invalid flag set) where
    # potrf fails; scipy's dpotrf runs on another OpenBLAS build, whose
    # factor differs in the last bits for a fifth of the R at 5 to 8 times.
    # R, theta and the times are finite and square, so the wrappers'
    # checks have nothing to catch.
    with np.errstate(invalid="ignore"):
        L = cholesky_lo(R, signature="d->d")
    if math.isnan(L[0, 0]):
        raise SingularMatrixError("covariance matrix gamma_alpha is singular")
    logdet = 2.0 * float(np.add.reduce(np.log(L.diagonal())))
    # potrs, not solve_triangular: scipy's trsm wakes its OpenBLAS threads,
    # which then spin and double the CPU time of every later call; a q
    # that overflows is +inf, where the density is 0
    q = _quadratic_form(th, lambda x: dpotrs(L, x, lower=1)[0])
    d, nd = params.dim, n * params.dim
    pref = (2.0 * math.pi) ** (-0.5 * nd) * math.exp(-0.5 * d * logdet)
    if q == 0.0 and params.beta < 1.0:
        return math.inf if nd >= 2 else pref * m_wright_moment(params.beta, -0.5)
    return pref * _scale_mixture_integral(params.beta, 0.5 * nd, q)


def fdd_charfun(params: ModelParams, times, theta) -> float:
    """n-point characteristic function; real-valued since the quadratic-form
    argument is nonpositive.  R is positive semidefinite, so the form is
    taken at no less than 0: at times close together it rounds below 0
    (-2.8e-17 at t = (0.5, 0.5 + 1e-12), theta = (1, -1)), where the value
    is E_beta(0) = 1.  Where the form overflows the value is its limit
    E_beta(-inf) = 0, once beta has passed mittag_leffler's checks.
    """
    t = _check_times(times)
    th = _check_theta(theta, len(t), params.dim)
    R = fbm_covariance(t, params.hurst)
    qsum = max(_quadratic_form(th, lambda x: R @ x), 0.0)
    if qsum == math.inf:
        _check_rule_beta(params.beta)
        return 0.0
    return mittag_leffler(params.beta, -0.5 * qsum).value
