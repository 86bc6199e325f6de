"""The non-Gaussian process itself: one batched path sampler (the product
construction, which by self-similarity is also the subordinated one),
finite-dimensional densities, characteristic functions.

Conventions: the n-point characteristic function is
E_beta(-(1/2) sum_j theta_.j^T R theta_.j) with R the fBm covariance
matrix (t_k^a + t_j^a - |t_k - t_j|^a)/2 per component.  This makes the
one-point case agree with the increment characteristic function
E_beta(-|k|^2 t^a / 2) and with the moment/covariance identities; the
same R appears inside the joint density.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve

from .exceptions import DomainError, SingularMatrixError
from .fbm import GridSpec, Path, _fbm_values, fbm_covariance
from .model import ModelParams
from .randvar import SeedSpec, make_stream, sample_y_beta_array
from .specfun import m_wright_moment, m_wright_quad_rule, mittag_leffler

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
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.ndim != 1 or len(t) < 1:
        raise DomainError("times must be a nonempty 1-D array")
    if len(t) > _MAX_FDD_POINTS:
        raise DomainError(f"at most {_MAX_FDD_POINTS} time points supported")
    if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
        raise DomainError("times must be strictly increasing and positive")
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


def _check_theta(theta, n: int, d: int) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if th.size != n * d:
        raise DomainError(f"theta has {th.size} values, expected {n} x {d}")
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
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("covariance matrix gamma_alpha is singular") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    # potrs, not solve_triangular: scipy's trsm wakes its OpenBLAS threads,
    # which then spin and double the CPU time of every later call
    q = float(np.sum(th * cho_solve((L, True), th)))
    d, nd = params.dim, n * params.dim
    pref = (2.0 * math.pi) ** (-0.5 * nd) * math.exp(-0.5 * d * logdet)
    if q == 0.0 and params.beta < 1.0:
        return math.inf if nd >= 2 else pref * m_wright_moment(params.beta, -0.5)
    return pref * _scale_mixture_integral(params.beta, 0.5 * nd, q)


def fdd_charfun(params: ModelParams, times, theta) -> float:
    """n-point characteristic function; real-valued since the quadratic-form
    argument is nonpositive.
    """
    t = _check_times(times)
    th = _check_theta(theta, len(t), params.dim)
    R = fbm_covariance(t, params.hurst)
    qsum = float(np.sum(th * (R @ th)))
    return mittag_leffler(params.beta, -0.5 * qsum).value
