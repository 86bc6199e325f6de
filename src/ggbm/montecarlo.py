"""Monte Carlo estimation of the perpetual integral int_0^inf f(x + B(t)) dt.

Paths are sampled on one geometric clock from _T_MIN to t_max, in
fixed-size chunks with one counter-based stream per chunk.  Every chunk
returns the same four sums (the trapezoid integral on the grid and its
difference from the half grid, each with its square), and math.fsum adds
each sum over the chunks in chunk order, so the result is bit-identical for
any worker count.
Truncation at t_max is accounted for by an analytic tail bound reported
separately from the statistical error.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .exceptions import DomainError
from .fbm import sample_fbm_batch
from .green import TestFunction
from .model import ModelParams
from .randvar import SeedSpec, make_stream, sample_y_beta_array
from .specfun import m_wright_moment, m_wright_quad_rule

__all__ = [
    "PerpetualSpec",
    "Estimate",
    "build_time_grid",
    "estimate_potential_mc",
    "tail_bound",
]

# The time grid: 0, then geometric from _T_MIN to t_max with at least
# _STEPS_PER_DECADE intervals per decade.
_STEPS_PER_DECADE = 64
_T_MIN = 1e-3
# paths per chunk, each chunk with its own stream
_CHUNK_SIZE = 2048


@dataclass(frozen=True)
class PerpetualSpec:
    """Truncation horizon, path budget and seed.

    The time grid is geometric up to t_max: the mean of f(x + B(t)) decays
    like t^(-d alpha/2), a power law, so a fixed ratio between grid points
    fits it at every horizon.
    """

    t_max: float
    n_paths: int
    seed: SeedSpec

    def __post_init__(self):
        if self.t_max <= _T_MIN:
            raise DomainError(f"t_max must exceed {_T_MIN:g}")
        if self.n_paths < 1:
            raise DomainError("n_paths must be >= 1")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo result with its certifiable error decomposition."""

    mean: float
    std_error: float
    n_paths: int
    tail_bound: float
    discretization_bound: float
    t_max: float
    seed: SeedSpec

    def to_dict(self, params: ModelParams | None = None,
                f: TestFunction | None = None, x=None) -> dict:
        out = {}
        if params is not None:
            out["params"] = {"beta": params.beta, "alpha": params.alpha,
                             "dim": params.dim}
        if f is not None:
            out["f_descriptor"] = f.kind
        if x is not None:
            out["x"] = [float(v) for v in np.atleast_1d(x)]
        out.update(
            n_paths=self.n_paths,
            t_max=self.t_max,
            mean=self.mean,
            std_error=self.std_error,
            tail_bound=self.tail_bound,
            discretization_bound=self.discretization_bound,
            seed={"master_seed": self.seed.master_seed,
                  "stream_index": self.seed.stream_index},
        )
        return out


def _mean_and_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    """Sample mean and its standard error from the sum and sum of squares."""
    var = max(0.0, (total_sq - total * total / n) / max(1, n - 1))
    return total / n, math.sqrt(var / n)


def build_time_grid(spec: PerpetualSpec) -> np.ndarray:
    """0 followed by a geometric grid from _T_MIN to t_max, with at least
    _STEPS_PER_DECADE intervals per decade and an even interval count, so
    grid[::2] is a nested coarsening.
    """
    n = math.ceil(_STEPS_PER_DECADE * math.log10(spec.t_max / _T_MIN))
    n += 1 - n % 2  # odd, so with the interval from 0 the count is even
    return np.concatenate([[0.0], np.geomspace(_T_MIN, spec.t_max, n + 1)])


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def _chunk_path_integrals(params: ModelParams, f: TestFunction, x: np.ndarray,
                          times: np.ndarray, rng: np.random.Generator,
                          n: int) -> np.ndarray:
    """(n, len(times)) values of f along product-representation paths, the
    raw matrix, so the caller can integrate it on the grid and on subgrids.

    The points are built time-major, (len(times), n, d), which is the memory
    order of sample_fbm_batch's output, so scaling by sqrt(Y) streams through
    memory; the returned matrix is a transposed view.
    """
    y = sample_y_beta_array(params.beta, rng, n)
    vals = sample_fbm_batch(params.hurst, times[1:], params.dim, n, rng)
    pts = np.empty((len(times), n, params.dim))
    pts[0] = x
    np.multiply(np.sqrt(y)[:, None], vals.transpose(1, 0, 2), out=pts[1:])
    pts[1:] += x
    return f.eval_many(pts.reshape(-1, params.dim)).reshape(len(times), n).T


def tail_bound(params: ModelParams, f: TestFunction, t_max: float) -> float:
    """Upper bound on int_{t_max}^inf E[f(x + B(t))] dt, valid for every x.

    Closed form when the scale-mixture moment of order -d/2 is finite
    (d = 1, or beta = 1); otherwise the function's Gaussian-mean bound
    averaged over the scale mixture,
    E[f(x+B(t))] <= int f.mean_upper(y t^a) M_beta(y) dy,
    integrated over t numerically.
    """
    d, alpha, beta = params.dim, params.alpha, params.beta
    if d * alpha <= 2.0:
        raise DomainError(f"requires d*alpha > 2, got d*alpha = {d * alpha:g}")
    p = 0.5 * d * alpha

    # closed-form rate where the moment of order -d/2 is finite: d = 1, or
    # beta = 1, where every moment is 1
    if beta == 1.0 or d < 2:
        c = f.l1_norm * (2.0 * math.pi) ** (-0.5 * d) * m_wright_moment(beta, -0.5 * d)
        return c * t_max ** (1.0 - p) / (p - 1.0)

    nodes, weights, mvals = m_wright_quad_rule(beta)

    def per_t(t):
        return float(np.dot(weights, f.mean_upper(nodes * t ** alpha) * mvals))

    val, err = quad(per_t, t_max, np.inf, epsabs=1e-12, epsrel=1e-9, limit=300)
    return val + err


def estimate_potential_mc(params: ModelParams, f: TestFunction, x,
                          spec: PerpetualSpec, threads: int = 1) -> Estimate:
    """Estimate E[int_0^inf f(x + B(t)) dt] by truncated path integration.

    Deterministic given (spec, seed): chunk i uses stream seed.substream(i)
    and chunk results are added in chunk order by math.fsum.
    """
    if not params.green_exists:
        raise DomainError(params.failed_green_constraint())
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    x = np.asarray(x, dtype=float)
    times = build_time_grid(spec)
    w_fine = _trapezoid_weights(times)
    w_coarse = _trapezoid_weights(times[::2])

    chunks = [(i, min(_CHUNK_SIZE, spec.n_paths - i * _CHUNK_SIZE))
              for i in range((spec.n_paths + _CHUNK_SIZE - 1) // _CHUNK_SIZE)]

    def run_chunk(job):
        idx, n = job
        rng = make_stream(spec.seed.substream(idx))
        fv = _chunk_path_integrals(params, f, x, times, rng, n)
        # einsum, not BLAS: an unpinned matrix-vector product would wake
        # OpenBLAS's other threads, which then spin idle for the chunk
        fine = np.einsum("ij,j->i", fv, w_fine)
        diff = fine - np.einsum("ij,j->i", fv[:, ::2], w_coarse)
        return tuple(float(np.add.reduce(v))
                     for v in (fine, fine * fine, diff, diff * diff))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run_chunk, chunks))

    n = spec.n_paths
    total, total_sq, dsum, dsq = (math.fsum(col) for col in zip(*results))
    mean, std_error = _mean_and_se(total, total_sq, n)
    dmean, dse = _mean_and_se(dsum, dsq, n)

    return Estimate(
        mean=mean,
        std_error=std_error,
        n_paths=n,
        tail_bound=tail_bound(params, f, spec.t_max),
        discretization_bound=abs(dmean) + 2.0 * dse,
        t_max=spec.t_max,
        seed=spec.seed,
    )
