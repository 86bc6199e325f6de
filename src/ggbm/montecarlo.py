"""Monte Carlo estimation of the perpetual integral int_0^inf f(x + B(t)) dt.

Paths are sampled on one geometric clock from _T_MIN to t_max, in
fixed-size chunks with one counter-based stream per chunk.  A chunk's
points stay in the component-major (d, times, paths) buffer the fBm
sampler writes: they are scaled and shifted in place, f reads each
component as a contiguous plane, and the trapezoid sums run over
contiguous rows.  Every chunk returns the same four sums (the trapezoid
integral on the grid and its difference from the half grid, each with its
square), and math.fsum adds each sum over the chunks in chunk order, so
the result is bit-identical for any worker count.
Truncation at t_max is accounted for by an analytic tail bound reported
separately from the statistical error.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_function, betainc

from .exceptions import DomainError
from .fbm import sample_fbm_batch
from .green import TestFunction
from .model import ModelParams
from .randvar import SeedSpec, make_stream, sample_y_beta_array
from .specfun import m_wright_quad_rule

__all__ = [
    "PerpetualSpec",
    "Estimate",
    "build_time_grid",
    "estimate_potential_mc",
    "tail_bound",
]

# The time grid: 0, then geometric from _T_MIN to t_max with at least
# _STEPS_PER_DECADE intervals per decade.  A chunk costs linearly in the
# grid size for draws and f and quadratically for the fBm GEMM; at 32 the
# discretization bound stays below half of 3 SE at 2e4 paths.
_STEPS_PER_DECADE = 32
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
                          n: int) -> tuple[float, np.ndarray]:
    """f(x), the value of every path at t = 0, and the (len(times) - 1, n)
    values of f along product-representation paths at times[1:], the raw
    matrix, so the caller can integrate it on the grid and on subgrids.

    The points stay where sample_fbm_batch put them, component-major
    (d, len(times) - 1, n): scaling by sqrt(Y) and shifting by x run in
    place, and f sees the buffer as an (m, d) view whose components are
    contiguous planes.
    """
    d, m = params.dim, len(times) - 1
    y = sample_y_beta_array(params.beta, rng, n)
    pts = sample_fbm_batch(params.hurst, times[1:], d, n, rng).transpose(2, 1, 0)
    pts *= np.sqrt(y)
    pts += x[:, None, None]
    fv = f.eval_many(pts.reshape(d, m * n).T).reshape(m, n)
    return f(x), fv


def _trapezoid(f0: float, fv: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-path trapezoid sums, f0 at the first node and the rows of fv at
    the others.  einsum, not BLAS: an unpinned matrix-vector product would
    wake OpenBLAS's other threads, which then spin idle for the chunk."""
    return w[0] * f0 + np.einsum("j,ji->i", w[1:], fv)


def tail_bound(params: ModelParams, f: TestFunction, t_max: float) -> float:
    """Upper bound on int_{t_max}^inf E[f(x + B(t))] dt, valid for every x.

    Given Y = tau, the mean is at most min(sup, c (s + tau t^a)^(-d/2)) with
    c = l1 (2 pi)^(-d/2) and s = f.spread.  Its time integral at each node
    of the M-Wright rule is in closed form: sup (t* - t_max)^+, with t*
    where the two bounds cross, plus the decay from t0 = max(t_max, t*) on,
    c tau^(-d/2) t0^(1-p) / (p-1) with p = d a/2 at s = 0, and
    c/a tau^(-1/a) s^(-b) B(b, 1/a) I_x(b, 1/a) with b = d/2 - 1/a and
    x = s / (s + tau t0^a) at s > 0.
    """
    d, alpha = params.dim, params.alpha
    if d * alpha <= 2.0:
        raise DomainError(f"requires d*alpha > 2, got d*alpha = {d * alpha:g}")
    sup, s = f.sup_norm, f.spread
    if sup == 0.0:  # f = 0
        return 0.0
    c = f.l1_norm * (2.0 * math.pi) ** (-0.5 * d)
    tau, weights, mvals = m_wright_quad_rule(params.beta)
    # the variance tau t^a at which the two bounds cross
    v_star = max((c / sup) ** (2.0 / d) - s, 0.0)
    t_star = (v_star / tau) ** (1.0 / alpha)
    t0 = np.maximum(t_max, t_star)
    if s == 0.0:
        p = 0.5 * d * alpha
        decay = c * tau ** (-0.5 * d) * t0 ** (1.0 - p) / (p - 1.0)
    else:
        a, b = 1.0 / alpha, 0.5 * d - 1.0 / alpha
        decay = (c * a * tau ** -a * s ** -b * beta_function(b, a)
                 * betainc(b, a, s / (s + tau * t0 ** alpha)))
    return float(np.dot(weights, (sup * np.maximum(t_star - t_max, 0.0) + decay) * mvals))


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
        f0, fv = _chunk_path_integrals(params, f, x, times, rng, n)
        fine = _trapezoid(f0, fv, w_fine)
        # the coarse grid times[::2] is t = 0 and then every second row of fv
        diff = fine - _trapezoid(f0, fv[1::2], w_coarse)
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
