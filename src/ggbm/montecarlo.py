"""Monte Carlo estimation of the perpetual integral int_0^inf f(x + B(t)) dt.

Paths are generated in fixed-size chunks, one counter-based stream per
chunk, and reduced with a pairwise tree, so the result is bit-identical
for any worker count.  Truncation at t_max is accounted for by an analytic
tail bound reported separately from the statistical error.
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
    "pairwise_sum",
]

# The time grid: geometric with _GEOM_STEPS intervals from _T_MIN to 1,
# then _STEPS_PER_UNIT uniform intervals per unit of time up to t_max.
_STEPS_PER_UNIT = 8
_GEOM_STEPS = 48
_T_MIN = 1e-3
# paths per chunk, each chunk with its own stream
_CHUNK_SIZE = 2048


@dataclass(frozen=True)
class PerpetualSpec:
    """Truncation horizon, path budget and seed.

    The time grid is geometric below t = 1 (the integrand varies fastest
    near 0 for rough paths) joined to a uniform grid up to t_max.
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
    discretization_note: str = ""

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


def pairwise_sum(values) -> float:
    """Deterministic pairwise tree reduction of a list of floats."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def build_time_grid(spec: PerpetualSpec) -> np.ndarray:
    """Grid 0 < _T_MIN < ... < 1 (geometric) < ... < t_max (uniform), starting
    at 0, with an even interval count so grid[::2] is a nested coarsening.
    """
    if spec.t_max <= 1.0:
        geom = np.geomspace(_T_MIN, spec.t_max, _GEOM_STEPS + 1)
        grid = np.concatenate([[0.0], geom])
        if (len(grid) - 1) % 2:
            grid = np.concatenate([[0.0],
                                   np.geomspace(_T_MIN, spec.t_max, _GEOM_STEPS + 2)])
        return grid
    n_uni = max(1, round((spec.t_max - 1.0) * _STEPS_PER_UNIT))
    if (1 + _GEOM_STEPS + n_uni) % 2:
        n_uni += 1
    geom = np.geomspace(_T_MIN, 1.0, _GEOM_STEPS + 1)
    uni = np.linspace(1.0, spec.t_max, n_uni + 1)[1:]
    return np.concatenate([[0.0], geom, uni])


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
    (possible only for d = 1); otherwise a certified coarser bound:
    E[f(x+B(t))] <= int min(sup|f|, ||f||_1 (2 pi y t^a)^(-d/2)) M_beta(y) dy
    (or the function's own Gaussian-mean bound when it declares one),
    integrated over t numerically.
    """
    d, alpha, beta = params.dim, params.alpha, params.beta
    if d * alpha <= 2.0:
        raise DomainError(f"requires d*alpha > 2, got d*alpha = {d * alpha:g}")
    p = 0.5 * d * alpha

    if beta == 1.0:
        c = f.l1_norm * (2.0 * math.pi) ** (-0.5 * d)
        return c * t_max ** (1.0 - p) / (p - 1.0)

    if d < 2:  # moment of order -d/2 finite: closed-form rate
        c = f.l1_norm * (2.0 * math.pi) ** (-0.5 * d) * m_wright_moment(beta, -0.5 * d)
        return c * t_max ** (1.0 - p) / (p - 1.0)

    nodes, weights, mvals = m_wright_quad_rule(beta)

    if f.mean_upper is not None:
        def per_t(t):
            return float(np.dot(weights, f.mean_upper(nodes * t ** alpha) * mvals))
    else:
        def per_t(t):
            dens = f.l1_norm * (2.0 * math.pi * nodes * t ** alpha) ** (-0.5 * d)
            return float(np.dot(weights, np.minimum(f.sup_norm, dens) * mvals))

    val, err = quad(per_t, t_max, np.inf, epsabs=1e-12, epsrel=1e-9, limit=300)
    return val + err


def estimate_potential_mc(params: ModelParams, f: TestFunction, x,
                          spec: PerpetualSpec, threads: int = 1) -> Estimate:
    """Estimate E[int_0^inf f(x + B(t)) dt] by truncated path integration.

    Deterministic given (spec, seed): chunk i uses stream seed.substream(i)
    and chunk results are combined by a fixed pairwise tree.
    """
    if not params.green_exists:
        raise DomainError(params.failed_green_constraint())
    x = np.asarray(x, dtype=float)
    times = build_time_grid(spec)
    w_fine = _trapezoid_weights(times)
    w_coarse = _trapezoid_weights(times[::2])

    n_sub = min(_CHUNK_SIZE, max(64, spec.n_paths // 100))
    chunks = [(i, min(_CHUNK_SIZE, spec.n_paths - i * _CHUNK_SIZE))
              for i in range((spec.n_paths + _CHUNK_SIZE - 1) // _CHUNK_SIZE)]

    def run_chunk(job):
        idx, n = job
        rng = make_stream(spec.seed.substream(idx))
        fv = _chunk_path_integrals(params, f, x, times, rng, n)
        # einsum, not BLAS: an unpinned matrix-vector product would wake
        # OpenBLAS's other threads, which then spin idle for the chunk
        fine = np.einsum("ij,j->i", fv, w_fine)
        s = float(np.add.reduce(fine))
        s2 = float(np.add.reduce(fine * fine))
        disc = None
        if idx == 0:
            m = min(n, n_sub)
            diff = fine[:m] - np.einsum("ij,j->i", fv[:m, ::2], w_coarse)
            disc = (float(np.add.reduce(diff)), float(np.add.reduce(diff * diff)), m)
        return s, s2, n, disc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = [run_chunk(job) for job in chunks]

    total = pairwise_sum(r[0] for r in results)
    total_sq = pairwise_sum(r[1] for r in results)
    n = spec.n_paths
    mean = total / n
    var = max(0.0, (total_sq - total * total / n) / max(1, n - 1))
    std_error = math.sqrt(var / n)

    dsum, dsq, m = results[0][3]
    dmean = dsum / m
    dse = math.sqrt(max(0.0, (dsq - dsum * dsum / m) / max(1, m - 1)) / m)
    disc_bound = abs(dmean) + 2.0 * dse
    note = (f"grid-vs-half-grid difference on {m} paths: "
            f"{dmean:.3e} +- {dse:.3e}")

    return Estimate(
        mean=mean,
        std_error=std_error,
        n_paths=n,
        tail_bound=tail_bound(params, f, spec.t_max),
        discretization_bound=disc_bound,
        t_max=spec.t_max,
        seed=spec.seed,
        discretization_note=note,
    )
