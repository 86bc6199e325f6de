"""Fractional Brownian motion path generation.

Uniform grids use the minimal circulant embedding of the increment process
(Davies-Harte: exact in law, O(n log n), no BLAS, nonnegative-definite for
every H < 1); dense Cholesky of the path covariance serves arbitrary grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blas
from .exceptions import DomainError, EmbeddingError
from .randvar import SeedSpec, make_stream

__all__ = [
    "GridSpec",
    "Path",
    "generate_fbm",
    "fbm_covariance",
    "fbm_cholesky_factor",
    "sample_fbm_batch",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid t_k = k * t_max / n_steps, k = 0..n_steps."""

    t_max: float
    n_steps: int

    def __post_init__(self):
        if self.t_max <= 0.0:
            raise DomainError(f"t_max must be positive, got {self.t_max:g}")
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)


@dataclass(frozen=True)
class Path:
    """Sampled process path: times (n+1,), values (n+1, d), values[0] = 0."""

    times: np.ndarray
    values: np.ndarray
    hurst: float
    seed: SeedSpec

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def to_csv(self, target) -> None:
        """Write `t,x1,...,xd` rows with 17 significant digits."""
        header = "t," + ",".join(f"x{i + 1}" for i in range(self.dim))
        rows = [header]
        for t, row in zip(self.times, self.values):
            rows.append(",".join(f"{v:.17g}" for v in (t, *row)))
        text = "\n".join(rows) + "\n"
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w") as fh:
                fh.write(text)


def _fgn_autocov(hurst: float, lags: np.ndarray) -> np.ndarray:
    """gamma(k) = (|k+1|^2H + |k-1|^2H - 2|k|^2H)/2.  For k >= 2 the second
    difference is factored as k^2H ((1+1/k)^2H - 1 + (1-1/k)^2H - 1)/2 with
    expm1/log1p, which avoids the cancellation of the direct form."""
    k = np.abs(lags).astype(float)
    h2 = 2 * hurst
    out = 0.5 * (np.abs(k + 1.0) ** h2 + np.abs(k - 1.0) ** h2 - 2.0 * k ** h2)
    far = k >= 2.0
    kf = k[far]
    out[far] = 0.5 * kf ** h2 * (
        np.expm1(h2 * np.log1p(1.0 / kf)) + np.expm1(h2 * np.log1p(-1.0 / kf)))
    return out


def _fgn_circulant(hurst: float, n: int, dim: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(n, dim) unit-spacing fractional Gaussian noise, i.i.d. components,
    by the minimal circulant embedding c = [gamma(0..n), gamma(n-1..1)] of
    the autocovariance (Davies-Harte).  One standard_normal((dim, 2n))
    draw, the same draws in the same order as one call per component.
    Raises EmbeddingError on negative circulant eigenvalues.
    """
    acf = _fgn_autocov(hurst, np.arange(n + 1))
    c = np.concatenate([acf, acf[n - 1:0:-1]])
    g = np.fft.fft(c).real
    if g.min() < -1e-9 * g.max():
        raise EmbeddingError(
            f"circulant embedding not nonnegative-definite (H={hurst:g}, n={n})"
        )
    g = np.maximum(g, 0.0)
    z = rng.standard_normal((dim, 2 * n))
    w = np.zeros((dim, 2 * n), dtype=complex)
    w[:, 0] = math.sqrt(g[0] / (2 * n)) * z[:, 0]
    w[:, n] = math.sqrt(g[n] / (2 * n)) * z[:, 1]
    x, y = z[:, 2:n + 1], z[:, n + 1:2 * n]
    w[:, 1:n] = np.sqrt(g[1:n] / (4 * n)) * (x + 1j * y)
    w[:, n + 1:] = np.conj(w[:, n - 1:0:-1])
    return np.fft.fft(w, axis=1).real[:, :n].T


def fbm_covariance(times: np.ndarray, hurst: float) -> np.ndarray:
    """Covariance matrix (t^2H + s^2H - |t-s|^2H)/2 on strictly positive times."""
    t = np.asarray(times, dtype=float)
    return 0.5 * (
        t[:, None] ** (2 * hurst)
        + t[None, :] ** (2 * hurst)
        - np.abs(t[:, None] - t[None, :]) ** (2 * hurst)
    )


_factor_cache: dict = {}


def fbm_cholesky_factor(hurst: float, times: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the path covariance; cached per grid."""
    t = np.asarray(times, dtype=float)
    key = (hurst, t.tobytes())
    hit = _factor_cache.get(key)
    if hit is not None:
        return hit
    cov = fbm_covariance(t, hurst)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # tiny diagonal lift for grids at the edge of numerical rank
        L = np.linalg.cholesky(cov + 1e-12 * np.trace(cov) / len(t) * np.eye(len(t)))
    if len(_factor_cache) > 16:
        _factor_cache.clear()
    _factor_cache[key] = L
    return L


def sample_fbm_batch(
    hurst: float,
    times: np.ndarray,
    dim: int,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(n_paths, len(times), dim) fBm values at strictly positive times,
    i.i.d. components, by batched Cholesky (H=1 degenerates to a line).
    The stream use is a single standard_normal draw of fixed shape.

    The factorization and one GEMM for all paths run with BLAS pinned to
    one thread, so the values do not depend on the BLAS thread count;
    parallelism comes from calling this on several chunks.  The GEMM is
    written L @ z.T rather than z @ L.T: same products, but OpenBLAS then
    packs the small factor instead of the whole batch.  The result is a
    view of that time-major (len(times), n_paths, dim) product.
    """
    t = np.asarray(times, dtype=float)
    n = len(t)
    if hurst == 1.0:
        xi = rng.standard_normal((n_paths, 1, dim))
        return t[None, :, None] * xi
    z = rng.standard_normal((n_paths * dim, n))
    with blas.single_threaded():
        L = fbm_cholesky_factor(hurst, t)
        vals = L @ z.T  # (n, n_paths*dim)
    return vals.reshape(n, n_paths, dim).transpose(1, 0, 2)


def _fbm_values(hurst: float, grid: GridSpec, dim: int,
                rng: np.random.Generator) -> np.ndarray:
    """(n_steps+1, dim) values on the uniform grid, zero at t=0."""
    n = grid.n_steps
    values = np.zeros((n + 1, dim))
    if hurst == 1.0:
        xi = rng.standard_normal(dim)
        values[1:] = grid.times()[1:, None] * xi[None, :]
        return values
    fgn = _fgn_circulant(hurst, n, dim, rng)
    values[1:] = np.cumsum(fgn, axis=0) * grid.dt ** hurst
    return values


def generate_fbm(hurst: float, grid: GridSpec, dim: int, seed: SeedSpec) -> Path:
    """d-dimensional fBm path on the grid, exact in law, deterministic in seed."""
    if not 0.0 < hurst <= 1.0:
        raise DomainError(f"requires 0 < hurst <= 1, got {hurst:g}")
    if dim < 1:
        raise DomainError(f"requires dim >= 1, got {dim}")
    rng = make_stream(seed)
    values = _fbm_values(hurst, grid, dim, rng)
    return Path(times=grid.times(), values=values, hurst=hurst, seed=seed)

