"""Fractional Brownian motion path generation.

Uniform grids use a circulant embedding of the increment process
(Davies-Harte: exact in law, O(n log n), no BLAS, nonnegative-definite for
every H < 1), computed with real FFTs on the Hermitian half of the
spectrum; dense Cholesky of the path covariance serves arbitrary grids.

The n increments are the first n of a length-m fGn embedded at m, the
smallest 5-smooth number (2^a 3^b 5^c) >= n, which is still exact in law
(Wood & Chan 1994; Dietrich & Newsam 1997).  numpy's pocketfft falls back
to Bluestein's algorithm when 2n has a large prime factor: the rfft/irfft
pair of three components takes about 2.8 ms at n = 4093 or 4099 against
0.22 ms at 4096 and 0.32 ms at 4100, and 80 ms at 65 537 against 6.4 ms at
65 610.  Padding to m adds 2.8 % to the length on average over steps
log-uniform in 16..4096, at most 14 % (n = 7 -> 8); for every 5-smooth n
the embedding, the draws and the bytes are those of m = n.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import blas
from .exceptions import DomainError, EmbeddingError
from .randvar import SeedSpec, make_stream, standard_normals

__all__ = [
    "GridSpec",
    "Path",
    "write_table",
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
        if not 0.0 < self.t_max < math.inf:
            raise DomainError(f"t_max must be positive and finite, got {self.t_max:g}")
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
        write_table(target, np.column_stack([self.times, self.values]), header)


def write_table(target, table: np.ndarray, header: str | None = None) -> None:
    """Write the rows of a 2-D table, comma-separated with 17 significant
    digits (the bytes of f"{v:.17g}"), each line ending in a newline, after
    an optional header line; target is a stream or a file path.  One
    %-template formats each block of _WRITE_ROWS rows, so the text in
    memory is bounded by the block, whatever the table's length."""
    if not hasattr(target, "write"):
        with open(target, "w") as fh:
            return write_table(fh, table, header)
    rows, cols = table.shape
    row = ",".join(["%.17g"] * cols)
    if header is not None:
        target.write(header + "\n")
    # an empty table is one empty block, a lone newline
    for lo in range(0, max(rows, 1), _WRITE_ROWS):
        block = table[lo:lo + _WRITE_ROWS]
        target.write("\n".join([row] * len(block)) % tuple(block.ravel().tolist()) + "\n")


# rows per formatted block of write_table: a 4096-step path is one block
_WRITE_ROWS = 8192


def _smooth_table(top: int) -> tuple:
    """Every 5-smooth number 2^a 3^b 5^c <= top, ascending."""
    odd = []
    p5 = 1
    while p5 <= top:
        p = p5
        while p <= top:
            odd.append(p)
            p *= 3
        p5 *= 5
    return tuple(sorted([p << a for p in odd for a in range((top // p).bit_length())]))


# the 5-smooth numbers up to 2^40; (dim, 2m) normals at m = 2^40 would
# take 16 TiB, so no grid that fits in memory passes the table's end
_SMOOTH = _smooth_table(1 << 40)


def _fast_length(n: int) -> int:
    """The smallest 5-smooth number >= n, an FFT length that pocketfft
    factors without Bluestein's algorithm."""
    i = bisect.bisect_left(_SMOOTH, n)
    if i == len(_SMOOTH):
        raise DomainError(f"circulant embedding supports n_steps <= 2^40, got {n}")
    return _SMOOTH[i]


def _fgn_autocov(hurst: float, lags: np.ndarray) -> np.ndarray:
    """gamma(k) = (|k+1|^2H + |k-1|^2H - 2|k|^2H)/2.  For k >= 2 the second
    difference is factored as k^2H ((1+1/k)^2H - 1 + (1-1/k)^2H - 1)/2 with
    expm1/log1p, which avoids the cancellation of the direct form; the
    direct form is taken only where k < 2."""
    k = np.abs(lags).astype(float)
    h2 = 2 * hurst
    out = np.empty_like(k)
    near = k < 2.0
    kn = k[near]
    out[near] = 0.5 * (np.abs(kn + 1.0) ** h2 + np.abs(kn - 1.0) ** h2 - 2.0 * kn ** h2)
    far = ~near
    kf = k[far]
    out[far] = 0.5 * kf ** h2 * (
        np.expm1(h2 * np.log1p(1.0 / kf)) + np.expm1(h2 * np.log1p(-1.0 / kf)))
    return out


def _fgn_circulant(hurst: float, n: int, dim: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(n, dim) unit-spacing fractional Gaussian noise, i.i.d. components:
    the first n rows of a length-m fGn, m = _fast_length(n), by the circulant
    embedding c = [gamma(0..m), gamma(m-1..1)] of the autocovariance
    (Davies-Harte).  The first n values of an exact length-m fGn are an
    exact length-n fGn.  At a 5-smooth n, m = n is the minimal embedding;
    otherwise 2n has a prime factor of 7 or more, and where it is large the
    FFTs run Bluestein's algorithm at 6-13 times the cost.  c is real and
    symmetric, so its eigenvalues are the real half spectrum rfft(c), and
    the noise is one irfft of the (dim, m + 1) Hermitian half, the factor 2m
    folded into the square roots.  One standard_normal((dim, 2m)) draw, the
    same draws in the same order as one call per component.
    Raises EmbeddingError on negative circulant eigenvalues.
    """
    m = _fast_length(n)
    acf = _fgn_autocov(hurst, np.arange(m + 1))
    c = np.concatenate([acf, acf[m - 1:0:-1]])
    g = np.fft.rfft(c).real
    if g.min() < -1e-9 * g.max():
        raise EmbeddingError(
            f"circulant embedding not nonnegative-definite (H={hurst:g}, n={n}, m={m})"
        )
    g = np.maximum(g, 0.0)
    z = rng.standard_normal((dim, 2 * m))
    v = np.zeros((dim, m + 1), dtype=complex)
    v.real[:, 0] = math.sqrt(2 * m * g[0]) * z[:, 0]
    v.real[:, m] = math.sqrt(2 * m * g[m]) * z[:, 1]
    s = np.sqrt(m * g[1:m])
    np.multiply(s, z[:, 2:m + 1], out=v.real[:, 1:m])
    np.multiply(-s, z[:, m + 1:2 * m], out=v.imag[:, 1:m])
    return np.fft.irfft(v, 2 * m, axis=1)[:, :n].T


def fbm_covariance(times: np.ndarray, hurst: float) -> np.ndarray:
    """Covariance matrix (t^2H + s^2H - |t-s|^2H)/2 on nonnegative times;
    DomainError where it is not finite, as where t^2H overflows a float."""
    t = np.asarray(times, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = 0.5 * (
            t[:, None] ** (2 * hurst)
            + t[None, :] ** (2 * hurst)
            - np.abs(t[:, None] - t[None, :]) ** (2 * hurst)
        )
    if not np.isfinite(cov).all():
        raise DomainError(f"the fBm covariance overflows: t^alpha is not finite at "
                          f"t = {t.max():g}, alpha = {2.0 * hurst:g}")
    return cov


_factor_cache: dict = {}


def _check_times(t: np.ndarray) -> None:
    """DomainError unless the times are finite, strictly positive and
    distinct: at t = 0 or at a repeated time the covariance is singular,
    and the factor's diagonal lift would put noise of order 1e-6 where the
    law has none."""
    bad = t[~((t > 0.0) & (t < math.inf))]
    if bad.size:
        raise DomainError(f"fBm times must be finite and strictly positive, got {bad[0]:g}")
    if np.unique(t).size < t.size:
        raise DomainError("fBm times must be distinct: a repeated time makes the "
                          "covariance singular")


def fbm_cholesky_factor(hurst: float, times: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the path covariance; cached per grid.  A
    grid that is not cached is checked first: 0 < hurst < 1, and times
    finite, strictly positive and distinct, with a finite covariance
    (fbm_covariance), or DomainError."""
    t = np.asarray(times, dtype=float)
    key = (hurst, t.tobytes())
    hit = _factor_cache.get(key)
    if hit is not None:
        return hit
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"the Cholesky factor requires 0 < hurst < 1, got {hurst:g}")
    _check_times(t)
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
    """(n_paths, len(times), dim) fBm values at finite, strictly positive
    and distinct times, i.i.d. components, by batched Cholesky (H=1
    degenerates to a line); other times, times whose t^2H overflows a
    float, or H outside (0, 1], raise DomainError.  The stream use is one
    randvar.standard_normals draw of the array z of shape
    (dim, len(times), n_paths), or (dim, 1, n_paths) on the line, in the
    component-time-path order of the values.

    The values are stored component-major: the result is a view of a
    C-contiguous (dim, len(times), n_paths) buffer, which
    `.transpose(2, 1, 0)` recovers, so a caller can work on it in place,
    one contiguous component plane at a time.  Each plane is one GEMM
    L @ z[k], both operands C-contiguous, written straight into the
    buffer.  The GEMMs and
    the factorization run with BLAS pinned to one thread, so the values do
    not depend on the BLAS thread count; parallelism comes from calling
    this on several chunks.
    """
    t = np.asarray(times, dtype=float)
    n = len(t)
    out = np.empty((dim, n, n_paths))
    if hurst == 1.0:
        _check_times(t)
        xi = standard_normals(rng, np.empty((dim, 1, n_paths)))
        np.multiply(t[None, :, None], xi, out=out)
        return out.transpose(2, 1, 0)
    with blas.single_threaded():
        L = fbm_cholesky_factor(hurst, t)
        z = standard_normals(rng, np.empty((dim, n, n_paths)))
        for k in range(dim):
            np.matmul(L, z[k], out=out[k])
    return out.transpose(2, 1, 0)


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

