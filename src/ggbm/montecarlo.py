"""Monte Carlo estimation of the perpetual integral int_0^inf f(x + B(t)) dt.

B = sqrt(Y_beta) B_H, H = alpha/2, so by self-similarity V_beta = m V_1 with
m = E[Y^(-1/alpha)] and V_1 the potential of B_H: only fBm paths are sampled,
on one geometric clock up to t_max (see _clock), and every term of the
estimate is scaled by m.  The paths come in chunks of _CHUNK_SIZE, one
SFC64 stream per chunk, and a chunk is walked in blocks drawn one after the
other from that stream: _BLOCK_SIZE paths for most f, so that a block's
normals, its points and f's temporaries stay in cache, and the whole chunk
for a declared Gaussian, whose block holds one component (_block_values).
A block's normals are one randvar.standard_normals draw, which pairs the
halves of each segment of the draw's uniforms, so the block size is part
of the stream map, like the chunk size: a chunk walked in other blocks
draws other normals of the same law.
A block's points stay in the component-major (d, times, paths) buffer the
fBm sampler writes: they are shifted in place, f reads each component as a
contiguous plane, and the trapezoid sums run over contiguous rows.  The blocks fill the chunk's
per-path values, and every chunk returns the same sums of them (the first
four powers of the trapezoid integral on the grid, and, for an f not
declared Gaussian, its difference from the half grid with its square);
math.fsum adds each sum over the chunks in chunk order, so the result is
bit-identical for any worker count.  The truncation at t_max enters the
budget as a one-sided analytic tail bound, the grid error as the
grid-vs-half-grid difference.

A Gaussian f factorises over components and B_H is isotropic, so the
estimator samples only the component B_1 along x - c and integrates the
other d - 1 out in closed form (conditional Monte Carlo):
E[f(x + B(t)) | B_1] = A rho(t) exp(-(r + B_1(t))^2 / (2 s)), with
r = |x - c|, A = f(c), s = f.spread and rho(t) = (s / (s + t^alpha))^((d-1)/2).
The per-path values keep their mean and lose variance, for a d-th of the
normals and GEMMs (_block_values).  A rho(t) holds no randomness, so it
rides in the trapezoid weights, and a chunk forms only
exp(-(r + B_1(t))^2 / (2 s)) from its draws; those weights, the grid mean
below and its closed form make one seed-free plan per estimate, from one
call of f at x and c (_gaussian_plan).  The mean g along the paths is known at
every t and x, so the estimator swaps the grid's exact mean
sum_j w_j g(t_j) for the whole integral of g, a closed form: grid bias and
tail are exact and in the mean, so the tail and discretization bounds are
both 0 and the budget is 3 SE.  The variance of the per-path sum is a
closed form too (exact_gaussian_moments), against which verify checks the
sampled SE.
The clock then only has to keep the variance low.  It does so at an
eighth of the density every other f needs, and it starts where fBm's
variance t^alpha reaches a tenth of f's spread: before that f(x + B(t))
is almost the constant f(x) on every path, so those decades add points
but no variance.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_function, betainc

from .exceptions import DomainError
from .fbm import fbm_covariance, sample_fbm_batch
from .green import TestFunction, _distance, as_point, kummer
from .model import ModelParams, integer_count
# not called here, but perfbench/spans.py patches both names on this module
from .randvar import SeedSpec, make_stream, sample_y_beta_array
from .specfun import _geomspace, m_wright_moment, m_wright_quad_rule

__all__ = [
    "PerpetualSpec",
    "Estimate",
    "build_time_grid",
    "estimate_potential_mc",
    "exact_gaussian_moments",
    "tail_bound",
]

# The time grid: 0, then geometric from _T_MIN to t_max with at least
# _STEPS_PER_DECADE intervals per decade.  A chunk costs linearly in the
# grid size for draws and f and as its square for the fBm GEMM.  At 32 the
# radius-1 bump's discretization bound at its centre at 2e4 paths is at
# most 0.95 of half of 3 SE at (0.5, 1.5, 3) and (0.9, 2, 2) over seeds 42
# to 81, but 0.68 to 1.77 times that at (0.8, 1.2, 2) and (1, 1, 3), so
# there the grid, not the path count, sets much of the budget.  A Gaussian
# f has no discretization term, its grid bias being exact and folded out,
# so its clock only has to keep the per-path variance low:
# _GAUSSIAN_STEPS_PER_DECADE is the coarsest
# density at which the exact SD of its conditioned per-path sum
# (exact_gaussian_moments) stays within 10 % of 8 per decade's at the four
# triples above, x = c and |x - c| = 1.5, t_max = 50.  At 4 it is 3.3 to
# 9.2 % above 8's, for 12 sampled points in place of 20 at (0.5, 1.5, 3)
# (10 to 12 in place of 20 to 24 at the others: 40 to 50 % fewer normals
# per path); at 3 it is 14.5 % above at (1, 1, 3).  Every other f's clock
# starts at _T_MIN; a Gaussian's starts where t^alpha is
# _GAUSSIAN_START_SPREAD times its spread, clamped to [_T_MIN, t_max / 10]
# (see _clock).  The start was set for f along whole paths, whose SD it
# moves by at most 0.5 % at 32 per decade; the conditioned sum keeps
# less variance and a larger share of it early, so the start raises its
# SD by up to 0.69 % (alpha = 2, d = 3, spread 9, x = c), 1.4 % in
# variance.  A start at 0.05 would hold that to 0.29 % but add 2 points
# to the headline op's 21 at 8 per decade, about a tenth of its cost per
# path.
_STEPS_PER_DECADE = 32
_GAUSSIAN_STEPS_PER_DECADE = 4
_GAUSSIAN_START_SPREAD = 0.1
_T_MIN = 1e-3
# paths per chunk, each chunk with its own stream
_CHUNK_SIZE = 2048
# paths per block within a chunk for an f not declared Gaussian: a
# block's normals, points and f values fit in L2.  It divides _CHUNK_SIZE.
# Each block draws its own normals, whose pairing depends on the draw's
# size (randvar.standard_normals), so the block is a fixed count, not a
# byte size, and a change of it changes every estimate's bits.  A declared
# Gaussian's block is the whole chunk (_block_values).
_BLOCK_SIZE = 256
# The budget's floor, in units of eps |mean|.  Where every path value
# underflows (a Gaussian f far from x), SE = 0, while the fold's closed form
# in the mean and the potential's route through D still differ by their
# rounding: by at most 3.7 eps |mean| over the four criterion-1 triples and
# (0.5, 1.01, 2) at |x - c| from 1e2 to 1e152, where the budget was 0.
_BUDGET_FLOOR_EPS = 8.0


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
        if not _T_MIN < self.t_max < math.inf:
            raise DomainError(f"t_max must be finite and exceed {_T_MIN:g}, got {self.t_max:g}")
        object.__setattr__(self, "n_paths", integer_count("n_paths", self.n_paths, 1))


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo result and its error budget.  For a Gaussian f the exact
    tail and grid bias are in mean, so tail_bound and discretization_bound
    are 0; for any other f tail_bound is the one-sided bound of tail_bound()
    and discretization_bound the grid-vs-half-grid estimate.  kurtosis is
    that of the per-path values, E[(v - mu)^4] / var^2, which sets the
    sampling spread of std_error; to_dict leaves it out."""

    mean: float
    std_error: float
    n_paths: int
    tail_bound: float
    discretization_bound: float
    t_max: float
    seed: SeedSpec
    kurtosis: float

    @property
    def budget(self) -> float:
        """The certified half-width 3 SE + tail bound + discretization bound,
        and no less than _BUDGET_FLOOR_EPS eps |mean|, the rounding of the
        mean; a sum past that floor is the budget, bit for bit."""
        return max(3.0 * self.std_error + self.tail_bound + self.discretization_bound,
                   _BUDGET_FLOOR_EPS * sys.float_info.epsilon * abs(self.mean))

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


def _kurtosis(s1: float, s2: float, s3: float, s4: float, n: int) -> float:
    """E[(v - mu)^4] / var^2 of n values from their power sums; nan when
    the values are all equal, or their var^2 underflows to 0 (var below
    about 1e-162, as where all but a few path values underflow)."""
    mu = s1 / n
    var = s2 / n - mu * mu
    m4 = (s4 - 4.0 * mu * s3 + 6.0 * mu * mu * s2) / n - 3.0 * mu ** 4
    return m4 / (var * var) if var > 0.0 and var * var > 0.0 else math.nan


def build_time_grid(spec: PerpetualSpec, steps_per_decade: int = _STEPS_PER_DECADE,
                    t_start: float = _T_MIN) -> np.ndarray:
    """0 followed by a geometric grid from t_start (< t_max) to t_max, with
    at least steps_per_decade intervals per decade and an even interval
    count, so grid[::2] is a nested coarsening.  _clock chooses the density
    and the start for each f.  The geometric part is np.geomspace's, bit
    for bit, at a quarter of its time (specfun._geomspace).
    """
    n = math.ceil(steps_per_decade * math.log10(spec.t_max / t_start))
    n += 1 - n % 2  # odd, so with the interval from 0 the count is even
    return np.concatenate([[0.0], _geomspace(t_start, spec.t_max, n + 1)])


def _clock(params: ModelParams, f: TestFunction, spec: PerpetualSpec) -> np.ndarray:
    """The estimator's time grid for f.  Any f not declared Gaussian gets
    _STEPS_PER_DECADE from _T_MIN.  A Gaussian, whose mean is exact and
    folded in, gets _GAUSSIAN_STEPS_PER_DECADE from
    t0 = max(_T_MIN, min((_GAUSSIAN_START_SPREAD s)^(1/alpha), t_max / 10)),
    s = f.spread: the first interval [0, t0] is one trapezoid whose bias is
    folded out like every other, and before t0 the paths have moved too
    little against f's width to add variance.  t_max^alpha, the paths'
    variance at t_max, and t_max / _T_MIN, the clock's span, must be
    finite, or it is a DomainError: t_max = 1e300 at alpha = 1.5 gave a
    NaN mean with a budget of 0, and 1e308 an integer conversion error.
    """
    try:
        finite = math.isfinite(spec.t_max ** params.alpha) and math.isfinite(spec.t_max / _T_MIN)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"t_max = {spec.t_max:g} is too large: t_max^alpha at alpha = "
                          f"{params.alpha:g} and t_max / {_T_MIN:g} must be finite")
    if not f.gaussian:
        return build_time_grid(spec)
    t0 = (_GAUSSIAN_START_SPREAD * f.spread) ** (1.0 / params.alpha)
    return build_time_grid(spec, _GAUSSIAN_STEPS_PER_DECADE,
                           max(_T_MIN, min(t0, 0.1 * spec.t_max)))


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    half = 0.5 * (times[1:] - times[:-1])
    w = np.zeros_like(times)
    w[:-1] = half
    w[1:] += half
    return w


def _block_values(params: ModelParams, f: TestFunction, x: np.ndarray,
                  times: np.ndarray):
    """The block sampler for f from x on the clock and its block size: a
    function (rng, n) -> the (len(times) - 1, n) per-path values at
    times[1:] of n fBm paths drawn from rng, the raw matrix, so the caller
    can integrate it on the grid and on subgrids (every path is f(x) at
    t = 0), and the number of paths _chunk_sums draws per call.

    For an f not declared Gaussian a value is f(x + B_H(t)) itself.  The
    points stay where sample_fbm_batch put them, component-major
    (d, len(times) - 1, n): the shift by x runs in place, and f sees the
    buffer as an (m, d) view whose components are contiguous planes.

    A declared Gaussian factorises over components, and B_H is isotropic,
    so with the kept axis along x - c, r = |x - c|, A = f(c) and
    s = f.spread, the other d - 1 components integrate out in closed form:
    E[f(x + B(t)) | B_1] = A rho(t) e(t), e(t) = exp(-(r + B_1(t))^2 / (2 s)),
    rho(t) = (s / (s + t^alpha))^((d - 1) / 2).  This conditional mean along
    one sampled component has f's mean and a variance never larger
    (Rao-Blackwell).  A value here is e(t) alone: A rho(t) is seed-free, so
    it rides in the trapezoid weights the chunk integrates e against
    (_gaussian_plan), and the values must be integrated with those.  Its
    block is the whole chunk: one component on the Gaussian's short clock
    is 2048 x 12 floats, and per block the sampler's Python, the BLAS pin,
    the einsum and the in-place steps below cost about as much as the
    arithmetic of 256 paths.
    """
    d, m = params.dim, len(times) - 1
    if not f.gaussian:
        def values(rng: np.random.Generator, n: int) -> np.ndarray:
            pts = sample_fbm_batch(params.hurst, times[1:], d, n, rng).transpose(2, 1, 0)
            pts += x[:, None, None]
            return f.eval_many(pts.reshape(d, m * n).T).reshape(m, n)
        return values, _BLOCK_SIZE
    s = f.spread
    r, _ = _distance(x, f.center)

    def values(rng: np.random.Generator, n: int) -> np.ndarray:
        b = sample_fbm_batch(params.hurst, times[1:], 1, n, rng).transpose(2, 1, 0)[0]
        b += r
        np.square(b, out=b)
        b *= -0.5 / s
        np.exp(b, out=b)
        return b
    return values, _CHUNK_SIZE


def _trapezoid(f0: float, fv: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-path trapezoid sums, f0 at the first node and the rows of fv at
    the others.  einsum, not BLAS: an unpinned matrix-vector product would
    wake OpenBLAS's other threads, which then spin idle for the chunk."""
    return w[0] * f0 + np.einsum("j,ji->i", w[1:], fv)


def _chunk_sums(values, block: int, f0: float,
                weights: tuple[np.ndarray, np.ndarray | None],
                rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """One chunk's sums over its n paths: the first four powers of the
    trapezoid integral on the grid (weights[0]), then, unless weights[1] is
    None (a declared Gaussian has no discretization term), its difference
    from the half grid (weights[1]) with its square.  The per-path values
    come from the block sampler values (_block_values), block paths at a
    time drawn from rng, with f0 = f(x) at t = 0; they fill chunk-long
    arrays, each reduced once."""
    w_fine, w_coarse = weights
    fine = np.empty(n)
    diff = None if w_coarse is None else np.empty(n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        fv = values(rng, hi - lo)
        fine[lo:hi] = _trapezoid(f0, fv, w_fine)
        if diff is not None:
            # the coarse grid times[::2] is t = 0 and then every second row of fv
            diff[lo:hi] = fine[lo:hi] - _trapezoid(f0, fv[1::2], w_coarse)
    sq = fine * fine
    sums = [fine, sq, sq * fine, sq * sq]
    if diff is not None:
        sums += [diff, diff * diff]
    return tuple(float(np.add.reduce(v)) for v in sums)


def _gaussian_law(params: ModelParams, f: TestFunction, x: np.ndarray,
                  times: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
    """A Gaussian f's value f(x) at t = 0, its conditioned scale A rho(t) at
    times (_block_values), its exact mean g along x + B_H(t) there, and the
    integral of g over the whole time axis, from one call of f at x and c,
    A = f(c), and one v = s / (s + t^a), s = f.spread: rho = v^((d-1)/2),
    g = A v^(d/2) exp(-z v), z = |x - c|^2 / (2 s), and its integral
    A s^(1/a) / a int_0^1 exp(-z v) v^(b-1) (1-v)^(1/a-1) dv, b = d/2 - 1/a,
    is Euler's integral of Kummer's function (DLMF 13.4.1):
    A s^(1/a) / a B(b, 1/a) 1F1(b; d/2; -z).  The potential shares the
    1F1 value (green.kummer) but reaches its prefactor through
    D = C(a, d) E[Y^(-1/a)] and Gamma(1/a) / Gamma(d/2), so the certificate
    checks the paper's constant by a second route; the 1F1 itself is held
    to mpmath by the tests.
    """
    d, alpha, s = params.dim, params.alpha, f.spread
    z = _distance(x, f.center)[1] / (2.0 * s)
    a, b = 1.0 / alpha, 0.5 * d - 1.0 / alpha
    fx, amplitude = f(np.stack([x, f.center])).tolist()
    v = s / (s + times ** alpha)
    integral = amplitude * s ** a * a * beta_function(b, a) * kummer(alpha, d, z)
    return (fx, amplitude * v ** (0.5 * (d - 1)),
            amplitude * v ** (0.5 * d) * np.exp(-z * v), float(integral))


def _gaussian_plan(params: ModelParams, f: TestFunction, x: np.ndarray,
                   times: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray, float, float]:
    """The seed-free part of a Gaussian f's estimate on the clock times with
    trapezoid weights w, built once per estimate: f(x), every path's value
    at t = 0; the weights the chunk integrates its values against, w_0 at
    t = 0 and w_j A rho(t_j) at the others, whose values are
    e(t_j) (_block_values); the grid's exact mean sum_j w_j g(t_j); and the
    whole integral of g, which the estimate swaps in for it
    (_gaussian_law)."""
    fx, scale, g, integral = _gaussian_law(params, f, x, times)
    rows = w * scale
    rows[0] = w[0]
    return fx, rows, math.fsum(w * g), integral


def exact_gaussian_moments(params: ModelParams, f: TestFunction, x,
                           spec: PerpetualSpec) -> tuple[float, float]:
    """The mean and standard error that estimate_potential_mc's estimate
    has for a Gaussian f, in closed form: the mean is m int_0^inf g dt, the
    whole integral the fold swaps in, and the standard error
    m sqrt(var / n_paths), m = E[Y^(-1/alpha)] and var the exact variance
    of the per-path trapezoid sum on f's clock.  That sum is of the
    conditional mean of f(x + B_H(t)) given the one component the estimator
    samples, A rho(t) exp(-(r + B_1(t))^2 / (2 s)) (_block_values), whose
    variance is at most f's own.  The variance is the first moment that
    depends on the paths' two-time law.  With g the mean along the paths
    and A rho(t) the conditioned scale (_gaussian_law), the per-path sum is
    w . h for trapezoid weights w, whose second moment is w^T C w with
    C_jk = E h(t_j) h(t_k)
    = A^2 rho_j rho_k (s^2 / D)^(1/2) exp(-r^2 (2 s + a_j + a_k - 2 k_jk) / (2 D)),
    where K = [[a_j, k_jk], [k_jk, a_k]] is fBm's covariance at (t_j, t_k),
    a_j = t_j^alpha, r = |x - c| and D = det(s I + K).  Where the estimator
    refuses the parameters, so does this, with the same DomainError."""
    if not params.green_exists:
        raise DomainError(params.failed_green_constraint())
    if not f.gaussian:
        raise DomainError(f"{f.kind} is not declared Gaussian")
    x = as_point(params, f, x)
    times = _clock(params, f, spec)
    w = _trapezoid_weights(times)
    _, scale, g, integral = _gaussian_law(params, f, x, times)
    s, r2 = f.spread, _distance(x, f.center)[1]
    k = fbm_covariance(times, params.hurst)
    a = k.diagonal()
    aj, ak = a[:, None], a[None, :]
    det = (s + aj) * (s + ak) - k * k
    c = np.outer(scale, scale) * np.sqrt(s * s / det) * np.exp(
        -0.5 * r2 * (2.0 * s + aj + ak - 2.0 * k) / det)
    var = float(w @ (c - np.outer(g, g)) @ w)
    m = m_wright_moment(params.beta, -1.0 / params.alpha)
    return m * integral, m * math.sqrt(max(var, 0.0) / spec.n_paths)


def tail_bound(params: ModelParams, f: TestFunction, t_max: float) -> float:
    """Upper bound on m int_{t_max}^inf |E[f(x + B_H(t))]| dt for every x,
    m = E[Y^(-1/a)]: the factored potential's part beyond t_max.  The mean
    is at most min(sup, c (s + t^a)^(-d/2)), c = l1 (2 pi)^(-d/2), s = f.spread,
    with equality at a Gaussian's centre.  Its time integral is
    sup (t* - t_max)^+, with t* where the two bounds cross, plus the decay
    from t0 = max(t_max, t*) on, c t0^(1-p) / (p-1) with p = d a/2 at s = 0,
    and c/a s^(-b) B(b, 1/a) I_x(b, 1/a) with b = d/2 - 1/a and
    x = s / (s + t0^a) at s > 0.
    """
    if not params.green_exists:
        raise DomainError(params.failed_green_constraint())
    d, alpha = params.dim, params.alpha
    sup, s = f.sup_norm, f.spread
    if sup == 0.0:  # f = 0
        return 0.0
    c = f.l1_norm * (2.0 * math.pi) ** (-0.5 * d)
    t_star = max((c / sup) ** (2.0 / d) - s, 0.0) ** (1.0 / alpha)
    t0 = max(t_max, t_star)
    if s == 0.0:
        p = 0.5 * d * alpha
        decay = c * t0 ** (1.0 - p) / (p - 1.0)
    else:
        a, b = 1.0 / alpha, 0.5 * d - 1.0 / alpha
        decay = c * a * s ** -b * beta_function(b, a) * betainc(b, a, s / (s + t0 ** alpha))
    m = m_wright_moment(params.beta, -1.0 / alpha)
    return float(m * (sup * max(t_star - t_max, 0.0) + decay))


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
    x = as_point(params, f, x)
    times = _clock(params, f, spec)
    w_fine = _trapezoid_weights(times)
    values, block = _block_values(params, f, x, times)
    if f.gaussian:  # A rho(t) rides in the rows; the exact mean is swapped in below
        f0, rows, grid_mean, integral = _gaussian_plan(params, f, x, times, w_fine)
        weights = (rows, None)
    else:
        f0, weights = f(x), (w_fine, _trapezoid_weights(times[::2]))
    chunks = [(i, min(_CHUNK_SIZE, spec.n_paths - i * _CHUNK_SIZE))
              for i in range((spec.n_paths + _CHUNK_SIZE - 1) // _CHUNK_SIZE)]

    def run_chunk(job):
        idx, n = job
        rng = make_stream(spec.seed.substream(idx))
        return _chunk_sums(values, block, f0, weights, rng, n)

    # threads == 1 maps the same streams and sums in the calling thread: a
    # one-worker pool made the 4096-path headline op 31 % slower (median
    # 1.53 -> 2.01 ms over 600 interleaved ops on a 2-core x86 box)
    if threads == 1:
        results = list(map(run_chunk, chunks))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, chunks))

    for i, sums in enumerate(results):
        # the sums the mean, its SE and the discretization bound come from
        if not all(map(math.isfinite, sums[:2] + sums[4:])):
            raise DomainError(f"chunk {i} of the estimate at t_max = {spec.t_max:g} has "
                              f"non-finite sums: f along the paths is not finite there")
    n = spec.n_paths
    s1, s2, s3, s4, *dsums = (math.fsum(col) for col in zip(*results))
    mean, std_error = _mean_and_se(s1, s2, n)
    if f.gaussian:  # the mean is exact: swap the grid's for the whole integral
        mean, tail, disc = mean - grid_mean + integral, 0.0, 0.0
    else:
        dmean, dse = _mean_and_se(*dsums, n)
        tail, disc = tail_bound(params, f, spec.t_max), abs(dmean) + 2.0 * dse
    m = m_wright_moment(params.beta, -1.0 / params.alpha)

    return Estimate(
        mean=m * mean,
        std_error=m * std_error,
        n_paths=n,
        tail_bound=tail,
        discretization_bound=m * disc,
        t_max=spec.t_max,
        seed=spec.seed,
        kurtosis=_kurtosis(s1, s2, s3, s4, n),
    )
