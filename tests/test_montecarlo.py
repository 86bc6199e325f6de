"""Tests for the perpetual-integral Monte Carlo estimator."""

import dataclasses
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.special import beta as beta_function, betainc

from ggbm import DomainError, GreenDensity, ModelParams, \
    PerpetualSpec, SeedSpec, bump_test_function, estimate_potential_mc, \
    gaussian_test_function, potential, tail_bound
from ggbm import blas, fbm, green
from ggbm.fbm import sample_fbm_batch
from ggbm.montecarlo import _BLOCK_SIZE, _BUDGET_FLOOR_EPS, _CHUNK_SIZE, \
    _GAUSSIAN_STEPS_PER_DECADE, _STEPS_PER_DECADE, _T_MIN, _block_values, \
    _chunk_sums, _clock, _gaussian_law, _gaussian_plan, _trapezoid, \
    _trapezoid_weights, Estimate, build_time_grid, exact_gaussian_moments
from ggbm.randvar import make_stream
from ggbm.specfun import m_wright_moment, m_wright_quad_rule
from ggbm.verify import run_suite


def test_build_time_grid_structure():
    spec = PerpetualSpec(t_max=50.0, n_paths=10, seed=SeedSpec(0, 0))
    grid = build_time_grid(spec)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(50.0)
    assert np.all(np.diff(grid) > 0.0)
    assert (len(grid) - 1) % 2 == 0
    # nested coarsening shares endpoints
    coarse = grid[::2]
    assert coarse[0] == 0.0
    assert coarse[-1] == grid[-1]


def test_build_time_grid_small_horizon():
    """One geometric clock at every horizon: 0, then a constant ratio from
    _T_MIN to t_max with at least _STEPS_PER_DECADE steps per decade."""
    for t_max in (0.0011, 0.5, 1.0, 50.0, 1e4):
        spec = PerpetualSpec(t_max=t_max, n_paths=10, seed=SeedSpec(0, 0))
        grid = build_time_grid(spec)
        assert grid[0] == 0.0
        assert grid[1] == _T_MIN
        assert grid[-1] == t_max
        assert (len(grid) - 1) % 2 == 0
        ratios = grid[2:] / grid[1:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12, atol=0.0)
        assert ratios[0] > 1.0
        assert len(grid) - 2 >= _STEPS_PER_DECADE * math.log10(t_max / _T_MIN)


def test_perpetual_spec_validation():
    with pytest.raises(DomainError):
        PerpetualSpec(t_max=1e-4, n_paths=10, seed=SeedSpec(0, 0))
    with pytest.raises(DomainError):
        PerpetualSpec(t_max=10.0, n_paths=0, seed=SeedSpec(0, 0))
    # a NaN passed the comparison and an infinity reached the clock's log
    for t_max in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="t_max"):
            PerpetualSpec(t_max=t_max, n_paths=10, seed=SeedSpec(0, 0))


def test_perpetual_spec_path_count_is_an_integer():
    """n_paths = 2.5 is a DomainError naming n_paths, where the estimate
    raised a TypeError, as it did at 3000.0; an integral float is taken as
    its int and gives the same estimate."""
    with pytest.raises(DomainError, match="integer n_paths >= 1, got n_paths = 2.5"):
        PerpetualSpec(t_max=50.0, n_paths=2.5, seed=SeedSpec(0, 0))
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    est = estimate_potential_mc(params, f, np.zeros(3), PerpetualSpec(50.0, 3000.0, SeedSpec(1, 0)))
    assert type(est.n_paths) is int
    assert est == estimate_potential_mc(params, f, np.zeros(3), PerpetualSpec(50.0, 3000, SeedSpec(1, 0)))


@pytest.mark.parametrize("t_max", [1e300, 1e308])
def test_huge_t_max_is_domain_error(t_max):
    """t_max^alpha or the clock's span t_max / _T_MIN overflows: a
    DomainError naming t_max from the estimator and the exact moments, not
    a NaN mean with an SE of 0."""
    params, f = ModelParams(0.5, 1.5, 3), gaussian_test_function(1.0, 3)
    spec = PerpetualSpec(t_max=t_max, n_paths=256, seed=SeedSpec(1, 0))
    with pytest.raises(DomainError, match="t_max"):
        estimate_potential_mc(params, f, np.zeros(3), spec)
    with pytest.raises(DomainError, match="t_max"):
        exact_gaussian_moments(params, f, np.zeros(3), spec)


def test_non_finite_chunk_sums_raise():
    """An f that is NaN along the paths gives non-finite chunk sums: a
    DomainError, not an Estimate."""
    f = dataclasses.replace(bump_test_function(1.0, 2),
                            eval_many=lambda pts: np.full(len(pts), math.nan))
    spec = PerpetualSpec(t_max=10.0, n_paths=64, seed=SeedSpec(1, 0))
    with pytest.raises(DomainError, match="non-finite sums"):
        estimate_potential_mc(ModelParams(0.8, 1.2, 2), f, np.zeros(2), spec)


def test_chunk_f_values_match_per_path_reference():
    """For an f not declared Gaussian each row is f along its own fBm path
    x + B_p, with B_p = 0 at t = 0, in the same arithmetic as a per-path
    loop; no Y is drawn."""
    params = ModelParams(0.5, 1.5, 3)
    f = _norms_only(gaussian_test_function(1.0, 3))
    x = np.array([0.3, -0.2, 0.1])
    times = build_time_grid(PerpetualSpec(t_max=3.0, n_paths=1, seed=SeedSpec(0, 0)))
    n = 6
    f0, fv = f(x), _block_values(params, f, x, times)[0](make_stream(SeedSpec(8, 1)), n)
    assert fv.shape == (len(times) - 1, n)
    rng = make_stream(SeedSpec(8, 1))
    vals = sample_fbm_batch(params.hurst, times[1:], 3, n, rng)
    for p in range(n):
        pts = np.vstack([x, vals[p] + x])
        assert np.array_equal(np.concatenate([[f0], fv[:, p]]), f.eval_many(pts))


@pytest.mark.parametrize("triple", [(0.5, 1.5, 3), (0.8, 1.2, 2), (0.9, 2.0, 2)],
                         ids=lambda t: "-".join(map(str, t)))
@pytest.mark.parametrize("offset", [np.zeros(3), np.array([0.8, -0.5, 0.4])],
                         ids=["centre", "off-axis"])
def test_gaussian_block_values_condition_on_one_component(triple, offset):
    """For a declared Gaussian a value is E[f(x + B(t)) | B_1], one fBm
    component drawn from the stream, with A rho(t) carried by the plan's
    weights: w~_j e_j is w_j rho(t_j) f(c + (r + B_1(t_j)) e_1) with
    r = |x - c| and rho(t) = (s / (s + t^alpha))^((d - 1) / 2), f evaluated
    through its own eval_many, and the t = 0 node keeps w_0 for f(x); at
    the centre and off every axis, in d = 2 and 3 and on the H = 1 line."""
    params = ModelParams(*triple)
    d = params.dim
    c = np.array([0.2, -0.1, 0.3])[:d]
    f = gaussian_test_function(0.8, d, center=c, amplitude=-2.0)
    x = c + offset[:d]
    times = _clock(params, f, PerpetualSpec(t_max=10.0, n_paths=1, seed=SeedSpec(0, 0)))
    w = _trapezoid_weights(times)
    _, rows, _, _ = _gaussian_plan(params, f, x, times, w)
    assert rows[0] == w[0]
    n = 300
    fv = _block_values(params, f, x, times)[0](make_stream(SeedSpec(8, 1)), n)
    b1 = sample_fbm_batch(params.hurst, times[1:], 1, n, make_stream(SeedSpec(8, 1)))[..., 0]
    pts = np.zeros((n, len(times) - 1, d))
    pts[..., 0] = np.linalg.norm(offset[:d]) + b1
    pts += c
    rho = (f.spread / (f.spread + times[1:] ** params.alpha)) ** (0.5 * (d - 1))
    expected = w[1:] * rho * f.eval_many(pts.reshape(-1, d)).reshape(n, -1)
    # 1e-14 relative, or of w_j times f's sup where exp's relative rounding,
    # which grows with its argument, leaves a value far below it
    assert np.allclose(rows[1:, None] * fv, expected.T, rtol=1e-14,
                       atol=1e-14 * f.sup_norm * w[1:, None])


@pytest.mark.parametrize("triple", [(0.5, 1.5, 3), (0.8, 1.2, 2), (0.9, 2.0, 2)],
                         ids=lambda t: "-".join(map(str, t)))
@pytest.mark.parametrize("offset", [np.zeros(3), np.array([0.8, -0.5, 0.4])],
                         ids=["centre", "off-axis"])
def test_folded_chunk_sums_match_the_unfolded_reference(triple, offset):
    """A Gaussian's chunk sums with A rho(t) folded into the trapezoid
    weights, (w_j A rho_j) e_j, equal within 1e-15 relative those of the
    unfolded order w_j (A rho_j e_j), e_j = exp(-(r + B_1(t_j))^2 / (2 s))
    formed from the stream's B_1 in the same in-place steps, at amplitude
    -2, at the centre and off every axis, in d = 2 and 3 and on the H = 1
    line."""
    params = ModelParams(*triple)
    d = params.dim
    c = np.array([0.2, -0.1, 0.3])[:d]
    f = gaussian_test_function(0.8, d, center=c, amplitude=-2.0)
    x = c + offset[:d]
    times = _clock(params, f, PerpetualSpec(t_max=10.0, n_paths=1, seed=SeedSpec(0, 0)))
    w = _trapezoid_weights(times)
    _, rows, _, _ = _gaussian_plan(params, f, x, times, w)
    (values, block), f0 = _block_values(params, f, x, times), f(x)
    n, stream = 1000, SeedSpec(8, 1)
    got = _chunk_sums(values, block, f0, (rows, None), make_stream(stream), n)
    s = f.spread
    e = sample_fbm_batch(params.hurst, times[1:], 1, n, make_stream(stream))[..., 0].T
    e += float(np.linalg.norm(offset[:d]))
    np.square(e, out=e)
    e *= -0.5 / s
    np.exp(e, out=e)
    scale = f(f.center) * (s / (s + times[1:] ** params.alpha)) ** (0.5 * (d - 1))
    fine = _trapezoid(f0, scale[:, None] * e, w)
    sq = fine * fine
    expected = [float(np.add.reduce(v)) for v in (fine, sq, sq * fine, sq * sq)]
    assert len(got) == 4
    for folded, unfolded in zip(got, expected):
        assert abs(folded - unfolded) <= 1e-15 * abs(unfolded)


@pytest.mark.parametrize("triple", [(1.0, 0.5, 2), (1.0, 1.0, 2), (0.5, 1.0, 3)],
                         ids=lambda t: "-".join(map(str, t)))
def test_exact_gaussian_moments_refuse_what_the_estimator_refuses(triple):
    """Where the Green measure does not exist the exact moments raise the
    estimator's DomainError, not an infinite mean or a diverging moment."""
    params = ModelParams(*triple)
    assert not params.green_exists
    f = gaussian_test_function(1.0, params.dim)
    spec = PerpetualSpec(t_max=10.0, n_paths=64, seed=SeedSpec(1, 0))
    message = re.escape(params.failed_green_constraint())
    with pytest.raises(DomainError, match=message):
        estimate_potential_mc(params, f, np.zeros(params.dim), spec)
    with pytest.raises(DomainError, match=message):
        exact_gaussian_moments(params, f, np.zeros(params.dim), spec)


def test_gaussian_estimate_evaluates_f_once_at_x_and_its_centre():
    """A Gaussian's estimate evaluates f in one call at x and at its centre:
    its seed-free plan takes f(x) for t = 0 and A = f(c) once for the
    weights, the grid mean and the integral."""
    points = []
    g = gaussian_test_function(1.0, 3, center=np.array([0.1, 0.0, 0.2]))
    f = dataclasses.replace(g, eval_many=lambda pts: points.append(len(pts)) or g.eval_many(pts))
    spec = PerpetualSpec(t_max=10.0, n_paths=4096, seed=SeedSpec(1, 0))
    est = estimate_potential_mc(ModelParams(0.5, 1.5, 3), f, np.array([0.5, 0.0, 0.0]), spec)
    assert points == [2]
    assert est == estimate_potential_mc(ModelParams(0.5, 1.5, 3), g,
                                        np.array([0.5, 0.0, 0.0]), spec)


def _walked_values(values, block: int, rng, n: int) -> np.ndarray:
    """The (len(times) - 1, n) per-path values of a chunk of n paths drawn
    block by block from rng, one values(rng, size) call per block."""
    return np.hstack([values(rng, min(block, n - lo)) for lo in range(0, n, block)])


@pytest.mark.parametrize("case", ["gaussian", "bump", "line"])
@pytest.mark.parametrize("n_paths", [1000, 2049])
def test_blocks_change_no_bits(case, n_paths):
    """A chunk walked in the blocks _block_values asks for gives exactly the
    sums of the per-path values drawn block by block from the same stream
    and integrated as one matrix, with a partial last block (1000 paths)
    and a partial chunk (2049), for a Gaussian, a bump and the H = 1 line.
    A declared Gaussian draws its chunk as one block, so its sums are
    those of one whole-chunk draw; the bump draws _BLOCK_SIZE paths at a
    time, a block size that the stream map depends on."""
    assert _CHUNK_SIZE % _BLOCK_SIZE == 0
    triple, f = {
        "gaussian": ((0.5, 1.5, 3), gaussian_test_function(1.0, 3)),
        "bump": ((0.8, 1.2, 2), bump_test_function(1.0, 2)),
        "line": ((0.9, 2.0, 2), gaussian_test_function(0.7, 2)),
    }[case]
    params = ModelParams(*triple)
    x = np.full(params.dim, 0.3)
    spec = PerpetualSpec(t_max=10.0, n_paths=n_paths, seed=SeedSpec(42, 0))
    times = _clock(params, f, spec)
    # a declared Gaussian has no discretization term, so no half-grid sums
    weights = (_trapezoid_weights(times),
               None if f.gaussian else _trapezoid_weights(times[::2]))
    (values, block), f0 = _block_values(params, f, x, times), f(x)
    assert block == (_CHUNK_SIZE if f.gaussian else _BLOCK_SIZE)
    drawn = []

    def counted(rng, n):
        drawn.append(n)
        return values(rng, n)

    for idx, lo in enumerate(range(0, n_paths, _CHUNK_SIZE)):
        n = min(_CHUNK_SIZE, n_paths - lo)
        stream = spec.seed.substream(idx)
        drawn.clear()
        got = _chunk_sums(counted, block, f0, weights, make_stream(stream), n)
        assert drawn == [min(block, n - k) for k in range(0, n, block)]
        fv = _walked_values(values, block, make_stream(stream), n)
        if f.gaussian:
            assert fv.tobytes() == values(make_stream(stream), n).tobytes()
        fine = _trapezoid(f0, fv, weights[0])
        sq = fine * fine
        sums = [fine, sq, sq * fine, sq * sq]
        if not f.gaussian:
            diff = fine - _trapezoid(f0, fv[1::2], weights[1])
            sums += [diff, diff * diff]
        assert got == tuple(float(np.add.reduce(v)) for v in sums)


def _gaussian_mean_along_fbm(params, sigma, amplitude, r, times):
    """The exact mean of A exp(-|y - c|^2 / (2 sigma^2)) along x + B_H(t),
    |x - c| = r: A (s / (s + t^a))^(d/2) exp(-r^2 / (2 (s + t^a)))."""
    s, v = sigma * sigma, sigma * sigma + times ** params.alpha
    return amplitude * (s / v) ** (0.5 * params.dim) * np.exp(-0.5 * r * r / v)


def test_discretization_bound_uses_every_path():
    """The grid-vs-half-grid estimate is taken over all paths of all chunks,
    on the estimator's clock for a bump, and scaled by m = E[Y^(-1/alpha)]
    like the rest of the estimate."""
    params = ModelParams(0.5, 1.5, 3)
    f = bump_test_function(1.0, 3)
    x = np.zeros(3)
    spec = PerpetualSpec(t_max=10.0, n_paths=2 * _CHUNK_SIZE, seed=SeedSpec(42, 0))
    est = estimate_potential_mc(params, f, x, spec)
    times = _clock(params, f, spec)
    diffs = []
    for idx in range(2):
        f0, fv = f(x), _walked_values(_block_values(params, f, x, times)[0], _BLOCK_SIZE,
                                      make_stream(spec.seed.substream(idx)), _CHUNK_SIZE)
        fv = np.vstack([np.full(_CHUNK_SIZE, f0), fv]).T  # (paths, times)
        diffs.append(fv @ _trapezoid_weights(times)
                     - fv[:, ::2] @ _trapezoid_weights(times[::2]))
    diff = np.concatenate(diffs)
    expected = abs(diff.mean()) + 2.0 * diff.std(ddof=1) / math.sqrt(len(diff))
    expected *= m_wright_moment(params.beta, -1.0 / params.alpha)
    assert est.discretization_bound == pytest.approx(expected, rel=1e-9)


def _rule_tail(params, log_mean, t_max, v_split=0.0):
    """Reference for tail_bound: m int_{t_max}^inf mean(t^a) dt with
    m = E[Y^(-1/a)], the fBm tail of the factored potential.  The integral
    is sum_i w_i M_i int_{t_max}^inf mean(tau_i t^a) dt over the M-Wright
    rule at beta = 1 (ModelParams(1, a, d), one node), every node its own
    adaptive integral in u = log t (one quad_vec over the vector of nodes),
    split where the node's variance tau_i t^a reaches v_split.  log_mean
    maps log v to the log of the mean at variance v; both integrals must
    converge."""
    m = m_wright_moment(params.beta, -1.0 / params.alpha)
    params = ModelParams(1.0, params.alpha, params.dim)
    tau, weights, mvals = m_wright_quad_rule(params.beta)
    alpha, lo = params.alpha, math.log(t_max)
    with np.errstate(divide="ignore"):
        u0 = np.maximum(lo, (np.log(v_split) - np.log(tau)) / alpha)

    def g(u):
        return weights * mvals * np.exp(u + log_mean(alpha * u + np.log(tau)))

    head, _, info_head = quad_vec(lambda w: (u0 - lo) * g(lo + w * (u0 - lo)), 0.0, 1.0,
                                  epsabs=1e-300, epsrel=1e-12, norm="max", full_output=True)
    tail, _, info_tail = quad_vec(lambda v: g(u0 + v), 0.0, np.inf,
                                  epsabs=1e-300, epsrel=1e-12, norm="max", full_output=True)
    assert info_head.success and info_tail.success
    return m * (math.fsum(head) + math.fsum(tail))


def _default_bound_tail(params, f, t_max):
    """_rule_tail of min(sup, l1 (2 pi (spread + v))^(-d/2)), split where the
    two bounds cross."""
    d, s = params.dim, f.spread
    log_c = math.log(f.l1_norm) - 0.5 * d * math.log(2.0 * math.pi)

    def log_mean(log_v):
        log_sv = log_v + np.log1p(s * np.exp(-log_v))  # log(s + v)
        return np.minimum(math.log(f.sup_norm), log_c - 0.5 * d * log_sv)

    v_star = max(math.exp(2.0 / d * (log_c - math.log(f.sup_norm))) - s, 0.0)
    return _rule_tail(params, log_mean, t_max, v_star)


def _gaussian_heat_tail(params, sigma, amplitude, r, t_max):
    """_rule_tail of the exact heat mean of A exp(-|y|^2 / (2 sigma^2)) at
    distance r from its centre,
    A sigma^d (sigma^2 + v)^(-d/2) exp(-r^2 / (2 (sigma^2 + v)))."""
    d, s = params.dim, sigma * sigma

    def log_mean(log_v):
        inv_v = np.exp(-log_v)
        return (math.log(amplitude * sigma ** d) - 0.5 * d * (log_v + np.log1p(s * inv_v))
                - 0.5 * r * r * inv_v / (1.0 + s * inv_v))

    return _rule_tail(params, log_mean, t_max)


def _norms_only(g):
    """g declared with its norms and reach only, so with spread 0."""
    return green.TestFunction(eval_many=g.eval_many, sup_norm=g.sup_norm,
                              l1_norm=g.l1_norm, dim=g.dim, reach=g.reach)


def test_tail_bound_brownian_closed_form():
    # beta = 1, d = 3, unit Gaussian: the heat mean at the centre is
    # (1 + t)^(-3/2), whose tail is 2 / sqrt(1 + T); with spread 0 the bound
    # is int_T^inf ||f||_1 (2 pi t)^(-3/2) dt = ||f||_1 (2 pi)^(-3/2) 2 T^(-1/2)
    params = ModelParams(1.0, 1.0, 3)
    f = gaussian_test_function(1.0, 3)
    T = 50.0
    assert tail_bound(params, f, T) == pytest.approx(2.0 / math.sqrt(1.0 + T), rel=1e-12)
    expected = f.l1_norm * (2.0 * math.pi) ** -1.5 * 2.0 * T ** -0.5
    assert tail_bound(params, _norms_only(f), T) == pytest.approx(expected, rel=1e-12)


def test_tail_bound_dominates_true_tail():
    """The bound is the exact tail of the mean at the Gaussian's centre and
    strictly above it off the centre."""
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    T = 50.0
    bound = tail_bound(params, f, T)
    assert bound == pytest.approx(_gaussian_heat_tail(params, 1.0, 1.0, 0.0, T), rel=1e-12)
    for r in (0.5, 2.0):
        assert bound > _gaussian_heat_tail(params, 1.0, 1.0, r, T) * (1.0 + 1e-9)


@pytest.mark.parametrize("T", [10.0, 50.0])
@pytest.mark.parametrize("make_f", [
    lambda d: gaussian_test_function(1.0, d),
    lambda d: gaussian_test_function(0.6, d, amplitude=2.0),
    lambda d: bump_test_function(1.0, d),
], ids=["gaussian", "gaussian-0.6-A2", "bump"])
@pytest.mark.parametrize("triple", [(0.5, 1.5, 3), (0.8, 1.2, 2), (1.0, 1.0, 3), (1.0, 1.5, 2)],
                         ids=lambda t: "-".join(map(str, t)))
def test_tail_bound_closed_form_matches_per_node_reference(triple, make_f, T):
    params = ModelParams(*triple)
    f = make_f(params.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = tail_bound(params, f, T)
    assert bound == pytest.approx(_default_bound_tail(params, f, T), rel=1e-12)


def test_tail_bound_decreases_in_horizon():
    params = ModelParams(0.8, 1.2, 2)
    f = gaussian_test_function(1.0, 2)
    b1 = tail_bound(params, f, 20.0)
    b2 = tail_bound(params, f, 50.0)
    b3 = tail_bound(params, f, 100.0)
    assert b1 > b2 > b3 > 0.0


def test_tail_bound_requires_transience():
    with pytest.raises(DomainError):
        tail_bound(ModelParams(0.5, 1.5, 1), gaussian_test_function(1.0, 1),
                   10.0)
    with pytest.raises(DomainError, match="requires alpha > 1 when beta < 1"):
        tail_bound(ModelParams(0.5, 0.9, 3), gaussian_test_function(1.0, 3),
                   10.0)


def test_estimate_deterministic_across_threads():
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=4096, seed=SeedSpec(42, 0))
    e1 = estimate_potential_mc(params, f, np.zeros(3), spec, threads=1)
    e8 = estimate_potential_mc(params, f, np.zeros(3), spec, threads=8)
    assert e1.mean == e8.mean
    assert e1.std_error == e8.std_error
    assert e1.discretization_bound == e8.discretization_bound


def test_one_thread_runs_without_a_pool(monkeypatch):
    """threads = 1 runs the chunks in the calling thread, with the same
    streams and sums as a pool of two."""
    from ggbm import montecarlo
    params = ModelParams(0.5, 1.5, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=3 * _CHUNK_SIZE, seed=SeedSpec(42, 0))
    for f in (gaussian_test_function(1.0, 3), bump_test_function(1.0, 3)):
        pooled = estimate_potential_mc(params, f, np.zeros(3), spec, threads=2)
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "ThreadPoolExecutor", None)
            assert estimate_potential_mc(params, f, np.zeros(3), spec, threads=1) == pooled


def test_estimate_pinned_values():
    """Mean (with the exact tail beyond t_max and the exact grid bias folded
    in), SE and kurtosis at seed 42 on a Gaussian's clock of
    _GAUSSIAN_STEPS_PER_DECADE = 4 intervals per decade from where t^alpha
    is a tenth of the spread (9 grid points at t_max = 10), one fBm
    component sampled and the other two integrated out; a change of the
    clock, the fold, the conditioning or the draws moves them."""
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=4096, seed=SeedSpec(42, 0))
    assert len(_clock(params, f, spec)) == 9
    est = estimate_potential_mc(params, f, np.zeros(3), spec)
    assert est.mean == pytest.approx(2.2760524904667068, rel=1e-12)
    assert est.std_error == pytest.approx(0.010367986390487248, rel=1e-12)
    assert est.kurtosis == pytest.approx(2.2489114426364885, rel=1e-9)
    assert est.discretization_bound == 0.0 and est.tail_bound == 0.0


@pytest.mark.parametrize("case", ["bump", "custom"])
def test_non_gaussian_estimate_pinned_values(case):
    """Any f not declared Gaussian keeps the _STEPS_PER_DECADE = 32 clock
    and no bias fold: mean, SE, disc and the one-sided tail at seed 42 on
    the SFC64 streams; a change of the clock or the draws moves them."""
    params = ModelParams(0.5, 1.5, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=4096, seed=SeedSpec(42, 0))
    if case == "bump":
        f, x = bump_test_function(1.0, 3), np.zeros(3)
        expected = (0.8432941287157586, 0.008940243122877334,
                    0.004493711488110159, 0.006775588782775673)
    else:
        f = _norms_only(gaussian_test_function(0.8, 3, amplitude=2.0))
        x = np.array([0.5, 0.0, 0.0])
        expected = (3.013771752265359, 0.03243145229405848,
                    0.010275058130624648, 0.09113730903891966)
    est = estimate_potential_mc(params, f, x, spec)
    got = (est.mean, est.std_error, est.discretization_bound, est.tail_bound)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("triple", [(0.5, 1.5, 3), (0.8, 1.2, 2), (0.9, 2.0, 2), (1.0, 1.0, 3)],
                         ids=lambda t: "-".join(map(str, t)))
@pytest.mark.parametrize("T", [10.0, 50.0])
def test_grid_bias_integral_matches_incomplete_beta(triple, T):
    """The fold's int_0^inf g dt is A s^(1/a) / a B(b, 1/a) 1F1(b; b + 1/a; -z)
    with b = d/2 - 1/a and z = |x - c|^2 / (2 s): B(b, 1/a) at the centre,
    mpmath's 1F1 off it, closed forms that share nothing with the potential
    or with quad.  Its g is the mean on the clock, and the grid and half
    grid over-weight the convex decay against int_0^T g, the whole integral
    less the incomplete beta tail A s^(1/a) / a B(b, 1/a) I_z'(b, 1/a),
    z' = s / (s + T^a)."""
    params = ModelParams(*triple)
    d, alpha, sigma = params.dim, params.alpha, 0.8
    s, a, b = sigma * sigma, 1.0 / alpha, 0.5 * d - 1.0 / alpha
    times = build_time_grid(PerpetualSpec(T, 1, SeedSpec(0, 0)), _GAUSSIAN_STEPS_PER_DECADE)
    w_fine, w_coarse = _trapezoid_weights(times), _trapezoid_weights(times[::2])
    for r, amplitude in ((0.0, 1.0), (1.5, -2.0)):
        f = gaussian_test_function(sigma, d, center=np.array([r] + [0.0] * (d - 1)),
                                   amplitude=amplitude)
        g, integral = _gaussian_law(params, f, np.zeros(d), times)[2:]
        assert np.allclose(g, _gaussian_mean_along_fbm(params, sigma, amplitude, r, times),
                           rtol=1e-14, atol=0.0)
        scale = amplitude * s ** a * a * beta_function(b, a)
        exact = scale * float(mpmath.hyp1f1(b, b + a, -0.5 * r * r / s))
        assert integral == pytest.approx(exact, rel=1e-12, abs=0.0)
        if r == 0.0:  # the grids over-weight the convex decay against int_0^T g
            head = integral - scale * betainc(b, a, s / (s + T ** alpha))
            assert 0.0 < math.fsum(w_fine * g) - head < math.fsum(w_coarse * g[::2]) - head


def _beta_integral_quadrature(a, b, z):
    """int_0^1 exp(-z v) v^(b-1) (1-v)^(a-1) dv by mpmath's quadrature at 30
    digits, with no hypergeometric function: v = w^(1/b) takes v^(b-1) dv
    to dw / b where b < 1; from b = 1 on, u = z v over the splits b and
    4b + 60 puts the nodes where exp(-u) u^(b-1) lives."""
    with mpmath.workdps(30):
        a, b, z = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(z)
        if b < 1:
            return float(mpmath.quad(
                lambda w: mpmath.exp(-z * w ** (1 / b)) * (1 - w ** (1 / b)) ** (a - 1),
                [0, 1]) / b)
        if z == 0:
            return float(mpmath.quad(lambda v: v ** (b - 1) * (1 - v) ** (a - 1), [0, 1]))
        edges = [0] + [u for u in (b, 4 * b + 60) if u < z] + [z]
        return float(mpmath.quad(
            lambda u: mpmath.exp(-u) * u ** (b - 1) * (1 - u / z) ** (a - 1), edges)
            / z ** b)


@pytest.mark.parametrize("triple, z", [
    *((t, z) for t in ((0.5, 1.5, 3), (0.8, 1.2, 2), (0.9, 2.0, 2), (1.0, 1.0, 3))
      for z in (0.0, 1.125)),
    ((1.0, 1.5, 30), 1e8),
    ((1.0, 2.0, 3), 1e7),
], ids=str)
def test_gaussian_mean_integral_matches_beta_integral_quadrature(triple, z):
    """The fold's closed form A s^(1/a) / a B(b, 1/a) 1F1(b; b + 1/a; -z)
    against the Beta integral it stands for, summed by mpmath's quadrature
    and sharing nothing with 1F1: at the criterion-1 triples at a unit
    Gaussian's centre and 1.5 from it (z = 1.125), and far out in d = 30
    and d = 3."""
    params = ModelParams(*triple)
    d, a = params.dim, 1.0 / params.alpha
    f = gaussian_test_function(1.0, d, center=np.array([math.sqrt(2.0 * z)] + [0.0] * (d - 1)),
                               amplitude=-2.0)
    _, integral = _gaussian_law(params, f, np.zeros(d), np.zeros(1))[2:]
    exact = -2.0 * a * _beta_integral_quadrature(a, 0.5 * d - a, z)
    assert integral == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [3, 4, 10])
@pytest.mark.parametrize("z", [5e3, 1e7])
def test_gaussian_mean_integral_far_from_the_centre(alpha, dim, z):
    """Far from the centre the Beta integral's exp(-z v) is a peak at
    v ~ 1/z; the closed form matches mpmath's B(b, 1/a) 1F1 within 1e-12
    out to z = 1e7."""
    params = ModelParams(1.0, alpha, dim)
    s, a, b = 0.64, 1.0 / alpha, 0.5 * dim - 1.0 / alpha
    f = gaussian_test_function(0.8, dim, center=np.array([math.sqrt(2.0 * s * z)]
                                                         + [0.0] * (dim - 1)))
    _, integral = _gaussian_law(params, f, np.zeros(dim), np.zeros(1))[2:]
    exact = s ** a * a * beta_function(b, a) * float(mpmath.hyp1f1(b, b + a, -z))
    assert integral == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [20, 24, 30])
def test_gaussian_mean_integral_in_high_dimension(alpha, dim):
    """With b = d/2 - 1/a of 6 to 15, B(b, 1/a) 1F1(b; b + 1/a; -z) falls
    by 75 to 163 decades between the centre and z = 1e12; the closed form
    matches mpmath's within 1e-13 at every point."""
    params = ModelParams(1.0, alpha, dim)
    a, b = 1.0 / alpha, 0.5 * dim - 1.0 / alpha
    for z in (0.0, 0.5, 20.0, 500.0, 5e3, 1e5, 1e8, 1e12):
        f = gaussian_test_function(1.0, dim, center=np.array([math.sqrt(2.0 * z)]
                                                             + [0.0] * (dim - 1)))
        _, integral = _gaussian_law(params, f, np.zeros(dim), np.zeros(1))[2:]
        with mpmath.workdps(30):
            exact = float(a * mpmath.beta(b, a) * mpmath.hyp1f1(b, b + a, -z))
        assert integral == pytest.approx(exact, rel=1e-13, abs=0.0), z


@pytest.mark.parametrize("x",[np.zeros(3), np.array([0.8, -0.3, 0.5])], ids=["centre", "off"])
def test_raw_grid_mean_reproduces_exact_grid_sum(x):
    """The premise of the fold: at beta = 1 the per-path trapezoid sums on a
    Gaussian's clock average to sum_j w_j g(t_j) within 3 SE, at the centre
    and off it."""
    params = ModelParams(1.0, 1.5, 3)
    f = gaussian_test_function(1.0, 3, center=np.array([0.1, 0.2, -0.1]))
    times = _clock(params, f, PerpetualSpec(50.0, 1, SeedSpec(0, 0)))
    w = _trapezoid_weights(times)
    _, rows, _, _ = _gaussian_plan(params, f, x, times, w)
    f0, fv = f(x), _block_values(params, f, x, times)[0](make_stream(SeedSpec(5, 0)), 8192)
    trap = _trapezoid(f0, fv, rows)
    se = trap.std(ddof=1) / math.sqrt(len(trap))
    exact = w @ _gaussian_mean_along_fbm(params, 1.0, 1.0, float(np.linalg.norm(x - f.center)),
                                         times)
    assert abs(trap.mean() - exact) <= 3.0 * se


def _grid_sd(params, sigma, r, times, sampled=1):
    """Exact per-path SD of the trapezoid sum on times of a unit Gaussian of
    width sigma at distance r from its centre: the conditioned sum the
    estimator draws (sampled=1), or the one of f along whole paths for
    sampled=params.dim (_sampled_grid_moments)."""
    f = gaussian_test_function(sigma, params.dim)
    x = np.zeros(params.dim)
    x[0] = r
    return math.sqrt(_sampled_grid_moments(params, f, x, times, _trapezoid_weights(times),
                                           sampled)[1])


def _exact_grid_moments(params, f, x):
    """The grid mean and variance of the per-path sum the estimator draws for
    a Gaussian f on its clock at t_max = 50: the mean from _gaussian_plan,
    the variance from exact_gaussian_moments' SE at one path, over m^2."""
    spec = PerpetualSpec(50.0, 1, SeedSpec(0, 0))
    times = _clock(params, f, spec)
    mean = _gaussian_plan(params, f, x, times, _trapezoid_weights(times))[2]
    m = m_wright_moment(params.beta, -1.0 / params.alpha)
    return mean, (exact_gaussian_moments(params, f, x, spec)[1] / m) ** 2


def test_exact_grid_variance_matches_sampled_paths():
    """The closed-form grid variance is the variance of the per-path sums the
    estimator draws, off a Gaussian's centre, at beta = 1."""
    params = ModelParams(1.0, 1.2, 2)
    f = gaussian_test_function(0.5, 2)
    x = np.array([1.0, -0.5])
    times = _clock(params, f, PerpetualSpec(50.0, 1, SeedSpec(0, 0)))
    w = _trapezoid_weights(times)
    mean, var = _exact_grid_moments(params, f, x)
    _, rows, _, _ = _gaussian_plan(params, f, x, times, w)
    f0, fv = f(x), _block_values(params, f, x, times)[0](make_stream(SeedSpec(6, 0)), 8192)
    trap = _trapezoid(f0, fv, rows)
    assert trap.mean() == pytest.approx(mean, abs=3.0 * math.sqrt(var / len(trap)))
    assert trap.std(ddof=1) == pytest.approx(math.sqrt(var), rel=0.05)


def _sampled_grid_moments(params, f, x, times, w, sampled):
    """Mean and variance of w . h(times) for a Gaussian f, h(t) the mean of
    f(x + B_H(t)) given `sampled` of B_H's d components, the first along
    x - c: f along whole paths at sampled = d, the conditioned sum the
    estimator draws at 1.  The second moment is w^T C w with
    C_jk = A^2 rho_j rho_k (s^2 / D)^(sampled/2)
    exp(-|x - c|^2 (2 s + a_j + a_k - 2 k_jk) / (2 D)),
    rho = (s / (s + a))^((d - sampled) / 2), a_j = t_j^alpha, k_jk fBm's
    covariance and D = (s + a_j) (s + a_k) - k_jk^2."""
    d, s = params.dim, f.spread
    r2 = float(np.sum((x - f.center) ** 2))
    a = times ** params.alpha
    aj, ak = a[:, None], a[None, :]
    k = 0.5 * (aj + ak - np.abs(times[:, None] - times[None, :]) ** params.alpha)
    det = (s + aj) * (s + ak) - k * k
    rho = (s / (s + a)) ** (0.5 * (d - sampled))
    c = f(f.center) ** 2 * np.outer(rho, rho) * (s * s / det) ** (0.5 * sampled) * np.exp(
        -0.5 * r2 * (2.0 * s + aj + ak - 2.0 * k) / det)
    g = _gaussian_mean_along_fbm(params, math.sqrt(s), f(f.center), math.sqrt(r2), times)
    return float(w @ g), float(w @ (c - np.outer(g, g)) @ w)


def test_componentwise_grid_variance_matches_sampled_paths():
    """The oracle's d-component variance is that of f along whole fBm
    paths, which the estimator draws for an f not declared Gaussian."""
    params = ModelParams(1.0, 1.2, 2)
    g = gaussian_test_function(0.5, 2)
    f, x = _norms_only(g), np.array([1.0, -0.5])
    times = _clock(params, g, PerpetualSpec(50.0, 1, SeedSpec(0, 0)))
    w = _trapezoid_weights(times)
    mean, var = _sampled_grid_moments(params, g, x, times, w, params.dim)
    f0, fv = f(x), _block_values(params, f, x, times)[0](make_stream(SeedSpec(6, 0)), 8192)
    trap = _trapezoid(f0, fv, w)
    assert trap.mean() == pytest.approx(mean, abs=3.0 * math.sqrt(var / len(trap)))
    assert trap.std(ddof=1) == pytest.approx(math.sqrt(var), rel=0.05)


@pytest.mark.parametrize("triple", [(0.5, 1.5, 3), (0.8, 1.2, 2), (0.9, 2.0, 2), (1.0, 1.0, 3)],
                         ids=lambda t: "-".join(map(str, t)))
def test_conditioning_never_raises_the_grid_variance(triple):
    """Rao-Blackwell: the per-path sum of E[f(x + B) | B_1] has the mean of
    f's own sum and at most its variance, at the criterion-1 triples on a
    unit Gaussian's clock at |x - c| = 0, 1.5 and 3."""
    params = ModelParams(*triple)
    f = gaussian_test_function(1.0, params.dim)
    times = _clock(params, f, PerpetualSpec(50.0, 1, SeedSpec(0, 0)))
    w = _trapezoid_weights(times)
    for r in (0.0, 1.5, 3.0):
        x = np.zeros(params.dim)
        x[-1] = r
        mean, var = _exact_grid_moments(params, f, x)
        whole_mean, whole_var = _sampled_grid_moments(params, f, x, times, w, params.dim)
        assert mean == pytest.approx(whole_mean, rel=1e-13)
        assert 0.0 < var <= whole_var


@pytest.mark.parametrize("triple", [(0.5, 1.5, 3), (0.8, 1.2, 2), (0.9, 2.0, 2), (1.0, 1.0, 3)],
                         ids=lambda t: "-".join(map(str, t)))
def test_exact_gaussian_moments_match_the_conditioned_oracle(triple):
    """exact_gaussian_moments' SE is m sqrt(var / n_paths), var the variance
    of the conditioned per-path sum on the clock, which the oracle forms
    from its own fBm covariance, at the centre and 1.5 off it."""
    params = ModelParams(*triple)
    f = gaussian_test_function(1.0, params.dim)
    spec = PerpetualSpec(50.0, 4096, SeedSpec(0, 0))
    times = _clock(params, f, spec)
    m = m_wright_moment(params.beta, -1.0 / params.alpha)
    for r in (0.0, 1.5):
        x = np.zeros(params.dim)
        x[0] = r
        _, var = _sampled_grid_moments(params, f, x, times, _trapezoid_weights(times), 1)
        se = exact_gaussian_moments(params, f, x, spec)[1]
        assert se == pytest.approx(m * math.sqrt(var / spec.n_paths), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("triple", [(0.5, 1.5, 3), (0.8, 1.2, 2), (0.9, 2.0, 2), (1.0, 1.0, 3)],
                         ids=lambda t: "-".join(map(str, t)))
def test_gaussian_clock_density_keeps_the_grid_sd(triple):
    """At _GAUSSIAN_STEPS_PER_DECADE the exact SD of the conditioned
    per-path sum stays within 10 % of 8 per decade's, from the same start,
    at the criterion-1 triples, x = c and |x - c| = 1.5, t_max = 50; a
    coarser clock would trade certified width for fewer normals."""
    params = ModelParams(*triple)
    spec = PerpetualSpec(50.0, 1, SeedSpec(0, 0))
    times = _clock(params, gaussian_test_function(1.0, params.dim), spec)
    eight = build_time_grid(spec, 8, times[1])
    assert _GAUSSIAN_STEPS_PER_DECADE <= 8 and len(times) <= len(eight)
    for r in (0.0, 1.5):
        assert _grid_sd(params, 1.0, r, times) == pytest.approx(
            _grid_sd(params, 1.0, r, eight), rel=0.1)


@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.8, 2.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_gaussian_clock_start_keeps_the_grid_variance(alpha, dim):
    """Starting a Gaussian's clock where t^alpha is a tenth of its spread,
    not at _T_MIN, drops points but leaves the exact per-path SD of f along
    whole paths within 0.5 %: the decades before the start carry no
    variance.  Both grids run at _STEPS_PER_DECADE, fine enough that where
    the nodes fall moves that SD by at most 0.39 %; at 8 per
    decade it moves it by up to 1.0 %.  The conditioned sum the estimator
    draws has less variance, and a larger share of it early: the start
    moves its SD by up to 0.69 % (alpha = 2, d = 3, at the centre)."""
    params = ModelParams(1.0, alpha, dim)
    spec = PerpetualSpec(50.0, 1, SeedSpec(0, 0))
    full = build_time_grid(spec, _STEPS_PER_DECADE)
    for sigma in (0.3, 1.0, 3.0):
        start = _clock(params, gaussian_test_function(sigma, dim), spec)[1]
        late = build_time_grid(spec, _STEPS_PER_DECADE, start)
        assert start > _T_MIN and len(late) < len(full)
        for r in (0.0, 1.5):
            assert _grid_sd(params, sigma, r, late, dim) == \
                pytest.approx(_grid_sd(params, sigma, r, full, dim), rel=0.005)
            assert _grid_sd(params, sigma, r, late) == pytest.approx(
                _grid_sd(params, sigma, r, full), rel=0.0075)


@pytest.mark.parametrize("sigma,t_max,start", [
    (0.01, 50.0, _T_MIN),  # (s / 10)^(1 / alpha) below _T_MIN
    (3.0, 0.5, 0.05),  # (s / 10)^(1 / alpha) above t_max / 10
    (1.0, 1.5 * _T_MIN, _T_MIN),  # t_max / 10 below _T_MIN
    (1.0, 50.0, 0.1 ** (1.0 / 1.5)),
], ids=["spread-below-t-min", "t-max-over-10", "t-max-near-t-min", "interior"])
def test_gaussian_clock_start_clamps(sigma, t_max, start):
    """A Gaussian's clock starts at max(_T_MIN, min((s / 10)^(1/alpha),
    t_max / 10)) at _GAUSSIAN_STEPS_PER_DECADE intervals per decade; a
    start at _T_MIN gives the very grid of build_time_grid's default start.
    Every other f keeps build_time_grid's default clock, byte for byte."""
    params = ModelParams(0.5, 1.5, 3)
    spec = PerpetualSpec(t_max, 1, SeedSpec(0, 0))
    times = _clock(params, gaussian_test_function(sigma, 3), spec)
    assert times[0] == 0.0 and times[1] == pytest.approx(start, rel=1e-15)
    assert times[-1] == t_max
    assert np.all(np.diff(times) > 0.0)
    assert (len(times) - 1) % 2 == 0
    assert len(times) - 2 >= _GAUSSIAN_STEPS_PER_DECADE * math.log10(t_max / start)
    if start == _T_MIN:
        assert times.tobytes() == build_time_grid(spec, _GAUSSIAN_STEPS_PER_DECADE).tobytes()
    bump = _clock(params, bump_test_function(1.0, 3), spec)
    assert bump.tobytes() == build_time_grid(spec).tobytes()


def test_grid_bias_fold_is_linear_in_the_amplitude_off_centre():
    """Off a Gaussian's centre the fold takes amplitude and sign from f(c):
    amplitude -2 gives -2 times the amplitude-1 estimate, and the whole
    tail is in the mean."""
    params = ModelParams(0.5, 1.5, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=4096, seed=SeedSpec(42, 0))
    x = np.array([0.4, -0.6, 0.2])
    one, neg = (estimate_potential_mc(params, gaussian_test_function(0.8, 3, amplitude=a),
                                      x, spec) for a in (1.0, -2.0))
    assert one.tail_bound == 0.0 and neg.tail_bound == 0.0
    assert neg.mean == pytest.approx(-2.0 * one.mean, rel=1e-14, abs=0.0)
    assert neg.std_error == pytest.approx(2.0 * one.std_error, rel=1e-14, abs=0.0)


def test_estimate_factors_through_fbm():
    """V_beta = E[Y^(-1/alpha)] V_1: on the same seed the estimate at beta
    is the beta = 1 (fBm) estimate times the moment, term by term."""
    f = gaussian_test_function(1.0, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=4096, seed=SeedSpec(42, 0))
    est = estimate_potential_mc(ModelParams(0.5, 1.5, 3), f, np.zeros(3), spec)
    fbm = estimate_potential_mc(ModelParams(1.0, 1.5, 3), f, np.zeros(3), spec)
    m = m_wright_moment(0.5, -1.0 / 1.5)
    assert m > 1.0
    assert est.mean == pytest.approx(m * fbm.mean, rel=1e-14, abs=0.0)
    assert est.std_error == pytest.approx(m * fbm.std_error, rel=1e-14, abs=0.0)
    assert est.discretization_bound == pytest.approx(m * fbm.discretization_bound,
                                                     rel=1e-14, abs=0.0)


def test_folded_tail_takes_the_amplitude_sign():
    """The exact tail at a Gaussian's centre is added with f's sign: the
    estimate is linear in the amplitude, a negative one included."""
    params = ModelParams(0.5, 1.5, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=4096, seed=SeedSpec(42, 0))
    one, neg = (estimate_potential_mc(params, gaussian_test_function(0.8, 3, amplitude=a),
                                      np.zeros(3), spec) for a in (1.0, -2.0))
    assert one.tail_bound == 0.0 and neg.tail_bound == 0.0
    assert neg.mean == pytest.approx(-2.0 * one.mean, rel=1e-14, abs=0.0)
    assert neg.std_error == pytest.approx(2.0 * one.std_error, rel=1e-14, abs=0.0)


def test_off_centre_tail_stays_in_the_budget():
    """For any f not declared Gaussian, at its centre and off it, the tail
    is a one-sided bound reported apart from the mean."""
    params = ModelParams(0.5, 1.5, 3)
    f = _norms_only(gaussian_test_function(1.0, 3))
    spec = PerpetualSpec(t_max=10.0, n_paths=256, seed=SeedSpec(42, 0))
    for g, x in ((f, np.array([0.5, 0.0, 0.0])), (f, np.zeros(3)),
                 (bump_test_function(1.0, 3), np.zeros(3))):
        est = estimate_potential_mc(params, g, x, spec)
        assert est.tail_bound == tail_bound(params, g, spec.t_max) > 0.0


def test_green_budget_within_one_percent():
    """The certified budget 3 SE + tail + disc is within 1 % of V at
    (0.8, 1.2, 2), where the tail decays only like T^(-0.2)."""
    rep = run_suite("green", beta=0.8, alpha=1.2, dim=2, paths=100_000, seed=42, threads=2)
    check = rep["checks"][0]
    assert rep["pass"]
    assert check["budget_rel"] <= 0.01


def test_green_checks_the_two_time_law(monkeypatch):
    """A Cholesky factor replaced by its diagonal t^H keeps every marginal
    of the paths and breaks their two-time law: the mean checks and the
    prefactor checks of the green suite still pass, and the SE checks
    against the exact grid variance fail."""
    monkeypatch.setattr(fbm, "fbm_cholesky_factor",
                        lambda hurst, times: np.diag(np.asarray(times) ** hurst))
    rep = run_suite("green", beta=0.5, alpha=1.5, dim=3, paths=20_000, seed=42)
    kinds = {}
    for check in rep["checks"]:
        kinds.setdefault(check["name"].split()[0], []).append(check["pass"])
    assert kinds == {"perpetual-integral": [True, True], "standard-error": [False, False],
                     "potential-prefactor": [True, True], "brownian-constant": [True]}


@pytest.mark.parametrize("x", [np.zeros(3), np.array([1.5, 0.0, 0.0])], ids=["centre", "off"])
@pytest.mark.parametrize("amplitude", [1.0, -2.0])
def test_gaussian_estimate_has_no_discretization_term(x, amplitude):
    """A declared Gaussian's grid bias and tail are exact and in the mean:
    both bounds are exactly 0, so its budget is 3 SE."""
    params = ModelParams(0.8, 1.2, 3)
    f = gaussian_test_function(0.8, 3, amplitude=amplitude)
    spec = PerpetualSpec(t_max=10.0, n_paths=512, seed=SeedSpec(42, 0))
    est = estimate_potential_mc(params, f, x, spec)
    assert est.discretization_bound == 0.0 and est.tail_bound == 0.0
    assert est.budget == 3.0 * est.std_error > 0.0


def test_budget_adds_the_three_terms():
    """Estimate.budget is 3 SE + tail bound + discretization bound; for a
    bump all three are positive."""
    params = ModelParams(0.5, 1.5, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=512, seed=SeedSpec(42, 0))
    est = estimate_potential_mc(params, bump_test_function(1.0, 3), np.zeros(3), spec)
    assert min(est.std_error, est.tail_bound, est.discretization_bound) > 0.0
    assert est.budget == 3.0 * est.std_error + est.tail_bound + est.discretization_bound


# where every path value of a unit Gaussian underflows the budget was 0, and
# the mean and V differ by their rounding; at (0.5, 1.5, 3) and |x - c| =
# 1e2 a few paths near t_max come close enough to f, and 4096 paths miss
# them: a sampling miss of 1.8e-6 relative, not rounding
_FAR_CERTIFICATES = [
    pytest.param(0.5, 1.5, 3, 1e2, marks=pytest.mark.xfail(
        strict=True, reason="4096 paths miss the rare paths that reach f before t_max")),
    *[(0.5, 1.5, 3, r) for r in (1e3, 1e8, 1e150)],
    *[(*t, r) for t in [(0.8, 1.2, 2), (0.9, 2.0, 2), (1.0, 1.0, 3), (0.5, 1.01, 2)]
      for r in (1e2, 1e3, 1e8, 1e150)],
]


@pytest.mark.parametrize("beta,alpha,dim,r", _FAR_CERTIFICATES)
def test_far_gaussian_certificate_holds_at_its_rounding_floor(beta, alpha, dim, r):
    """Far from a unit Gaussian's centre, as `ggbm estimate-potential --paths
    4096 --x 1e3,0,0` runs it, |mean - V| <= budget: the budget never falls
    below its floor of _BUDGET_FLOOR_EPS eps |mean|, which the 3 SE that is
    0 there no longer sets."""
    params = ModelParams(beta, alpha, dim)
    f = gaussian_test_function(1.0, dim)
    x = np.zeros(dim)
    x[0] = r
    spec = PerpetualSpec(t_max=50.0, n_paths=4096, seed=SeedSpec(0, 0))
    est = estimate_potential_mc(params, f, x, spec)
    v = potential(GreenDensity.from_params(params), f, x)
    floor = _BUDGET_FLOOR_EPS * sys.float_info.epsilon * abs(est.mean)
    assert est.budget >= floor > 0.0
    assert abs(est.mean - v) <= est.budget, (est.mean, v, est.budget)


def test_budget_floor_keeps_a_budget_above_it():
    """A budget whose 3 SE + tail + disc passes the floor is that sum, bit
    for bit, and one below it is the floor."""
    est = Estimate(mean=2.0, std_error=1e-3, n_paths=4, tail_bound=1e-4,
                   discretization_bound=2e-4, t_max=1.0, seed=SeedSpec(0, 0), kurtosis=1.0)
    assert est.budget == 3.0 * 1e-3 + 1e-4 + 2e-4
    tiny = dataclasses.replace(est, std_error=0.0, tail_bound=0.0, discretization_bound=0.0)
    assert tiny.budget == _BUDGET_FLOOR_EPS * sys.float_info.epsilon * 2.0


def test_estimate_where_the_variance_squared_underflows():
    """At (0.5, 1.5, 3), |x - c| = 1e2 and seed 0 a few path values do not
    underflow, so the variance is positive but its square is 0; the
    kurtosis is NaN there, as where the values are all equal, where it was
    a ZeroDivisionError."""
    spec = PerpetualSpec(t_max=50.0, n_paths=4096, seed=SeedSpec(0, 0))
    est = estimate_potential_mc(ModelParams(0.5, 1.5, 3), gaussian_test_function(1.0, 3),
                                np.array([1e2, 0.0, 0.0]), spec)
    assert 0.0 < est.std_error < 1e-81 and math.isnan(est.kurtosis)


def test_exact_gaussian_moments_need_a_gaussian():
    spec = PerpetualSpec(t_max=10.0, n_paths=16, seed=SeedSpec(0, 0))
    with pytest.raises(DomainError, match="not declared Gaussian"):
        exact_gaussian_moments(ModelParams(0.5, 1.5, 3), bump_test_function(1.0, 3),
                               np.zeros(3), spec)


@pytest.mark.parametrize("threads", [1, 2])
def test_estimate_leaves_blas_thread_count(threads):
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=4096, seed=SeedSpec(42, 0))
    before = blas.threads()
    estimate_potential_mc(params, f, np.zeros(3), spec, threads=threads)
    assert blas.threads() == before


def test_custom_test_function_gets_default_mean_bound():
    """A function declared with its norms and reach only is bounded by
    E f(x+Z) <= min(sup, l1 (2 pi v)^(-d/2)), the bound for every f."""
    params = ModelParams(0.5, 1.5, 3)
    g = gaussian_test_function(0.8, 3, amplitude=2.0)
    f = _norms_only(g)
    assert f.spread == 0.0
    gd = GreenDensity.from_params(params)
    # f is radial about its centre once declared so; the radial quadrature
    # against the Gaussian's closed form
    v = potential(gd, dataclasses.replace(f, radial=True), np.zeros(3))
    assert math.isfinite(v) and v == pytest.approx(potential(gd, g, np.zeros(3)), rel=1e-12)

    assert tail_bound(params, f, 20.0) == pytest.approx(
        _default_bound_tail(params, f, 20.0), rel=1e-12)
    # the Gaussian's declared spread gives the tighter bound
    assert tail_bound(params, g, 20.0) < tail_bound(params, f, 20.0)


def test_estimate_requires_positive_threads():
    spec = PerpetualSpec(t_max=10.0, n_paths=16, seed=SeedSpec(0, 0))
    with pytest.raises(DomainError):
        estimate_potential_mc(ModelParams(0.5, 1.5, 3), gaussian_test_function(1.0, 3),
                              np.zeros(3), spec, threads=0)


def test_estimate_seed_sensitivity():
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    s1 = PerpetualSpec(t_max=10.0, n_paths=1024, seed=SeedSpec(1, 0))
    s2 = PerpetualSpec(t_max=10.0, n_paths=1024, seed=SeedSpec(2, 0))
    e1 = estimate_potential_mc(params, f, np.zeros(3), s1)
    e2 = estimate_potential_mc(params, f, np.zeros(3), s2)
    assert e1.mean != e2.mean


def test_std_error_scaling():
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    small = PerpetualSpec(t_max=10.0, n_paths=4096, seed=SeedSpec(3, 0))
    large = PerpetualSpec(t_max=10.0, n_paths=16384, seed=SeedSpec(3, 0))
    e_small = estimate_potential_mc(params, f, np.zeros(3), small)
    e_large = estimate_potential_mc(params, f, np.zeros(3), large)
    ratio = e_small.std_error / e_large.std_error
    assert ratio == pytest.approx(2.0, rel=0.15)


@pytest.mark.parametrize("triple", [(1.0, 1.0, 3), (1.0, 0.8, 3)],
                         ids=lambda t: "-".join(map(str, t)))
def test_estimate_consistent_with_analytic_potential(triple):
    """The green suite passes at the Brownian point and at an fBm with
    alpha < 1, which the Green domain admits at beta = 1."""
    beta, alpha, dim = triple
    rep = run_suite("green", beta=beta, alpha=alpha, dim=dim, paths=20_000, seed=11)
    assert rep["pass"], rep["checks"]


@pytest.mark.parametrize("x", [np.zeros(4), np.array([1.5, 0.0, 0.0, 0.0])],
                         ids=["centre", "outside"])
def test_bump_identity_in_four_dimensions(x):
    """The bump's Monte Carlo estimate at d = 4 meets its radial-quadrature
    potential within the certified budget 3 SE + tail + disc."""
    params = ModelParams(0.5, 1.5, 4)
    f = bump_test_function(1.0, 4)
    spec = PerpetualSpec(t_max=50.0, n_paths=8192, seed=SeedSpec(42, 0))
    est = estimate_potential_mc(params, f, x, spec, threads=2)
    v = potential(GreenDensity.from_params(params), f, x)
    assert abs(est.mean - v) <= est.budget


def test_estimate_certifies_near_the_transience_edge():
    """At d alpha = 2.02 the tail beyond t_max is almost all of V; it is in
    the mean, so 2048 paths certify V from x = (3, 0) within 1 %."""
    params = ModelParams(0.5, 1.01, 2)
    f = gaussian_test_function(1.0, 2)
    x = np.array([3.0, 0.0])
    spec = PerpetualSpec(t_max=50.0, n_paths=2048, seed=SeedSpec(42, 0))
    est = estimate_potential_mc(params, f, x, spec)
    v = potential(GreenDensity.from_params(params), f, x)
    assert est.tail_bound == 0.0
    assert abs(est.mean - v) <= est.budget <= 0.01 * v


@pytest.mark.parametrize("f_dim,x", [(3, np.zeros(2)), (2, np.zeros(3)), (3, 0.0),
                                     (3, np.array([0.0, math.nan, 0.0]))],
                         ids=["short-x", "f-dim", "scalar-x", "nan-x"])
def test_dimension_mismatch_is_a_domain_error(f_dim, x):
    """f and x must live in R^d, d = params.dim, and x must be finite: the
    estimator and the potential say so with a DomainError."""
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, f_dim)
    spec = PerpetualSpec(t_max=10.0, n_paths=16, seed=SeedSpec(0, 0))
    with pytest.raises(DomainError, match="dim"):
        estimate_potential_mc(params, f, x, spec)
    with pytest.raises(DomainError, match="dim"):
        potential(GreenDensity.from_params(params), f, x)


@pytest.mark.parametrize("beta,alpha,dim", [(0.5, 1.5, 3), (0.8, 1.2, 2),
                                            (0.9, 2.0, 2), (1.0, 1.0, 3)])
def test_clock_resolution_keeps_discretization_below_se(beta, alpha, dim):
    """For the radius-1 bump at its centre the 32-per-decade clock keeps the
    discretization bound at most half of 3 SE at 20 000 paths at
    (0.5, 1.5, 3) and (0.9, 2, 2), so the path count, not the grid, sets
    the budget there.  At (0.8, 1.2, 2) and (1, 1, 3) the grid sets a
    sizeable share of it: the ratio lies within (0.5, 2), on either side of
    1 by seed (0.65 to 1.27 and 0.71 to 1.97 over seeds 42 to 81; 0.25 to
    0.83 and 0.13 to 0.21 at the first two).  A clock that mends those two
    cases fails the lower end until it is restated."""
    params = ModelParams(beta, alpha, dim)
    f = bump_test_function(1.0, dim)
    spec = PerpetualSpec(t_max=50.0, n_paths=20_000, seed=SeedSpec(42, 0))
    est = estimate_potential_mc(params, f, np.zeros(dim), spec, threads=2)
    ratio = est.discretization_bound / (0.5 * 3.0 * est.std_error)
    if (beta, alpha, dim) in ((0.8, 1.2, 2), (1.0, 1.0, 3)):
        assert 0.5 < ratio < 2.0
    else:
        assert ratio <= 1.0


def test_estimate_requires_transient_params():
    with pytest.raises(DomainError):
        estimate_potential_mc(
            ModelParams(0.5, 1.5, 1), gaussian_test_function(1.0, 1),
            np.zeros(1), PerpetualSpec(t_max=10.0, n_paths=16,
                                       seed=SeedSpec(0, 0)))


def test_estimate_to_dict_roundtrip():
    import json
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=256, seed=SeedSpec(7, 0))
    est = estimate_potential_mc(params, f, np.zeros(3), spec)
    payload = est.to_dict(params=params, f=f, x=np.zeros(3))
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["n_paths"] == 256
    assert back["params"]["beta"] == 0.5
    assert back["seed"]["master_seed"] == 7


def test_bump_estimate_at_alpha_just_below_two_runs_on_the_lifted_factor():
    """At (0.5, 2 - 1e-9, 2) plain Cholesky fails on the bump's 152-point
    clock, and fbm_cholesky_factor's diagonal lift is what lets the
    estimate run: a guard that the lift stays until it is reported, since
    refusing close times there would refuse this estimate."""
    params = ModelParams(0.5, 2.0 - 1e-9, 2)
    f = bump_test_function(1.0, 2)
    spec = PerpetualSpec(t_max=50.0, n_paths=256, seed=SeedSpec(0, 0))
    times = _clock(params, f, spec)[1:]
    assert len(times) == 152
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(fbm.fbm_covariance(times, params.hurst))
    est = estimate_potential_mc(params, f, np.zeros(2), spec)
    assert math.isfinite(est.mean) and est.mean > 0.0 and math.isfinite(est.budget)
