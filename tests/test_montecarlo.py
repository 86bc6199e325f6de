"""Tests for the perpetual-integral Monte Carlo estimator."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad_vec

from ggbm import DomainError, GreenDensity, ModelParams, PerpetualSpec, \
    SeedSpec, bump_test_function, estimate_potential_mc, \
    gaussian_test_function, potential, tail_bound
from ggbm import blas, green
from ggbm.fbm import sample_fbm_batch
from ggbm.montecarlo import _CHUNK_SIZE, _STEPS_PER_DECADE, _T_MIN, \
    _chunk_path_integrals, _trapezoid_weights, build_time_grid
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


def test_chunk_f_values_match_per_path_reference():
    """Each row is f along its own fBm path x + B_p, with B_p = 0 at t = 0,
    in the same arithmetic as a per-path loop; no Y is drawn."""
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    x = np.array([0.3, -0.2, 0.1])
    times = build_time_grid(PerpetualSpec(t_max=3.0, n_paths=1, seed=SeedSpec(0, 0)))
    n = 6
    f0, fv = _chunk_path_integrals(params, f, x, times, make_stream(SeedSpec(8, 1)), n)
    assert fv.shape == (len(times) - 1, n)
    rng = make_stream(SeedSpec(8, 1))
    vals = sample_fbm_batch(params.hurst, times[1:], 3, n, rng)
    for p in range(n):
        pts = np.vstack([x, vals[p] + x])
        assert np.array_equal(np.concatenate([[f0], fv[:, p]]), f.eval_many(pts))


def test_discretization_bound_uses_every_path():
    """The grid-vs-half-grid estimate is taken over all paths of all chunks,
    scaled by m = E[Y^(-1/alpha)] like the rest of the estimate."""
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    x = np.zeros(3)
    spec = PerpetualSpec(t_max=10.0, n_paths=2 * _CHUNK_SIZE, seed=SeedSpec(42, 0))
    est = estimate_potential_mc(params, f, x, spec)
    times = build_time_grid(spec)
    diffs = []
    for idx in range(2):
        f0, fv = _chunk_path_integrals(params, f, x, times,
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


def test_estimate_deterministic_across_threads():
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=4096, seed=SeedSpec(42, 0))
    e1 = estimate_potential_mc(params, f, np.zeros(3), spec, threads=1)
    e8 = estimate_potential_mc(params, f, np.zeros(3), spec, threads=8)
    assert e1.mean == e8.mean
    assert e1.std_error == e8.std_error
    assert e1.discretization_bound == e8.discretization_bound


def test_estimate_pinned_values():
    """Mean (with the exact tail beyond t_max folded in), SE and
    discretization bound at seed 42 on the clock of _STEPS_PER_DECADE = 32
    intervals per decade (131 grid points at t_max = 10); a change of the
    clock or of the draws moves them."""
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=4096, seed=SeedSpec(42, 0))
    est = estimate_potential_mc(params, f, np.zeros(3), spec)
    assert est.mean == pytest.approx(2.2867304278678753, rel=1e-12)
    assert est.std_error == pytest.approx(0.020643011351355222, rel=1e-12)
    assert est.discretization_bound == pytest.approx(0.007826942675405445, rel=1e-12)
    assert est.tail_bound == 0.0


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
    """Away from a Gaussian's centre, and for any f not declared Gaussian,
    the tail is a one-sided bound reported apart from the mean."""
    params = ModelParams(0.5, 1.5, 3)
    f = gaussian_test_function(1.0, 3)
    spec = PerpetualSpec(t_max=10.0, n_paths=256, seed=SeedSpec(42, 0))
    for g, x in ((f, np.array([0.5, 0.0, 0.0])), (_norms_only(f), np.zeros(3)),
                 (bump_test_function(1.0, 3), np.zeros(3))):
        est = estimate_potential_mc(params, g, x, spec)
        assert est.tail_bound == tail_bound(params, g, spec.t_max) > 0.0


def test_green_budget_within_two_percent():
    """The certified budget 3 SE + tail + disc is within 2 % of V at
    (0.8, 1.2, 2), where the tail decays only like T^(-0.2)."""
    rep = run_suite("green", beta=0.8, alpha=1.2, dim=2, paths=100_000, seed=42, threads=2)
    check = rep["checks"][0]
    assert rep["pass"]
    assert check["budget_rel"] <= 0.02


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
    v = potential(gd, f, np.zeros(3))
    # quadrature against the Gaussian's closed form
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


def test_estimate_consistent_with_analytic_potential():
    params = ModelParams(1.0, 1.0, 3)  # Brownian case as independent anchor
    f = gaussian_test_function(1.0, 3)
    spec = PerpetualSpec(t_max=50.0, n_paths=20_000, seed=SeedSpec(11, 0))
    est = estimate_potential_mc(params, f, np.zeros(3), spec)
    gd = GreenDensity.from_params(params)
    v = potential(gd, f, np.zeros(3))
    budget = 3.0 * est.std_error + est.tail_bound + est.discretization_bound
    assert abs(est.mean - v) <= budget


@pytest.mark.parametrize("beta,alpha,dim", [(0.5, 1.5, 3), (0.8, 1.2, 2),
                                            (0.9, 2.0, 2), (1.0, 1.0, 3)])
def test_clock_resolution_keeps_discretization_below_se(beta, alpha, dim):
    """The clock is fine enough that its discretization bound is at most half
    of 3 SE at 20 000 paths: the path count, not the grid, sets the budget."""
    params = ModelParams(beta, alpha, dim)
    f = gaussian_test_function(1.0, dim)
    spec = PerpetualSpec(t_max=50.0, n_paths=20_000, seed=SeedSpec(42, 0))
    est = estimate_potential_mc(params, f, np.zeros(dim), spec, threads=2)
    assert est.discretization_bound <= 0.5 * 3.0 * est.std_error


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
