"""Tests for the exact one-sided stable and scale-mixture samplers."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from ggbm import DomainError, SeedSpec, make_stream, \
    sample_one_sided_stable, sample_y_beta_array
from ggbm import randvar
from ggbm.randvar import _Y_BLOCK, _Z_BLOCK, _half_angle_sine, standard_normals
from ggbm.specfun import BETA_MIN, mittag_leffler


def test_seed_spec_substream():
    seed = SeedSpec(7, 3)
    sub = seed.substream(5)
    assert sub.master_seed == 7
    assert sub.stream_index == 8  # offset from the parent stream index
    assert seed.stream_index == 3


def test_make_stream_deterministic():
    """Same seed, same draws; distinct stream indices and distinct master
    seeds give distinct draws, up to the largest SeedSpec."""
    a = make_stream(SeedSpec(11, 2)).standard_normal(8)
    b = make_stream(SeedSpec(11, 2)).standard_normal(8)
    assert np.array_equal(a, b)
    top = 2 ** 64 - 1
    seeds = ((11, 2), (11, 3), (12, 2), (0, 0), (top, 0), (0, top), (top, top))
    draws = [make_stream(SeedSpec(*s)).standard_normal(8) for s in seeds]
    assert np.all(np.isfinite(draws))
    assert len({d.tobytes() for d in draws}) == len(seeds)


@pytest.mark.parametrize("rows", [(1, 7), (64, 192), (255, 1)])
def test_make_stream_draws_continue_one_sequence(rows):
    """The Monte Carlo blocks draw a chunk's normals a block at a time:
    standard_normal((a, m)) then ((b, m)) must be one ((a + b, m)) draw."""
    (a, b), m = rows, 41
    rng = make_stream(SeedSpec(42, 3))
    parts = np.vstack([rng.standard_normal((a, m)), rng.standard_normal((b, m))])
    whole = make_stream(SeedSpec(42, 3)).standard_normal((a + b, m))
    assert np.array_equal(parts, whole)


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
def test_stable_laplace_transform(beta):
    # E[exp(-s S)] = exp(-s^beta) for the one-sided stable variable
    rng = make_stream(SeedSpec(123, 0))
    n = 400_000
    s_vals = sample_one_sided_stable(beta, rng, n)
    assert np.all(s_vals > 0.0)
    for s in (0.5, 1.0, 2.0):
        emp = np.exp(-s * s_vals)
        se = emp.std(ddof=1) / math.sqrt(n)
        assert abs(emp.mean() - math.exp(-s ** beta)) <= 4.0 * se


@pytest.mark.parametrize("beta", [0.4, 0.6, 0.9])
def test_y_beta_laplace_is_mittag_leffler(beta):
    # E[exp(-s Y_beta)] = E_beta(-s)
    rng = make_stream(SeedSpec(7, 1))
    n = 400_000
    y = sample_y_beta_array(beta, rng, n)
    assert np.all(y > 0.0)
    for s in (0.5, 1.0, 3.0):
        emp = np.exp(-s * y)
        se = emp.std(ddof=1) / math.sqrt(n)
        expected = mittag_leffler(beta, -s).value
        assert abs(emp.mean() - expected) <= 4.0 * se


@pytest.mark.parametrize("beta", [0.4, 0.7])
def test_y_beta_moments(beta):
    rng = make_stream(SeedSpec(21, 0))
    n = 400_000
    y = sample_y_beta_array(beta, rng, n)
    for delta in (1.0, 2.0):
        expected = math.gamma(delta + 1.0) / math.gamma(beta * delta + 1.0)
        emp = y ** delta
        se = emp.std(ddof=1) / math.sqrt(n)
        assert abs(emp.mean() - expected) <= 4.0 * se


def test_y_beta_degenerate_at_one():
    rng = make_stream(SeedSpec(5, 0))
    y = sample_y_beta_array(1.0, rng, 100)
    assert np.all(y == 1.0)


def test_sampler_domain_errors():
    rng = make_stream(SeedSpec(0, 0))
    with pytest.raises(DomainError):
        sample_one_sided_stable(0.0, rng, 1)
    with pytest.raises(DomainError):
        sample_one_sided_stable(1.0, rng, 1)
    with pytest.raises(DomainError):
        sample_y_beta_array(1.5, rng, 1)


@pytest.mark.parametrize("beta", [BETA_MIN, 1e-300, 1e-12, 0.0015, 0.005, 0.01,
                                  0.99, 0.995, 0.999, 0.9999, 1 - 1e-12])
def test_y_beta_finite_and_positive_at_extreme_beta(beta):
    # Kanter's powers of order 1/beta and 1/(1-beta) overflowed here
    y = sample_y_beta_array(beta, make_stream(SeedSpec(1, 0)), 65_536)
    assert np.all(np.isfinite(y))
    assert np.all(y > 0.0)


class _ZeroUniforms:
    """A stream whose uniforms are all 0.0, which rng.random can return."""

    def random(self, n):
        return np.zeros(n)

    def standard_exponential(self, n):
        return np.full(n, 40.0)


@pytest.mark.parametrize("beta", [BETA_MIN, 1e-300, 0.5, 1 - 1e-12, 1 - 1e-15])
def test_y_beta_finite_and_positive_at_zero_uniform(beta):
    """U = 0 is taken as 2^-53, so W/sin((1-beta)*theta) stays finite as
    beta -> 1 and sin(beta*theta) nonzero at BETA_MIN."""
    y = sample_y_beta_array(beta, _ZeroUniforms(), 3)
    assert np.all(np.isfinite(y))
    assert np.all(y > 0.0)


@pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 0.9])
def test_y_beta_is_stable_power_on_same_stream(beta):
    y = sample_y_beta_array(beta, make_stream(SeedSpec(1, 0)), 65_536)
    s = sample_one_sided_stable(beta, make_stream(SeedSpec(1, 0)), 65_536)
    np.testing.assert_allclose(y, s ** (-beta), rtol=1e-13, atol=0.0)


def _y_beta_textbook(beta, rng, n):
    """The reference for sample_y_beta_array: the same draws and the
    expression written out, one temporary per operation, each sine from
    the tangent of its half angle, halved."""
    u = rng.random(n)
    w = rng.standard_exponential(n)
    theta = math.pi * np.maximum(u, 2.0 ** -53)
    b = 1.0 - beta

    def half_sine(x):
        t = np.tan(0.5 * x)
        return t / (1.0 + t * t)

    return (w / half_sine(b * theta)) ** b * half_sine(theta) / half_sine(beta * theta) ** beta


def _y_beta_sine_form(beta, rng, n):
    """Y on the same draws with np.sin, the form the sampler used before
    the tangent form."""
    u = rng.random(n)
    w = rng.standard_exponential(n)
    theta = math.pi * np.maximum(u, 1e-300)
    b = 1.0 - beta
    return w ** b * np.sin(theta) / (np.sin(beta * theta) ** beta * np.sin(b * theta) ** b)


@pytest.mark.parametrize("beta", [1e-300, 1e-3, 0.5, 1 - 1e-6])
@pytest.mark.parametrize("n", [1, 1000, 65_536, _Y_BLOCK - 1, _Y_BLOCK + 1])
def test_y_beta_in_place_equals_textbook_expression(beta, n):
    """Evaluated in blocks in the buffers of its draws, Y keeps the bits
    of the written-out expression (at beta = 0.5 both powers are numpy's
    square root), and the stream is left where the reference leaves it.
    The tangent form is within a few ulp of the np.sin form (1.0e-15
    relative measured)."""
    rng, ref_rng = make_stream(SeedSpec(9, 0)), make_stream(SeedSpec(9, 0))
    y = sample_y_beta_array(beta, rng, n)
    ref = _y_beta_textbook(beta, ref_rng, n)
    assert y.tobytes() == ref.tobytes()
    assert rng.random() == ref_rng.random()
    sine_form = _y_beta_sine_form(beta, make_stream(SeedSpec(9, 0)), n)
    np.testing.assert_allclose(y, sine_form, rtol=4e-15, atol=0.0)


def _ulps_from_mpmath_sine(x):
    """|2 _half_angle_sine(x/2) - sin x| in ulp of sin x, sin x from mpmath
    at 60 digits; halving and doubling are exact for these x."""
    mpmath = pytest.importorskip("mpmath")
    got = 2.0 * _half_angle_sine(0.5 * x)
    with mpmath.workdps(60):
        exact = [mpmath.sin(mpmath.mpf(float(v))) for v in x]
    spacing = np.spacing(np.array([abs(float(e)) for e in exact]))
    return np.array([float(abs(mpmath.mpf(float(g)) - e)) for g, e in zip(got, exact)]) / spacing


def test_half_angle_sine_within_3_ulp_of_mpmath():
    """The tangent form of sin on [0, pi], both ends included: random
    points, points 4e-16 to 1 below pi and points from 1e-300 to 1 (2.54
    ulp measured at 1.4e5 such points; np.sin is within 0.5)."""
    rng = np.random.default_rng(2024)
    near_pi = math.pi - np.geomspace(4e-16, 1.0, 400)
    tiny = np.geomspace(1e-300, 1.0, 400)
    x = np.concatenate([rng.uniform(0.0, math.pi, 2000), near_pi, tiny, [math.pi]])
    assert np.all((x > 0.0) & (x <= math.pi))
    assert _ulps_from_mpmath_sine(x).max() <= 3.0
    assert _half_angle_sine(np.zeros(1))[0] == 0.0


def test_y_beta_negative_count_is_domain_error():
    """n < 0 names n, where numpy said "negative dimensions are not
    allowed"; n = 0 is an empty draw."""
    rng = make_stream(SeedSpec(0, 0))
    with pytest.raises(DomainError, match="n >= 0, got n = -1"):
        sample_y_beta_array(0.5, rng, -1)
    assert sample_y_beta_array(0.5, rng, 0).shape == (0,)


def test_stable_negative_size_is_domain_error():
    """A negative entry of size names the size, where numpy said "negative
    dimensions are not allowed", and draws nothing from the stream; a zero
    entry is an empty draw."""
    rng = make_stream(SeedSpec(0, 0))
    with pytest.raises(DomainError, match="size >= 0, got size = -1"):
        sample_one_sided_stable(0.5, rng, -1)
    with pytest.raises(DomainError, match=r"got size = \(3, -2\)"):
        sample_one_sided_stable(0.5, rng, (3, -2))
    assert rng.random() == make_stream(SeedSpec(0, 0)).random()
    assert sample_one_sided_stable(0.5, rng, (0, 3)).shape == (0, 3)


def _box_muller_reference(u: np.ndarray) -> np.ndarray:
    """Box and Muller's pairs on the adjacent uniforms u[2k], u[2k + 1],
    with numpy's cos and sin, in stream order."""
    u0, u1 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(1.0 - u0))
    return np.column_stack([r * np.cos(2.0 * math.pi * u1),
                            r * np.sin(2.0 * math.pi * u1)]).ravel()


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("n", [2, 10, 2 * _Z_BLOCK + 6])
def test_standard_normals_are_box_muller_on_adjacent_pairs(monkeypatch, block, n):
    """Value pair k is Box and Muller's pair of the uniforms 2k and 2k + 1
    of the stream, within a few ulp of the radius, across the draw's
    blocks (at _Z_BLOCK and at 5 pairs, whose last block is partial)."""
    if block is not None:
        monkeypatch.setattr(randvar, "_Z_BLOCK", block)
    z = standard_normals(make_stream(SeedSpec(38, 1)), np.empty(n))
    ref = _box_muller_reference(make_stream(SeedSpec(38, 1)).random(n))
    r = np.repeat(np.hypot(ref[0::2], ref[1::2]), 2)
    assert np.all(np.abs(z - ref) <= 8.0 * np.finfo(float).eps * np.maximum(r, 1.0))


def test_standard_normals_law():
    """KS against N(0, 1), the first four moments within 4 SE of 0, 1, 0
    and 3, and within a pair neither the values nor their squares
    correlate beyond 4 SE."""
    n = 400_000
    z = standard_normals(make_stream(SeedSpec(38, 0)), np.empty(n))
    assert stats.kstest(z, "norm").pvalue > 1e-3
    for k, moment in ((1, 0.0), (2, 1.0), (3, 0.0), (4, 3.0)):
        v = z ** k
        assert abs(v.mean() - moment) <= 4.0 * v.std(ddof=1) / math.sqrt(n), k
    z0, z1 = z[0::2], z[1::2]
    for v in (z0 * z1, (z0 * z0 - 1.0) * (z1 * z1 - 1.0)):
        assert abs(v.mean()) <= 4.0 * v.std(ddof=1) / math.sqrt(v.size)


class _StubStream:
    """rng.random over a fixed cycle of uniforms."""

    def __init__(self, cycle):
        self.cycle, self.pos = np.asarray(cycle, dtype=float), 0

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        k = self.pos + np.arange(out.size)
        out.reshape(-1)[:] = self.cycle[k % self.cycle.size]
        self.pos += out.size
        return out


def test_standard_normals_at_the_ends_of_the_uniforms():
    """u0 = 0 gives the pair (0, 0), u0 = 1 - 2^-53 the largest radius
    sqrt(106 log 2) = 8.572, and u1 = 0.5, whose angle rounds next to
    pi/2 where tan is 1.6e16, a finite pair: every value is finite and
    within that radius."""
    top = 1.0 - 2.0 ** -53
    cycle = [0.0, 0.5, top, 0.5, top, 0.0, 0.5, top, 0.5, 0.0, top, top]
    z = standard_normals(_StubStream(cycle), np.empty(len(cycle)))
    radius = math.sqrt(106.0 * math.log(2.0))
    assert np.all(np.isfinite(z))
    assert np.all(np.abs(z) <= radius * (1.0 + 1e-15))
    assert z[0] == 0.0 and z[1] == 0.0
    assert z[4] == pytest.approx(radius, rel=1e-15) and z[5] == 0.0
    assert np.hypot(z[2], z[3]) == pytest.approx(radius, rel=1e-15)


@pytest.mark.parametrize("block", [None, 3])
def test_standard_normals_concatenate_at_even_splits(monkeypatch, block):
    """Draws of a and b values, a even, give the values of one draw of
    a + b, across blocks and at any block size; an odd count takes one
    more pair than it keeps, so the next draw starts at the following
    pair, and its last value is the first of that pair."""
    whole = standard_normals(make_stream(SeedSpec(5, 2)), np.empty(40))
    if block is not None:
        monkeypatch.setattr(randvar, "_Z_BLOCK", block)
    for a in (0, 2, 6, 8, 14):
        rng = make_stream(SeedSpec(5, 2))
        parts = [standard_normals(rng, np.empty(a)), standard_normals(rng, np.empty(40 - a))]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
    for a in (1, 7, 13):
        rng = make_stream(SeedSpec(5, 2))
        odd = standard_normals(rng, np.empty(a))
        rest = standard_normals(rng, np.empty(40 - a - 1))
        assert odd.tobytes() == whole[:a].tobytes()
        assert rest.tobytes() == whole[a + 1:].tobytes()


def test_standard_normals_fill_the_array_in_place():
    """out keeps its shape and is the array returned, filled in C order;
    an array that is not C-contiguous raises."""
    out = np.empty((3, 5, 2))
    assert standard_normals(make_stream(SeedSpec(9, 0)), out) is out
    flat = standard_normals(make_stream(SeedSpec(9, 0)), np.empty(30))
    assert out.ravel().tobytes() == flat.tobytes()
    with pytest.raises(ValueError):
        standard_normals(make_stream(SeedSpec(9, 0)), np.empty((6, 4))[:, :2])


def test_standard_normals_from_two_threads_give_the_serial_bits():
    """Two threads that fill arrays from their own streams at the same
    time share no scratch: each gets the bits of a serial draw."""
    n = 6 * _Z_BLOCK + 1
    seeds = [SeedSpec(21, k) for k in range(8)]
    serial = [standard_normals(make_stream(s), np.empty(n)) for s in seeds]
    with ThreadPoolExecutor(max_workers=2) as pool:
        pooled = list(pool.map(lambda s: standard_normals(make_stream(s), np.empty(n)), seeds))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(serial, pooled))
