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


@pytest.mark.parametrize("beta", [1e-310, 5e-324, BETA_MIN / 2.0])
def test_stable_subnormal_beta_is_domain_error(beta):
    """A subnormal beta, where the draws came out inf, is refused before any
    draw, by the check that sample_y_beta_array makes of the same beta."""
    rng = make_stream(SeedSpec(0, 0))
    for sampler in (sample_one_sided_stable, sample_y_beta_array):
        with pytest.raises(DomainError, match="beta <= 1"):
            sampler(beta, rng, 3)
    assert rng.random() == make_stream(SeedSpec(0, 0)).random()


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


def test_y_beta_count_is_an_integer():
    """n = 2.5 is a DomainError naming n, where numpy raised a TypeError;
    an integral float is taken as its int and draws the same bytes."""
    with pytest.raises(DomainError, match="integer n >= 0, got n = 2.5"):
        sample_y_beta_array(0.5, make_stream(SeedSpec(0, 0)), 2.5)
    ys = sample_y_beta_array(0.5, make_stream(SeedSpec(3, 0)), 20.0)
    assert ys.tobytes() == sample_y_beta_array(0.5, make_stream(SeedSpec(3, 0)), 20).tobytes()


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


def _box_muller_reference(rng, n: int, block: int) -> tuple[np.ndarray, np.ndarray]:
    """n values of Box and Muller's transform with numpy's cos and sin, in
    segments of at most 2 block values, and each value's radius: a segment
    of m values draws 2k = 2 ceil(m/2) uniforms, pairs the first half with
    the second, puts the cosines first and the sines after, and keeps the
    first m."""
    values, radii = [np.empty(0)], [np.empty(0)]
    for lo in range(0, n, 2 * block):
        m = min(2 * block, n - lo)
        k = (m + 1) // 2
        u = rng.random(2 * k)
        r = np.sqrt(-2.0 * np.log(1.0 - u[:k]))
        angle = 2.0 * math.pi * u[k:]
        values.append(np.concatenate([r * np.cos(angle), r * np.sin(angle)])[:m])
        radii.append(np.concatenate([r, r])[:m])
    return np.concatenate(values), np.concatenate(radii)


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("n", [1, 2, 9, 10, 23, 2 * _Z_BLOCK + 6, 2 * _Z_BLOCK + 7])
def test_standard_normals_are_box_muller_on_halves(monkeypatch, block, n):
    """Value j of a segment of 2k values and value k + j are Box and
    Muller's pair of its uniforms j and k + j, within a few ulp of the
    radius, across segments (of 2 _Z_BLOCK and of 10 values), with odd
    counts and a partial last segment."""
    if block is not None:
        monkeypatch.setattr(randvar, "_Z_BLOCK", block)
    z = standard_normals(make_stream(SeedSpec(38, 1)), np.empty(n))
    ref, r = _box_muller_reference(make_stream(SeedSpec(38, 1)), n, randvar._Z_BLOCK)
    assert np.all(np.abs(z - ref) <= 8.0 * np.finfo(float).eps * np.maximum(r, 1.0))


def test_standard_normals_law():
    """KS against N(0, 1) of all values and of each half of the segments,
    the first four moments within 4 SE of 0, 1, 0 and 3, and across the
    paired halves neither the values nor their squares correlate beyond
    4/sqrt(k) over k pairs."""
    n = 16 * 2 * _Z_BLOCK
    z = standard_normals(make_stream(SeedSpec(38, 0)), np.empty(n))
    assert stats.kstest(z, "norm").pvalue > 1e-3
    for k, moment in ((1, 0.0), (2, 1.0), (3, 0.0), (4, 3.0)):
        v = z ** k
        assert abs(v.mean() - moment) <= 4.0 * v.std(ddof=1) / math.sqrt(n), k
    halves = z.reshape(-1, 2, _Z_BLOCK)
    z0, z1 = halves[:, 0].ravel(), halves[:, 1].ravel()
    assert stats.kstest(z0, "norm").pvalue > 1e-3
    assert stats.kstest(z1, "norm").pvalue > 1e-3
    for a, b in ((z0, z1), (z0 * z0, z1 * z1)):
        assert abs(np.corrcoef(a, b)[0, 1]) <= 4.0 / math.sqrt(z0.size)


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
    """In a segment of 12 values, uniform j sets the radius of values j
    and 6 + j and uniform 6 + j their angle.  u = 0 gives the pair (0, 0),
    u = 1 - 2^-53 the largest radius sqrt(106 log 2) = 8.572, and an angle
    uniform of 0.5, whose half angle rounds next to pi/2 where tan is
    1.6e16, a finite pair: every value is finite and within that radius."""
    top = 1.0 - 2.0 ** -53
    radii = [0.0, top, top, 0.5, 0.5, top]
    angles = [0.5, 0.5, 0.0, top, 0.0, top]
    z = standard_normals(_StubStream(radii + angles), np.empty(12))
    radius = math.sqrt(106.0 * math.log(2.0))
    assert np.all(np.isfinite(z))
    assert np.all(np.abs(z) <= radius * (1.0 + 1e-15))
    assert z[0] == 0.0 and z[6] == 0.0
    assert np.hypot(z[1], z[7]) == pytest.approx(radius, rel=1e-15)
    assert z[2] == pytest.approx(radius, rel=1e-15) and z[8] == 0.0
    assert z[5] == pytest.approx(radius, rel=1e-15) and abs(z[11]) < 1e-14


@pytest.mark.parametrize("block", [None, 3])
def test_standard_normals_concatenate_at_even_splits(monkeypatch, block):
    """Draws of a and b values, a split at a segment edge (a multiple of
    2 _Z_BLOCK, so even), give the values of one draw of a + b, at any segment size; an odd draw takes
    one uniform more than it keeps, so the next draw starts one uniform
    after its count."""
    if block is not None:
        monkeypatch.setattr(randvar, "_Z_BLOCK", block)
    seg = 2 * randvar._Z_BLOCK
    n = 5 * seg + 4
    whole = standard_normals(make_stream(SeedSpec(5, 2)), np.empty(n))
    for a in (0, seg, 3 * seg, 5 * seg):
        rng = make_stream(SeedSpec(5, 2))
        parts = [standard_normals(rng, np.empty(a)), standard_normals(rng, np.empty(n - a))]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
    for a in (1, seg + 3):
        rng = make_stream(SeedSpec(5, 2))
        standard_normals(rng, np.empty(a))
        skipped = make_stream(SeedSpec(5, 2))
        skipped.random(a + 1)
        assert (standard_normals(rng, np.empty(40)).tobytes()
                == standard_normals(skipped, np.empty(40)).tobytes())


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


def test_stable_draws_past_the_float_range_are_refused():
    """At beta = 1e-3 the power of order 1/beta left the float range: 367 of
    1000 draws were inf and 130 were 0, with an overflow warning.  Such a
    draw now raises DomainError naming beta, with no warning."""
    with pytest.raises(DomainError, match="beta = 0.001"):
        sample_one_sided_stable(1e-3, make_stream(SeedSpec(0, 0)), 1000)
