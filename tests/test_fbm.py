"""Tests for fractional Brownian path generation."""

import io
import math

import numpy as np
import pytest

from ggbm import DomainError, EmbeddingError, GridSpec, SeedSpec, blas, generate_fbm
from ggbm import fbm
from ggbm.fbm import (Path, _fast_length, _fgn_autocov, _fgn_circulant,
                      fbm_cholesky_factor, fbm_covariance, sample_fbm_batch)
from ggbm.randvar import make_stream, standard_normals


def test_grid_spec():
    grid = GridSpec(t_max=2.0, n_steps=8)
    assert grid.dt == pytest.approx(0.25)
    times = grid.times()
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(2.0)
    assert len(times) == 9


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(t_max=0.0, n_steps=8)
    with pytest.raises(DomainError):
        GridSpec(t_max=1.0, n_steps=0)
    for t_max in (math.nan, math.inf):
        with pytest.raises(DomainError, match="t_max"):
            GridSpec(t_max=t_max, n_steps=8)


def test_fbm_covariance_matrix():
    times = np.array([0.5, 1.0, 2.0])
    cov = fbm_covariance(times, 0.75)
    a = 1.5
    for i, s in enumerate(times):
        for j, t in enumerate(times):
            expected = 0.5 * (s ** a + t ** a - abs(t - s) ** a)
            assert cov[i, j] == pytest.approx(expected, rel=1e-14)


def test_generate_fbm_shape_and_start():
    path = generate_fbm(0.6, GridSpec(1.0, 64), 2, SeedSpec(3, 0))
    assert path.values.shape == (65, 2)
    assert np.all(path.values[0] == 0.0)
    assert path.hurst == 0.6


def test_generate_fbm_deterministic():
    a = generate_fbm(0.7, GridSpec(1.0, 128), 1, SeedSpec(5, 0))
    b = generate_fbm(0.7, GridSpec(1.0, 128), 1, SeedSpec(5, 0))
    c = generate_fbm(0.7, GridSpec(1.0, 128), 1, SeedSpec(6, 0))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("hurst", [0.25, 0.5, 0.75])
def test_fbm_batch_covariance(hurst):
    rng = make_stream(SeedSpec(17, 0))
    times = np.array([0.5, 1.0])
    n = 200_000
    v = sample_fbm_batch(hurst, times, 1, n, rng)[:, :, 0]
    a = 2.0 * hurst
    # marginal variances
    for j, t in enumerate(times):
        emp = v[:, j] ** 2
        se = emp.std(ddof=1) / math.sqrt(n)
        assert abs(emp.mean() - t ** a) <= 4.0 * se
    # cross covariance
    prod = v[:, 0] * v[:, 1]
    se = prod.std(ddof=1) / math.sqrt(n)
    expected = 0.5 * (0.5 ** a + 1.0 - 0.5 ** a)
    assert abs(prod.mean() - expected) <= 4.0 * se


def test_fbm_batch_matches_per_path_reference():
    """The draws of one standard_normals array z of shape
    (dim, len(times), n_paths), path p's component j from the column
    z[j, :, p] by one L @ z per path and component; one GEMM may sum in
    another order, so equal within rounding."""
    times = np.linspace(0.1, 3.0, 57)
    n_paths, dim = 5, 3
    v = sample_fbm_batch(0.7, times, dim, n_paths, make_stream(SeedSpec(29, 0)))
    z = standard_normals(make_stream(SeedSpec(29, 0)), np.empty((dim, len(times), n_paths)))
    L = fbm_cholesky_factor(0.7, times)
    ref = np.stack([np.stack([L @ z[j, :, p] for j in range(dim)], axis=1)
                    for p in range(n_paths)])
    assert v.shape == (n_paths, len(times), dim)
    # the a priori bound on a K-term sum: K eps sum_k |L_ik z_k|
    bound = len(times) * np.finfo(float).eps * np.abs(L).sum(axis=1) * np.abs(z).max()
    assert np.all(np.abs(v - ref) <= bound[None, :, None])


@pytest.mark.parametrize("hurst", [0.7, 1.0])
def test_fbm_batch_is_component_major(hurst):
    """The result is a view of a C-contiguous (dim, len(times), n_paths)
    buffer."""
    v = sample_fbm_batch(hurst, np.linspace(0.1, 3.0, 57), 3, 5,
                         make_stream(SeedSpec(29, 0)))
    assert v.shape == (5, 57, 3)
    assert v.transpose(2, 1, 0).flags.c_contiguous


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("hurst", [0.3, 0.75, 1.0])
def test_fbm_batch_is_l_times_each_component_plane(hurst, dim):
    """Component k is L @ z[k] bit for bit, z the one standard_normals
    draw of shape (dim, len(times), n_paths) on the same single-threaded
    BLAS; on the H = 1 line it is t z[k] with z of shape (dim, 1, n_paths)."""
    times = np.geomspace(1e-3, 50.0, 41)
    n_paths = 37
    v = sample_fbm_batch(hurst, times, dim, n_paths, make_stream(SeedSpec(41, dim))).T
    if hurst == 1.0:
        z = standard_normals(make_stream(SeedSpec(41, dim)), np.empty((dim, 1, n_paths)))
        assert np.array_equal(v, times[None, :, None] * z)
        return
    z = standard_normals(make_stream(SeedSpec(41, dim)), np.empty((dim, len(times), n_paths)))
    with blas.single_threaded():
        L = fbm_cholesky_factor(hurst, times)
        assert all(np.array_equal(v[k], L @ z[k]) for k in range(dim))


def test_fbm_batch_equals_one_gemm():
    """One GEMM per component gives the bits of the one GEMM over every
    path and component, on the same single-threaded BLAS."""
    times = np.geomspace(1e-3, 50.0, 302)
    n_paths, dim = 64, 3
    n = len(times)
    v = sample_fbm_batch(0.75, times, dim, n_paths, make_stream(SeedSpec(3, 1)))
    z = standard_normals(make_stream(SeedSpec(3, 1)), np.empty((dim, n, n_paths)))
    with blas.single_threaded():
        ref = fbm_cholesky_factor(0.75, times) @ z.transpose(1, 0, 2).reshape(n, dim * n_paths)
    assert np.array_equal(v.transpose(1, 2, 0), ref.reshape(n, dim, n_paths))


def test_fgn_autocov_matches_mpmath():
    """The expm1/log1p form of gamma(k) keeps full relative accuracy at
    large lags, where the direct second difference cancels."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    lags = np.array([0, 1, 2, 3, 7, 100, 1000, 4096, 65535, 65536])
    for hurst in (0.05, 0.3, 0.45, 0.6, 0.8, 0.95, 0.999, 0.99999):
        got = _fgn_autocov(hurst, lags)
        h2 = 2 * mpmath.mpf(hurst)
        for k, g in zip(lags, got):
            k = mpmath.mpf(int(k))
            ref = (abs(k + 1) ** h2 + abs(k - 1) ** h2 - 2 * k ** h2) / 2
            assert abs(g - ref) <= 1e-9 * abs(ref), (hurst, int(k), g)


@pytest.mark.parametrize("hurst", [0.5, 0.8, 0.9, 0.97, 0.999, 1 - 1e-9])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 443, 4096, 65536])
def test_circulant_embedding_nonnegative(hurst, n):
    """The minimal embedding passes the eigenvalue check for every H < 1."""
    fgn = _fgn_circulant(hurst, n, 1, make_stream(SeedSpec(0, 0)))
    assert fgn.shape == (n, 1)
    assert np.all(np.isfinite(fgn))


@pytest.mark.parametrize("n", [1, 2, 5, 443])
def test_fgn_circulant_batch_matches_per_component_loop(n):
    """One (dim, 2n) draw and one FFT give the bytes of one call per
    component on the same stream."""
    dim = 3
    batch = _fgn_circulant(0.85, n, dim, make_stream(SeedSpec(31, 0)))
    rng = make_stream(SeedSpec(31, 0))
    loop = np.concatenate([_fgn_circulant(0.85, n, 1, rng) for _ in range(dim)],
                          axis=1)
    assert np.array_equal(batch, loop)


def _fgn_complex_fft(hurst, n, dim, rng):
    """The reference for _fgn_circulant: the same embedding at m =
    _fast_length(n) and the same draws by two full-length complex FFTs,
    eigenvalues fft(c).real and noise fft(w).real of the full Hermitian w,
    of which the first n rows are kept.  Returns the noise, the eigenvalues
    g[0..m] and the draws."""
    m = _fast_length(n)
    acf = _fgn_autocov(hurst, np.arange(m + 1))
    c = np.concatenate([acf, acf[m - 1:0:-1]])
    g = np.maximum(np.fft.fft(c).real, 0.0)
    z = rng.standard_normal((dim, 2 * m))
    w = np.zeros((dim, 2 * m), dtype=complex)
    w[:, 0] = math.sqrt(g[0] / (2 * m)) * z[:, 0]
    w[:, m] = math.sqrt(g[m] / (2 * m)) * z[:, 1]
    x, y = z[:, 2:m + 1], z[:, m + 1:2 * m]
    w[:, 1:m] = np.sqrt(g[1:m] / (4 * m)) * (x + 1j * y)
    w[:, m + 1:] = np.conj(w[:, m - 1:0:-1])
    return np.fft.fft(w, axis=1).real[:, :n].T, g[:m + 1], z


@pytest.mark.parametrize("hurst", [0.05, 0.5, 0.97, 1 - 1e-9])
@pytest.mark.parametrize("n", [1, 2, 3, 443, 4096])
def test_fgn_circulant_matches_complex_fft(hurst, n):
    """The irfft of the Hermitian half gives the complex-FFT noise within
    1e-13 of its size, plus what the eigenvalues' own rounding moves.  rfft
    and fft round the eigenvalues differently by about 1e-16 of the largest;
    near H = 1 the others are about 1e-9 of it and their square roots carry
    that at up to 4e-12 of the noise (n = 3), so the test bounds that part
    from the two spectra and the draws: output j moves by at most
    (|dV_0| + |dV_m| + 2 sum_k |dV_k|) / 2m at the embedding length
    m = _fast_length(n) (450 for n = 443)."""
    dim = 3
    m = _fast_length(n)
    got = _fgn_circulant(hurst, n, dim, make_stream(SeedSpec(8, 0)))
    ref, g_ref, z = _fgn_complex_fft(hurst, n, dim, make_stream(SeedSpec(8, 0)))
    acf = _fgn_autocov(hurst, np.arange(m + 1))
    g = np.maximum(np.fft.rfft(np.concatenate([acf, acf[m - 1:0:-1]])).real, 0.0)
    assert np.abs(g - g_ref).max() <= 1e-15 * g_ref.max()
    ds = np.abs(np.sqrt(g) - np.sqrt(g_ref))
    x, y = np.abs(z[:, 2:m + 1]), np.abs(z[:, m + 1:2 * m])
    moved = (math.sqrt(2 * m) * (ds[0] * np.abs(z[:, 0]) + ds[m] * np.abs(z[:, 1]))
             + 2 * math.sqrt(m) * ((x + y) @ ds[1:m])) / (2 * m)
    assert got.shape == ref.shape == (n, dim)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max() + moved)


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fast_length_is_the_next_5_smooth_number():
    """_fast_length(n) is 5-smooth, at least n and the least such number,
    against a brute-force search for every n <= 5000."""
    for n in range(1, 5001):
        m = n
        while not _is_5_smooth(m):
            m += 1
        assert _fast_length(n) == m, n
    # the table ends at 2^40, past any grid whose normals fit in memory
    assert _fast_length(2 ** 40) == 2 ** 40
    with pytest.raises(DomainError, match="n_steps <= 2"):
        _fast_length(2 ** 40 + 1)


@pytest.mark.parametrize("n", [7, 17, 33, 443, 4093])
def test_fgn_circulant_is_a_prefix_of_its_embedding(n):
    """At a length that is not 5-smooth the noise is the first n rows of the
    noise at m = _fast_length(n) on the same stream, bit for bit: the same
    embedding, the same draws and the same FFT, truncated."""
    m = _fast_length(n)
    assert m > n
    for hurst in (0.3, 0.75, 0.999):
        short = _fgn_circulant(hurst, n, 3, make_stream(SeedSpec(12, 0)))
        full = _fgn_circulant(hurst, m, 3, make_stream(SeedSpec(12, 0)))
        assert short.shape == (n, 3)
        assert np.array_equal(short, full[:n])


def test_embedding_error_on_negative_eigenvalue(monkeypatch):
    """An autocovariance whose circulant embedding has a negative
    eigenvalue (c = [1, 0.9, 0, ..., 0, 0.9] has 1 - 1.8 at k = n) raises
    EmbeddingError instead of being clipped to a wrong law."""
    monkeypatch.setattr(fbm, "_fgn_autocov",
                        lambda hurst, lags: np.where(lags == 0, 1.0,
                                                     np.where(lags == 1, 0.9, 0.0)))
    with pytest.raises(EmbeddingError, match="not nonnegative-definite"):
        _fgn_circulant(0.5, 4, 1, make_stream(SeedSpec(0, 0)))


@pytest.mark.parametrize("hurst", [0.2, 0.8, 0.95, 0.999])
def test_fbm_law_on_uniform_grid(hurst):
    """200 000 i.i.d. components of one path: the empirical covariance
    matches the fBm covariance entrywise within 4 SE, on a 5-smooth grid
    (8 steps) and on one embedded at a longer length (7 steps, m = 8).  The
    7-step grid takes its own stream: on the 8-step grid's stream its noise
    is that grid's first 7 rows, so its check would repeat the first."""
    n = 200_000
    for steps, stream in ((8, 0), (7, 1)):
        grid = GridSpec(1.0, steps)
        x = generate_fbm(hurst, grid, n, SeedSpec(43, stream)).values[1:]
        cov = fbm_covariance(grid.times()[1:], hurst)
        emp = np.einsum("in,jn->ij", x, x) / n
        d = np.diag(cov)
        se = np.sqrt((d[:, None] * d[None, :] + cov ** 2) / n)
        assert np.all(np.abs(emp - cov) <= 4.0 * se), steps


def test_fbm_hurst_one_is_a_random_line():
    rng = make_stream(SeedSpec(23, 0))
    times = np.array([0.5, 1.0, 2.0])
    v = sample_fbm_batch(1.0, times, 1, 1000, rng)[:, :, 0]
    # every path is exactly t * xi
    ratio = v / times[None, :]
    assert np.allclose(ratio, ratio[:, :1])


def test_marginal_variance_on_path_ensemble():
    grid = GridSpec(1.0, 32)
    n = 4000
    vals = np.array([
        generate_fbm(0.4, grid, 1, SeedSpec(100, i)).values[-1, 0]
        for i in range(n)])
    se = (vals ** 2).std(ddof=1) / math.sqrt(n)
    assert abs((vals ** 2).mean() - 1.0) <= 4.0 * se


def test_path_to_csv_roundtrip():
    path = generate_fbm(0.5, GridSpec(1.0, 4), 2, SeedSpec(1, 0))
    buf = io.StringIO()
    path.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 6
    back = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",")
    assert np.allclose(back[:, 0], path.times)
    assert np.allclose(back[:, 1:], path.values)


def _csv_per_value(times, values):
    """The reference for Path.to_csv's bytes: one f-string per value."""
    rows = ["t," + ",".join(f"x{i + 1}" for i in range(values.shape[1]))]
    for t, row in zip(times, values):
        rows.append(",".join(f"{v:.17g}" for v in (t, *row)))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stream", "file"])
@pytest.mark.parametrize("dim", [1, 3])
def test_path_to_csv_bytes_match_per_value_writer(dim, to_file, tmp_path):
    """The one-template writer gives the per-value f-string bytes, on a
    sampled path and on edge values: -0.0, the smallest subnormal, a tiny
    and a huge normal."""
    path = generate_fbm(0.7, GridSpec(2.5, 40), dim, SeedSpec(6, 0))
    values = path.values.copy()
    edges = np.array([-0.0, 5e-324, 1e-300, 1e308, -1e308, -5e-324])
    values.ravel()[1:1 + len(edges)] = edges
    path = Path(times=path.times, values=values, hurst=path.hurst, seed=path.seed)
    if to_file:
        out = tmp_path / "p.csv"
        path.to_csv(str(out))
        text = out.read_bytes().decode()
    else:
        buf = io.StringIO()
        path.to_csv(buf)
        text = buf.getvalue()
    assert text == _csv_per_value(path.times, path.values)
    assert ",-0" in text and "4.9406564584124654e-324" in text


@pytest.mark.parametrize("block", [1, 3, 7, 41, 42])
@pytest.mark.parametrize("to_file", [False, True], ids=["stream", "file"])
def test_write_table_blocks_change_no_bytes(block, to_file, tmp_path, monkeypatch):
    """A table written in blocks of rows gives the bytes of one block, with
    and without a header, for blocks that divide the 42 rows, that do not,
    and that hold them all; an empty table stays a lone newline."""
    path = generate_fbm(0.7, GridSpec(2.5, 41), 2, SeedSpec(6, 0))
    table = np.column_stack([path.times, path.values])

    def written(table, header):
        if to_file:
            out = tmp_path / "t.csv"
            fbm.write_table(str(out), table, header)
            return out.read_bytes().decode()
        buf = io.StringIO()
        fbm.write_table(buf, table, header)
        return buf.getvalue()

    whole = {h: written(table, h) for h in (None, "t,x1,x2")}
    assert whole["t,x1,x2"] == _csv_per_value(path.times, path.values)
    monkeypatch.setattr(fbm, "_WRITE_ROWS", block)
    for header, text in whole.items():
        assert written(table, header) == text
    assert written(np.empty((0, 1)), None) == "\n"


def test_hurst_validation():
    with pytest.raises(DomainError):
        generate_fbm(0.0, GridSpec(1.0, 8), 1, SeedSpec(0, 0))
    with pytest.raises(DomainError):
        generate_fbm(1.1, GridSpec(1.0, 8), 1, SeedSpec(0, 0))


@pytest.mark.parametrize("hurst", [0.7, 1.0])
def test_batch_refuses_time_zero(hurst):
    """At t = 0 the covariance is singular, and the factor's diagonal lift
    would put noise of order 1e-6 there, so the batch refuses it, on the
    line too."""
    with pytest.raises(DomainError, match="strictly positive, got 0"):
        sample_fbm_batch(hurst, np.array([0.0, 0.5, 1.0]), 1, 4, make_stream(SeedSpec(1, 0)))


@pytest.mark.parametrize("hurst", [0.7, 1.0])
def test_batch_refuses_repeated_times(hurst):
    with pytest.raises(DomainError, match="distinct"):
        sample_fbm_batch(hurst, np.array([0.5, 1.0, 0.5]), 2, 4, make_stream(SeedSpec(1, 0)))


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("hurst", [0.7, 1.0])
def test_batch_refuses_negative_or_non_finite_times(hurst, bad):
    """Negative and NaN times would give NaN values, infinite ones an
    infinite variance."""
    with pytest.raises(DomainError, match=f"got {bad:g}"):
        sample_fbm_batch(hurst, np.array([0.5, bad]), 1, 4, make_stream(SeedSpec(1, 0)))


@pytest.mark.parametrize("hurst", [1.5, 0.0, -0.2, math.nan])
def test_batch_refuses_hurst_outside_the_unit_interval(hurst):
    """Outside (0, 1) the covariance is no fBm's and has no Cholesky
    factor; H = 1 is the line, served without one."""
    with pytest.raises(DomainError, match="0 < hurst < 1"):
        sample_fbm_batch(hurst, np.array([0.5, 1.0]), 1, 4, make_stream(SeedSpec(1, 0)))


def test_factor_checks_its_grid_only_when_it_builds(monkeypatch):
    """The grid is checked where the factor is built, so a cached grid
    pays no check."""
    times = np.array([0.25, 0.5, 1.0, 2.0])
    fbm._factor_cache.clear()
    L = fbm_cholesky_factor(0.6, times)

    def refuse(t):
        raise AssertionError("checked on a cache hit")
    monkeypatch.setattr(fbm, "_check_times", refuse)
    assert fbm_cholesky_factor(0.6, times) is L
    with pytest.raises(AssertionError):
        fbm_cholesky_factor(0.6, times[1:])


@pytest.mark.parametrize("hurst", [0.75, 0.95])
def test_covariance_past_the_float_range_is_refused(hurst):
    """Where t^2H overflows a float, fbm_covariance raises DomainError, and
    the batch sampler and the Cholesky factor inherit the refusal, where the
    batch came out NaN with an overflow warning; a cache hit is not
    affected, since no such grid is cached."""
    times = np.array([1.0, 1e300])
    for call in (lambda: fbm_covariance(times, hurst),
                 lambda: fbm_cholesky_factor(hurst, times),
                 lambda: sample_fbm_batch(hurst, times, 1, 4, make_stream(SeedSpec(0, 0)))):
        with pytest.raises(DomainError, match="covariance overflows"):
            call()
