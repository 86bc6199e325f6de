"""Tests for fractional Brownian path generation."""

import io
import math

import numpy as np
import pytest

from ggbm import DomainError, GridSpec, SeedSpec, generate_fbm
from ggbm.fbm import (_fgn_autocov, _fgn_circulant, fbm_cholesky_factor,
                      fbm_covariance, sample_fbm_batch)
from ggbm.randvar import make_stream


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
    """Same draws, in the same order, as one L @ z per path and component;
    one GEMM may sum in another order, so equal within rounding."""
    times = np.linspace(0.1, 3.0, 57)
    n_paths, dim = 5, 3
    v = sample_fbm_batch(0.7, times, dim, n_paths, make_stream(SeedSpec(29, 0)))
    z = make_stream(SeedSpec(29, 0)).standard_normal((n_paths, dim, len(times)))
    L = fbm_cholesky_factor(0.7, times)
    ref = np.stack([np.stack([L @ z[p, j] for j in range(dim)], axis=1)
                    for p in range(n_paths)])
    assert v.shape == (n_paths, len(times), dim)
    # the a priori bound on a K-term sum: K eps sum_k |L_ik z_k|
    bound = len(times) * np.finfo(float).eps * np.abs(L).sum(axis=1) * np.abs(z).max()
    assert np.all(np.abs(v - ref) <= bound[None, :, None])


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


@pytest.mark.parametrize("hurst", [0.2, 0.8, 0.95, 0.999])
def test_fbm_law_on_uniform_grid(hurst):
    """200 000 i.i.d. components of one path: the empirical covariance
    matches the fBm covariance entrywise within 4 SE."""
    grid = GridSpec(1.0, 8)
    n = 200_000
    x = generate_fbm(hurst, grid, n, SeedSpec(43, 0)).values[1:]
    cov = fbm_covariance(grid.times()[1:], hurst)
    emp = np.einsum("in,jn->ij", x, x) / n
    d = np.diag(cov)
    se = np.sqrt((d[:, None] * d[None, :] + cov ** 2) / n)
    assert np.all(np.abs(emp - cov) <= 4.0 * se)


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


def test_hurst_validation():
    with pytest.raises(DomainError):
        generate_fbm(0.0, GridSpec(1.0, 8), 1, SeedSpec(0, 0))
    with pytest.raises(DomainError):
        generate_fbm(1.1, GridSpec(1.0, 8), 1, SeedSpec(0, 0))
