"""Tests for path construction, densities and characteristic functions."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.stats import ks_2samp

from ggbm import DomainError, GridSpec, ModelParams, SeedSpec, fdd_charfun, \
    fdd_density, gamma_alpha_matrix, ggbm_path_product, \
    ggbm_path_subordinated, marginal_density, mittag_leffler
from ggbm.green import unit_sphere_area
from ggbm.randvar import make_stream, sample_y_beta_array


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(0.0, 1.5, 1)
    with pytest.raises(DomainError):
        ModelParams(1.1, 1.5, 1)
    with pytest.raises(DomainError):
        ModelParams(0.5, 0.0, 1)
    with pytest.raises(DomainError):
        ModelParams(0.5, 2.1, 1)
    with pytest.raises(DomainError):
        ModelParams(0.5, 1.5, 0)


def test_model_params_derived():
    p = ModelParams(0.5, 1.5, 3)
    assert p.hurst == pytest.approx(0.75)
    assert p.green_exists
    assert not ModelParams(0.5, 1.5, 1).green_exists


def test_gamma_alpha_matrix_entries():
    g = gamma_alpha_matrix([0.5, 1.0, 2.0], 1.5)
    t = np.array([0.5, 1.0, 2.0])
    for i in range(3):
        for j in range(3):
            expected = (t[i] ** 1.5 + t[j] ** 1.5 - abs(t[i] - t[j]) ** 1.5)
            assert g.entries[i, j] == pytest.approx(expected, rel=1e-14)
    # diagonal is 2 t^alpha
    assert np.allclose(np.diag(g.entries), 2.0 * t ** 1.5)


def test_gamma_alpha_matrix_time_validation():
    with pytest.raises(DomainError):
        gamma_alpha_matrix([0.0, 1.0], 1.5)
    with pytest.raises(DomainError):
        gamma_alpha_matrix([1.0, 0.5], 1.5)
    with pytest.raises(DomainError):
        gamma_alpha_matrix(np.linspace(1.0, 2.0, 9), 1.5)


def test_path_product_shape_and_determinism():
    params = ModelParams(0.5, 1.5, 2)
    grid = GridSpec(1.0, 32)
    a = ggbm_path_product(params, grid, SeedSpec(4, 0))
    b = ggbm_path_product(params, grid, SeedSpec(4, 0))
    assert a.values.shape == (33, 2)
    assert np.all(a.values[0] == 0.0)
    assert np.array_equal(a.values, b.values)


def test_path_product_beta_one_is_fbm_law():
    # beta = 1: scale variable is identically 1, marginal variance t^alpha
    params = ModelParams(1.0, 1.2, 1)
    n = 3000
    grid = GridSpec(1.0, 16)
    ends = np.array([
        ggbm_path_product(params, grid, SeedSpec(55, i)).values[-1, 0]
        for i in range(n)])
    emp = ends ** 2
    se = emp.std(ddof=1) / math.sqrt(n)
    assert abs(emp.mean() - 1.0) <= 4.0 * se


def test_representations_agree_in_law():
    params = ModelParams(0.6, 1.4, 1)
    grid = GridSpec(1.0, 16)
    n = 4000
    prod = np.array([
        ggbm_path_product(params, grid, SeedSpec(9, 2 * i)).values[-1, 0]
        for i in range(n)])
    subo = np.array([
        ggbm_path_subordinated(params, grid, SeedSpec(9, 2 * i + 1)).values[-1, 0]
        for i in range(n)])
    assert ks_2samp(prod, subo).pvalue > 0.01


@pytest.mark.parametrize("alpha", [4e-4, 2e-3])
@pytest.mark.parametrize("seed", range(6))
def test_path_subordinated_small_alpha(alpha, seed):
    """Finite values on the original grid where the clock factor Y^(1/alpha)
    over- or underflows."""
    grid = GridSpec(1.0, 16)
    path = ggbm_path_subordinated(ModelParams(0.5, alpha, 1), grid,
                                  SeedSpec(seed, 0))
    assert np.array_equal(path.times, grid.times())
    assert np.all(np.isfinite(path.values))
    assert np.all(path.values[1:] != 0.0)


def test_marginal_density_gaussian_case():
    params = ModelParams(1.0, 1.0, 1)
    for y in (0.0, 0.5, 1.5):
        expected = math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
        assert marginal_density(params, [y], 1.0) == pytest.approx(
            expected, rel=1e-12)


def test_marginal_density_origin():
    # d = 1: finite closed form; d >= 2: the scale mixture diverges
    params = ModelParams(0.5, 1.0, 1)
    expected = (2.0 * math.pi) ** -0.5 * math.gamma(0.5) / math.gamma(0.75)
    assert marginal_density(params, [0.0], 1.0) == pytest.approx(
        expected, rel=1e-12)
    assert marginal_density(ModelParams(0.5, 1.5, 2), [0.0, 0.0], 1.0) == math.inf


@pytest.mark.parametrize("beta,alpha", [(0.5, 1.2), (0.5, 1.8),
                                        (0.8, 1.2), (0.8, 1.8)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_marginal_density_normalization(beta, alpha, dim):
    params = ModelParams(beta, alpha, dim)
    omega = unit_sphere_area(dim)

    def radial(r):
        point = np.zeros(dim)
        point[0] = r
        return marginal_density(params, point, 1.0) * omega * r ** (dim - 1)

    total, err = quad(radial, 0.0, np.inf, epsabs=1e-10, epsrel=1e-9,
                      limit=300)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_marginal_density_fourier_inversion():
    # d = 1: density is the cosine transform of the one-point charfun
    params = ModelParams(0.6, 1.4, 1)
    t = 1.3
    def charfun(k):
        return mittag_leffler(0.6, -0.5 * k * k * t ** 1.4).value

    val0, _ = quad(charfun, 0.0, np.inf, epsabs=1e-11, epsrel=1e-10,
                   limit=400)
    assert marginal_density(params, [0.0], t) == pytest.approx(
        val0 / math.pi, abs=1e-8)
    for y in (0.3, 1.0, 2.5):
        val, _ = quad(charfun, 0.0, np.inf, weight="cos", wvar=y,
                      epsabs=1e-11, limit=400)
        assert marginal_density(params, [y], t) == pytest.approx(
            val / math.pi, abs=1e-7)


def test_marginal_density_validation():
    params = ModelParams(0.5, 1.5, 2)
    with pytest.raises(DomainError):
        marginal_density(params, [1.0, 0.0], 0.0)
    with pytest.raises(DomainError):
        marginal_density(params, [1.0], 1.0)


def test_fdd_density_matches_marginal():
    params = ModelParams(0.7, 1.5, 1)
    for y in (0.2, 1.0):
        assert fdd_density(params, [1.0], [[y]]) == pytest.approx(
            marginal_density(params, [y], 1.0), rel=1e-10)


def test_fdd_density_box_probability_vs_mc():
    # P((B(0.5), B(1)) in box) from the joint density vs direct sampling
    params = ModelParams(0.5, 1.5, 1)
    times = [0.5, 1.0]
    box = ((0.0, 1.0), (0.0, 1.0))
    prob, _ = dblquad(
        lambda y2, y1: fdd_density(params, times, [[y1], [y2]]),
        box[0][0], box[0][1], lambda _: box[1][0], lambda _: box[1][1],
        epsabs=1e-8)
    n = 200_000
    rng = make_stream(SeedSpec(31, 0))
    y = sample_y_beta_array(0.5, rng, n)
    L = np.linalg.cholesky(0.5 * gamma_alpha_matrix(times, 1.5).entries)
    z = rng.standard_normal((n, 2))
    b = np.sqrt(y)[:, None] * (z @ L.T)
    hit = ((b[:, 0] > 0.0) & (b[:, 0] < 1.0)
           & (b[:, 1] > 0.0) & (b[:, 1] < 1.0)).astype(float)
    se = hit.std(ddof=1) / math.sqrt(n)
    assert abs(hit.mean() - prob) <= 4.0 * se


def test_fdd_charfun_one_point_identity():
    params = ModelParams(0.5, 1.5, 1)
    for k, t in ((1.0, 1.0), (0.5, 2.0)):
        expected = mittag_leffler(0.5, -0.5 * k * k * t ** 1.5).value
        assert fdd_charfun(params, [t], [[k]]) == pytest.approx(
            expected, rel=1e-12)


def test_fdd_charfun_two_point_vs_mc():
    params = ModelParams(0.5, 1.5, 1)
    times = [0.5, 1.0]
    theta = np.array([[0.7], [-0.4]])
    n = 400_000
    rng = make_stream(SeedSpec(77, 0))
    y = sample_y_beta_array(0.5, rng, n)
    L = np.linalg.cholesky(0.5 * gamma_alpha_matrix(times, 1.5).entries)
    z = rng.standard_normal((n, 2))
    b = np.sqrt(y)[:, None] * (z @ L.T)
    emp = np.cos(b @ theta[:, 0])
    se = emp.std(ddof=1) / math.sqrt(n)
    expected = fdd_charfun(params, times, theta)
    assert abs(emp.mean() - expected) <= 4.0 * se


def test_fdd_theta_shape_validation():
    params = ModelParams(0.5, 1.5, 2)
    with pytest.raises(DomainError):
        fdd_density(params, [1.0], [1.0])
    with pytest.raises(DomainError):
        fdd_density(params, [0.5, 1.0], np.zeros(3))
    with pytest.raises(DomainError):
        fdd_charfun(params, [1.0], [1.0, 0.0, 2.0])
    with pytest.raises(DomainError):
        fdd_charfun(params, [0.5, 1.0], np.zeros((2, 1)))


def test_fdd_charfun_at_zero_is_one():
    params = ModelParams(0.5, 1.5, 2)
    assert fdd_charfun(params, [0.5, 1.0], np.zeros((2, 2))) == 1.0
