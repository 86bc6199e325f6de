"""Analytic side of the potential identity: Green density, potentials by
quadrature, and the time-integral kernel in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainccinv

from .exceptions import DomainError
from .model import ModelParams
from .specfun import gamma, green_constant, time_kernel_constant

__all__ = [
    "TestFunction",
    "gaussian_test_function",
    "bump_test_function",
    "GreenDensity",
    "green_density_at",
    "time_integral_kernel",
    "potential",
    "continuity_constant",
    "green_measure_of_ball",
    "unit_sphere_area",
]


def unit_sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2 for d = 1)."""
    return 2.0 * math.pi ** (0.5 * d) / gamma(0.5 * d)


# ---------------------------------------------------------------------------
# Test functions (continuous, bounded, integrable)
# ---------------------------------------------------------------------------

# L1 mass of |f| that a test function's reach may leave outside it
_TAIL_MASS = 1e-12


@dataclass(frozen=True)
class TestFunction:
    """A function R^d -> R with the facts the Green layer reads declared.

    eval_many maps an (m, d) array of points to an (m,) array of values.
    reach is the radius around `center` outside which |f| has L1 mass at
    most _TAIL_MASS; it truncates the potential quadrature.  mean_upper(v)
    bounds E[f(x + Z)], Z ~ N(0, v I), for every x and for arrays of v; it
    bounds the Monte Carlo truncation tail, and defaults to
    min(sup_norm, l1_norm (2 pi v)^(-d/2)), which holds for every f.
    """

    eval_many: Callable[[np.ndarray], np.ndarray]
    sup_norm: float
    l1_norm: float
    dim: int
    reach: float
    kind: str = "custom"
    center: np.ndarray = None
    mean_upper: Callable[[np.ndarray], np.ndarray] = None

    def __post_init__(self):
        if self.center is None:
            object.__setattr__(self, "center", np.zeros(self.dim))
        if self.mean_upper is None:
            # the values, not self: dataclasses.replace keeps this bound
            sup, l1, d = self.sup_norm, self.l1_norm, self.dim
            object.__setattr__(self, "mean_upper", lambda v: np.minimum(
                sup, l1 * (2.0 * math.pi * v) ** (-0.5 * d)))

    @property
    def cl_norm(self) -> float:
        return self.sup_norm + self.l1_norm

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return float(self.eval_many(pts[None, :])[0])
        return self.eval_many(pts)


def gaussian_test_function(sigma: float, dim: int, center=None,
                           amplitude: float = 1.0) -> TestFunction:
    """f(y) = A exp(-|y - c|^2 / (2 sigma^2))."""
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma:g}")
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    l1 = amplitude * (2.0 * math.pi * sigma * sigma) ** (0.5 * dim)

    def ev(pts):
        d2 = np.sum((pts - c) ** 2, axis=-1)
        return amplitude * np.exp(-0.5 * d2 / (sigma * sigma))

    # the mass outside |y - c| > R is l1 * gammaincc(d/2, R^2 / (2 sigma^2))
    reach = (sigma * math.sqrt(2.0 * gammainccinv(0.5 * dim, _TAIL_MASS / l1))
             if l1 > _TAIL_MASS else 0.0)

    def mean_upper(v):
        # E[f(x+Z)] = A sigma^d (sigma^2+v)^(-d/2) exp(...) <= the prefactor
        return amplitude * sigma ** dim * (sigma * sigma + v) ** (-0.5 * dim)

    return TestFunction(eval_many=ev, sup_norm=amplitude, l1_norm=l1, dim=dim,
                        reach=reach, kind=f"gaussian(sigma={sigma:g})", center=c,
                        mean_upper=mean_upper)


def bump_test_function(radius: float, dim: int, center=None,
                       amplitude: float = 1.0) -> TestFunction:
    """Smooth bump A exp(1 - 1/(1 - (|y-c|/r)^2)) supported in |y-c| < r."""
    if radius <= 0.0:
        raise DomainError(f"radius must be positive, got {radius:g}")
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def profile(u):
        out = np.zeros_like(u)
        inside = u < 1.0
        ui = u[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out

    def ev(pts):
        u = np.sqrt(np.sum((pts - c) ** 2, axis=-1)) / radius
        return amplitude * profile(u)

    shell, _ = quad(lambda u: profile(np.array([u]))[0] * u ** (dim - 1), 0.0, 1.0)
    l1 = amplitude * unit_sphere_area(dim) * radius ** dim * shell

    return TestFunction(eval_many=ev, sup_norm=amplitude, l1_norm=l1, dim=dim,
                        reach=radius, kind=f"bump(radius={radius:g})", center=c)


# ---------------------------------------------------------------------------
# Green density and kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenDensity:
    """The density D / |x - y|^(d - 2/alpha) of the occupation measure."""

    params: ModelParams
    D: float
    exponent: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "GreenDensity":
        D = green_constant(params.beta, params.alpha, params.dim)
        return cls(params=params, D=D,
                   exponent=params.dim - 2.0 / params.alpha)


def green_density_at(gd: GreenDensity, x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = float(np.linalg.norm(x - y))
    if r == 0.0:
        raise DomainError("green density is singular at x = y")
    return gd.D * r ** (-gd.exponent)


def time_integral_kernel(alpha: float, d: int, tau: float, r: float) -> float:
    """Closed form of int_0^inf (2 pi t^a tau)^(-d/2) exp(-r^2/(2 t^a tau)) dt
    = C(alpha, d) * tau^(-1/alpha) / r^(d - 2/alpha), for d*alpha > 2.
    """
    if tau <= 0.0 or r <= 0.0:
        raise DomainError("requires tau > 0 and r > 0")
    C = time_kernel_constant(alpha, d)
    return C * tau ** (-1.0 / alpha) * r ** (2.0 / alpha - d)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

# Quadrature control for the potential integral: target absolute/relative
# tolerance and the cap on the angular rule size.
_POTENTIAL_TOL = 1e-10
_MAX_ANGULAR = 192


@functools.lru_cache(maxsize=None)
def _sphere_rule(d: int, m: int):
    """Unit-sphere nodes and weights summing to the sphere area (d <= 3).
    Cached per (d, m), so the arrays are shared and read-only.
    """
    if d == 1:
        nodes, w = np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    elif d == 2:
        ang = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        w = np.full(m, 2.0 * math.pi / m)
    elif d == 3:
        mu, wmu = np.polynomial.legendre.leggauss(m)
        phi = 2.0 * math.pi * (np.arange(2 * m) + 0.5) / (2 * m)
        smu = np.sqrt(1.0 - mu ** 2)
        nodes = np.stack(
            [
                np.outer(smu, np.cos(phi)).ravel(),
                np.outer(smu, np.sin(phi)).ravel(),
                np.repeat(mu, 2 * m),
            ],
            axis=1,
        )
        w = np.outer(wmu, np.full(2 * m, 2.0 * math.pi / (2 * m))).ravel()
    else:
        raise DomainError(f"sphere cubature implemented for d <= 3, got d = {d}")
    nodes.flags.writeable = False
    w.flags.writeable = False
    return nodes, w


def _sphere_average(f: TestFunction, x: np.ndarray, r: float, d: int) -> float:
    """Surface integral of f over the sphere of radius r around x, adaptively
    refined until two successive rules agree.
    """
    if d == 1:
        nodes, w = _sphere_rule(1, 0)
        return float(np.dot(w, f.eval_many(x[None, :] + r * nodes)))
    m = 12
    nodes, w = _sphere_rule(d, m)
    prev = float(np.dot(w, f.eval_many(x[None, :] + r * nodes)))
    while m < _MAX_ANGULAR:
        m *= 2
        nodes, w = _sphere_rule(d, m)
        cur = float(np.dot(w, f.eval_many(x[None, :] + r * nodes)))
        if abs(cur - prev) <= _POTENTIAL_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev


def potential(gd: GreenDensity, f: TestFunction, x) -> float:
    """V(f, x) = D * int f(x + y) |y|^(2/alpha - d) dy by radial quadrature.

    The substitution u = r^(2/alpha) removes the origin singularity exactly:
    the integral becomes (alpha/2) * int_0^inf S(u^(alpha/2)) du with S the
    spherical surface integral of f(x + .).
    """
    x = np.asarray(x, dtype=float)
    alpha, d = gd.params.alpha, gd.params.dim
    # truncation radius around x: everything but _TAIL_MASS of |f| inside
    reach = float(np.linalg.norm(x - f.center)) + f.reach
    u_max = reach ** (2.0 / alpha)

    def integrand(u):
        r = u ** (0.5 * alpha)
        if r == 0.0:
            r = 1e-300
        return _sphere_average(f, x, r, d)

    val, _ = quad(integrand, 0.0, u_max, epsabs=_POTENTIAL_TOL, epsrel=_POTENTIAL_TOL,
                  limit=300)
    return gd.D * 0.5 * alpha * val


def continuity_constant(gd: GreenDensity) -> float:
    """Constant K with |V(f, x)| <= K * (sup_norm + l1_norm) for every f:
    split the kernel integral at radius 1.
    """
    d, alpha = gd.params.dim, gd.params.alpha
    return gd.D * max(unit_sphere_area(d) * 0.5 * alpha, 1.0)


# ---------------------------------------------------------------------------
# Green measure of balls
# ---------------------------------------------------------------------------

def _cap_measure(d: int, rho: float, s: float, r: float) -> float:
    """Angular measure of directions w with |x + rho*w - c| <= r, |x-c| = s."""
    if rho >= s + r or rho <= -1e-300:
        return 0.0
    if rho <= r - s:
        return unit_sphere_area(d)
    if rho <= s - r:
        return 0.0
    m = (rho * rho + s * s - r * r) / (2.0 * rho * s)
    m = min(1.0, max(-1.0, m))
    if d == 1:
        # the two directions, with +1 pointing from x toward c
        return (1.0 if abs(s - rho) <= r else 0.0) + (1.0 if s + rho <= r else 0.0)
    if d == 2:
        return 2.0 * math.acos(m)
    if d == 3:
        return 2.0 * math.pi * (1.0 - m)
    raise DomainError(f"ball measure implemented for d <= 3, got d = {d}")


def green_measure_of_ball(gd: GreenDensity, x, center, r: float) -> float:
    """Expected occupation time of the ball B(center, r) for the process
    started at x; finite for every admissible parameter triple.

    Concentric case in closed form: D * area(S^(d-1)) * (alpha/2) * r^(2/alpha).
    """
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r:g}")
    x = np.asarray(x, dtype=float)
    c = np.asarray(center, dtype=float)
    alpha, d = gd.params.alpha, gd.params.dim
    s = float(np.linalg.norm(x - c))
    if s == 0.0:
        return gd.D * unit_sphere_area(d) * 0.5 * alpha * r ** (2.0 / alpha)

    lo, hi = max(0.0, s - r), s + r

    def integrand(rho):
        return rho ** (2.0 / alpha - 1.0) * _cap_measure(d, rho, s, r)

    pts = [p for p in (abs(s - r), r - s) if lo < p < hi]
    val, _ = quad(integrand, lo, hi, points=pts or None, limit=300,
                  epsabs=1e-12, epsrel=1e-10)
    return gd.D * val
