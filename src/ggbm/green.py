"""Analytic side of the potential identity: Green density, potentials and
the time-integral kernel.

The potential of a Gaussian test function is in closed form in every
dimension; any other radial f (the bump) goes through one radial quadrature
of f's profile against the kernel's sphere means, also in every dimension.
A custom f that is not radial has no potential here.  Every distance
|x - y| in the package comes from _distance, and the Gaussian's 1F1 from
kummer, which the Monte Carlo fold shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammainccinv, gammaln, hyp1f1, hyp2f1, poch

from .exceptions import ConvergenceError, DomainError
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
    "kummer",
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
    sup_norm and l1_norm are norms of |f|; reach is the radius around
    `center` outside which |f| has L1 mass at most _TAIL_MASS.  spread >= 0
    states E[f(x + Z)] <= min(sup_norm, l1_norm (2 pi (spread + v))^(-d/2))
    for Z ~ N(0, v I) and every x; spread = 0 holds for every f.  gaussian
    states f(y) = f(center) exp(-|y - center|^2 / (2 spread)), spread > 0,
    and gives f the potential in closed form.  radial states that f(y)
    depends on y only through |y - center|, and gives f the potential by
    one radial quadrature.  center must be a finite point of R^dim, and
    sup_norm, l1_norm, spread and reach finite and >= 0.
    """

    eval_many: Callable[[np.ndarray], np.ndarray]
    sup_norm: float
    l1_norm: float
    dim: int
    reach: float
    kind: str = "custom"
    center: np.ndarray = None
    spread: float = 0.0
    gaussian: bool = False
    radial: bool = False

    def __post_init__(self):
        center = np.zeros(self.dim) if self.center is None else self.center
        object.__setattr__(self, "center", _point(self.dim, center))
        for fact in ("sup_norm", "l1_norm", "spread", "reach"):
            value = getattr(self, fact)
            if not 0.0 <= value < math.inf:
                raise DomainError(f"a test function's {fact} must be finite and >= 0, "
                                  f"got {value:g} for {self.kind}")
        if self.gaussian and not self.spread > 0.0:
            raise DomainError(f"a Gaussian needs spread > 0, got {self.spread:g}")

    @property
    def cl_norm(self) -> float:
        return self.sup_norm + self.l1_norm

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return float(self.eval_many(pts[None, :])[0])
        return self.eval_many(pts)


def _point(dim: int, x) -> np.ndarray:
    """x as a finite float point of R^dim; raises DomainError otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,) or not np.isfinite(x).all():
        raise DomainError(f"a point must be finite in dim {dim}, got {x}")
    return x


def _power(x: float, p: float) -> float:
    """x ** p for x >= 0, or +inf where it overflows a float."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


# the smallest normal float
_TINY = float(np.finfo(float).tiny)


def _distance(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """|x - y| and its square for finite points, with no warning.  Where the
    square is a normal float it is np.sum((x - y)**2), bit for bit, and the
    distance its square root.  Elsewhere, at points more than about 1e154
    or less than about 1e-154 apart, the distance is formed from the offset
    scaled by its largest component, so it is right where the square is
    not, and the square is its float product, inf or 0; an offset that
    itself overflows is an infinite distance.  np.add.reduce(diff * diff)
    is np.sum(diff ** 2) without np.sum's wrapper, a third of the time."""
    with np.errstate(over="ignore"):
        diff = x - y
        r2 = float(np.add.reduce(diff * diff))
    if _TINY <= r2 < math.inf:
        return math.sqrt(r2), r2
    top = max(map(abs, diff.tolist()))
    if not 0.0 < top < math.inf:
        return top, top * top
    diff /= top
    r = top * math.sqrt(float(np.add.reduce(diff * diff)))
    return r, r * r


# the largest |x - c| at which potential, estimate_potential_mc and
# exact_gaussian_moments take x: its square stays below 1e304, which leaves
# the estimator's (r + B_1(t))^2 a margin of 1e4 before a float overflows
_FAR = 1e152


def as_point(params: ModelParams, f: TestFunction, x) -> np.ndarray:
    """x as a finite float point, once f and x are both in R^d, d = params.dim,
    and x lies within _FAR of f's centre; raises DomainError otherwise."""
    if f.dim != params.dim:
        raise DomainError(f"f has dim {f.dim}, but the process has dim {params.dim}")
    x = _point(params.dim, x)
    r, _ = _distance(x, f.center)
    if r > _FAR:
        raise DomainError(f"x is {r:g} from the centre of {f.kind}: |x - c| must be at most "
                          f"{_FAR:g}, or the squared distances overflow a float")
    return x


def gaussian_test_function(sigma: float, dim: int, center=None,
                           amplitude: float = 1.0) -> TestFunction:
    """f(y) = A exp(-|y - c|^2 / (2 sigma^2)), spread sigma^2: its mean at
    variance v is at most |A| sigma^d (sigma^2 + v)^(-d/2)."""
    if not (0.0 < sigma < math.inf and math.isfinite(amplitude)):
        raise DomainError(f"sigma must be positive and finite and the amplitude finite, "
                          f"got {sigma:g} and {amplitude:g}")
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    l1 = abs(amplitude) * _power(2.0 * math.pi * sigma * sigma, 0.5 * dim)

    def ev(pts):
        # one temporary, in the layout of pts, then in-place steps in the
        # order of A * exp(-0.5 * |pts - c|^2 / sigma^2)
        diff = pts - c
        np.square(diff, out=diff)
        d2 = np.add.reduce(diff, axis=-1)
        d2 *= -0.5
        d2 /= sigma * sigma
        np.exp(d2, out=d2)
        d2 *= amplitude
        return d2

    # the mass outside |y - c| > R is l1 * gammaincc(d/2, R^2 / (2 sigma^2))
    reach = (sigma * math.sqrt(2.0 * gammainccinv(0.5 * dim, _TAIL_MASS / l1))
             if l1 > _TAIL_MASS else 0.0)

    return TestFunction(eval_many=ev, sup_norm=abs(amplitude), l1_norm=l1, dim=dim,
                        reach=reach, kind=f"gaussian(sigma={sigma:g})", center=c,
                        spread=sigma * sigma, gaussian=True, radial=True)


def bump_test_function(radius: float, dim: int, center=None,
                       amplitude: float = 1.0) -> TestFunction:
    """Smooth bump A exp(1 - 1/(1 - (|y-c|/r)^2)) supported in |y-c| < r."""
    if not (0.0 < radius < math.inf and math.isfinite(amplitude)):
        raise DomainError(f"radius must be positive and finite and the amplitude finite, "
                          f"got {radius:g} and {amplitude:g}")
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

    # imported at first use, so that starting the CLI does not load
    # scipy.integrate; likewise below and in specfun and verify
    from scipy.integrate import quad

    shell, _ = quad(lambda u: profile(np.array([u]))[0] * u ** (dim - 1), 0.0, 1.0)
    l1 = abs(amplitude) * unit_sphere_area(dim) * _power(radius, dim) * shell

    return TestFunction(eval_many=ev, sup_norm=abs(amplitude), l1_norm=l1, dim=dim,
                        reach=radius, kind=f"bump(radius={radius:g})", center=c,
                        radial=True)


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
    """D / |x - y|^(d - 2/alpha) at distinct finite points; DomainError at
    x = y, where it is singular, and where it overflows a float."""
    x, y = _point(gd.params.dim, x), _point(gd.params.dim, y)
    r, _ = _distance(x, y)
    if r == 0.0:
        raise DomainError("green density is singular at x = y")
    value = gd.D * _power(r, -gd.exponent)
    if value == math.inf:
        raise DomainError(f"the green density at |x - y| = {r:g} overflows a float")
    return value


def time_integral_kernel(alpha: float, d: int, tau: float, r: float) -> float:
    """Closed form of int_0^inf (2 pi t^a tau)^(-d/2) exp(-r^2/(2 t^a tau)) dt
    = C(alpha, d) * tau^(-1/alpha) / r^(d - 2/alpha), for d*alpha > 2; a
    value that overflows a float raises DomainError.
    """
    if tau <= 0.0 or r <= 0.0:
        raise DomainError("requires tau > 0 and r > 0")
    C = time_kernel_constant(alpha, d)
    value = C * _power(tau, -1.0 / alpha) * _power(r, 2.0 / alpha - d)
    if not math.isfinite(value):
        raise DomainError(f"the time-integral kernel at tau = {tau:g}, r = {r:g} "
                          f"overflows a float")
    return value


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

# Relative tolerance of the radial quadrature of the potential
_POTENTIAL_TOL = 1e-10


# z from which kummer sums its large-z series in place of scipy's hyp1f1.
# There the series meets 2^-60 of its sum within 12 terms, within 7e-16 of
# mpmath, for every d <= 60 and every alpha the domain admits; just below
# it scipy's value is within 2.3e-14 of mpmath at those (alpha, d).
# Further out scipy drifts: at alpha = 1.01, d = 2 it is 1e-14 off at
# z = 1e7, 1e-12 off at 1e10 and NaN from 1e11, where the series holds
# 4e-16.
_KUMMER_SWITCH = 1e3
_KUMMER_TERMS = 40


def kummer(alpha: float, d: int, z: float) -> float:
    """1F1(a; d/2; -z) with a = d/2 - 1/alpha > 0, for z >= 0: the one
    confluent hypergeometric value that the Gaussian's potential and the
    Monte Carlo fold's whole integral share.
    - Below z = 2^-54 it is 1, the rounding of 1 - (a/b) z + ..., where
      scipy's hyp1f1 returned inf or NaN for a near 0 (from about
      z = 1e-180 down at a = 0.0099).
    - From there to _KUMMER_SWITCH it is scipy's hyp1f1, bit for bit.
    - From there on it is the large-z series of DLMF 13.7.2,
        Gamma(d/2) / Gamma(1/alpha) z^(-a) sum_s (a)_s (1 - 1/alpha)_s / s! z^(-s),
      whose other part, of order exp(-z), lies below a float's
      resolution.  The sum stops at its first term under 2^-60 of it, and
      raises ConvergenceError where _KUMMER_TERMS terms do not reach that.
    """
    a, b = 0.5 * d - 1.0 / alpha, 0.5 * d
    if z < 2.0 ** -54:
        return 1.0
    if z < _KUMMER_SWITCH:
        return hyp1f1(a, b, -z)
    total, term = 0.0, 1.0
    for k in range(_KUMMER_TERMS):
        total += term
        term *= (a + k) * (a - b + 1.0 + k) / ((k + 1.0) * z)
        if abs(term) <= 2.0 ** -60 * abs(total):
            break
    else:
        raise ConvergenceError(f"the large-z series of 1F1({a:g}; {b:g}; -{z:g}) does not "
                               f"settle in {_KUMMER_TERMS} terms")
    # z^(-a) in two halves, which do not underflow where the value does not
    half = z ** (-0.5 * a)
    return poch(1.0 / alpha, a) * half * half * total


def _gaussian_potential(gd: GreenDensity, f: TestFunction, x: np.ndarray) -> float:
    """V(f, x) for f(y) = A exp(-|y - c|^2 / (2 s)): D * A (2 pi s)^(d/2) times
    E|x - c + sqrt(s) Z|^(-p), p = d - 2/alpha, the negative moment of a
    noncentral chi, (2 s)^(-p/2) Gamma((d - p)/2) / Gamma(d/2)
    * 1F1(p/2; d/2; -|x - c|^2 / (2 s)), with (d - p)/2 = 1/alpha and
    p/2 = d/2 - 1/alpha (kummer).
    """
    alpha, d, p, s = gd.params.alpha, gd.params.dim, gd.exponent, f.spread
    amplitude = float(f.eval_many(f.center[None, :])[0])
    z = _distance(x, f.center)[1] / (2.0 * s)
    moment = ((2.0 * s) ** (-0.5 * p) * math.exp(gammaln(1.0 / alpha) - gammaln(0.5 * d))
              * kummer(alpha, d, z))
    return gd.D * amplitude * (2.0 * math.pi * s) ** (0.5 * d) * moment


def _radial_potential(gd: GreenDensity, f: TestFunction, x: np.ndarray) -> float:
    """V(f, x) for f(y) = phi(|y - c|): D area(S^(d-1)) int_0^reach phi(rho)
    rho^(d-1) mean(rho) drho, with s = |x - c|, p = d - 2/alpha and the
    kernel's mean over the sphere |y - c| = rho (Landkof 1972, ch. 1)
      mean(rho) = max(s, rho)^(-p) 2F1(p/2, p/2 - d/2 + 1; d/2; (min/max)^2),
    which is rho^(-p) at s = 0.  One quad, split at rho = s; raises
    ConvergenceError when it does not reach its tolerance.
    """
    from scipy.integrate import quad

    d, p = gd.params.dim, gd.exponent
    s, _ = _distance(x, f.center)
    axis = np.eye(d)[0]

    def shell(rho):
        phi = float(f.eval_many((f.center + rho * axis)[None, :])[0])
        lo, hi = min(s, rho), max(s, rho)
        mean = hi ** (-p) * (hyp2f1(0.5 * p, 0.5 * (p - d) + 1.0, 0.5 * d, (lo / hi) ** 2)
                             if lo > 0.0 else 1.0)
        return phi * rho ** (d - 1) * mean

    # full_output returns QUADPACK's message in place of an IntegrationWarning
    val, _, _, *failed = quad(shell, 0.0, f.reach, epsabs=0.0, epsrel=_POTENTIAL_TOL,
                              limit=300, points=[s] if 0.0 < s < f.reach else None,
                              full_output=1)
    if failed:
        raise ConvergenceError(f"radial quadrature of the potential at |x - c| = {s:g}: "
                               f"{failed[0]}")
    return gd.D * unit_sphere_area(d) * val


def potential(gd: GreenDensity, f: TestFunction, x) -> float:
    """V(f, x) = D * int f(x + y) |y|^(2/alpha - d) dy: in closed form for a
    declared Gaussian, by one radial quadrature for any other declared radial
    f, in every dimension; raises DomainError for an f declared neither.
    """
    x = as_point(gd.params, f, x)
    if f.gaussian:
        return _gaussian_potential(gd, f, x)
    if f.radial:
        return _radial_potential(gd, f, x)
    raise DomainError(f"the potential needs a Gaussian or radial f, got {f.kind}")


def continuity_constant(gd: GreenDensity) -> float:
    """Constant K with |V(f, x)| <= K * (sup_norm + l1_norm) for every f:
    split the kernel integral at radius 1.
    """
    d, alpha = gd.params.dim, gd.params.alpha
    return gd.D * max(unit_sphere_area(d) * 0.5 * alpha, 1.0)


# ---------------------------------------------------------------------------
# Green measure of balls
# ---------------------------------------------------------------------------

def green_measure_of_ball(gd: GreenDensity, x, center, r: float) -> float:
    """Expected occupation time of the ball B(center, r) for the process
    started at x; finite for every admissible parameter triple.

    With s = |x - center|, a = 1/alpha and b = d/2 - a, the kernel's mean
    over the sphere |y - center| = rho (Landkof 1972, ch. 1) integrates
    term by term over rho (DLMF 15.2.1) to D * area(S^(d-1)) times
      (alpha/2) r^(2/alpha) 2F1(b, -a; d/2; s^2/r^2)           for s <= r,
      (r^d/d) s^(2/alpha - d) 2F1(b, 1 - a; d/2 + 1; r^2/s^2)  for s > r,
    the latter formed as r^(2/alpha) (r/s)^(d - 2/alpha) / d, which stays
    in range at every finite distance;
    both give the same value at s = r by Gauss's sum (DLMF 15.4.20), since
    c - a - b = 2/alpha > 0 in each.  scipy's hyp2f1 loses digits where
    2/alpha is within about 1e-4 of 1 (alpha just below 2) and the
    argument lies in (0.98, 1): about 1e-11 relative at alpha = 2 - 1e-5
    and 1e-7 at alpha = 2 - 1e-9 (d = 30, s/r = 1.001).  A measure that
    overflows a float, as r^(2/alpha) does past r of about 1e154 at alpha
    near 1, raises DomainError.
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"radius must be positive and finite, got {r:g}")
    x, c = _point(gd.params.dim, x), _point(gd.params.dim, center)
    alpha, d = gd.params.alpha, gd.params.dim
    a = 1.0 / alpha
    b = 0.5 * d - a
    s, _ = _distance(x, c)
    scale = gd.D * unit_sphere_area(d) * _power(r, 2.0 / alpha)
    if s <= r:
        value = scale * 0.5 * alpha * hyp2f1(b, -a, 0.5 * d, (s / r) ** 2)
    else:
        value = (scale / d * (r / s) ** (d - 2.0 / alpha)
                 * hyp2f1(b, 1.0 - a, 0.5 * d + 1.0, (r / s) ** 2))
    if not math.isfinite(value):
        raise DomainError(f"the Green measure of a ball of radius {r:g} at distance {s:g} "
                          f"from x overflows a float")
    return value
