"""Exact samplers: one-sided stable variables and the scale variable Y_beta.

Both use Kanter's representation on one uniform and one exponential draw
per variate.  Y_beta takes its three sines from the tangents of their half
angles, which numpy vectorizes on AVX512 machines where it runs sin through
scalar libm, in column blocks that stay in cache (sample_y_beta_array).
The batched fBm sampler's standard normals come from the same trick
applied to Box and Muller's transform (standard_normals).

Streams are SFC64 generators seeded by a SeedSequence whose entropy is
the master seed and whose spawn key is the stream index, so any number of
streams can be used in parallel with results independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .specfun import check_beta, kanter_a

__all__ = ["SeedSpec", "make_stream", "sample_one_sided_stable", "sample_y_beta_array",
           "standard_normals"]


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index.

    Distinct stream indices under one master seed give statistically
    independent streams: SeedSequence hashes (master_seed, stream_index)
    into each SFC64 state, and the derivation is platform independent.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2 ** 64:
            raise DomainError("master_seed must fit in 64 unsigned bits")
        if not 0 <= self.stream_index < 2 ** 64:
            raise DomainError("stream_index must be a nonnegative 64-bit integer")

    def substream(self, index: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.stream_index + index)


def make_stream(seed: SeedSpec) -> np.random.Generator:
    """SFC64 generator seeded by SeedSequence(master_seed) with spawn key
    (stream_index,).  Successive draws continue one sequence, so two draws
    of a and b rows equal one draw of a + b rows."""
    entropy = np.random.SeedSequence(seed.master_seed, spawn_key=(seed.stream_index,))
    return np.random.Generator(np.random.SFC64(entropy))


def sample_one_sided_stable(beta: float, rng: np.random.Generator, size=None):
    """One-sided beta-stable draw(s) S > 0 with E[exp(-s*S)] = exp(-s^beta).

    Kanter's representation: S = (a(pi*U)/W)^((1-beta)/beta) with U uniform
    on (0,1) and W standard exponential.  beta must lie in [BETA_MIN, 1),
    as for sample_y_beta_array: below the smallest normal float the draws
    are not finite.  A negative entry of size raises DomainError before
    any draw.  The power of order 1/beta leaves the float range at small
    beta (at beta = 1e-3, 367 of 1000 draws overflowed and 130 underflowed
    to 0): a draw that does raises DomainError, with no warning.
    """
    check_beta("sample_one_sided_stable", beta)
    if beta == 1.0:
        raise DomainError("sample_one_sided_stable requires beta < 1, got beta = 1")
    if size is not None and np.any(np.asarray(size) < 0):
        raise DomainError(f"sample_one_sided_stable requires size >= 0, got size = {size}")
    u = rng.random(size)
    w = rng.standard_exponential(size)
    # keep u strictly inside (0,1); rng.random can return exactly 0.0
    u = np.maximum(u, 1e-300)
    a = kanter_a(beta, math.pi * u)
    with np.errstate(over="ignore"):
        s = (a / w) ** ((1.0 - beta) / beta)
    if not np.all((s > 0.0) & (s < math.inf)):
        raise DomainError(f"a one-sided stable draw at beta = {beta:g} leaves the float "
                          f"range: (a/W)^((1-beta)/beta) overflows or underflows to 0")
    return s


# columns per block of sample_y_beta_array: each of its two (3, block)
# float64 buffers takes 96 KiB, under glibc's 128 KiB mmap threshold, so
# they come from the heap without page faults and a block's passes run in L2
_Y_BLOCK = 4096


def _half_angle_sine(h: np.ndarray) -> np.ndarray:
    """sin(2h)/2 in place of h, as t/(1 + t^2) with t = tan(h), for
    0 <= 2h <= pi; within 3 ulp of the correctly rounded value (2.54
    measured at 1.4e5 points, np.sin 0.5).

    numpy runs float64 tan through vectorized SVML loops where it
    dispatches AVX512_SKX (X86_V4) and sin through scalar libm, so there
    this form is several times faster than np.sin.  Without that dispatch
    (NPY_DISABLE_CPU_FEATURES) tan is scalar too and the form gains
    nothing; sample_y_beta_array then still reads 0.90-0.97x the time of
    its np.sin form, from the power per draw that it no longer takes.
    """
    np.tan(h, out=h)
    t2 = np.square(h)
    t2 += 1.0
    h /= t2
    return h


def sample_y_beta_array(beta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of Y_beta (density M_beta), via Y = S^(-beta).

    With S from Kanter's representation on the same U and W draws,
    Y = (W/a(theta))^(1-beta)
      = W^(1-beta) sin(theta) / (sin(beta*theta)^beta sin((1-beta)*theta)^(1-beta)),
    theta = pi*U.  No power of order 1/beta or 1/(1-beta) is taken, so
    the draws stay finite and positive as beta -> 0 and beta -> 1; below
    specfun.BETA_MIN sin(beta*theta) underflows to 0, and such beta raise.

    Each sine is taken from the tangent of its half angle
    (_half_angle_sine), whose factors 2 cancel in Y since
    2 / (2^beta 2^(1-beta)) = 1, and Y is evaluated as
    s0 (W/s2)^(1-beta) / s1^beta with s0, s1, s2 the halved sines of
    theta, beta*theta and (1-beta)*theta: two powers per draw.  The half
    angles are the rows of one (3, block) buffer, so each step is one
    numpy call over all three, and the draws are walked in column blocks
    of _Y_BLOCK.  The half angles are exactly half of theta, beta*theta
    and (1-beta)*theta as rounded (where those are normal numbers), so Y
    is within a few ulp of the np.sin form on the same draws (1.0e-15
    relative measured).

    For beta = 1 the law is the point mass at 1.  The random stream is
    advanced by the same amount (2n variates) in both branches so that
    downstream draws do not depend on beta.  n < 0 raises DomainError.
    """
    check_beta("sample_y_beta_array", beta)
    if n < 0:
        raise DomainError(f"sample_y_beta_array requires n >= 0, got n = {n}")
    u = rng.random(n)
    w = rng.standard_exponential(n)
    if beta == 1.0:
        return np.ones(n)
    # theta = pi * u in u; rng.random can return exactly 0.0, taken as its
    # smallest positive value 2^-53, which keeps W/s2 finite as beta -> 1
    theta = np.maximum(u, 2.0 ** -53, out=u)
    theta *= math.pi
    b = 1.0 - beta
    halves = (0.5, 0.5 * beta, 0.5 * b)
    for lo in range(0, n, _Y_BLOCK):
        # rows sin(theta)/2, sin(beta*theta)/2, sin((1-beta)*theta)/2
        s = _half_angle_sine(np.multiply.outer(halves, theta[lo:lo + _Y_BLOCK]))
        y = w[lo:lo + _Y_BLOCK]
        y /= s[2]
        y **= b
        y *= s[0]
        s1 = s[1]
        s1 **= beta
        y /= s1
    return w


# pairs per segment of standard_normals: a segment of 2 _Z_BLOCK values
# holds one 2048-path chunk of one component on a declared Gaussian's
# 12-point clock, and its scratch row of 96 KiB stays under glibc's
# 128 KiB mmap threshold, so it comes from the heap without page faults
# and a segment's passes run in L2
_Z_BLOCK = 12288


def standard_normals(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float64 array out with standard normals, in
    order, and return it.  The values are walked in segments of at most
    2 _Z_BLOCK, and each segment of 2k values draws 2k uniforms of
    rng.random; value j < k of the segment and value k + j come from the
    pair (u_j, u_{k+j}), the first half paired with the second, by Box and
    Muller's transform (1958) with the angle's cosine and sine taken from
    its half-angle tangent: with r = sqrt(-2 log(1 - u_j)) and
    t = tan(pi u_{k+j}),

        z_j = 2r / (1 + t^2) - r = r cos(2 pi u_{k+j}),
        z_{k+j} = 2r t / (1 + t^2) = r sin(2 pi u_{k+j}).

    Every pass runs over a contiguous half.  numpy runs float64 tan and log
    through vectorized loops where it dispatches AVX512_SKX (X86_V4), so
    there 2048 x 12 values take about half the time of
    rng.standard_normal, whose ziggurat branches per value, and 0.8 times
    that of adjacent pairs, whose passes ran at stride 2 (2-core x86 box).  The uniforms are drawn into out itself and transformed in place,
    with scratch allocated per call, so threads that fill arrays from their
    own streams share nothing.  An odd last segment of 2k - 1 values draws
    2k uniforms and drops the last sine.  Two draws of a and b values, a a
    multiple of 2 _Z_BLOCK, give the values of one draw of a + b; a draw
    split elsewhere pairs other uniforms.

    u_j lies on a 2^-53 grid, so r is at most sqrt(106 log 2) = 8.572: the
    law is N(0, 1) with its tail beyond that radius cut, a probability of
    2^-53 = 1.1e-16 per pair.  z_j is formed as a difference, so its error
    is a few ulp of r rather than of z_j where cos(2 pi u_{k+j}) is near 0.
    """
    if not out.flags.c_contiguous:
        raise ValueError("standard_normals fills a C-contiguous array in place")
    flat = out.reshape(-1)  # a view, as out is C-contiguous
    n = flat.size
    q = np.empty(min((n + 1) // 2, _Z_BLOCK))
    for lo in range(0, n, 2 * _Z_BLOCK):
        seg = flat[lo:lo + 2 * _Z_BLOCK]
        k = (len(seg) + 1) // 2
        if len(seg) % 2:
            seg[:] = _box_muller(rng.random(2 * k), q[:k])[:-1]
        else:
            _box_muller(rng.random(out=seg), q[:k])
    return out


def _box_muller(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The 2k uniforms u turned into normals in place, the first half
    paired with the second, with q (k,) scratch (standard_normals)."""
    k = len(q)
    r, t = u[:k], u[k:]
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t *= math.pi
    np.tan(t, out=t)
    np.square(t, out=q)
    q += 1.0
    np.divide(r, q, out=q)
    q *= 2.0
    t *= q
    np.subtract(q, r, out=r)
    return u
