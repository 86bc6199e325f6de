"""Exact samplers: one-sided stable variables and the scale variable Y_beta.

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

__all__ = ["SeedSpec", "make_stream", "sample_one_sided_stable", "sample_y_beta_array"]


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
    on (0,1) and W standard exponential.  A negative entry of size raises
    DomainError before any draw.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"requires 0 < beta < 1, got beta = {beta:g}")
    if size is not None and np.any(np.asarray(size) < 0):
        raise DomainError(f"sample_one_sided_stable requires size >= 0, got size = {size}")
    u = rng.random(size)
    w = rng.standard_exponential(size)
    # keep u strictly inside (0,1); rng.random can return exactly 0.0
    u = np.maximum(u, 1e-300)
    a = kanter_a(beta, math.pi * u)
    return (a / w) ** ((1.0 - beta) / beta)


def sample_y_beta_array(beta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of Y_beta (density M_beta), via Y = S^(-beta).

    With S from Kanter's representation on the same U and W draws,
    Y = (W/a(theta))^(1-beta)
      = W^(1-beta) sin(theta) / (sin(beta*theta)^beta sin((1-beta)*theta)^(1-beta)),
    theta = pi*U.  No power of order 1/beta or 1/(1-beta) is taken, so
    the draws stay finite and positive as beta -> 0 and beta -> 1; below
    specfun.BETA_MIN sin(beta*theta) underflows to 0, and such beta raise.

    For beta = 1 the law is the point mass at 1.  The random stream is
    advanced by the same amount (2n variates) in both branches so that
    downstream draws do not depend on beta.

    The expression is evaluated in the buffers of u and w plus one more,
    each operation the one the written-out formula would apply to the same
    operands, so the draws keep their bits; n < 0 raises DomainError.
    """
    check_beta("sample_y_beta_array", beta)
    if n < 0:
        raise DomainError(f"sample_y_beta_array requires n >= 0, got n = {n}")
    u = rng.random(n)
    w = rng.standard_exponential(n)
    if beta == 1.0:
        return np.ones(n)
    # theta = pi * u in u; keep u strictly inside (0,1), since rng.random
    # can return exactly 0.0
    theta = np.maximum(u, 1e-300, out=u)
    theta *= math.pi
    b = 1.0 - beta
    # w^(1-beta) sin(theta)
    w **= b
    t = np.sin(theta)
    w *= t
    # sin(beta*theta)^beta sin((1-beta)*theta)^(1-beta), theta dies last
    np.multiply(theta, beta, out=t)
    np.sin(t, out=t)
    t **= beta
    theta *= b
    np.sin(theta, out=theta)
    theta **= b
    t *= theta
    w /= t
    return w
