"""Model parameter triple (beta, alpha, dim) with admissibility checks."""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import DomainError


@dataclass(frozen=True)
class ModelParams:
    """The parameter triple of the process family.

    beta in (0, 1], alpha in (0, 2], dim >= 1.  ``green_exists`` tells
    whether the closed-form Green measure applies: d*alpha > 2, and
    alpha > 1 when beta < 1, where E[Y^(-1/alpha)] = Gamma(1 - 1/alpha) /
    Gamma(1 - beta/alpha) is finite.  At beta = 1 the process is fBm, Y = 1,
    and d*alpha > 2 alone makes int^inf t^(-d alpha/2) dt finite; the
    Brownian point beta = alpha = 1, d >= 3, is one case of it.
    """

    beta: float
    alpha: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise DomainError(f"requires 0 < beta <= 1, got beta = {self.beta:g}")
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"requires 0 < alpha <= 2, got alpha = {self.alpha:g}")
        if self.dim < 1 or int(self.dim) != self.dim:
            raise DomainError(f"requires integer dim >= 1, got dim = {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def hurst(self) -> float:
        return 0.5 * self.alpha

    @property
    def green_exists(self) -> bool:
        return self.failed_green_constraint() is None

    def failed_green_constraint(self) -> str | None:
        """The first violated admissibility inequality of the Green measure,
        or None when it exists.  This is the one statement of the rule.
        """
        if self.beta < 1.0 and not self.alpha > 1.0:
            return f"requires alpha > 1 when beta < 1 (got alpha = {self.alpha:g})"
        if self.dim * self.alpha <= 2.0:
            return f"requires d*alpha > 2 (got d*alpha = {self.dim * self.alpha:g})"
        return None
