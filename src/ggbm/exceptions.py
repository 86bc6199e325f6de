"""Exception hierarchy shared by all ggbm modules."""


class GgbmError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GgbmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class ConvergenceError(GgbmError, RuntimeError):
    """Neither series nor integral representation reached the tolerance."""


class EmbeddingError(GgbmError, RuntimeError):
    """Circulant embedding produced negative eigenvalues."""


class SingularMatrixError(GgbmError, ValueError):
    """A covariance matrix required to be invertible is numerically singular."""
