"""Exception types raised across the package."""


class DelaySyncError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionMismatch(DelaySyncError):
    """Operands have incompatible or unexpected shapes."""


class SingularMatrix(DelaySyncError):
    """Elimination hit a pivot below the singularity floor."""


class NotSymmetric(DelaySyncError):
    """A routine requiring a symmetric matrix got an asymmetric one."""


class NotPositiveDefinite(DelaySyncError):
    """A matrix required to be positive definite has a smallest eigenvalue <= 0."""


class NotHurwitz(DelaySyncError):
    """A system matrix expected to be Hurwitz is not."""


class UnbalancedTopology(DelaySyncError):
    """Combined follower plus leader weights of some agent do not sum to one."""


class FutureQuery(DelaySyncError):
    """A history buffer was asked for a time past its newest sample."""


class ExpiredQuery(DelaySyncError):
    """A history buffer was asked for a time older than the samples it keeps."""


class NonFiniteState(DelaySyncError):
    """Integration produced NaN or Inf in the state vector."""


class NoMatchingSolution(DelaySyncError):
    """An agent cannot be matched to the leader model within tolerance."""


class SingularWeight(DelaySyncError):
    """A reference-gain weight is too close to zero to invert."""


class DivergenceDetected(DelaySyncError):
    """The simulated fleet state left the plausible range."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class EmptyTrace(DelaySyncError):
    """Metrics were requested for a trace with no rows."""


class ParseError(DelaySyncError):
    """A scenario file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(DelaySyncError):
    """A scenario violates a structural or semantic invariant.

    ``failed`` carries the failed structural checks (``CheckResult``) when
    the error comes from the validation gate of a run; it is empty otherwise.
    """

    def __init__(self, message: str, failed: tuple = ()):
        super().__init__(message)
        self.failed = tuple(failed)


class TraceTooLarge(DelaySyncError):
    """A run would record more data than the configured memory ceiling."""

