"""Exception types shared across the package.

Everything derives from ``QetError`` (a ``ValueError``), so callers that do
not care about the precise failure mode can catch a single class.
"""


class QetError(ValueError):
    """Base class for all validation and capacity errors raised here."""


class NonPositiveCoupling(QetError):
    """h or k violates the positivity the model requires."""


class TooFewQubits(QetError):
    """The model needs at least two qubits."""


class OracleCapExceeded(QetError):
    """A brute-force statevector path was asked to exceed its size cap."""


class DimensionMismatch(QetError):
    """Operator and state sizes are incompatible."""


class NoConvergence(QetError):
    """An iterative eigensolver stopped before it converged."""


class InvalidPartition(QetError):
    """Output-qubit set is not a valid bi-partition of 1..N."""


class BellUndefinedForN2(QetError):
    """The Bell value formula needs N >= 3."""


class AngleOutOfRange(QetError):
    """GHZ mixing angle outside [0, pi/4]."""


class NonPositiveRatio(QetError):
    """k/h ratio must be strictly positive for this computation."""


class InvalidRange(QetError):
    """A sweep range is malformed or out of the supported domain."""


class UnknownFigure(QetError):
    """Figure dataset name not recognized."""
