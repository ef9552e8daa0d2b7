"""Exception types shared across the package."""


class NotHermitian(ValueError):
    """Matrix fails the Hermiticity tolerance."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class OutOfRange(ValueError):
    """Scalar argument lies outside its admissible interval."""


class InfeasiblePoint(ValueError):
    """(epsilon, c22) pair violates the positivity interval."""


class NotPositive(ValueError):
    """Constructed operator has a negative eigenvalue."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NotNormalized(ValueError):
    """Entries do not form a probability distribution."""


class NoSignChange(RuntimeError):
    """Root-finding bracket has the same sign at both ends."""
