"""Exception types shared across the package."""


class FrameError(Exception):
    """Base class for all framegs errors."""


class DimensionMismatchError(FrameError):
    """Operands have incompatible dimensions or scalar fields."""


class NonFiniteError(FrameError):
    """A NaN or infinity entered or left a numerical operation."""


class JacobiConvergenceError(FrameError):
    """Eigensolver sweep limit reached before the off-diagonal mass
    dropped below threshold."""
