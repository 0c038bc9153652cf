"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Input violates a documented precondition (shape, family, level, ...)."""


class DegeneracyError(ValueError):
    """Numerically dependent data: singular Gram matrix or non-faithful state."""


class PreconditionError(ValueError):
    """A mathematical hypothesis of the requested operation is not met."""


class UnsupportedError(ValueError):
    """Requested mode exceeds the supported problem size or configuration."""


class WindowTooSmallError(PreconditionError):
    """Group-window radius cannot accommodate the element's support."""


class NoUnitaryError(ValueError):
    """The candidate map does not define an isometry of the representation space."""


class AmbiguousVerdictError(RuntimeError):
    """Commutation residual falls inside the guard band between pass and fail.

    ``residual`` is the residual and ``guard_band`` the (low, high) band it fell in.
    """

    def __init__(self, message: str, residual: float, guard_band: tuple):
        super().__init__(message)
        self.residual = residual
        self.guard_band = guard_band


class UnboundedObjectiveError(RuntimeError):
    """Objective increases along a direction with vanishing constraint norm."""
