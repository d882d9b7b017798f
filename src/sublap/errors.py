"""Exception types shared across the package."""


class SublapError(Exception):
    """Base class for all package errors."""


class ValidationError(SublapError, ValueError):
    """A parameter or input is outside its admissible window."""


class QuadratureError(SublapError, RuntimeError):
    """A quadrature did not meet its error target."""


class ConvergenceError(SublapError, RuntimeError):
    """An iterative procedure failed to converge (root finding, fixed-point
    iteration)."""


class InternalInvariantError(SublapError, AssertionError):
    """A mathematical invariant that should hold by construction was violated.

    Raised e.g. when a step of the sublinear iteration from the lower
    envelope lowers the iterate, which indicates a bug rather than bad data.
    """
