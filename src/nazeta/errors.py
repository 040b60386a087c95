"""Exception types shared across the library."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class ValidationError(DomainError):
    """Structured data failed an invariant check; message names the identity."""


class PoleError(DomainError):
    """Evaluation requested at a pole of a rational function."""


class CapabilityError(DomainError):
    """Request exceeds a documented size or type cap."""


class BoundError(DomainError):
    """An exponent or degree would exceed the safety bound."""


class NumericError(RuntimeError):
    """A floating-point routine failed to converge.

    ``partial`` carries whatever approximations were obtained before the
    iteration cap was hit.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
