"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when input cannot be parsed into the documented structures."""


class DomainError(ValueError):
    """Raised when structurally valid input violates a documented precondition."""
