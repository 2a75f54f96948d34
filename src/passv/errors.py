"""Exception types shared across the package, and the one memory budget."""

MEMORY_LIMIT = 400_000_000  # bytes that a state, or a drawn network, may hold


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition or invariant."""


class SizeLimitError(RuntimeError):
    """Raised when a request exceeds a built-in cost or memory guard."""
