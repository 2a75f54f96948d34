"""Exception types shared across the package, and the one memory budget and its guard."""

MEMORY_LIMIT = 400_000_000  # bytes that a state, a drawn network or a CLI record may hold


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition or invariant."""


class SizeLimitError(RuntimeError):
    """Raised when a request exceeds a built-in cost or memory guard."""


def check_memory(needed: int, what: str, advice: str = "") -> None:
    """Refuse ``what``, counted at ``needed`` bytes, when that is over MEMORY_LIMIT."""
    if needed > MEMORY_LIMIT:
        raise SizeLimitError(f"{what} needs {needed} bytes, "
                             f"over the {MEMORY_LIMIT} byte limit{advice}")
