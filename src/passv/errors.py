"""Exception types shared across the package, and the one memory budget and its guard."""

MEMORY_LIMIT = 400_000_000  # bytes that a state, a table, a drawn network or a CLI record may hold
# Modules and library code that a process's first op maps beside its arrays
# (numpy.random for the draw among them): max RSS rose 7.4 to 8.3 MiB for a
# one-photon network op at r = 0.1, m = 1 to 4, and 8.0 MiB for a first
# sample-fock of a two-outcome table.
FIRST_OP_BYTES = 12 << 20


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition or invariant."""


class SizeLimitError(RuntimeError):
    """Raised when a request exceeds a built-in cost or memory guard."""


def check_memory(needed: int, what: str, advice: str = "") -> None:
    """Refuse ``what``, counted at ``needed`` bytes, when that is over MEMORY_LIMIT."""
    if needed > MEMORY_LIMIT:
        raise SizeLimitError(f"{what} needs {needed} bytes, "
                             f"over the {MEMORY_LIMIT} byte limit{advice}")
