"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid user input or a structurally inconsistent object."""


class ConsistencyError(RuntimeError):
    """Independent computation paths disagreed beyond tolerance.

    Raised when the closed-form path and the brute-force oracle produce
    irreconcilable numbers; this always indicates a bug, never bad input.
    """
