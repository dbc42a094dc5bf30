"""Exception types and the integer check shared across the library."""

import numbers


class SizeLimitError(ValueError):
    """An operation would exceed the configured dense-dimension cap."""


class ValidationError(ValueError):
    """An operator or state fails a numerical validity check."""


def as_int(value, name: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is a Python or numpy integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
