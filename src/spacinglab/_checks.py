"""The one integer rule for counts, sizes and orders across the package."""

from __future__ import annotations

import operator


def count(value, name: str, lowest: int | None = None) -> int:
    """``value`` as an int (>= ``lowest`` if given); a float or other non-integral type is a ValueError.

    numpy integers pass; 2.5 and 2.0 alike are refused rather than truncated.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if lowest is not None and value < lowest:
        raise ValueError(f"{name} must be >= {lowest}")
    return value
