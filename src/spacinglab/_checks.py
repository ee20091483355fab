"""The package's input rules: one for counts, sizes and orders, and one for real arrays."""

from __future__ import annotations

import operator

import numpy as np

# the most float64 values one array can hold: numpy refuses a size whose byte count overflows intp
_MAX_FLOAT64S = np.iinfo(np.intp).max // 8


def count(value, name: str, lowest: int | None = None) -> int:
    """``value`` as an int (>= ``lowest`` if given); a bool, float or other non-integral type is a ValueError.

    numpy integers pass; 2.5 and 2.0 alike are refused rather than truncated.
    """
    try:
        if isinstance(value, bool):  # numpy's bool_ has no __index__ and fails below
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if lowest is not None and value < lowest:
        raise ValueError(f"{name} must be >= {lowest}")
    return value


def float64_count(value, name: str, lowest: int | None = None) -> int:
    """:func:`count` for the length of a float64 array: a MemoryError, before anything
    is allocated, when no array can hold that many float64 values."""
    value = count(value, name, lowest)
    if value > _MAX_FLOAT64S:
        raise MemoryError(f"{name}: {value} float64 values exceed the largest possible array")
    return value


def real_array(x, name: str) -> np.ndarray:
    """``x``, of any shape, as a float64 ndarray (``x`` itself if it is one); a ValueError for a bool,
    complex, str, bytes, date, time or void dtype, an object entry numpy cannot cast, or ragged lists."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind not in "iufO":
            raise TypeError
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be real numbers, got {x!r}") from None
