"""The package's input rules: one for counts, sizes and orders; one for real numbers, by dtype and entries."""

from __future__ import annotations

import operator

import numpy as np

_NOT_REAL = frozenset({bool, np.bool_, str, np.str_, bytes, np.bytes_, type(None)})
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
    """``x``, of any shape, as a float64 ndarray (``x`` itself if it is one); a ValueError for a
    dtype not int, float or object, ragged lists, an object entry numpy cannot cast to float, or,
    unless ``x`` is a non-object ndarray, a _NOT_REAL or refused 0-d array entry."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind == "O" or not isinstance(x, np.ndarray):  # numpy casts True, "1", None
            types = set(map(type, entries := np.asarray(x, dtype=object).ravel()))
            if np.ndarray in types:  # numpy keeps a 0-d array in a list whole: it is judged alone
                for entry in filter(lambda v: type(v) is np.ndarray, entries):
                    real_array(entry, name)
            if not _NOT_REAL.isdisjoint(types):
                raise TypeError
        if arr.dtype.kind not in "iufO":
            raise TypeError
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be real numbers, got {x!r}") from None
