"""Validated categorical distributions over ordered classes, and the value rules.

Classes are indexed 1..K in rank order (e.g. worst to best). A distribution
is a float64 array whose last axis is the classes: one pair is two (K,)
arrays, a table of cases is one (cases, K) array. validate() and
from_votes() check one row and return it as a read-only (K,) array, so
downstream code can assume a clean simplex point. The table loader reads a
row as the same floats (its cells or its _vote_shares) and checks each row
as it is read by the same rule, _checked_total.

It is also the one home of the value rules that public functions apply to
their arguments; each returns the Python int, float or float64 array it
accepts, and no bool, str or complex passes any of them. The members rule
returns ids and measures as a tuple of distinct values of one type.
"""

from __future__ import annotations

import math
import numbers
import operator
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import AllZeroVotes, NegativeProbability, NotNormalized, OutOfRange, TooFewClasses

# Absolute slack allowed on sum(probs) == 1 before rejecting; inputs inside
# the slack are renormalized so stored values sum to 1 up to float rounding.
SUM_TOLERANCE = 1e-9


def _frozen(values) -> np.ndarray:
    """values (a row, or a list of rows) as a read-only float64 array.

    A read-only float64 array that owns its data is returned as it is, so a
    grid built for one holder is held once. Anything else is copied: a
    writable array, or a read-only view whose base someone may still write.
    """
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.base is None
        and not values.flags.writeable
    ):
        return values
    out = np.array(values, dtype=np.float64)
    out.setflags(write=False)
    return out


def _fields_equal(a, b) -> bool:
    """Field-by-field equality of two instances of one dataclass; arrays by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(vars(a).values(), vars(b).values())
    )


def _outside(low: float, high: float, least, most, open: bool = False) -> str:
    """[low, high] ((low, high) if open) as text, or "" if finite least..most lie inside it."""
    within = low < least and most < high if open else low <= least and most <= high
    if within and -math.inf < least and most < math.inf:
        return ""
    left, right = "(" if open or low == -math.inf else "[", ")" if open or high == math.inf else "]"
    return f"{left}{low:g}, {high:g}{right}"


def _checked_integer(name: str, value, low: int | None = None, error=OutOfRange) -> int:
    """value as a Python int (what operator.index takes, but not a bool), at least low if given."""
    try:
        if not isinstance(value, bool) and (low is None or operator.index(value) >= low):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")


def _checked_number(name: str, value, low: float, high: float, open: bool = False) -> float:
    """value as a Python float within _outside's bounds: a numbers.Real that is not a bool."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if interval := _outside(low, high, number, number, open):
        raise OutOfRange(f"{name} must be a number in {interval}, got {value!r}")
    return number


def _check_confidence(confidence) -> float:
    """0.5 + confidence / 2, the normal CDF level of a two-sided interval's z.

    confidence must be a number in (0, 1); the largest float below 1 is
    refused too, because its level rounds to 1, where the quantile is infinite.
    """
    confidence = _checked_number("confidence", confidence, 0.0, 1.0, open=True)
    level = 0.5 + confidence / 2.0
    if level >= 1.0:
        raise OutOfRange(f"confidence {confidence!r} is too close to 1: 0.5 + confidence / 2 rounds to 1")
    return level


def _checked_member(name: str, value, kind: type):
    """value if it is a kind, such as a MeasureId (a plain "NMD" is not one)."""
    if not isinstance(value, kind):
        raise OutOfRange(f"{name} {value!r} is not a {kind.__name__}")
    return value


def _checked_members(name: str, items, kind: type) -> tuple:
    """items as a tuple of distinct kinds; a bare str is one value, not a collection of them.

    One isinstance pass and one set; the items are walked again only to name
    the first offender: an item that is not a kind, or one listed before.
    """
    if isinstance(items, str) or not np.iterable(items):
        raise OutOfRange(f"{name}s must be a collection of {kind.__name__}, got {items!r}")
    items = tuple(items)
    if not all(isinstance(item, kind) for item in items) or len(set(items)) != len(items):
        seen = set()
        for item in items:
            if _checked_member(name, item, kind) in seen:
                label = item.value if isinstance(item, Enum) else repr(item)
                raise OutOfRange(f"{name} {label} is listed twice")
            seen.add(item)
    return items


def _checked_array(name: str, values, low: float | None = None, high: float | None = None) -> np.ndarray:
    """values as a float64 array (not copied if it is one) of an integer or float dtype, not bool.

    With bounds, min and max go through _outside: NaN fails, and no temporary is made.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nesting
        array = np.asarray(None)
    if array.dtype.kind not in "iuf":
        raise OutOfRange(f"{name} must be numbers, got a {array.dtype} array")
    array = array.astype(np.float64, copy=False)
    if low is not None and array.size and (interval := _outside(low, high, array.min(), array.max())):
        raise OutOfRange(f"{name} must be numbers in {interval}")
    return array


def _checked_total(row: Sequence[float]) -> float:
    """The exact total of a row that passes validate()'s check, else that check's error.

    A row passes with at least 2 classes, no negative entry and a total within
    SUM_TOLERANCE of 1; a NaN entry, which min() can skip, fails the total.
    A row that fails is walked in class order to name its first bad class.
    """
    if len(row) < 2:
        raise TooFewClasses(f"need at least 2 classes, got {len(row)}")
    try:
        total = math.fsum(row)
    except (ValueError, OverflowError):  # inf - inf, or a sum beyond the float range
        total = math.inf
    if min(row) >= 0.0 and abs(total - 1.0) <= SUM_TOLERANCE:
        return total
    for i, p in enumerate(row, start=1):
        if p < 0.0 or math.isnan(p):
            raise NegativeProbability(f"class {i} has probability {p}")
    raise NotNormalized(f"probabilities sum to {total!r}")


def _normalized(probs: list[float]) -> list[float]:
    """probs checked as validate() documents, each divided by their exact total."""
    total = _checked_total(probs)
    return [p / total for p in probs]


def _vote_shares(counts: Sequence[int]) -> list[float]:
    """Vote counts checked as from_votes() documents, each divided by their exact total."""
    if len(counts) < 2:
        raise TooFewClasses(f"need at least 2 classes, got {len(counts)}")
    counts = [
        _checked_integer(f"class {i} vote count", c, 0, NegativeProbability)
        for i, c in enumerate(counts, start=1)
    ]
    total = sum(counts)
    if total == 0:
        raise AllZeroVotes("all vote counts are zero")
    return [float(c / total) for c in counts]


def validate(raw: Iterable[float]) -> np.ndarray:
    """Check raw probabilities and return them as a normalized read-only (K,) array.

    Requirements: one row of numbers, at least two classes, no negative entry,
    total within SUM_TOLERANCE of 1. The stored values are divided by the actual total.
    """
    row = _checked_array("probabilities", list(raw) if isinstance(raw, Iterator) else raw)
    if row.ndim != 1:
        raise OutOfRange(f"probabilities must be one (K,) row, got shape {row.shape}")
    return _frozen(_normalized(row.tolist()))


def from_votes(counts: Iterable[int]) -> np.ndarray:
    """Turn per-class vote counts (non-negative integers) into a read-only (K,) array."""
    return _frozen(_normalized(_vote_shares(tuple(counts) if np.iterable(counts) else (counts,))))
