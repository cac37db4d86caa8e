"""Validated categorical distributions over ordered classes.

Classes are indexed 1..K in rank order (e.g. worst to best). A distribution
is a float64 array whose last axis is the classes: one pair is two (K,)
arrays, a table of cases is one (cases, K) array. validate() and
from_votes() check one row and return it as a read-only (K,) array, so
downstream code can assume a clean simplex point. The table loader reads a
row as the same floats (its cells or its _vote_shares) and checks each row
as it is read by the same rule, _checked_total.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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


def _check_ids(name: str, ids) -> None:
    """Reject ids that are not unique strings."""
    if not all(isinstance(i, str) for i in ids):
        raise OutOfRange(f"{name} must be strings")
    if len(set(ids)) != len(ids):
        raise OutOfRange(f"{name} must be unique")


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
    for i, c in enumerate(counts, start=1):
        if c != int(c):
            raise NegativeProbability(f"class {i} has non-integer vote count {c!r}")
        if c < 0:
            raise NegativeProbability(f"class {i} has negative vote count {c}")
    total = sum(counts)
    if total == 0:
        raise AllZeroVotes("all vote counts are zero")
    return [float(c / total) for c in counts]


def validate(raw: Iterable[float]) -> np.ndarray:
    """Check raw probabilities and return them as a normalized read-only (K,) array.

    Requirements: at least two classes, no negative entry, total within
    SUM_TOLERANCE of 1. The stored values are divided by the actual total.
    """
    return _frozen(_normalized([float(p) for p in raw]))


def from_votes(counts: Sequence[int]) -> np.ndarray:
    """Turn per-class vote counts (non-negative integers) into a read-only (K,) array."""
    return _frozen(_normalized(_vote_shares(tuple(counts))))
