"""Validated categorical distributions over ordered classes, and the value rules.

Classes are indexed 1..K in rank order (e.g. worst to best). A distribution
is a float64 array whose last axis is the classes: one pair is two (K,)
arrays, a table of cases is one (cases, K) array. validate() and
from_votes() check one row and return it as a read-only (K,) array, so
downstream code can assume a clean simplex point. The table loader reads a
row as the same floats (its cells or its _vote_shares), checks it by the
same rule, _checked_total, and divides by that total in one numpy division,
as they do. Dataset and SystemRun each hold a table of rows.

It is also the one home of the value rules that public functions apply to
their arguments; each returns the Python int, float or float64 array it
accepts, and no bool, str or complex passes any of them. The items rule
returns a collection as a tuple of values of one type, and the members
rule returns ids and measures as a tuple of distinct ones.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import AllZeroVotes, LengthMismatch, NegativeProbability, NotNormalized, OutOfRange
from .errors import TooFewClasses

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


def _checked_items(name: str, items, kind: type = object) -> tuple:
    """items as a tuple of kinds (any by default); a bare str is one value, not a collection.

    One isinstance pass; the items are walked again only to name the first that is not a kind.
    """
    if isinstance(items, str) or not np.iterable(items):
        of_kind = "" if kind is object else f" of {kind.__name__}"
        raise OutOfRange(f"{name}s must be a collection{of_kind}, got {items!r}")
    items = tuple(items)
    if not all(isinstance(item, kind) for item in items):
        for item in items:
            _checked_member(name, item, kind)
    return items


def _checked_members(name: str, items, kind: type) -> tuple:
    """_checked_items of distinct kinds, by one set; walked again only to name a repeat."""
    items = _checked_items(name, items, kind)
    if len(set(items)) != len(items):
        seen = set()
        for item in items:
            if item in seen:
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


def _plain_counts(counts: Sequence) -> bool:
    """True if every count is a plain int >= 0, which _checked_integer(..., 0) returns as it is.

    The one pass a count check makes on loaded votes; only counts that fail
    it (a bool, a numpy int, a negative or a non-integer) are walked again
    by _checked_integer, which converts them or names the first bad one.
    """
    return all(type(c) is int and c >= 0 for c in counts)


def _vote_shares(counts: Sequence[int]) -> list[float]:
    """Vote counts checked as from_votes() documents, each divided by their exact total."""
    if len(counts) < 2:
        raise TooFewClasses(f"need at least 2 classes, got {len(counts)}")
    if not _plain_counts(counts):
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
    row = row / _checked_total(row.tolist())  # a fresh array, so _frozen's copy is not needed
    row.setflags(write=False)
    return row


def from_votes(counts: Iterable[int]) -> np.ndarray:
    """Turn per-class vote counts (non-negative integers) into a read-only (K,) array."""
    shares = _vote_shares(tuple(counts) if np.iterable(counts) else (counts,))
    row = np.divide(shares, _checked_total(shares))
    row.setflags(write=False)
    return row


@dataclass(frozen=True, eq=False)
class Dataset:
    """Gold distributions as one (cases, K) array; votes kept when loaded from counts."""

    case_ids: tuple[str, ...]
    class_labels: tuple[str, ...]
    gold: np.ndarray  # stored read-only; any (cases, K) rows are accepted
    votes: tuple[tuple[int, ...], ...] | None = None  # Python ints: counts may exceed int64

    def __post_init__(self):
        object.__setattr__(self, "case_ids", _checked_members("case id", self.case_ids, str))
        object.__setattr__(self, "class_labels", _checked_members("class label", self.class_labels, str))
        n, k = len(self.case_ids), len(self.class_labels)
        if k < 2:
            raise TooFewClasses(f"need at least 2 classes, got {k}")
        object.__setattr__(self, "gold", _frozen(_checked_array("gold", self.gold)))
        if self.gold.shape != (n, k):
            raise LengthMismatch(f"gold grid {self.gold.shape} must be {n} cases x {k} classes")
        if self.votes is not None:
            rows = (_checked_items("vote count", row) for row in _checked_items("vote row", self.votes))
            votes = tuple(
                row if _plain_counts(row) else tuple(_checked_integer("vote count", c, 0) for c in row)
                for row in rows
            )
            object.__setattr__(self, "votes", votes)
            if [len(row) for row in votes] != [k] * n:
                raise LengthMismatch(f"votes must hold one row of {k} counts for each of {n} cases")

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class SystemRun:
    """One system's estimated distributions as one (cases, K) array, in dataset order."""

    system_id: str
    est: np.ndarray  # stored read-only; any (cases, K) rows are accepted

    def __post_init__(self):
        _checked_member("system id", self.system_id, str)
        object.__setattr__(self, "est", _frozen(_checked_array("est", self.est)))
        if self.est.ndim != 2:
            raise LengthMismatch(f"est must be a (cases, K) grid, got shape {self.est.shape}")

    __eq__ = _fields_equal
