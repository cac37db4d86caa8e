"""Validated categorical distributions over ordered classes.

Classes are indexed 1..K in rank order (e.g. worst to best). A Distribution
stores the probability of each class; construction goes through validate()
or from_votes() so downstream code can assume a clean simplex point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import AllZeroVotes, LengthMismatch, NegativeProbability, NotNormalized, TooFewClasses

# Absolute slack allowed on sum(probs) == 1 before rejecting; inputs inside
# the slack are renormalized so stored values sum to 1 up to float rounding.
SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Distribution:
    """Probability per class, classes implicitly indexed 1..K."""

    probs: tuple[float, ...]

    @property
    def num_classes(self) -> int:
        return len(self.probs)

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class GoldSupport:
    """1-based indices of the classes a gold distribution puts mass on."""

    indices: frozenset[int]

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(sorted(self.indices))


def validate(raw: Iterable[float]) -> Distribution:
    """Check raw probabilities and return a normalized Distribution.

    Requirements: at least two classes, no negative entry, total within
    SUM_TOLERANCE of 1. The stored values are divided by the actual total.
    """
    probs = tuple(float(p) for p in raw)
    if len(probs) < 2:
        raise TooFewClasses(f"need at least 2 classes, got {len(probs)}")
    for i, p in enumerate(probs, start=1):
        if p < 0.0 or math.isnan(p):
            raise NegativeProbability(f"class {i} has probability {p}")
    total = math.fsum(probs)
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise NotNormalized(f"probabilities sum to {total!r}")
    return Distribution(tuple(p / total for p in probs))


def from_votes(counts: Sequence[int]) -> Distribution:
    """Turn per-class vote counts (non-negative integers) into a Distribution."""
    counts = tuple(counts)
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
    return validate(c / total for c in counts)


def cumulative(d: Distribution) -> tuple[float, ...]:
    """Prefix sums of the class probabilities; final entry is 1 up to rounding."""
    out = []
    acc = 0.0
    for p in d.probs:
        acc += p
        out.append(acc)
    return tuple(out)


def gold_support(d: Distribution) -> GoldSupport:
    """Indices of classes with strictly positive probability."""
    return GoldSupport(frozenset(i for i, p in enumerate(d.probs, start=1) if p > 0.0))


def stack_probs(dists: Sequence[Distribution]) -> np.ndarray:
    """The distributions as a read-only (len(dists), K) float array."""
    k = len(dists[0]) if dists else 0
    if any(len(d) != k for d in dists):
        raise LengthMismatch("distributions differ in their number of classes")
    out = np.fromiter(chain.from_iterable(d.probs for d in dists), np.float64, len(dists) * k)
    out = out.reshape(len(dists), k)
    out.setflags(write=False)
    return out
