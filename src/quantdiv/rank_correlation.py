"""Kendall rank correlation with tie-aware guards and confidence intervals.

tau_b follows the tie-adjusted definition with a max(1, .) guard in the
denominator so fully tied lists give 0 instead of dividing by zero. Pairs
tied in either list (absolute difference <= tie_eps) are excluded from the
concordance counts. pair_counts, tau_b and tau_plain also take stacked
(..., n) arrays and then give one result per row of the last axis, which is
how the batch DNKT and the split-half trials use them; pair_counts alone
broadcasts them, into the two (rows, n) arrays of one kernels.pair_stats call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .distributions import _check_confidence, _checked_array, _checked_integer, _checked_number
from .errors import LengthMismatch, OutOfRange, TooShort

# Two aligned lists, or two stacked (..., n) arrays.
Lists = Sequence[float] | np.ndarray


@dataclass(frozen=True)
class PairCounts:
    """Pair tallies over all index pairs i < j of two aligned lists.

    For stacked inputs each tally is an integer array with one entry per row
    (tied_x and tied_y per row of x and of y).
    """

    conc: int | np.ndarray
    disc: int | np.ndarray
    tied_x: int | np.ndarray
    tied_y: int | np.ndarray
    n: int

    @property
    def total_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def not_tied_x(self) -> int | np.ndarray:
        return self.total_pairs - self.tied_x

    @property
    def not_tied_y(self) -> int | np.ndarray:
        return self.total_pairs - self.tied_y


@dataclass(frozen=True)
class TauResult:
    """A tau with its confidence interval; checked when built.

    tau and both bounds are Python floats in [-1, 1], with ci_low <= tau <= ci_high;
    n is a Python int >= 3. Both follow the value rules in distributions.
    """

    tau: float
    ci_low: float
    ci_high: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _checked_integer("n", self.n, 3))
        for name in ("tau", "ci_low", "ci_high"):
            object.__setattr__(self, name, _checked_number(name, getattr(self, name), -1.0, 1.0))
        if not self.ci_low <= self.tau <= self.ci_high:
            raise OutOfRange(
                f"need ci_low <= tau <= ci_high, got {self.ci_low!r}, {self.tau!r}, {self.ci_high!r}"
            )


def _as_arrays(xs: Lists, ys: Lists) -> tuple[np.ndarray, np.ndarray]:
    """Two lists, or stacked (..., n) arrays whose leading axes broadcast, of finite numbers."""
    x, y = (_checked_array("inputs", v, -math.inf, math.inf) for v in (xs, ys))
    if x.ndim == 0 or y.ndim == 0:
        raise OutOfRange("inputs must be sequences")
    if x.shape[-1] != y.shape[-1]:
        raise LengthMismatch(f"lists have lengths {x.shape[-1]} and {y.shape[-1]}")
    try:
        np.broadcast_shapes(x.shape, y.shape)
    except ValueError:
        raise LengthMismatch(f"stacked shapes {x.shape} and {y.shape} do not broadcast") from None
    return x, y


def _scalar_or_array(value: np.ndarray) -> float | np.ndarray:
    return value if np.ndim(value) else float(value)


def pair_counts(xs: Lists, ys: Lists, tie_eps: float = 0.0) -> PairCounts:
    """Tally concordant/discordant/tied pairs of two aligned lists.

    Stacked (..., n) arrays are tallied row by row along the last axis.
    """
    tie_eps = _checked_number("tie_eps", tie_eps, 0.0, math.inf)
    x, y = _as_arrays(xs, ys)
    n = x.shape[-1]
    if n < 2:
        raise TooShort(f"need at least 2 items, got {n}")
    shape = np.broadcast_shapes(x.shape, y.shape)
    # reshape copies only a list whose rows broadcast but do not flatten.
    counts = kernels.pair_stats(*[np.broadcast_to(v, shape).reshape(-1, n) for v in (x, y)], tie_eps)
    if x.ndim == y.ndim == 1:
        return PairCounts(*[int(c[0]) for c in counts], n=n)
    conc, disc, tied_x, tied_y = [c.reshape(shape[:-1]) for c in counts]
    return PairCounts(conc, disc, _own_rows(tied_x, x, tie_eps), _own_rows(tied_y, y, tie_eps), n=n)


def _own_rows(count: np.ndarray, v: np.ndarray, tie_eps: float) -> np.ndarray | np.integer:
    """count over the broadcast rows, cut to v's own rows: all agree where v broadcasts."""
    own = v.shape[:-1]
    if count.size == 0 and v.size:  # no broadcast rows to cut: v's rows are counted alone
        count = kernels.pair_stats(*[v.reshape(-1, v.shape[-1])] * 2, tie_eps)[2].reshape(own)
    index = [slice(size) for size in (1,) * (count.ndim - len(own)) + own]
    return count[tuple(index)].reshape(own)[()]  # [()]: a numpy integer for 1-D v


def tau_b(xs: Lists, ys: Lists, tie_eps: float = 0.0) -> float | np.ndarray:
    """Tie-adjusted Kendall correlation in [-1, 1]; 0 when a list is fully tied.

    tau_b = (conc - disc) / sqrt(max(1, notTied_x) * max(1, notTied_y)),
    where notTied counts pairs not tied in that list. The single sqrt over
    the product keeps tau exactly +-1 for perfect agreement/reversal.
    Stacked (..., n) inputs give an array of one tau per row.
    """
    c = pair_counts(xs, ys, tie_eps)
    denom = np.sqrt(np.maximum(1, c.not_tied_x) * np.maximum(1, c.not_tied_y))
    return _scalar_or_array((c.conc - c.disc) / denom)


def tau_plain(xs: Lists, ys: Lists) -> float | np.ndarray:
    """Unadjusted Kendall correlation: (conc - disc) / (n (n - 1) / 2).

    Stacked (..., n) inputs give an array of one tau per row.
    """
    c = pair_counts(xs, ys, tie_eps=0.0)
    return _scalar_or_array((c.conc - c.disc) / c.total_pairs)


def tau_with_ci(
    xs: Sequence[float], ys: Sequence[float], confidence: float = 0.95
) -> TauResult:
    """tau_b (ties at exact equality) with a Fisher-transformed interval.

    The interval is tanh(artanh(tau) +- z * sqrt(0.437 / (n - 4))), the
    Fieller-Hartley-Pearson approximation for Kendall correlations. |tau| = 1
    collapses to the degenerate interval [tau, tau]; for n <= 4 the variance
    term is undefined and the interval falls back to [-1, 1].

    z comes from statistics.NormalDist, imported here: with the fractions and
    decimal modules it pulls in, it costs a command about 3 ms, and only
    agreement() needs it.
    """
    from statistics import NormalDist

    level = _check_confidence(confidence)
    x, y = _as_arrays(xs, ys)
    if x.ndim != 1 or y.ndim != 1:
        raise OutOfRange("inputs must be one-dimensional sequences")
    n = x.shape[0]
    if n < 3:
        raise TooShort(f"need at least 3 items, got {n}")
    tau = tau_b(x, y, tie_eps=0.0)
    if tau >= 1.0:
        return TauResult(tau=1.0, ci_low=1.0, ci_high=1.0, n=n)
    if tau <= -1.0:
        return TauResult(tau=-1.0, ci_low=-1.0, ci_high=-1.0, n=n)
    if n <= 4:
        return TauResult(tau=tau, ci_low=-1.0, ci_high=1.0, n=n)
    z = NormalDist().inv_cdf(level)
    half_width = z * math.sqrt(0.437 / (n - 4))
    zt = math.atanh(tau)
    # A tiny half width can round the interval past tau; the bounds are clamped to contain it.
    return TauResult(
        tau=tau,
        ci_low=min(math.tanh(zt - half_width), tau),
        ci_high=max(math.tanh(zt + half_width), tau),
        n=n,
    )
