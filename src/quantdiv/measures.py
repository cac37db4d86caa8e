"""Divergence measures between an estimated and a gold class distribution.

All measures map (est, gold) to a score in [0, 1] where smaller is better.
The ordinal family (NMD, RNOD, RNADW and their gold-mass variants, RSNOD)
penalizes mass placed on classes far from the gold mass; the nominal family
(NVD, RNSS, JSD) ignores class order; DNKT compares only the within-
distribution ranking of the classes, and the hybrid measures blend DNKT with
a distribution-valued measure via a harmonic mean.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

import numpy as np

from .distributions import _checked_array, _checked_member, _checked_total
from .errors import LengthMismatch
from .rank_correlation import tau_b

# Ties between probability bins: two bins count as tied when they differ by
# at most this much, absorbing float noise from vote normalization.
BIN_TIE_EPS = 1e-9

# Every score lies in SCORE_RANGE: [0, 1], with a slack above 1 for float noise.
_RANGE_SLACK = 1e-9
SCORE_RANGE = (0.0, 1.0 + _RANGE_SLACK)


class DistanceScheme(Enum):
    EQUIDISTANT = "equidistant"
    GOLD_MASS = "gold_mass"


class MeasureId(str, Enum):
    NMD = "NMD"
    RNOD = "RNOD"
    RNOD2 = "RNOD2"
    RNADW = "RNADW"
    RNADW2 = "RNADW2"
    RSNOD = "RSNOD"
    NVD = "NVD"
    RNSS = "RNSS"
    JSD = "JSD"
    DNKT = "DNKT"
    DNKT_JSD = "DNKT_JSD"
    DNKT_NMD = "DNKT_NMD"
    DNKT_RNOD = "DNKT_RNOD"


# Default experiment suite; RSNOD is opt-in (near-duplicate of RNOD in
# practice) and the order matches the reporting convention elsewhere.
DEFAULT_SUITE: tuple[MeasureId, ...] = (
    MeasureId.NMD,
    MeasureId.RNADW,
    MeasureId.RNOD,
    MeasureId.RNADW2,
    MeasureId.RNOD2,
    MeasureId.NVD,
    MeasureId.RNSS,
    MeasureId.JSD,
    MeasureId.DNKT,
    MeasureId.DNKT_JSD,
    MeasureId.DNKT_NMD,
    MeasureId.DNKT_RNOD,
)

# Every measure: the standard suite with RSNOD after RNOD2.
_RSNOD_AT = DEFAULT_SUITE.index(MeasureId.RNOD2) + 1
ALL_MEASURES: tuple[MeasureId, ...] = (
    DEFAULT_SUITE[:_RSNOD_AT] + (MeasureId.RSNOD,) + DEFAULT_SUITE[_RSNOD_AT:]
)


# --- the measures ---
#
# Each measure has one implementation, over (..., K) arrays of estimates and
# gold rows that broadcast against each other, e.g. (systems, cases, K)
# against (cases, K); score(), od() and combine_harmonic() apply it to a
# single pair. Sums over the classes go through _fsum_last, which is
# correctly rounded on these short vectors. DNKT broadcasts the two to one
# shape for tau_b, which counts the stacked rows. tests/_oracle.py recomputes
# every measure one pair at a time with plain Python loops, as the
# independent reference.
#
# The RNOD family is one definition, sqrt(mean DW over a set of classes /
# (K - 1)); _root_normalized takes the paper's two design choices (class
# distance scheme; gold support or all classes) as parameters. Every call
# builds one DW grid, RSNOD's included.


def _fsum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis with an error-free TwoSum cascade (Sum2).

    The rounding error of every partial sum is collected and added back at
    the end, which is as accurate as summing in twice float64 precision and
    rounding once: on the short class vectors summed here it equals the
    correctly rounded sum unless the exact sum lies within about
    K^2 * 2^-106 * sum(|x|) of a rounding boundary.
    """
    total = x[..., 0]
    err = np.zeros(total.shape)
    for j in range(1, x.shape[-1]):
        v = x[..., j]
        s = total + v
        bv = s - total
        err += (total - (s - bv)) + (v - bv)
        total = s
    return total + err


def _dw_batch(est: np.ndarray, gold: np.ndarray, scheme: DistanceScheme) -> np.ndarray:
    """Distance-weighted squared error of est around each class i, along the last axis.

    DW_i = sum_j delta(i, j) * (est_j - gold_j)^2, where delta is the
    scheme's class distance |position_i - position_j|. Adds one class j at a
    time into one preallocated (..., K) term, so no (..., K, K) array is
    built and no (..., K) array is allocated per class.
    """
    k = gold.shape[-1]
    diff = est - gold
    if scheme is DistanceScheme.EQUIDISTANT:
        position = np.arange(k, dtype=np.float64)
    else:
        # Gold mass up to each class's midpoint, counting half of its own
        # mass; zero-mass neighbours are therefore distance 0 apart.
        position = np.cumsum(gold, axis=-1) - gold / 2.0
    total = np.zeros(diff.shape)
    term = np.empty(diff.shape)
    for j in range(k):
        d = diff[..., j, None]
        np.multiply(np.abs(position - position[..., j, None]), d, out=term)
        term *= d
        total += term
    return total


def _mean_dw(dw: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Mean of DW over the classes marked True in classes (which broadcasts against dw)."""
    return _fsum_last(np.where(classes, dw, 0.0)) / np.count_nonzero(classes, axis=-1)


def _root_normalized(scheme: DistanceScheme, over_gold_support: bool):
    """RNOD (RNOD2) averages DW over the gold support, RNADW (RNADW2) over all classes.

    The root of that mean over K - 1. The class set and the DistanceScheme
    are the paper's two design choices; the four measures share the rest.
    """

    def measure(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
        classes = gold > 0.0 if over_gold_support else np.ones(gold.shape, dtype=bool)
        return np.sqrt(_mean_dw(_dw_batch(est, gold, scheme), classes) / (gold.shape[-1] - 1))

    return measure


def _rsnod_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Root symmetric NOD: OD averaged over both directions, then normalized.

    With equidistant positions DW is symmetric in (est, gold) bit for bit:
    gold - est is exactly -(est - gold), and each term is (w * d) * d.
    """
    dw = _dw_batch(est, gold, DistanceScheme.EQUIDISTANT)
    mean = (_mean_dw(dw, gold > 0.0) + _mean_dw(dw, est > 0.0)) / 2.0
    return np.sqrt(mean / (gold.shape[-1] - 1))


def _nmd_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Normalized match distance: mean absolute gap of the cumulative curves."""
    k = gold.shape[-1]
    # Both curves end at 1, so the last class is left out.
    gap = np.abs(np.cumsum(est, axis=-1) - np.cumsum(gold, axis=-1))
    return _fsum_last(gap[..., : k - 1]) / (k - 1)


def _nvd_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Normalized variational distance: half the L1 gap."""
    return _fsum_last(np.abs(est - gold)) / 2.0


def _rnss_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Root normalized sum of squares: sqrt of half the squared L2 gap."""
    return np.sqrt(_fsum_last((est - gold) ** 2) / 2.0)


def _kld_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Classes with p_i = 0 get ratio 1, so their term is 0 * log2(1) = 0. So do classes where
    # q_i >= p_i / 2 underflowed to 0: p_i is then a subnormal, and its term below 1e-323.
    ones = np.ones(np.broadcast_shapes(p.shape, q.shape))
    ratio = np.divide(p, q, out=ones, where=(p > 0.0) & (q > 0.0))
    return _fsum_last(p * np.log2(ratio))


def _jsd_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence in bits, bounded by 1."""
    mid = (est + gold) / 2.0
    value = (_kld_batch(est, mid) + _kld_batch(gold, mid)) / 2.0
    # Near-equal inputs can round to about -1e-17; JSD is non-negative.
    return np.maximum(value, 0.0)


def _dnkt_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Divergence from the gold bin ranking: (1 - tau_b) / 2.

    Bins closer than BIN_TIE_EPS count as tied. Fully tied gold (uniform)
    makes tau_b 0, so any estimate scores 0.5 there.
    """
    # broadcast_to, not broadcast_arrays, whose views left up to 4 KB traced per 1,000 calls.
    shape = np.broadcast_shapes(est.shape, gold.shape)
    return (1.0 - tau_b(*[np.broadcast_to(v, shape) for v in (est, gold)], tie_eps=BIN_TIE_EPS)) / 2.0


def combine_harmonic_batch(d, m) -> np.ndarray:
    """Harmonic mean of two broadcastable score arrays in [0, 1]; 0 where both are 0."""
    d = _checked_array("first input", d, *SCORE_RANGE)
    m = _checked_array("second input", m, *SCORE_RANGE)
    total = d + m
    return np.divide(2.0 * d * m, total, out=np.zeros(total.shape), where=total != 0.0)


_IMPLEMENTATIONS: dict[MeasureId, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    MeasureId.NMD: _nmd_batch,
    MeasureId.RNOD: _root_normalized(DistanceScheme.EQUIDISTANT, over_gold_support=True),
    MeasureId.RNOD2: _root_normalized(DistanceScheme.GOLD_MASS, over_gold_support=True),
    MeasureId.RNADW: _root_normalized(DistanceScheme.EQUIDISTANT, over_gold_support=False),
    MeasureId.RNADW2: _root_normalized(DistanceScheme.GOLD_MASS, over_gold_support=False),
    MeasureId.RSNOD: _rsnod_batch,
    MeasureId.NVD: _nvd_batch,
    MeasureId.RNSS: _rnss_batch,
    MeasureId.JSD: _jsd_batch,
    MeasureId.DNKT: _dnkt_batch,
}

# Each hybrid is the harmonic mean of DNKT and its partner measure.
HYBRID_PARTNERS: dict[MeasureId, MeasureId] = {
    MeasureId.DNKT_JSD: MeasureId.JSD,
    MeasureId.DNKT_NMD: MeasureId.NMD,
    MeasureId.DNKT_RNOD: MeasureId.RNOD,
}


def _hybrid_batch(partner: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    return lambda est, gold: combine_harmonic_batch(_dnkt_batch(est, gold), partner(est, gold))


_IMPLEMENTATIONS.update(
    {hybrid: _hybrid_batch(_IMPLEMENTATIONS[partner]) for hybrid, partner in HYBRID_PARTNERS.items()}
)


def _class_arrays(est, gold) -> tuple[np.ndarray, np.ndarray]:
    """est and gold by the array rule's dtype check, each with a last axis of K >= 2 classes."""
    est, gold = _checked_array("est", est), _checked_array("gold", gold)
    if min(est.ndim, gold.ndim) == 0 or not est.shape[-1] == gold.shape[-1] >= 2:
        raise LengthMismatch(f"est {est.shape} and gold {gold.shape} need a last axis of K >= 2 classes")
    return est, gold


def _pair(est, gold) -> tuple[np.ndarray, np.ndarray]:
    """One (K,) est row and one gold row, each checked by validate()'s row rule."""
    est, gold = _class_arrays(est, gold)
    if est.ndim != 1 or gold.ndim != 1:
        raise LengthMismatch(f"need one (K,) row each, got est {est.shape} and gold {gold.shape}")
    for row in (est, gold):
        _checked_total(row.tolist())
    return est, gold


def score_batch(measure: MeasureId, est, gold) -> np.ndarray:
    """Evaluate one measure over (..., K) arrays of validated estimate and gold rows.

    Smaller is better; 0 means the estimate matches the gold. The leading
    axes broadcast: (systems, cases, K) estimates against (cases, K) gold
    give a (systems, cases) grid. Only the arrays' dtype and class axis are
    checked, with no pass over the data; the rows must be simplex points, as
    validate() and the table loader guarantee.
    """
    return _IMPLEMENTATIONS[_checked_member("measure", measure, MeasureId)](*_class_arrays(est, gold))


def score(measure: MeasureId, est: np.ndarray, gold: np.ndarray) -> float:
    """One measure on one (K,) pair whose rows pass validate()'s check; smaller is better, 0 a match."""
    return float(score_batch(measure, *_pair(est, gold)))


def od(est: np.ndarray, gold: np.ndarray, scheme: DistanceScheme) -> float:
    """Order-aware divergence of one (K,) pair, checked as in score(): mean DW over the gold support."""
    scheme = _checked_member("scheme", scheme, DistanceScheme)
    est, gold = _pair(est, gold)
    return float(_mean_dw(_dw_batch(est, gold, scheme), gold > 0.0))


def combine_harmonic(d: float, m: float) -> float:
    """Harmonic mean of two scores in [0, 1]; defined as 0 when both are 0."""
    return float(combine_harmonic_batch(d, m))
