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

from .errors import LengthMismatch, OutOfRange
from .rank_correlation import tau_b

# Ties between probability bins: two bins count as tied when they differ by
# at most this much, absorbing float noise from vote normalization.
BIN_TIE_EPS = 1e-9

# Slack on [0, 1] range checks for values produced by other measures.
_RANGE_SLACK = 1e-9


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
# correctly rounded on these short vectors. DNKT calls tau_b on the stacked
# rows. tests/_oracle.py recomputes every measure one pair at a time with
# plain Python loops, as the independent reference.


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


def _od_batch(est: np.ndarray, gold: np.ndarray, scheme: DistanceScheme) -> np.ndarray:
    """Order-aware divergence: mean DW over the gold support."""
    support = gold > 0.0
    dws = np.where(support, _dw_batch(est, gold, scheme), 0.0)
    return _fsum_last(dws) / np.count_nonzero(support, axis=-1)


def _adw_batch(est: np.ndarray, gold: np.ndarray, scheme: DistanceScheme) -> np.ndarray:
    """Average DW over all classes, not just the gold support."""
    return _fsum_last(_dw_batch(est, gold, scheme)) / gold.shape[-1]


def _root_normalize_batch(value: np.ndarray, k: int) -> np.ndarray:
    return np.sqrt(value / (k - 1))


def _rnod_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    return _root_normalize_batch(_od_batch(est, gold, DistanceScheme.EQUIDISTANT), gold.shape[-1])


def _rnod2_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    return _root_normalize_batch(_od_batch(est, gold, DistanceScheme.GOLD_MASS), gold.shape[-1])


def _rnadw_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    return _root_normalize_batch(_adw_batch(est, gold, DistanceScheme.EQUIDISTANT), gold.shape[-1])


def _rnadw2_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    return _root_normalize_batch(_adw_batch(est, gold, DistanceScheme.GOLD_MASS), gold.shape[-1])


def _rsnod_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Root symmetric NOD: OD averaged over both directions, then normalized."""
    fwd = _od_batch(est, gold, DistanceScheme.EQUIDISTANT)
    rev = _od_batch(gold, est, DistanceScheme.EQUIDISTANT)
    return _root_normalize_batch((fwd + rev) / 2.0, gold.shape[-1])


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
    # Classes with p_i = 0 get ratio 1, so their term is 0 * log2(1) = 0.
    ratio = np.divide(p, q, out=np.ones(np.broadcast_shapes(p.shape, q.shape)), where=p > 0.0)
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
    return (1.0 - tau_b(est, gold, tie_eps=BIN_TIE_EPS)) / 2.0


def combine_harmonic_batch(d, m) -> np.ndarray:
    """Harmonic mean of two broadcastable score arrays in [0, 1]; 0 where both are 0."""
    d = np.asarray(d, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    for name, v in (("first", d), ("second", m)):
        bad = ~((-_RANGE_SLACK <= v) & (v <= 1.0 + _RANGE_SLACK))
        if bad.any():
            raise OutOfRange(f"{name} input {v[bad][0]} outside [0, 1]")
    total = d + m
    return np.divide(2.0 * d * m, total, out=np.zeros(total.shape), where=total != 0.0)


_IMPLEMENTATIONS: dict[MeasureId, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    MeasureId.NMD: _nmd_batch,
    MeasureId.RNOD: _rnod_batch,
    MeasureId.RNOD2: _rnod2_batch,
    MeasureId.RNADW: _rnadw_batch,
    MeasureId.RNADW2: _rnadw2_batch,
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
    est = np.asarray(est, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if est.shape[-1] != gold.shape[-1]:
        raise LengthMismatch(f"est has {est.shape[-1]} classes, gold has {gold.shape[-1]}")
    return est, gold


def score_batch(measure: MeasureId, est, gold) -> np.ndarray:
    """Evaluate one measure over (..., K) arrays of validated estimate and gold rows.

    Smaller is better; 0 means the estimate matches the gold. The leading
    axes broadcast: (systems, cases, K) estimates against (cases, K) gold
    give a (systems, cases) grid. Rows are not re-validated; they must be
    simplex points, as validate() and the table loader guarantee.
    """
    return _IMPLEMENTATIONS[measure](*_class_arrays(est, gold))


def score(measure: MeasureId, est: np.ndarray, gold: np.ndarray) -> float:
    """Evaluate one measure on one (K,) pair; smaller is better, 0 means est matches gold."""
    return float(score_batch(measure, est, gold))


def od(est: np.ndarray, gold: np.ndarray, scheme: DistanceScheme) -> float:
    """Order-aware divergence of one (K,) pair: mean DW over the gold support."""
    return float(_od_batch(*_class_arrays(est, gold), scheme))


def combine_harmonic(d: float, m: float) -> float:
    """Harmonic mean of two scores in [0, 1]; defined as 0 when both are 0."""
    return float(combine_harmonic_batch(d, m))
