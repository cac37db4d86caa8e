"""Divergence measures between an estimated and a gold class distribution.

All measures map (est, gold) to a score in [0, 1] where smaller is better.
The ordinal family (NMD, RNOD, RNADW and their gold-mass variants, RSNOD)
penalizes mass placed on classes far from the gold mass; the nominal family
(NVD, RNSS, JSD) ignores class order; DNKT compares only the within-
distribution ranking of the classes, and the hybrid measures blend DNKT with
a distribution-valued measure via a harmonic mean.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

import numpy as np

from .distributions import Distribution, cumulative, gold_support
from .errors import IndexOutOfRange, LengthMismatch, OutOfRange
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

ALL_MEASURES: tuple[MeasureId, ...] = (
    MeasureId.NMD,
    MeasureId.RNADW,
    MeasureId.RNOD,
    MeasureId.RNADW2,
    MeasureId.RNOD2,
    MeasureId.RSNOD,
    MeasureId.NVD,
    MeasureId.RNSS,
    MeasureId.JSD,
    MeasureId.DNKT,
    MeasureId.DNKT_JSD,
    MeasureId.DNKT_NMD,
    MeasureId.DNKT_RNOD,
)


def _check_pair(est: Distribution, gold: Distribution) -> int:
    if len(est) != len(gold):
        raise LengthMismatch(f"est has {len(est)} classes, gold has {len(gold)}")
    return len(gold)


def delta(scheme: DistanceScheme, i: int, j: int, gold: Distribution) -> float:
    """Distance between classes i and j (1-based).

    EQUIDISTANT: |i - j|. GOLD_MASS: gold probability mass between the two
    classes, counting half of each endpoint's own mass; zero-probability
    neighbours therefore contribute nothing to the distance.
    """
    k = len(gold)
    if not (1 <= i <= k and 1 <= j <= k):
        raise IndexOutOfRange(f"class indices ({i}, {j}) outside 1..{k}")
    if scheme is DistanceScheme.EQUIDISTANT:
        return float(abs(i - j))
    cum = cumulative(gold)
    m_i = cum[i - 1] - gold.probs[i - 1] / 2.0
    m_j = cum[j - 1] - gold.probs[j - 1] / 2.0
    return abs(m_i - m_j)


def dw(i: int, est: Distribution, gold: Distribution, scheme: DistanceScheme) -> float:
    """Distance-weighted squared error of est around class i."""
    _check_pair(est, gold)
    total = 0.0
    for j in range(1, len(gold) + 1):
        d = est.probs[j - 1] - gold.probs[j - 1]
        total += delta(scheme, i, j, gold) * d * d
    return total


def od(est: Distribution, gold: Distribution, scheme: DistanceScheme) -> float:
    """Order-aware divergence: mean DW over the gold support."""
    _check_pair(est, gold)
    support = sorted(gold_support(gold).indices)
    return math.fsum(dw(i, est, gold, scheme) for i in support) / len(support)


def adw(est: Distribution, gold: Distribution, scheme: DistanceScheme) -> float:
    """Average DW over all classes, not just the gold support."""
    k = _check_pair(est, gold)
    return math.fsum(dw(i, est, gold, scheme) for i in range(1, k + 1)) / k


def _root_normalize(value: float, k: int) -> float:
    return math.sqrt(value / (k - 1))


def rnod(est: Distribution, gold: Distribution) -> float:
    """Root normalized order-aware divergence (equidistant classes)."""
    return _root_normalize(od(est, gold, DistanceScheme.EQUIDISTANT), len(gold))


def rnod2(est: Distribution, gold: Distribution) -> float:
    """RNOD with the gold-mass class distance."""
    return _root_normalize(od(est, gold, DistanceScheme.GOLD_MASS), len(gold))


def rnadw(est: Distribution, gold: Distribution) -> float:
    """Root normalized average DW (equidistant classes)."""
    return _root_normalize(adw(est, gold, DistanceScheme.EQUIDISTANT), len(gold))


def rnadw2(est: Distribution, gold: Distribution) -> float:
    """RNADW with the gold-mass class distance."""
    return _root_normalize(adw(est, gold, DistanceScheme.GOLD_MASS), len(gold))


def rsnod(est: Distribution, gold: Distribution) -> float:
    """Root symmetric normalized order-aware divergence (equidistant only).

    Symmetrizes OD by averaging the two directions before normalizing, so
    the result is invariant to swapping est and gold.
    """
    fwd = od(est, gold, DistanceScheme.EQUIDISTANT)
    rev = od(gold, est, DistanceScheme.EQUIDISTANT)
    return _root_normalize((fwd + rev) / 2.0, len(gold))


def nmd(est: Distribution, gold: Distribution) -> float:
    """Normalized match distance: mean absolute gap of the cumulative curves."""
    k = _check_pair(est, gold)
    ce = cumulative(est)
    cg = cumulative(gold)
    return math.fsum(abs(ce[i] - cg[i]) for i in range(k - 1)) / (k - 1)


def nvd(est: Distribution, gold: Distribution) -> float:
    """Normalized variational distance: half the L1 gap."""
    k = _check_pair(est, gold)
    return math.fsum(abs(est.probs[i] - gold.probs[i]) for i in range(k)) / 2.0


def rnss(est: Distribution, gold: Distribution) -> float:
    """Root normalized sum of squares: sqrt of half the squared L2 gap."""
    k = _check_pair(est, gold)
    total = math.fsum((est.probs[i] - gold.probs[i]) ** 2 for i in range(k))
    return math.sqrt(total / 2.0)


def _kld(p: tuple[float, ...], q: tuple[float, ...]) -> float:
    """Kullback-Leibler divergence in bits; terms with p_i = 0 contribute 0."""
    return math.fsum(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0.0)


def jsd(est: Distribution, gold: Distribution) -> float:
    """Jensen-Shannon divergence in bits, bounded by 1."""
    _check_pair(est, gold)
    mid = tuple((a + b) / 2.0 for a, b in zip(est.probs, gold.probs))
    # Near-equal inputs can round to about -1e-17; JSD is non-negative.
    return max(0.0, (_kld(est.probs, mid) + _kld(gold.probs, mid)) / 2.0)


def dnkt(est: Distribution, gold: Distribution) -> float:
    """Divergence from the gold bin ranking: (1 - tau_b) / 2.

    tau_b compares the two probability vectors as rankings of the classes;
    bins closer than BIN_TIE_EPS count as tied. Fully tied gold (uniform)
    makes tau_b 0, so any estimate scores 0.5 there.
    """
    _check_pair(est, gold)
    return (1.0 - tau_b(est.probs, gold.probs, tie_eps=BIN_TIE_EPS)) / 2.0


def combine_harmonic(d: float, m: float) -> float:
    """Harmonic mean of two scores in [0, 1]; defined as 0 when both are 0."""
    for name, v in (("first", d), ("second", m)):
        if not (-_RANGE_SLACK <= v <= 1.0 + _RANGE_SLACK):
            raise OutOfRange(f"{name} input {v} outside [0, 1]")
    if d + m == 0.0:
        return 0.0
    return 2.0 * d * m / (d + m)


_SCORERS: dict[MeasureId, Callable[[Distribution, Distribution], float]] = {
    MeasureId.NMD: nmd,
    MeasureId.RNOD: rnod,
    MeasureId.RNOD2: rnod2,
    MeasureId.RNADW: rnadw,
    MeasureId.RNADW2: rnadw2,
    MeasureId.RSNOD: rsnod,
    MeasureId.NVD: nvd,
    MeasureId.RNSS: rnss,
    MeasureId.JSD: jsd,
    MeasureId.DNKT: dnkt,
    MeasureId.DNKT_JSD: lambda e, g: combine_harmonic(dnkt(e, g), jsd(e, g)),
    MeasureId.DNKT_NMD: lambda e, g: combine_harmonic(dnkt(e, g), nmd(e, g)),
    MeasureId.DNKT_RNOD: lambda e, g: combine_harmonic(dnkt(e, g), rnod(e, g)),
}


def score(measure: MeasureId, est: Distribution, gold: Distribution) -> float:
    """Evaluate one measure; smaller is better, 0 means est matches gold."""
    return _SCORERS[measure](est, gold)


# --- batch path ---
#
# Every measure again, over (..., K) arrays of estimates and gold rows that
# broadcast against each other, e.g. (systems, cases, K) against (cases, K).
# Each function repeats the float operations of its scalar twin in the same
# order, with _fsum_last in place of math.fsum, so the two paths agree to the
# last bit except where numpy's log2 or squaring rounds differently from
# libm's (JSD, RNSS), which stays within one rounding. DNKT calls tau_b on
# the stacked rows. The scalar functions above are the per-pair reference.


def _fsum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis with an error-free TwoSum cascade (Sum2).

    The rounding error of every partial sum is collected and added back at
    the end, which is as accurate as summing in twice float64 precision and
    rounding once: on the short class vectors summed here it equals
    math.fsum unless the exact sum lies within about K^2 * 2^-106 * sum(|x|)
    of a rounding boundary.
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
    """dw(i, est, gold, scheme) for every class i along the last axis.

    Adds one class j at a time, as dw does, so no (..., K, K) array is built.
    """
    k = gold.shape[-1]
    diff = est - gold
    if scheme is DistanceScheme.EQUIDISTANT:
        position = np.arange(k, dtype=np.float64)
    else:
        # delta()'s gold-mass midpoint of each class.
        position = np.cumsum(gold, axis=-1) - gold / 2.0
    total = np.zeros(diff.shape)
    for j in range(k):
        d = diff[..., j, None]
        total += np.abs(position - position[..., j, None]) * d * d
    return total


def _od_batch(est: np.ndarray, gold: np.ndarray, scheme: DistanceScheme) -> np.ndarray:
    support = gold > 0.0
    dws = np.where(support, _dw_batch(est, gold, scheme), 0.0)
    return _fsum_last(dws) / np.count_nonzero(support, axis=-1)


def _adw_batch(est: np.ndarray, gold: np.ndarray, scheme: DistanceScheme) -> np.ndarray:
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
    fwd = _od_batch(est, gold, DistanceScheme.EQUIDISTANT)
    rev = _od_batch(gold, est, DistanceScheme.EQUIDISTANT)
    return _root_normalize_batch((fwd + rev) / 2.0, gold.shape[-1])


def _nmd_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    k = gold.shape[-1]
    # cumsum adds left to right, as cumulative() does.
    gap = np.abs(np.cumsum(est, axis=-1) - np.cumsum(gold, axis=-1))
    return _fsum_last(gap[..., : k - 1]) / (k - 1)


def _nvd_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    return _fsum_last(np.abs(est - gold)) / 2.0


def _rnss_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    return np.sqrt(_fsum_last((est - gold) ** 2) / 2.0)


def _kld_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Classes with p_i = 0 get ratio 1, so their term is 0 * log2(1) = 0.
    ratio = np.divide(p, q, out=np.ones(np.broadcast_shapes(p.shape, q.shape)), where=p > 0.0)
    return _fsum_last(p * np.log2(ratio))


def _jsd_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    mid = (est + gold) / 2.0
    value = (_kld_batch(est, mid) + _kld_batch(gold, mid)) / 2.0
    # Clipped at 0 as in jsd(); ScoreMatrix rejects negative scores.
    return np.maximum(value, 0.0)


def _dnkt_batch(est: np.ndarray, gold: np.ndarray) -> np.ndarray:
    return (1.0 - tau_b(est, gold, tie_eps=BIN_TIE_EPS)) / 2.0


def combine_harmonic_batch(d, m) -> np.ndarray:
    """combine_harmonic() elementwise over two broadcastable score arrays."""
    d = np.asarray(d, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    for name, v in (("first", d), ("second", m)):
        bad = ~((-_RANGE_SLACK <= v) & (v <= 1.0 + _RANGE_SLACK))
        if bad.any():
            raise OutOfRange(f"{name} input {v[bad][0]} outside [0, 1]")
    total = d + m
    return np.divide(2.0 * d * m, total, out=np.zeros(total.shape), where=total != 0.0)


def _hybrid_batch(partner: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    return lambda est, gold: combine_harmonic_batch(_dnkt_batch(est, gold), partner(est, gold))


_BATCH_SCORERS: dict[MeasureId, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
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
    MeasureId.DNKT_JSD: _hybrid_batch(_jsd_batch),
    MeasureId.DNKT_NMD: _hybrid_batch(_nmd_batch),
    MeasureId.DNKT_RNOD: _hybrid_batch(_rnod_batch),
}


def score_batch(measure: MeasureId, est, gold) -> np.ndarray:
    """score() over (..., K) arrays of validated estimate and gold rows.

    The leading axes broadcast: (systems, cases, K) estimates against
    (cases, K) gold give a (systems, cases) grid. Rows are not re-validated;
    they must be simplex points as Distribution guarantees.
    """
    est = np.asarray(est, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if est.shape[-1] != gold.shape[-1]:
        raise LengthMismatch(f"est has {est.shape[-1]} classes, gold has {gold.shape[-1]}")
    return _BATCH_SCORERS[measure](est, gold)
