"""Per-pair reference implementation of every measure, for the tests only.

The library computes each measure once, on (..., K) arrays
(quantdiv.measures.score_batch). This module computes them again one
(est, gold) pair at a time with plain Python loops and math.fsum, following
the paper's definitions term by term, so agreement between the two routes
is meaningful. Each function takes its distributions as (K,) arrays and
does its arithmetic on the Python floats of .tolist(). DNKT counts pairs
with _helpers.naive_tau_b rather than the library's pair kernel. It also
computes the split-half trials' subset means as the means of gathered
subsets, the reference for the running sums of the library's trials, and a
JSON report's text as one json.dumps of the whole document, the reference
for the library's chunked writer. Nothing in the package imports this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from _helpers import naive_tau_b
from quantdiv.dataset_io import _json_doc
from quantdiv.errors import LengthMismatch, OutOfRange, ValidationError
from quantdiv.measures import BIN_TIE_EPS, DistanceScheme, MeasureId
from quantdiv.rank_correlation import tau_b, tau_plain

# Slack on [0, 1] range checks for values produced by other measures.
_RANGE_SLACK = 1e-9


class IndexOutOfRange(ValidationError):
    pass


@dataclass(frozen=True)
class GoldSupport:
    """1-based indices of the classes a gold distribution puts mass on."""

    indices: frozenset[int]

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(sorted(self.indices))


def cumulative(d: np.ndarray) -> tuple[float, ...]:
    """Prefix sums of the class probabilities; final entry is 1 up to rounding."""
    out = []
    acc = 0.0
    for p in d.tolist():
        acc += p
        out.append(acc)
    return tuple(out)


def gold_support(d: np.ndarray) -> GoldSupport:
    """Indices of classes with strictly positive probability."""
    return GoldSupport(frozenset(i for i, p in enumerate(d.tolist(), start=1) if p > 0.0))


def _check_pair(est: np.ndarray, gold: np.ndarray) -> int:
    if len(est) != len(gold):
        raise LengthMismatch(f"est has {len(est)} classes, gold has {len(gold)}")
    return len(gold)


def delta(scheme: DistanceScheme, i: int, j: int, gold: np.ndarray) -> float:
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
    cum, probs = cumulative(gold), gold.tolist()
    m_i = cum[i - 1] - probs[i - 1] / 2.0
    m_j = cum[j - 1] - probs[j - 1] / 2.0
    return abs(m_i - m_j)


def dw(i: int, est: np.ndarray, gold: np.ndarray, scheme: DistanceScheme) -> float:
    """Distance-weighted squared error of est around class i."""
    _check_pair(est, gold)
    e, g = est.tolist(), gold.tolist()
    total = 0.0
    for j in range(1, len(g) + 1):
        d = e[j - 1] - g[j - 1]
        total += delta(scheme, i, j, gold) * d * d
    return total


def od(est: np.ndarray, gold: np.ndarray, scheme: DistanceScheme) -> float:
    """Order-aware divergence: mean DW over the gold support."""
    _check_pair(est, gold)
    support = sorted(gold_support(gold).indices)
    return math.fsum(dw(i, est, gold, scheme) for i in support) / len(support)


def adw(est: np.ndarray, gold: np.ndarray, scheme: DistanceScheme) -> float:
    """Average DW over all classes, not just the gold support."""
    k = _check_pair(est, gold)
    return math.fsum(dw(i, est, gold, scheme) for i in range(1, k + 1)) / k


def _root_normalize(value: float, k: int) -> float:
    return math.sqrt(value / (k - 1))


def rnod(est: np.ndarray, gold: np.ndarray) -> float:
    """Root normalized order-aware divergence (equidistant classes)."""
    return _root_normalize(od(est, gold, DistanceScheme.EQUIDISTANT), len(gold))


def rnod2(est: np.ndarray, gold: np.ndarray) -> float:
    """RNOD with the gold-mass class distance."""
    return _root_normalize(od(est, gold, DistanceScheme.GOLD_MASS), len(gold))


def rnadw(est: np.ndarray, gold: np.ndarray) -> float:
    """Root normalized average DW (equidistant classes)."""
    return _root_normalize(adw(est, gold, DistanceScheme.EQUIDISTANT), len(gold))


def rnadw2(est: np.ndarray, gold: np.ndarray) -> float:
    """RNADW with the gold-mass class distance."""
    return _root_normalize(adw(est, gold, DistanceScheme.GOLD_MASS), len(gold))


def rsnod(est: np.ndarray, gold: np.ndarray) -> float:
    """Root symmetric normalized order-aware divergence (equidistant only).

    Symmetrizes OD by averaging the two directions before normalizing, so
    the result is invariant to swapping est and gold.
    """
    fwd = od(est, gold, DistanceScheme.EQUIDISTANT)
    rev = od(gold, est, DistanceScheme.EQUIDISTANT)
    return _root_normalize((fwd + rev) / 2.0, len(gold))


def nmd(est: np.ndarray, gold: np.ndarray) -> float:
    """Normalized match distance: mean absolute gap of the cumulative curves."""
    k = _check_pair(est, gold)
    ce = cumulative(est)
    cg = cumulative(gold)
    return math.fsum(abs(ce[i] - cg[i]) for i in range(k - 1)) / (k - 1)


def nvd(est: np.ndarray, gold: np.ndarray) -> float:
    """Normalized variational distance: half the L1 gap."""
    k = _check_pair(est, gold)
    e, g = est.tolist(), gold.tolist()
    return math.fsum(abs(e[i] - g[i]) for i in range(k)) / 2.0


def rnss(est: np.ndarray, gold: np.ndarray) -> float:
    """Root normalized sum of squares: sqrt of half the squared L2 gap."""
    k = _check_pair(est, gold)
    e, g = est.tolist(), gold.tolist()
    total = math.fsum((e[i] - g[i]) ** 2 for i in range(k))
    return math.sqrt(total / 2.0)


def _kld_to_mid(p: list[float], q: list[float]) -> float:
    """Kullback-Leibler divergence of p from the midpoint (p + q) / 2, in bits.

    Each ratio p_i / mid_i is taken as 2 p_i / (p_i + q_i), which is finite
    where the midpoint of a subnormal and 0 underflows to 0; terms with
    p_i = 0 contribute 0.
    """
    return math.fsum(pi * math.log2(2.0 * pi / (pi + qi)) for pi, qi in zip(p, q) if pi > 0.0)


def jsd(est: np.ndarray, gold: np.ndarray) -> float:
    """Jensen-Shannon divergence in bits, bounded by 1."""
    _check_pair(est, gold)
    e, g = est.tolist(), gold.tolist()
    # Near-equal inputs can round to about -1e-17; JSD is non-negative.
    return max(0.0, (_kld_to_mid(e, g) + _kld_to_mid(g, e)) / 2.0)


def dnkt(est: np.ndarray, gold: np.ndarray) -> float:
    """Divergence from the gold bin ranking: (1 - tau_b) / 2.

    tau_b compares the two probability vectors as rankings of the classes;
    bins closer than BIN_TIE_EPS count as tied. Fully tied gold (uniform)
    makes tau_b 0, so any estimate scores 0.5 there.
    """
    _check_pair(est, gold)
    return (1.0 - naive_tau_b(est.tolist(), gold.tolist(), BIN_TIE_EPS)) / 2.0


def combine_harmonic(d: float, m: float) -> float:
    """Harmonic mean of two scores in [0, 1]; defined as 0 when both are 0."""
    for name, v in (("first", d), ("second", m)):
        if not (-_RANGE_SLACK <= v <= 1.0 + _RANGE_SLACK):
            raise OutOfRange(f"{name} input {v} outside [0, 1]")
    if d + m == 0.0:
        return 0.0
    return 2.0 * d * m / (d + m)


_SCORERS: dict[MeasureId, Callable[[np.ndarray, np.ndarray], float]] = {
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


def score(measure: MeasureId, est: np.ndarray, gold: np.ndarray) -> float:
    """Evaluate one measure on one pair; the reference for measures.score_batch."""
    return _SCORERS[measure](est, gold)


def consistency_per_trial(
    stacked: np.ndarray, split: int, end: int, B: int, seed: int, tau_variant: str = "b"
) -> np.ndarray:
    """Per-trial tau grid (measures x B) from per-subset gathers and their means.

    Trial b's cases are numpy's permutation from SeedSequence((seed, 1, b)); its
    subsets are perm[:split] and perm[split:end]. Each subset gathers a
    (trials, subset, measures * systems) array and takes its mean over the
    subset axis, which numpy sums one case at a time in subset order. It is the
    reference for the running sums of meta_eval._subset_means.
    """
    n_measures, n_systems, n_cases = stacked.shape
    cols = np.ascontiguousarray(stacked.reshape(n_measures * n_systems, n_cases).T)
    perms = np.stack(
        [np.random.default_rng(np.random.SeedSequence((seed, 1, b))).permutation(n_cases) for b in range(B)]
    )
    first, second = (
        cols[idx].mean(axis=1).reshape(-1, n_measures, n_systems)
        for idx in (perms[:, :split], perms[:, split:end])
    )
    tau = {"b": tau_b, "plain": tau_plain}[tau_variant]
    return tau(first, second).T


def json_report(report) -> str:
    """A report's JSON text in one json.dumps; the reference for dataset_io's chunked writer."""
    return json.dumps(_json_doc(report), indent=2) + "\n"
