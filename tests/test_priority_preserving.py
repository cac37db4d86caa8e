"""The paper's Priority Preserving Property of DNKT, on seeded (estimate, gold) pairs.

An estimate preserves the gold's priorities when it orders every pair of
bins as the gold does. DNKT reads two bins within measures.BIN_TIE_EPS of
each other as tied, so ties are part of the rule: an estimate that is a
strictly monotone transform of a gold that is not fully tied scores DNKT 0,
and each hybrid 0, when it ties a pair of bins exactly where the gold ties
it; where it does not, DNKT scores it above 0. Swapping two bins that are
untied in both the gold and the estimate breaks the order, and DNKT and
each hybrid score it above 0. DNKT_JSD is asked this only of an estimate
more than JSD_RESOLUTION from the gold in some bin: JSD rounds to 0 for
closer rows, and so does its harmonic mean with DNKT. The other
order-aware measures weigh how close the estimate is, not its order: each
has a witness gold on which an estimate that breaks the order scores
better than one that keeps it.
"""

import numpy as np

from quantdiv import MeasureId, validate
from quantdiv.measures import BIN_TIE_EPS, HYBRID_PARTNERS, score_batch

DRAWS = 60  # golds drawn for each K from 2 to 11
JSD_RESOLUTION = 1e-6
RANK_ONLY = (MeasureId.DNKT, *HYBRID_PARTNERS)
CLOSENESS = (
    MeasureId.NMD, MeasureId.RNOD, MeasureId.RNOD2, MeasureId.RNADW, MeasureId.RNADW2,
    MeasureId.RSNOD, MeasureId.NVD,
)


def _tied(row: np.ndarray) -> np.ndarray:
    """(K, K): whether each pair of bins is tied, by the rule tau_b applies with tie_eps."""
    gaps = row[:, None] - row[None, :]
    return ~((gaps > BIN_TIE_EPS) | (-gaps > BIN_TIE_EPS))


def _gold(rng, k: int) -> np.ndarray:
    """A gold of vote shares (exact ties), or of random mass with two bins near a tie."""
    if rng.random() < 0.5:
        counts = rng.integers(0, 8, k)
        counts[rng.integers(k)] += 1  # no all-zero votes
        return validate(counts / counts.sum())
    gold = rng.dirichlet(np.ones(k))
    i, j = rng.choice(k, 2, replace=False)
    gold[j] = gold[i] + rng.choice([0.0, 5e-10, 1e-9, 1.5e-9, 1e-6])
    return validate(gold / gold.sum())


def _monotone(rng, gold: np.ndarray) -> np.ndarray:
    """gold through a random strictly increasing map, renormalized."""
    kind = rng.integers(3)
    if kind == 0:
        mapped = gold ** rng.uniform(0.2, 4.0)
    elif kind == 1:
        mapped = np.exp(rng.uniform(1.0, 30.0) * gold)
    else:
        mapped = gold + rng.uniform(0.01, 1.0)
    return validate(mapped / mapped.sum())


def _swapped(row: np.ndarray, i: int, j: int) -> np.ndarray:
    row = row.copy()
    row[[i, j]] = row[[j, i]]
    return row


def _pairs():
    """(gold, kept, same ties, kept swapped, gold swapped) stacks, one per K.

    kept is a monotone transform of a gold that is not fully tied. Where it
    has the gold's ties, both swaps exchange one pair of bins that is untied
    in both; elsewhere they are the unswapped rows.
    """
    rng = np.random.default_rng(31)
    for k in range(2, 12):
        rows = []
        while len(rows) < DRAWS:
            gold = _gold(rng, k)
            if _tied(gold).all():
                continue
            kept = _monotone(rng, gold)
            same_ties = bool((_tied(kept) == _tied(gold)).all())
            untied = np.argwhere(~_tied(gold) & ~_tied(kept))
            i, j = untied[rng.integers(len(untied))] if same_ties else (0, 0)
            rows.append((gold, kept, same_ties, _swapped(kept, i, j), _swapped(gold, i, j)))
        yield tuple(map(np.array, zip(*rows)))


PAIRS = list(_pairs())


def test_a_monotone_estimate_scores_zero_when_it_keeps_the_gold_ties():
    mismatched = 0
    for gold, kept, same, _, _ in PAIRS:
        for measure in RANK_ONLY:
            assert (score_batch(measure, kept[same], gold[same]) == 0.0).all(), measure
        assert (score_batch(MeasureId.DNKT, kept[~same], gold[~same]) > 0.0).all()
        mismatched += int(np.sum(~same))
    assert mismatched  # the draws do make ties that the transform breaks or makes


def test_swapping_two_untied_bins_scores_above_zero():
    for gold, kept, same, kept_swapped, gold_swapped in PAIRS:
        for estimate in (kept_swapped[same], gold_swapped[same]):
            apart = np.abs(estimate - gold[same]).max(axis=1) > JSD_RESOLUTION
            for measure in RANK_ONLY:
                scores = score_batch(measure, estimate, gold[same])
                if measure is MeasureId.DNKT_JSD:
                    scores = scores[apart]
                assert (scores > 0.0).all(), measure


def test_closeness_measures_can_prefer_an_estimate_that_breaks_the_order():
    # The gold with two bins swapped breaks its order; the monotone transform keeps it.
    for measure in CLOSENESS:
        witnesses = 0
        for gold, kept, same, _, swapped in PAIRS:
            broken, kept_score = (score_batch(measure, row[same], gold[same]) for row in (swapped, kept))
            witnesses += int(np.sum(broken < kept_score))
        assert witnesses > 0, measure
