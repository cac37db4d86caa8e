import math
import re

import numpy as np
import pytest

import _oracle
from _helpers import random_distribution, random_pair
from _oracle import (
    IndexOutOfRange,
    adw,
    delta,
    dnkt,
    dw,
    jsd,
    nmd,
    nvd,
    rnadw,
    rnod,
    rnod2,
    rnss,
    rsnod,
)
from quantdiv import measures, meta_eval, synth
from quantdiv.distributions import validate
from quantdiv.errors import LengthMismatch, OutOfRange
from quantdiv.measures import (
    ALL_MEASURES,
    BIN_TIE_EPS,
    DEFAULT_SUITE,
    DistanceScheme,
    MeasureId,
    combine_harmonic,
    combine_harmonic_batch,
    od,
    score,
    score_batch,
)

EQ = DistanceScheme.EQUIDISTANT
GM = DistanceScheme.GOLD_MASS


def d(*probs):
    return validate(probs)


# The per-pair functions (delta, dw, adw, rnod, ...) come from the test
# oracle; score, od and combine_harmonic are the library's one-pair wrappers
# over score_batch.


# --- class distances ---


def test_delta_equidistant():
    gold = d(0.25, 0.25, 0.25, 0.25)
    assert delta(EQ, 1, 4, gold) == 3.0
    assert delta(EQ, 4, 1, gold) == 3.0
    assert delta(EQ, 2, 2, gold) == 0.0


def test_delta_gold_mass_example():
    gold = d(0.5, 0.0, 0.5)
    assert delta(GM, 1, 3, gold) == pytest.approx(0.5, abs=1e-15)
    assert delta(GM, 1, 2, gold) == pytest.approx(0.25, abs=1e-15)
    assert delta(GM, 2, 3, gold) == pytest.approx(0.25, abs=1e-15)
    assert delta(GM, 2, 2, gold) == 0.0


def test_delta_gold_mass_zero_between_empty_classes():
    # adjacent classes with no gold mass are distance zero apart
    gold = d(1.0, 0.0, 0.0)
    assert delta(GM, 2, 3, gold) == 0.0


def test_delta_index_out_of_range():
    gold = d(0.5, 0.5)
    with pytest.raises(IndexOutOfRange):
        delta(EQ, 0, 1, gold)
    with pytest.raises(IndexOutOfRange):
        delta(GM, 1, 3, gold)


def test_delta_bounds():
    rng = np.random.default_rng(21)
    for _ in range(200):
        est, gold = random_pair(rng)
        k = len(gold)
        i = int(rng.integers(1, k + 1))
        j = int(rng.integers(1, k + 1))
        assert 0.0 <= delta(EQ, i, j, gold) <= k - 1
        assert 0.0 <= delta(GM, i, j, gold) <= 1.0


# --- DW / OD / ADW ---


def test_dw_examples():
    assert dw(1, d(0.0, 1.0), d(1.0, 0.0), EQ) == 1.0
    assert dw(1, d(0.0, 0.0, 1.0), d(1.0, 0.0, 0.0), EQ) == 2.0
    assert dw(1, d(0.3, 0.7), d(0.3, 0.7), EQ) == 0.0


def test_dw_length_mismatch():
    with pytest.raises(LengthMismatch):
        dw(1, d(0.5, 0.5), d(0.2, 0.3, 0.5), EQ)


def test_od_examples():
    for od_fn in (od, _oracle.od):
        assert od_fn(d(0.3, 0.7), d(0.3, 0.7), EQ) == 0.0
        assert od_fn(d(0.0, 1.0), d(1.0, 0.0), EQ) == 1.0
        assert od_fn(d(0.0, 1.0, 0.0), d(0.5, 0.0, 0.5), GM) == pytest.approx(0.375, abs=1e-15)
    with pytest.raises(LengthMismatch):
        od(d(0.5, 0.5), d(0.2, 0.3, 0.5), EQ)


def test_od_refuses_a_scheme_that_is_not_a_distance_scheme():
    # Only a DistanceScheme selects a scheme: "equidistant" must not fall
    # through to the gold-mass value (0.065 here, against 0.26).
    est, gold = d(0.2, 0.3, 0.5), d(0.6, 0.0, 0.4)
    assert od(est, gold, EQ) == pytest.approx(0.26, abs=1e-15)
    assert od(est, gold, GM) == pytest.approx(0.065, abs=1e-15)
    for scheme in ("equidistant", None, "gold_mass", 0):
        message = f"^scheme {re.escape(repr(scheme))} is not a DistanceScheme$"
        with pytest.raises(OutOfRange, match=message):
            od(est, gold, scheme)


def test_adw_example_and_equidistant_symmetry():
    assert adw(d(0.0, 1.0), d(1.0, 0.0), EQ) == 1.0
    rng = np.random.default_rng(22)
    for _ in range(200):
        est, gold = random_pair(rng)
        assert adw(est, gold, EQ) == adw(gold, est, EQ)


def test_adw_gold_mass_uses_the_gold_argument():
    # the distance weights come from whichever argument is the gold, so the
    # gold-mass variant is directional
    a = d(0.0, 1.0, 0.0)
    b = d(1.0, 0.0, 0.0)
    assert adw(a, b, GM) == pytest.approx(0.5, abs=1e-15)
    assert adw(b, a, GM) == pytest.approx(5.0 / 6.0, abs=1e-15)


# --- root-normalized family ---


def test_rnod_examples():
    assert rnod(d(0.0, 1.0), d(1.0, 0.0)) == 1.0
    assert rnod(d(0.3, 0.7), d(0.3, 0.7)) == 0.0


def test_rnod_asymmetry_witness():
    est = d(0.5, 0.25, 0.25)
    gold = d(1.0, 0.0, 0.0)
    fwd = rnod(est, gold)
    rev = rnod(gold, est)
    assert fwd == pytest.approx(math.sqrt(0.09375), abs=1e-12)
    assert abs(fwd - rev) > 1e-6


def test_rnod2_example():
    got = rnod2(d(0.0, 1.0, 0.0), d(0.5, 0.0, 0.5))
    assert got == pytest.approx(math.sqrt(0.375 / 2.0), abs=1e-15)


def test_rnod2_asymmetry_witness():
    est = d(0.5, 0.25, 0.25)
    gold = d(1.0, 0.0, 0.0)
    assert abs(rnod2(est, gold) - rnod2(gold, est)) > 1e-6


def test_rnadw_examples():
    assert rnadw(d(0.0, 1.0), d(1.0, 0.0)) == 1.0
    assert rnadw(d(0.3, 0.7), d(0.3, 0.7)) == 0.0


def test_rsnod_symmetric_and_example():
    assert rsnod(d(0.0, 1.0), d(1.0, 0.0)) == 1.0
    rng = np.random.default_rng(23)
    for _ in range(200):
        est, gold = random_pair(rng)
        assert rsnod(est, gold) == rsnod(gold, est)


# --- NMD and nominal measures ---


def test_nmd_examples():
    assert nmd(d(0.0, 1.0), d(1.0, 0.0)) == 1.0
    assert nmd(d(0.5, 0.5), d(1.0, 0.0)) == 0.5
    assert nmd(d(0.3, 0.7), d(0.3, 0.7)) == 0.0


def test_nvd_examples():
    assert nvd(d(0.0, 1.0), d(1.0, 0.0)) == 1.0
    assert nvd(d(0.5, 0.5), d(1.0, 0.0)) == 0.5


def test_rnss_examples():
    assert rnss(d(0.0, 1.0), d(1.0, 0.0)) == 1.0
    assert rnss(d(0.5, 0.5), d(1.0, 0.0)) == 0.5


def test_jsd_examples():
    assert jsd(d(0.0, 1.0), d(1.0, 0.0)) == 1.0
    assert jsd(d(0.3, 0.7), d(0.3, 0.7)) == 0.0
    rng = np.random.default_rng(24)
    for _ in range(200):
        est, gold = random_pair(rng)
        assert jsd(est, gold) == jsd(gold, est)
        assert 0.0 <= jsd(est, gold) <= 1.0 + 1e-12


def test_jsd_clips_rounding_residue_at_zero():
    # Unclipped, this near-equal pair rounds to about -1.39e-17. The rows are
    # taken as stored (validate() would rescale them by their float sums).
    est = np.array([0.03077187531485318, 0.11253811735760301, 0.8566900073275437])
    gold = np.array([0.030771875004854135, 0.1125381166059459, 0.8566900083891998])
    assert jsd(est, gold) == 0.0
    assert score_batch(MeasureId.JSD, np.stack([est]), np.stack([gold]))[0] == jsd(est, gold)
    assert score(MeasureId.JSD, est, gold) == 0.0


# --- DNKT and hybrids ---


def test_dnkt_concordant_rankings():
    assert dnkt(d(0.31, 0.30, 0.20, 0.19), d(0.4, 0.3, 0.2, 0.1)) == 0.0


def test_dnkt_uniform_gold_scores_half_for_any_est():
    uniform = d(0.25, 0.25, 0.25, 0.25)
    assert dnkt(d(0.1, 0.2, 0.3, 0.4), uniform) == 0.5
    assert dnkt(uniform, uniform) == 0.5
    assert dnkt(d(0.7, 0.1, 0.1, 0.1), uniform) == 0.5


def test_dnkt_reversed_rankings():
    assert dnkt(d(0.2, 0.3, 0.5), d(0.5, 0.3, 0.2)) == 1.0


def test_dnkt_bin_tie_epsilon():
    # bins differing by less than 1e-9 are tied: est ranks classes 1,2 as
    # tied while gold splits them, leaving only pairs involving class 3
    est = d(0.3, 0.3 + 1e-10, 0.4 - 1e-10)
    gold = d(0.2, 0.3, 0.5)
    counts_tau = dnkt(est, gold)
    assert counts_tau == pytest.approx((1.0 - 2.0 / math.sqrt(6.0)) / 2.0, abs=1e-12)


def test_dnkt_symmetric():
    rng = np.random.default_rng(25)
    for _ in range(200):
        est, gold = random_pair(rng)
        assert dnkt(est, gold) == dnkt(gold, est)


def test_combine_harmonic():
    assert combine_harmonic(0.0, 0.0) == 0.0
    assert combine_harmonic(0.5, 0.5) == 0.5
    assert combine_harmonic(0.0, 0.8) == 0.0
    assert combine_harmonic(1.0, 1.0) == 1.0


def test_combine_harmonic_out_of_range():
    with pytest.raises(OutOfRange):
        combine_harmonic(1.5, 0.5)
    with pytest.raises(OutOfRange):
        combine_harmonic(0.5, -0.1)


def test_hybrid_scores():
    assert score(MeasureId.DNKT_RNOD, d(0.0, 1.0), d(1.0, 0.0)) == 1.0
    p = d(0.6, 0.3, 0.1)
    # identical non-uniform distributions: DNKT is 0, so the blend is 0
    assert score(MeasureId.DNKT_JSD, p, p) == 0.0
    assert score(MeasureId.DNKT_NMD, p, p) == 0.0


# --- dispatch and suites ---


def test_score_dispatch_matches_functions():
    rng = np.random.default_rng(26)
    est, gold = random_pair(rng, 5)
    assert score(MeasureId.NMD, est, gold) == nmd(est, gold)
    assert score(MeasureId.RSNOD, est, gold) == rsnod(est, gold)
    assert score(MeasureId.DNKT, est, gold) == dnkt(est, gold)


def test_score_length_mismatch():
    with pytest.raises(LengthMismatch):
        score(MeasureId.NMD, d(0.5, 0.5), d(0.2, 0.3, 0.5))


def test_score_refuses_a_measure_that_is_not_a_measure_id():
    # MeasureId is a str enum, so a plain "NMD" would find MeasureId.NMD's code.
    est, gold = d(0.2, 0.3, 0.5), d(0.6, 0.0, 0.4)
    for measure in ("NMD", "XYZ", None):
        message = f"^measure {re.escape(repr(measure))} is not a MeasureId$"
        for call in (score, score_batch):
            with pytest.raises(OutOfRange, match=message):
                call(measure, est, gold)


def test_suites():
    assert len(ALL_MEASURES) == 13
    assert len(DEFAULT_SUITE) == 12
    assert MeasureId.RSNOD not in DEFAULT_SUITE
    assert set(DEFAULT_SUITE) | {MeasureId.RSNOD} == set(ALL_MEASURES)
    # The CLI help lists the valid tags in this order.
    assert ", ".join(m.value for m in ALL_MEASURES) == (
        "NMD, RNADW, RNOD, RNADW2, RNOD2, RSNOD, NVD, RNSS, JSD, "
        "DNKT, DNKT_JSD, DNKT_NMD, DNKT_RNOD"
    )
    assert MeasureId("NMD") is MeasureId.NMD


def test_identity_is_zero_for_distribution_measures():
    rng = np.random.default_rng(27)
    for _ in range(300):
        est, _ = random_pair(rng)
        for measure in ALL_MEASURES:
            if measure is MeasureId.DNKT:
                continue
            assert score(measure, est, est) == 0.0


def test_range_on_random_pairs():
    rng = np.random.default_rng(28)
    for _ in range(500):
        est, gold = random_pair(rng)
        for measure in ALL_MEASURES:
            value = score(measure, est, gold)
            assert 0.0 <= value <= 1.0 + 1e-12


# --- the library against the per-pair oracle ---

# Measures whose batch form repeats the oracle's float operations exactly.
# JSD and RNSS go through numpy's log2 and squaring, which may round
# differently from libm's by one ulp.
_NOT_BIT_EXACT = (MeasureId.JSD, MeasureId.RNSS, MeasureId.DNKT_JSD)
_BIT_EXACT = tuple(m for m in ALL_MEASURES if m not in _NOT_BIT_EXACT)


def _tricky_rows(rng, k):
    """Distributions covering the corner cases of every measure at k classes."""
    rows = [random_distribution(rng, k, zero_rate=rate) for rate in (0.0, 0.25, 0.6) for _ in range(8)]
    rows.append(validate([1.0] + [0.0] * (k - 1)))  # point mass at the first class
    rows.append(validate([0.0] * (k - 1) + [1.0]))  # point mass at the last class
    rows.append(validate([1.0 / k] * k))  # uniform: every bin tied
    for gap in (0.0, BIN_TIE_EPS / 4, 3 * BIN_TIE_EPS):  # tied, tied within eps, not tied
        raw = rng.dirichlet(np.ones(k))
        raw[-1] = raw[0] + gap
        rows.append(validate(raw / raw.sum()))
    return rows


@pytest.mark.parametrize("k", range(2, 12))
def test_batch_matches_scalar_score(k):
    rng = np.random.default_rng(100 + k)
    rows = _tricky_rows(rng, k)
    # every (est, gold) combination of the rows, as two aligned lists
    est = [e for e in rows for _ in rows]
    gold = [g for _ in rows for g in rows]
    est_arr, gold_arr = np.stack(est), np.stack(gold)
    for measure in ALL_MEASURES:
        batch = score_batch(measure, est_arr, gold_arr)
        scalar = np.array([_oracle.score(measure, e, g) for e, g in zip(est, gold)])
        assert np.abs(batch - scalar).max() <= 1e-15, measure
        if measure in _BIT_EXACT:
            assert np.array_equal(batch, scalar), measure
        assert ((batch >= 0.0) & (batch <= 1.0 + 1e-12)).all(), measure


def test_jsd_matches_the_oracle_where_the_midpoint_underflows():
    # The first class holds a subnormal in one row and 0 in the other, so its
    # midpoint underflows to 0 and its term is below 1e-323. This pair is not
    # one of _tricky_rows: there the subnormal row puts NVD one ulp from
    # math.fsum, the rounding-boundary case _fsum_last documents.
    est, gold = validate([0.0, 0.5, 0.5]), validate([5e-324, 0.0, 1.0])
    for measure in (MeasureId.JSD, MeasureId.DNKT_JSD):
        for e, g in ((est, gold), (gold, est)):
            assert abs(score(measure, e, g) - _oracle.score(measure, e, g)) <= 1e-15, measure
    assert _oracle.jsd(est, gold) == 0.31127812445913283


@pytest.mark.parametrize("k", range(2, 12))
def test_batch_identity_is_zero(k):
    rows = np.stack(_tricky_rows(np.random.default_rng(200 + k), k))
    for measure in ALL_MEASURES:
        if measure is MeasureId.DNKT:
            continue
        assert (score_batch(measure, rows, rows) == 0.0).all(), measure


@pytest.mark.parametrize("block", [meta_eval.SCORE_BLOCK, 1, 2 * 40 * 11])
def test_score_matrix_matches_scalar_grid(monkeypatch, block):
    # block=1 scores one system per block, exercising the block loop, and
    # 2 * 40 * 11 two or three systems per block of (systems, cases, K), which
    # leaves a partial last block of the five; 11 classes is the class count
    # of the score-wide benchmark workload
    monkeypatch.setattr(meta_eval, "SCORE_BLOCK", block)
    for n_classes in (7, 11):
        dataset, runs = synth.generate(n_systems=5, n_cases=40, n_classes=n_classes, seed=11)
        for measure in ALL_MEASURES:
            values = meta_eval.score_matrix(dataset, runs, measure).values
            grid = np.array(
                [[_oracle.score(measure, e, g) for e, g in zip(run.est, dataset.gold)] for run in runs]
            )
            assert np.abs(values - grid).max() <= 1e-15, (n_classes, measure)
            if measure in _BIT_EXACT:
                assert np.array_equal(values, grid), (n_classes, measure)


def test_score_batch_broadcasts_systems_against_gold():
    rng = np.random.default_rng(29)
    gold = np.stack([random_distribution(rng, 4) for _ in range(6)])
    est = np.stack([np.stack([random_distribution(rng, 4) for _ in range(6)]) for _ in range(3)])
    grid = score_batch(MeasureId.RNOD2, est, gold)
    assert grid.shape == (3, 6)
    assert np.array_equal(grid[1], score_batch(MeasureId.RNOD2, est[1], gold))


@pytest.mark.parametrize(
    "measure",
    [MeasureId.RNOD, MeasureId.RNOD2, MeasureId.RNADW, MeasureId.RNADW2, MeasureId.RSNOD],
)
def test_rnod_family_builds_one_dw_grid_per_call(monkeypatch, measure):
    # RSNOD's two directions share one grid: equidistant DW is symmetric.
    calls = []
    dw_batch = measures._dw_batch
    monkeypatch.setattr(measures, "_dw_batch", lambda *args: calls.append(args) or dw_batch(*args))
    dataset, runs = synth.generate(n_systems=3, n_cases=20, n_classes=5, seed=4)
    score_batch(measure, np.stack([run.est for run in runs]), dataset.gold)
    assert len(calls) == 1


def test_score_batch_length_mismatch():
    with pytest.raises(LengthMismatch):
        score_batch(MeasureId.NMD, np.full((2, 2), 0.5), np.full((2, 3), 1.0 / 3.0))


def test_combine_harmonic_batch_matches_scalar():
    d_vals = np.array([0.0, 0.5, 0.0, 1.0, 0.3])
    m_vals = np.array([0.0, 0.5, 0.8, 1.0, 0.9])
    expected = [_oracle.combine_harmonic(a, b) for a, b in zip(d_vals, m_vals)]
    assert combine_harmonic_batch(d_vals, m_vals).tolist() == expected


@pytest.mark.parametrize(
    "d_vals, m_vals",
    [([0.2, 1.5], [0.5, 0.5]), ([0.2, 0.5], [0.5, -0.1]), ([0.2, np.nan], [0.5, 0.5])],
)
def test_combine_harmonic_batch_out_of_range(d_vals, m_vals):
    with pytest.raises(OutOfRange):
        combine_harmonic_batch(d_vals, m_vals)
