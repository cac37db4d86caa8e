import math
import threading
import tracemalloc

import numpy as np
import pytest

from quantdiv.dataset_io import Dataset, SystemRun
from quantdiv.distributions import validate
from quantdiv.errors import (
    DatasetTooSmall,
    LengthMismatch,
    MisalignedRun,
    OutOfRange,
    TooFewMeasures,
    TooFewSystems,
    TooFewTrials,
)
from quantdiv.measures import HYBRID_PARTNERS, MeasureId, score_batch
from quantdiv.rank_correlation import tau_b, tau_plain, tau_with_ci
from quantdiv.meta_eval import (
    AgreementReport,
    ConsistencyReport,
    FixedSize,
    FullSplit,
    ScoreMatrix,
    agreement,
    consistency_per_trial,
    format_subset_mode,
    mean_scores,
    parse_subset_mode,
    randomized_tukey_hsd,
    score_matrix,
    split_half_consistency,
)
from quantdiv import meta_eval, synth


def tiny_dataset():
    gold = (validate([0.5, 0.3, 0.2]), validate([0.1, 0.1, 0.8]), validate([0.4, 0.4, 0.2]))
    ds = Dataset(case_ids=("a", "b", "c"), class_labels=("c1", "c2", "c3"), gold=gold)
    perfect = SystemRun(system_id="perfect", est=gold)
    worse = SystemRun(
        system_id="worse",
        est=(validate([0.2, 0.3, 0.5]), validate([0.8, 0.1, 0.1]), validate([0.2, 0.4, 0.4])),
    )
    return ds, perfect, worse


# --- subset modes ---


def test_parse_and_format_subset_mode():
    assert parse_subset_mode("half") == FullSplit()
    assert parse_subset_mode("k=10") == FixedSize(10)
    assert format_subset_mode(FullSplit()) == "half"
    assert format_subset_mode(FixedSize(7)) == "k=7"
    for bad in ("third", "k=", "k=x", "k=0"):
        with pytest.raises(OutOfRange):
            parse_subset_mode(bad)
    with pytest.raises(OutOfRange, match="subset size must be >= 1, got 0"):
        FixedSize(0)
    # A bool would be written as "k=True", which no report reader parses.
    for k in (True, 1.5):
        with pytest.raises(OutOfRange, match=f"subset size must be an integer, got {k}"):
            FixedSize(k)


def test_subset_mode_bounds():
    assert FullSplit().bounds(4) == (2, 4)
    assert FullSplit().bounds(31) == (16, 31)
    assert FixedSize(10).bounds(20) == (10, 20)
    assert FixedSize(10).bounds(31) == (10, 20)
    with pytest.raises(DatasetTooSmall, match="half-split needs at least 4 cases, got 3"):
        FullSplit().bounds(3)
    with pytest.raises(DatasetTooSmall, match="subsets of 10 need 20 cases, got 19"):
        FixedSize(10).bounds(19)


SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 3]
TRIALS = list(range(64)) + [2**31, 2**32 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_seed_words_equal_seed_sequence(seed):
    # The bulk derivation must reproduce numpy's SeedSequence and PCG64
    # seeding exactly; a numpy release that changes either fails here.
    words = np.concatenate(
        [meta_eval._trial_seed_words(seed, 0, 64)]
        + [meta_eval._trial_seed_words(seed, b, b + 1) for b in TRIALS[64:]]
    )
    for row, b in zip(words, TRIALS):
        sequence = np.random.SeedSequence((seed, meta_eval.TRIAL_STREAM, b))
        assert np.array_equal(row, sequence.generate_state(4, np.uint64))
        assert np.random.PCG64(meta_eval._trial_seed_type()(row)).state == np.random.PCG64(sequence).state


@pytest.mark.parametrize("n_cases", [1, 2, 31, 200])
def test_trial_permutations_equal_generator_permutation(n_cases):
    # End to end through _TrialSeed, including the widest seeds and trial ids.
    trials = list(range(40)) + [2**31, 2**32 - 1]
    for seed in (0, 9, 2**32, 2**64 + 3):
        words = np.concatenate(
            [meta_eval._trial_seed_words(seed, 0, 40)]
            + [meta_eval._trial_seed_words(seed, b, b + 1) for b in trials[40:]]
        )
        perms = meta_eval._trial_permutations(n_cases, words)
        streams = (np.random.SeedSequence((seed, meta_eval.TRIAL_STREAM, b)) for b in trials)
        expected = np.stack([np.random.default_rng(seq).permutation(n_cases) for seq in streams])
        assert perms.shape == (len(trials), n_cases) and perms.dtype == np.intp
        assert np.array_equal(perms, expected)


# --- score matrix and means ---


def test_score_matrix_perfect_run_is_zero():
    ds, perfect, worse = tiny_dataset()
    matrix = score_matrix(ds, [perfect, worse], MeasureId.NMD)
    assert matrix.values.shape == (2, 3)
    assert matrix.system_ids == ("perfect", "worse")
    assert matrix.case_ids == ("a", "b", "c")
    assert matrix.measure is MeasureId.NMD
    assert np.all(matrix.values[0] == 0.0)
    assert np.all(matrix.values[1] > 0.0)


def test_score_matrix_misaligned_run():
    ds, perfect, _ = tiny_dataset()
    short = SystemRun(system_id="short", est=perfect.est[:2])
    with pytest.raises(MisalignedRun):
        score_matrix(ds, [short], MeasureId.NMD)


def test_score_matrix_values_read_only():
    ds, perfect, worse = tiny_dataset()
    matrix = score_matrix(ds, [perfect, worse], MeasureId.NVD)
    with pytest.raises(ValueError):
        matrix.values[0, 0] = 1.0


def test_score_matrix_rejects_bad_values():
    with pytest.raises(OutOfRange):
        ScoreMatrix(np.array([[0.1, -0.2]]), ("s",), ("a", "b"), MeasureId.NMD)
    with pytest.raises(MisalignedRun):
        ScoreMatrix(np.zeros((2, 2)), ("s",), ("a", "b"), MeasureId.NMD)
    for system_ids, case_ids in (
        (("s", "s"), ("a", "b")),
        (("s", "t"), ("a", 2)),
        ((1, 2), ("a", "b")),
    ):
        with pytest.raises(OutOfRange):
            ScoreMatrix(np.zeros((2, 2)), system_ids, case_ids, MeasureId.NMD)
    # MeasureId is a str enum, so a plain "NMD" would score and then fail to render.
    ds, perfect, _ = tiny_dataset()
    with pytest.raises(OutOfRange, match="measure 'NMD' is not a MeasureId"):
        ScoreMatrix(np.zeros((2, 2)), ("s", "t"), ("a", "b"), "NMD")
    with pytest.raises(OutOfRange, match="measure 'NMD' is not a MeasureId"):
        score_matrix(ds, [perfect], "NMD")


@pytest.mark.parametrize("hybrid", list(HYBRID_PARTNERS))
def test_hybrid_from_scored_parts_equals_scoring_it(monkeypatch, hybrid):
    ds, runs = synth.generate(n_systems=5, n_cases=40, n_classes=11, seed=12)
    fresh = score_matrix(ds, runs, hybrid)
    batch = score_batch(hybrid, np.stack([run.est for run in runs]), ds.gold)
    # DNKT alone is not enough to combine: the hybrid is scored from the runs.
    dnkt = score_matrix(ds, runs, MeasureId.DNKT)
    assert np.array_equal(score_matrix(ds, runs, hybrid, scored=[dnkt]).values, batch)
    scored = [score_matrix(ds, runs, HYBRID_PARTNERS[hybrid]), dnkt]

    def no_scoring(*args):
        raise AssertionError("scored a hybrid whose parts were given")

    monkeypatch.setattr(meta_eval, "score_batch", no_scoring)
    reused = score_matrix(ds, runs, hybrid, scored=scored)
    assert reused.measure is hybrid
    assert np.array_equal(reused.values, fresh.values)
    assert np.array_equal(fresh.values, batch)


def test_score_matrix_rejects_scored_matrices_of_other_runs():
    ds, runs = synth.generate(n_systems=4, n_cases=10, seed=13)
    dnkt = score_matrix(ds, runs, MeasureId.DNKT)
    jsd = score_matrix(ds, runs, MeasureId.JSD)
    others = (
        score_matrix(ds, runs[:3], MeasureId.JSD),
        ScoreMatrix(jsd.values[::-1], jsd.system_ids[::-1], jsd.case_ids, MeasureId.JSD),
        ScoreMatrix(jsd.values, jsd.system_ids, tuple(f"z{c}" for c in jsd.case_ids), MeasureId.JSD),
    )
    for other in others:
        for measure in (MeasureId.DNKT_JSD, MeasureId.NMD):
            with pytest.raises(MisalignedRun, match="the JSD scores are for other systems or cases"):
                score_matrix(ds, runs, measure, scored=[dnkt, other])


@pytest.mark.parametrize("measure", [MeasureId.DNKT, MeasureId.RNOD])
def test_score_matrix_memory_is_flat_in_the_number_of_systems(measure):
    # 250 cases and 11 classes, the score-wide workload's shape. Beyond the
    # output grid and its frozen copy, the peak stays within a few blocks of
    # temporaries, for 32 systems as for 256.
    ds, runs = synth.generate(n_systems=32, n_cases=250, n_classes=11, seed=14)
    runs = [SystemRun(f"s{i}", runs[i % 32].est) for i in range(256)]
    for n_systems in (32, 256):
        tracemalloc.start()
        try:
            score_matrix(ds, runs[:n_systems], measure)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid_bytes = n_systems * 250 * 8
        assert peak < 2 * grid_bytes + 8 * meta_eval.SCORE_BLOCK * 8, (n_systems, peak)


def test_mean_scores():
    matrix = ScoreMatrix(
        values=np.array([[0.0, 0.2, 0.4], [1.0, 1.0, 1.0]]),
        system_ids=("s1", "s2"),
        case_ids=("a", "b", "c"),
        measure=MeasureId.NMD,
    )
    assert mean_scores(matrix).tolist() == [pytest.approx(0.2), 1.0]


# --- agreement ---


def test_agreement_shape_and_self_similarity():
    ds, runs = synth.generate(n_systems=6, n_cases=40, seed=5)
    measures = [MeasureId.NVD, MeasureId.RNSS, MeasureId.JSD, MeasureId.NMD]
    report = agreement(ds, runs, measures)
    m = 4
    assert report.measures == tuple(measures)
    upper = [(i, j) for i in range(m) for j in range(i + 1, m)]
    assert [(i, j) for i, j, _ in report.pairs()] == upper
    assert [t for _, _, t in report.pairs()] == list(report.taus)
    # each pair's tau is the one between the two measures' per-system means
    means = [mean_scores(score_matrix(ds, runs, measure)) for measure in measures]
    for i, j, result in report.pairs():
        assert result == tau_with_ci(means[i], means[j])
        assert result.n == 6
    assert len(report.avg_similarity) == m
    for k in range(m):
        taus = [t.tau for i, j, t in report.pairs() if k in (i, j)]
        assert len(taus) == m - 1
        assert report.avg_similarity[k] == pytest.approx(sum(taus) / len(taus))


def test_agreement_related_measures_correlate():
    ds, runs = synth.generate(n_systems=10, n_cases=60, seed=6)
    report = agreement(ds, runs, [MeasureId.NVD, MeasureId.RNSS])
    assert report.taus[0].tau > 0.5


def test_agreement_errors(monkeypatch):
    ds, runs = synth.generate(n_systems=3, n_cases=10, seed=7)
    with pytest.raises(TooFewSystems):
        agreement(ds, runs[:2], [MeasureId.NVD, MeasureId.RNSS])
    with pytest.raises(TooFewMeasures):
        agreement(ds, runs, [MeasureId.NVD])

    def no_scoring(*args):
        raise AssertionError("scored before the measures were checked")

    # A report has no self-pair and no plain-string tag; both fail before scoring.
    monkeypatch.setattr(meta_eval, "score_matrix", no_scoring)
    for measures, message in (
        ([MeasureId.NVD, MeasureId.NVD], "measure NVD is listed twice"),
        ([MeasureId.NVD, MeasureId.RNSS, MeasureId.NVD], "measure NVD is listed twice"),
        (["NMD", "NVD"], "measure 'NMD' is not a MeasureId"),
    ):
        with pytest.raises(OutOfRange, match=message):
            agreement(ds, runs, measures)


def test_agreement_checks_confidence_before_scoring(monkeypatch):
    def no_scoring(*args):
        raise AssertionError("scored before the confidence was checked")

    ds, runs = synth.generate(n_systems=3, n_cases=10, seed=7)
    monkeypatch.setattr(meta_eval, "score_matrix", no_scoring)
    with pytest.raises(OutOfRange, match="confidence must be in \\(0, 1\\), got 1.5"):
        agreement(ds, runs, [MeasureId.NVD, MeasureId.RNSS], confidence=1.5)


# --- consistency trials ---


def constant_quality_stack(m=3, systems=6, cases=40):
    # per-system offsets dominate; per-case wiggle is shared by all systems,
    # so every subset produces the same system ordering
    case_noise = np.linspace(0.0, 0.05, cases)
    base = np.arange(systems)[:, None] * 0.1 + case_noise[None, :]
    return np.stack([base + k * 0.01 for k in range(m)], axis=0)


def test_consistency_per_trial_stable_ranking_gives_tau_one():
    stacked = constant_quality_stack()
    per_trial = consistency_per_trial(stacked, FullSplit(), B=50, seed=1)
    assert per_trial.shape == (3, 50)
    assert np.all(per_trial == 1.0)


def test_consistency_per_trial_deterministic_and_thread_invariant():
    rng = np.random.default_rng(51)
    stacked = rng.random((3, 8, 30))
    a = consistency_per_trial(stacked, FullSplit(), B=40, seed=2)
    b = consistency_per_trial(stacked, FullSplit(), B=40, seed=2)
    c = consistency_per_trial(stacked, FullSplit(), B=40, seed=2, threads=4)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    d = consistency_per_trial(stacked, FullSplit(), B=40, seed=3)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("mode", [FullSplit(), FixedSize(7)])
@pytest.mark.parametrize("variant", ["b", "plain"])
@pytest.mark.parametrize("trial_block", [1, 5000, 1 << 20])
def test_consistency_per_trial_matches_per_trial_loop(monkeypatch, mode, variant, trial_block):
    # Batched blocks (one trial, a few, or all 23 per block, as with the
    # default TRIAL_BLOCK) against one scalar tau per (measure, trial) from an
    # independently seeded generator; rounding the scores makes tied means.
    # With an odd case count a half split gives the extra case to the first half.
    monkeypatch.setattr(meta_eval, "TRIAL_BLOCK", trial_block)
    rng = np.random.default_rng(56)
    tau = tau_b if variant == "b" else tau_plain
    for n_cases in (31, 30):
        stacked = np.round(rng.random((3, 7, n_cases)), 1)
        got = consistency_per_trial(stacked, mode, B=23, seed=6, tau_variant=variant)
        expected = np.empty((3, 23))
        for b in range(23):
            perm = np.random.default_rng(np.random.SeedSequence((6, 1, b))).permutation(n_cases)
            if mode == FullSplit():
                idx1, idx2 = perm[: (n_cases + 1) // 2], perm[(n_cases + 1) // 2 :]
                assert len(idx1) - len(idx2) == n_cases % 2
                assert sorted(idx1.tolist() + idx2.tolist()) == list(range(n_cases))
            else:
                idx1, idx2 = perm[: mode.k], perm[mode.k : 2 * mode.k]
                assert len(idx1) == len(idx2) == mode.k
            assert set(idx1.tolist()).isdisjoint(idx2.tolist())
            for k in range(3):
                halves = stacked[k][:, idx1].mean(axis=1), stacked[k][:, idx2].mean(axis=1)
                expected[k, b] = tau(*halves)
        assert np.array_equal(got, expected)


def test_consistency_per_trial_signal_beats_noise():
    # measure 0: pure noise scores; measure 1: graded system quality plus
    # small noise; the signal measure must be far more consistent
    rng = np.random.default_rng(52)
    systems, cases = 10, 60
    noise = rng.random((systems, cases))
    signal = np.arange(systems)[:, None] * 0.08 + 0.05 * rng.random((systems, cases))
    stacked = np.stack([noise, signal], axis=0)
    per_trial = consistency_per_trial(stacked, FullSplit(), B=1000, seed=4)
    means = per_trial.mean(axis=1)
    assert means[1] - means[0] > 0.3


def test_consistency_per_trial_tau_variants():
    stacked = constant_quality_stack(m=2)
    b = consistency_per_trial(stacked, FixedSize(15), B=20, seed=5, tau_variant="b")
    p = consistency_per_trial(stacked, FixedSize(15), B=20, seed=5, tau_variant="plain")
    assert np.all(b == 1.0) and np.all(p == 1.0)
    with pytest.raises(OutOfRange):
        consistency_per_trial(stacked, FullSplit(), B=5, seed=5, tau_variant="kendall")


def test_consistency_per_trial_errors():
    stacked = constant_quality_stack(cases=3)
    with pytest.raises(DatasetTooSmall):
        consistency_per_trial(stacked, FullSplit(), B=5, seed=1)
    stacked = constant_quality_stack(cases=19)
    with pytest.raises(DatasetTooSmall):
        consistency_per_trial(stacked, FixedSize(10), B=5, seed=1)
    ok = constant_quality_stack(cases=20)
    consistency_per_trial(ok, FixedSize(10), B=1, seed=1)
    with pytest.raises(TooFewTrials):
        consistency_per_trial(ok, FixedSize(10), B=0, seed=1)
    # trial ids must fit one 32-bit seed word; rejected before any allocation
    with pytest.raises(OutOfRange, match="at most 2\\*\\*32 trials"):
        consistency_per_trial(ok, FixedSize(10), B=2**32 + 1, seed=1)
    solo = constant_quality_stack(systems=1)
    with pytest.raises(TooFewSystems):
        consistency_per_trial(solo, FullSplit(), B=5, seed=1)
    for threads in (0, -3):
        with pytest.raises(OutOfRange, match=f"--threads must be >= 1, got {threads}"):
            consistency_per_trial(ok, FixedSize(10), B=5, seed=1, threads=threads)


def test_consistency_per_trial_memory_counts_the_permutations():
    # Two subsets of one case out of 2000: the block's permutations, not its
    # gathers, are what TRIAL_BLOCK must bound (32 MB for B = 2000 if not).
    stacked = np.random.default_rng(0).random((1, 2, 2000))
    tracemalloc.start()
    try:
        consistency_per_trial(stacked, FixedSize(1), B=2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * meta_eval.TRIAL_BLOCK * 8


class _SerialPool:
    """ThreadPoolExecutor stand-in that records max_workers and runs tasks inline."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus, expected", [(64, 5), (3, 3), (None, None)])
def test_worker_threads_are_clamped(monkeypatch, cpus, expected):
    # min(threads, usable cpus, tasks) workers. The usable CPUs are the
    # affinity mask's, not the host's; without sched_getaffinity they are
    # cpu_count()'s, and one CPU (cpu_count() is None) runs inline.
    monkeypatch.setattr(meta_eval, "ThreadPoolExecutor", _SerialPool)
    if cpus is None:
        monkeypatch.delattr(meta_eval.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(meta_eval.os, "cpu_count", lambda: None)
    else:
        affinity = set(range(cpus))
        monkeypatch.setattr(meta_eval.os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(meta_eval.os, "cpu_count", lambda: 256)
    # a budget of one element makes every trial its own task: 5 tasks for B=5
    monkeypatch.setattr(meta_eval, "TRIAL_BLOCK", 1)
    _SerialPool.sizes = []
    threads_before = threading.active_count()
    stacked = np.random.default_rng(53).random((2, 6, 20))
    per_trial = consistency_per_trial(stacked, FullSplit(), B=5, seed=1, threads=100_000)
    assert np.array_equal(per_trial, consistency_per_trial(stacked, FullSplit(), B=5, seed=1))
    hsd = randomized_tukey_hsd(per_trial, permutations=5 * meta_eval.HSD_CHUNK, seed=1, threads=100_000)
    assert hsd == randomized_tukey_hsd(per_trial, permutations=5 * meta_eval.HSD_CHUNK, seed=1)
    assert _SerialPool.sizes == ([] if expected is None else [expected, expected])
    assert threading.active_count() == threads_before


# --- randomized Tukey HSD ---


def test_hsd_identical_rows_no_significance():
    per_trial = np.tile(np.linspace(0.2, 0.8, 100), (4, 1))
    assert randomized_tukey_hsd(per_trial, permutations=500, seed=8) == frozenset()


def test_hsd_separated_rows_significant_with_direction():
    per_trial = np.vstack([np.full(100, 0.9), np.full(100, 0.1)])
    sig = randomized_tukey_hsd(per_trial, alpha=0.05, permutations=1000, seed=8)
    assert sig == frozenset({(0, 1)})


def test_hsd_alpha_monotone():
    rng = np.random.default_rng(53)
    per_trial = rng.random((5, 200)) + np.linspace(0.0, 0.25, 5)[:, None]
    kwargs = dict(permutations=2000, seed=9)
    tight = randomized_tukey_hsd(per_trial, alpha=0.01, **kwargs)
    loose = randomized_tukey_hsd(per_trial, alpha=0.05, **kwargs)
    assert tight <= loose


def test_hsd_deterministic_and_thread_invariant():
    rng = np.random.default_rng(54)
    per_trial = rng.random((4, 300)) + np.linspace(0.0, 0.2, 4)[:, None]
    a = randomized_tukey_hsd(per_trial, permutations=1500, seed=10)
    b = randomized_tukey_hsd(per_trial, permutations=1500, seed=10)
    c = randomized_tukey_hsd(per_trial, permutations=1500, seed=10, threads=4)
    assert a == b == c


def test_hsd_errors():
    two = np.vstack([np.full(10, 0.5), np.full(10, 0.6)])
    with pytest.raises(TooFewMeasures):
        randomized_tukey_hsd(two[:1])
    with pytest.raises(TooFewTrials):
        randomized_tukey_hsd(two[:, :1])
    with pytest.raises(OutOfRange, match="2-dimensional"):
        randomized_tukey_hsd(two[0])
    with pytest.raises(OutOfRange):
        randomized_tukey_hsd(two, alpha=0.0)
    with pytest.raises(OutOfRange):
        randomized_tukey_hsd(two, permutations=0)
    with pytest.raises(OutOfRange):
        randomized_tukey_hsd(two, seed=-5)
    for kwargs in ({"seed": 1.5}, {"permutations": 10.5}, {"alpha": "0.05"}, {"threads": 1.5}):
        with pytest.raises(OutOfRange, match=next(iter(kwargs))):
            randomized_tukey_hsd(two, **kwargs)
    for threads in (0, -3):
        with pytest.raises(OutOfRange, match=f"--threads must be >= 1, got {threads}"):
            randomized_tukey_hsd(two, threads=threads)
    # one bad cell must not silently drop the pairs between finite rows
    for bad in (np.nan, np.inf, -np.inf):
        grid = np.vstack([two, np.full(10, 0.9)])
        grid[2, 3] = bad
        with pytest.raises(OutOfRange, match="finite"):
            randomized_tukey_hsd(grid)


# --- end-to-end split-half consistency ---


def test_split_half_consistency_report():
    ds, runs = synth.generate(n_systems=8, n_cases=40, seed=12)
    measures = [MeasureId.NMD, MeasureId.NVD, MeasureId.DNKT]
    report = split_half_consistency(
        ds, runs, measures, mode=FullSplit(), B=60, seed=13, permutations=400
    )
    assert report.measures == tuple(measures)
    assert report.per_trial_tau.shape == (3, 60)
    assert report.mean_tau == tuple(report.per_trial_tau.mean(axis=1))
    assert report.mode == FullSplit()
    assert (report.seed, report.B, report.alpha, report.permutations) == (13, 60, 0.05, 400)
    means = dict(zip(report.measures, report.mean_tau))
    for winner, loser in report.significant_pairs:
        assert means[winner] > means[loser]


def test_reports_check_their_invariants():
    nmd, nvd, jsd = MeasureId.NMD, MeasureId.NVD, MeasureId.JSD
    settings = dict(mode=FullSplit(), seed=1, alpha=0.05, permutations=10)
    grid = np.full((2, 5), 0.5)
    assert ConsistencyReport((nmd, nvd), grid, (), **settings).B == 5
    for measures, per_trial, pairs, error in (
        ((nmd,), grid, (), LengthMismatch),
        ((), np.empty((0, 5)), (), LengthMismatch),
        ((nmd, nvd), grid[:, :0], (), TooFewTrials),
        ((nmd, nvd), grid, ((nmd, nmd),), OutOfRange),
        ((nmd, nvd), grid, ((nmd, jsd),), OutOfRange),
    ):
        with pytest.raises(error):
            ConsistencyReport(measures, per_trial, pairs, **settings)
    with pytest.raises(OutOfRange, match="alpha"):
        ConsistencyReport((nmd, nvd), grid, (), **{**settings, "alpha": 7})
    with pytest.raises(OutOfRange, match="measure NMD is listed twice"):
        ConsistencyReport((nmd, nmd), grid, (), **settings)
    with pytest.raises(OutOfRange, match="measure 'NVD' is not a MeasureId"):
        ConsistencyReport((nmd, "NVD"), grid, (), **settings)
    # Every per-trial tau lies in [-1, 1]; NaN is not a tau.
    assert ConsistencyReport((nmd, nvd), np.array([[1.0] * 5, [-1.0] * 5]), (), **settings)
    for value in (1.5, -1.0000000000000002, math.nan, math.inf, 1e308):
        bad = grid.copy()
        bad[0, :2] = value
        with pytest.raises(OutOfRange, match=r"per-trial taus must be numbers in \[-1, 1\]"):
            ConsistencyReport((nmd, nvd), bad, (), **settings)
    # A significant pair is listed once, winner first, and its winner has the
    # strictly higher mean per-trial tau, as randomized_tukey_hsd reports it.
    apart = np.array([[0.9] * 5, [0.1] * 5, [0.5] * 5])
    assert ConsistencyReport((nmd, nvd, jsd), apart, ((nmd, nvd), (jsd, nvd)), **settings)
    for per_trial, pairs, message in (
        (apart, ((nmd, nvd), (nmd, nvd)), "listed twice"),
        (apart, ((nmd, nvd), (nvd, nmd)), "listed twice"),
        (apart, ((nvd, nmd),), "winner's mean tau 0.1 is not above the loser's 0.9"),
        (np.full((3, 5), 0.5), ((nmd, nvd),), "is not above"),
    ):
        with pytest.raises(OutOfRange, match=message):
            ConsistencyReport((nmd, nvd, jsd), per_trial, pairs, **settings)

    tau = tau_with_ci([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    assert AgreementReport((nmd, nvd), (tau,)).avg_similarity == (tau.tau,) * 2
    for measures, taus, error in (
        ((nmd,), (), TooFewMeasures),
        ((nmd, nvd), (), LengthMismatch),
        ((nmd, nvd), (tau, tau), LengthMismatch),
        ((nmd, nvd), (None,), LengthMismatch),
        ((nmd, nvd, jsd), (tau, tau), LengthMismatch),
        ((nmd, nmd), (tau,), OutOfRange),
        ((nmd, "NVD"), (tau,), OutOfRange),
    ):
        with pytest.raises(error):
            AgreementReport(measures, taus)


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"B": 0}, TooFewTrials),
        ({"seed": -1}, OutOfRange),
        ({"mode": FixedSize(21)}, DatasetTooSmall),
        ({"threads": 0}, OutOfRange),
        ({"threads": -3}, OutOfRange),
        ({"n_systems": 1}, TooFewSystems),
        ({"tau_variant": "kendall"}, OutOfRange),
        ({"seed": 1.5}, OutOfRange),
        ({"seed": True}, OutOfRange),
        ({"B": 2.5}, OutOfRange),
        ({"B": True}, OutOfRange),
        ({"permutations": 10.5}, OutOfRange),
        ({"threads": 1.5}, OutOfRange),
        ({"alpha": "0.05"}, OutOfRange),
        ({"measures": []}, TooFewMeasures),
        ({"measures": [MeasureId.NMD, MeasureId.NVD, MeasureId.NMD]}, OutOfRange),
        ({"measures": ["NMD", "NVD"]}, OutOfRange),
    ],
)
def test_split_half_consistency_validates_before_scoring(monkeypatch, kwargs, error):
    def no_scoring(*args):
        raise AssertionError("scored before the trial arguments were checked")

    kwargs = dict(kwargs)
    ds, runs = synth.generate(n_systems=kwargs.pop("n_systems", 4), n_cases=40, seed=15)
    measures = kwargs.pop("measures", [MeasureId.NMD, MeasureId.NVD])
    monkeypatch.setattr(meta_eval, "score_matrix", no_scoring)
    with pytest.raises(error):
        split_half_consistency(ds, runs, measures, **kwargs)


def test_split_half_consistency_single_trial_skips_significance():
    ds, runs = synth.generate(n_systems=5, n_cases=20, seed=14)
    report = split_half_consistency(ds, runs, [MeasureId.NMD, MeasureId.NVD], B=1, seed=1)
    assert report.significant_pairs == ()
    assert report.per_trial_tau.shape == (2, 1)

