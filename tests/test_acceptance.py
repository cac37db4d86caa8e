"""Acceptance gate: nine numbered criteria, one test function family each.

Each check prints an ACCEPTANCE line with the observed numbers; the
conftest hook folds them into a per-criterion PASS/FAIL summary. Three
checks under criterion 1 fail by design: the gold-mass class distance is
computed from the gold argument only, which makes RNADW2 directional and
blinds both gold-mass variants to which side of a point-mass gold an error
falls on. README.md states the full argument, under "Criterion 1: three
honest failures".
"""

import time

import numpy as np
import pytest

from quantdiv.cli import main
from quantdiv.dataset_io import write_dataset, write_run
from quantdiv.distributions import validate
from quantdiv.measures import (
    ALL_MEASURES,
    DistanceScheme,
    MeasureId,
    combine_harmonic,
    od,
    score,
    score_batch,
)
from quantdiv.meta_eval import (
    FullSplit,
    consistency_per_trial,
    randomized_tukey_hsd,
    score_matrix,
)
from quantdiv.rank_correlation import tau_b, tau_with_ci
from quantdiv import synth

from _helpers import (
    naive_tau_b,
    oracle_hsd_critical,
    positive_distribution,
    random_distribution,
    random_pair,
    tied_lists,
)

SYMMETRIC_MEASURES = (
    MeasureId.NMD,
    MeasureId.RNADW,
    MeasureId.RNADW2,
    MeasureId.NVD,
    MeasureId.RNSS,
    MeasureId.JSD,
    MeasureId.DNKT,
    MeasureId.RSNOD,
)

ORDINAL_MEASURES = (
    MeasureId.NMD,
    MeasureId.RNOD,
    MeasureId.RNADW,
    MeasureId.RNOD2,
    MeasureId.RNADW2,
)

NOMINAL_MEASURES = (MeasureId.NVD, MeasureId.RNSS, MeasureId.JSD)


@pytest.fixture(scope="module")
def pair_corpus():
    rng = np.random.default_rng(1101)
    return [random_pair(rng) for _ in range(1000)]


def note(text: str, ok: bool) -> None:
    print(f"ACCEPTANCE {text}: {'PASS' if ok else 'FAIL'}")


# --- criterion 1: property matrix ---


@pytest.mark.parametrize("measure", SYMMETRIC_MEASURES, ids=[m.value for m in SYMMETRIC_MEASURES])
def test_c1_symmetry(pair_corpus, measure):
    worst = max(
        abs(score(measure, p, q) - score(measure, q, p)) for p, q in pair_corpus
    )
    ok = worst <= 1e-12
    note(f"C1 symmetry[{measure.value}] max gap {worst:.3e} (tol 1e-12)", ok)
    assert ok


def test_c1_asymmetry_witnesses():
    est = validate([1.0, 0.0, 0.0])
    gold = validate([0.0, 0.5, 0.5])
    for measure in (MeasureId.RNOD, MeasureId.RNOD2):
        fwd = score(measure, est, gold)
        rev = score(measure, gold, est)
        gap = abs(fwd - rev)
        ok = gap > 1e-6
        note(f"C1 asymmetry[{measure.value}] |{fwd:.6f} - {rev:.6f}| = {gap:.6f} > 1e-6", ok)
        assert ok


@pytest.mark.parametrize(
    "measure",
    ORDINAL_MEASURES + NOMINAL_MEASURES,
    ids=[m.value for m in ORDINAL_MEASURES + NOMINAL_MEASURES],
)
def test_c1_ordinal_awareness(measure):
    # gold says class 1; calling it class 3 must cost strictly more than
    # calling it class 2 for an order-aware measure, and exactly the same
    # for an order-blind one
    gold = validate([1.0, 0.0, 0.0])
    near = score(measure, validate([0.0, 1.0, 0.0]), gold)
    far = score(measure, validate([0.0, 0.0, 1.0]), gold)
    if measure in ORDINAL_MEASURES:
        ok = far > near
        note(f"C1 ordinal[{measure.value}] far {far:.6f} > near {near:.6f}", ok)
    else:
        ok = far == near
        note(f"C1 ordinal[{measure.value}] far {far:.6f} == near {near:.6f}", ok)
    assert ok


def test_c1_runtime(pair_corpus):
    start = time.perf_counter()
    for p, q in pair_corpus:
        for measure in SYMMETRIC_MEASURES:
            score(measure, p, q)
            score(measure, q, p)
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    note(f"C1 runtime {elapsed:.2f}s < 5s", ok)
    assert ok


# --- criterion 2: worked examples ---


def test_c2_worked_examples():
    gold = validate([0.4, 0.3, 0.2, 0.1])
    est = validate([0.31, 0.30, 0.20, 0.19])
    same_order = score(MeasureId.DNKT, est, gold)
    ok = same_order == 0.0
    note(f"C2 order-preserving estimate scores {same_order!r} == 0.0", ok)
    assert ok

    uniform = validate([0.25, 0.25, 0.25, 0.25])
    rng = np.random.default_rng(22)
    values = {score(MeasureId.DNKT, random_distribution(rng, 4), uniform) for _ in range(50)}
    values.add(score(MeasureId.DNKT, gold, uniform))
    ok = values == {0.5}
    note(f"C2 uniform gold scores {sorted(values)!r} == [0.5]", ok)
    assert ok

    hybrids = [
        score(m, gold, gold)
        for m in (MeasureId.DNKT_JSD, MeasureId.DNKT_NMD, MeasureId.DNKT_RNOD)
    ]
    ok = hybrids == [0.0, 0.0, 0.0] and combine_harmonic(0.0, 0.0) == 0.0
    note(f"C2 hybrids at zero/zero give {hybrids!r}", ok)
    assert ok


# --- criterion 3: tau-b oracle equivalence ---


def test_c3_tau_matches_naive_oracle():
    rng = np.random.default_rng(33)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 26))
        xs, ys = tied_lists(rng, n)
        if tau_b(xs, ys) != naive_tau_b(xs, ys):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    note(f"C3 tau-b vs naive oracle: {mismatches} mismatches in 1000 lists, {elapsed:.2f}s < 5s", ok)
    assert ok


# --- criterion 4: confidence interval regression ---


def test_c4_ci_regression():
    # 12 paired rankings, one swap two steps apart: 3 discordant pairs,
    # tau = 60/66 = 0.909...
    xs = list(range(12))
    ys = list(range(12))
    ys[0], ys[2] = ys[2], ys[0]
    result = tau_with_ci(xs, ys, confidence=0.95)
    assert result.tau == pytest.approx(0.909, abs=5e-4)
    low_gap = abs(result.ci_low - 0.787)
    high_gap = abs(result.ci_high - 0.963)
    ok = low_gap <= 0.02 and high_gap <= 0.02
    note(
        f"C4 CI [{result.ci_low:.6f}, {result.ci_high:.6f}] vs [0.787, 0.963], "
        f"gaps ({low_gap:.4f}, {high_gap:.4f}) <= 0.02",
        ok,
    )
    assert ok


# --- criterion 5: identity and range ---


def test_c5_identity_is_zero():
    rng = np.random.default_rng(55)
    non_dnkt = [m for m in ALL_MEASURES if m is not MeasureId.DNKT]
    bad = 0
    for _ in range(1000):
        p = random_distribution(rng, int(rng.integers(2, 8)))
        bad += sum(score(m, p, p) != 0.0 for m in non_dnkt)
    ok = bad == 0
    note(f"C5 identity: {bad} nonzero self-scores over 1000 distributions x 12 measures", ok)
    assert ok


def test_c5_range_bounds():
    rng = np.random.default_rng(56)
    pairs = [random_pair(rng) for _ in range(10000)]
    # One score_batch call per (measure, K): the pairs of one K stacked.
    by_k = {}
    for i, (p, _) in enumerate(pairs):
        by_k.setdefault(len(p), []).append(i)
    values = np.empty((len(ALL_MEASURES), len(pairs)))
    for rows in by_k.values():
        est, gold = np.array([pairs[i] for i in rows]).transpose(1, 0, 2)
        for j, m in enumerate(ALL_MEASURES):
            values[j, rows] = score_batch(m, est, gold)
    # The batch is the per-pair call, checked on the first 100 pairs.
    for j, m in enumerate(ALL_MEASURES):
        assert [score(m, p, q) for p, q in pairs[:100]] == values[j, :100].tolist(), m
    lo, hi = values.min(), values.max()
    ok = lo >= 0.0 and hi <= 1.0 + 1e-12
    note(f"C5 range: all 13 measures within [{lo:.3e}, {hi:.6f}] over 10000 pairs", ok)
    assert ok


# --- criterion 6: conditional symmetry of the order-aware divergence ---


def test_c6_od_symmetric_on_positive_pairs():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        p = positive_distribution(rng, k)
        q = positive_distribution(rng, k)
        fwd = od(p, q, DistanceScheme.EQUIDISTANT)
        rev = od(q, p, DistanceScheme.EQUIDISTANT)
        worst = max(worst, abs(fwd - rev))
    ok = worst <= 1e-12
    note(f"C6 od symmetry on strictly positive pairs: max gap {worst:.3e} <= 1e-12", ok)
    assert ok


# --- criterion 7: harness determinism and runtime ---


@pytest.fixture(scope="module")
def harness_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("harness")
    ds, runs = synth.generate(n_systems=20, n_cases=300, seed=77)
    gold = write_dataset(ds, root / "gold.tsv")
    run_dir = root / "runs"
    run_dir.mkdir()
    for run in runs:
        write_run(run, ds, run_dir / f"{run.system_id}.tsv")
    return gold, run_dir


def test_c7_determinism_and_runtime(harness_files, tmp_path, capsys):
    gold, run_dir = harness_files
    texts, payloads = [], []
    elapsed = None
    for i, threads in enumerate(("1", "4", "8")):
        out_path = tmp_path / f"report{i}.json"
        start = time.perf_counter()
        code = main(
            [
                "consistency",
                "--gold",
                str(gold),
                "--runs",
                str(run_dir),
                "--B",
                "1000",
                "--seed",
                "7",
                "--threads",
                threads,
                "--output",
                str(out_path),
            ]
        )
        duration = time.perf_counter() - start
        assert code == 0
        texts.append(capsys.readouterr().out)
        payloads.append(out_path.read_bytes())
        if threads == "1":
            elapsed = duration
    identical = texts[0] == texts[1] == texts[2] and payloads[0] == payloads[1] == payloads[2]
    ok = identical and elapsed < 60.0
    note(
        f"C7 byte-identical across threads 1/4/8: {identical}; "
        f"single-thread runtime {elapsed:.1f}s < 60s",
        ok,
    )
    assert ok


# --- criterion 8: randomized Tukey HSD sanity ---


def test_c8_hsd_identical_rows():
    row = np.linspace(0.2, 0.8, 100)
    grid = np.tile(row, (3, 1))
    sig = randomized_tukey_hsd(grid, alpha=0.05, permutations=500, seed=81)
    ok = sig == frozenset()
    note(f"C8 identical rows give {len(sig)} significant pairs", ok)
    assert ok


def test_c8_hsd_separated_rows():
    rng = np.random.default_rng(82)
    base = rng.uniform(0.0, 0.05, size=100)
    grid = np.vstack([base + 0.8, base])
    sig = randomized_tukey_hsd(grid, alpha=0.05, permutations=1000, seed=83)
    # cross-checked once against an independent brute-force permutation
    # oracle, then frozen: both must call the 0.8 gap significant
    crit = oracle_hsd_critical(grid, alpha=0.05, rounds=400, seed=84)
    oracle_significant = 0.8 > crit
    ok = sig == frozenset({(0, 1)}) and oracle_significant
    note(
        f"C8 0.8-separated rows: library pairs {sorted(sig)!r}, "
        f"oracle critical value {crit:.4f}",
        ok,
    )
    assert ok


def test_c8_hsd_alpha_monotone():
    rng = np.random.default_rng(85)
    grid = rng.random((5, 100)) + np.linspace(0.0, 0.3, 5)[:, None]
    strict = randomized_tukey_hsd(grid, alpha=0.01, permutations=2000, seed=86)
    loose = randomized_tukey_hsd(grid, alpha=0.05, permutations=2000, seed=86)
    ok = strict <= loose
    note(f"C8 alpha 0.01 pairs ({len(strict)}) subset of alpha 0.05 pairs ({len(loose)})", ok)
    assert ok


# --- criterion 9: synthetic end-to-end separation ---


def test_c9_generator_separates_measure_families():
    ds, runs = synth.generate(n_systems=12, n_cases=300, seed=42, **synth.LOW_NOISE)
    stacked = np.stack(
        [
            score_matrix(ds, runs, MeasureId.RNOD).values,
            score_matrix(ds, runs, MeasureId.DNKT).values,
        ]
    )
    per_trial = consistency_per_trial(stacked, FullSplit(), B=1000, seed=42)
    quant_tau, rank_only_tau = per_trial.mean(axis=1)
    margin = quant_tau - rank_only_tau
    ok = margin > 0.1
    note(
        f"C9 mean consistency tau: RNOD {quant_tau:.4f} vs DNKT {rank_only_tau:.4f}, "
        f"margin {margin:.4f} > 0.1",
        ok,
    )
    assert ok
