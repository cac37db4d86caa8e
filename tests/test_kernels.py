import math
import tracemalloc

import numpy as np
import pytest

from _helpers import naive_pair_counts
from quantdiv import kernels
from quantdiv.meta_eval import randomized_tukey_hsd


def test_pair_stats_matches_naive():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        xs = np.round(rng.normal(size=n), 1)
        ys = np.round(rng.normal(size=n), 1)
        for eps in (0.0, 0.05):
            got = kernels.pair_stats(xs, ys, eps)
            assert tuple(got) == naive_pair_counts(list(xs), list(ys), eps)


def test_pair_stats_counts_stacked_rows_independently():
    rng = np.random.default_rng(42)
    xs = np.round(rng.normal(size=(3, 4, 9)), 1)
    ys = np.round(rng.normal(size=(4, 9)), 1)  # broadcasts against every xs[i]
    for eps in (0.0, 1e-9, 0.1):
        conc, disc, tied_x, tied_y = kernels.pair_stats(xs, ys, eps)
        assert conc.shape == disc.shape == tied_x.shape == (3, 4) and tied_y.shape == (4,)
        got = np.broadcast_arrays(conc, disc, tied_x, tied_y)
        for i in range(3):
            for j in range(4):
                expected = naive_pair_counts(list(xs[i, j]), list(ys[j]), eps)
                assert tuple(int(count[i, j]) for count in got) == expected


def test_hsd_max_stats_matches_label_permutation_loop():
    # Permuting the values of each column must equal permuting row labels
    # drawn from an identically seeded generator.
    rng = np.random.default_rng(43)
    m, cols, rounds = 4, 30, 25
    values = np.ascontiguousarray(rng.random((m, cols)))
    out = np.empty(rounds)
    kernels.hsd_max_stats(values, np.random.default_rng(7), out)
    labels_rng = np.random.default_rng(7)
    for r in range(rounds):
        sums = [0.0] * m
        for b in range(cols):
            labels = labels_rng.permutation(m)
            for k in range(m):
                sums[k] += values[labels[k], b]
        means = [s / cols for s in sums]
        expected = max(means) - min(means)
        assert out[r] == pytest.approx(expected, abs=1e-12)
        # the largest pairwise gap of a set is max minus min
        pairwise = max(abs(means[i] - means[j]) for i in range(m) for j in range(m))
        assert math.isclose(expected, pairwise, abs_tol=1e-15)


def _whole_chunk_max_stats(values, rng, rounds):
    # Reference: permute all rounds of a chunk at once, then sum.
    m, cols = values.shape
    work = np.empty((rounds, cols, m))
    work[...] = values.T
    rng.permuted(work, axis=2, out=work)
    sums = work.sum(axis=1)
    return (sums.max(axis=1) - sums.min(axis=1)) / cols


COLS = 40


def _budget(kind, m):
    # one round per sub-block; three rounds (which does not divide 256); the default
    return {"one": 1, "three": 3 * COLS * m, "default": kernels.HSD_BLOCK}[kind]


@pytest.mark.parametrize("budget", ["one", "three", "default"])
@pytest.mark.parametrize("rounds", [136, 256])
@pytest.mark.parametrize("m", [2, 3, 12])
def test_hsd_max_stats_sub_blocks_equal_whole_chunk(monkeypatch, budget, rounds, m):
    monkeypatch.setattr(kernels, "HSD_BLOCK", _budget(budget, m))
    values = np.random.default_rng(44 + m).random((m, COLS))
    out = np.empty(rounds)
    kernels.hsd_max_stats(values, np.random.default_rng(rounds), out)
    expected = _whole_chunk_max_stats(values, np.random.default_rng(rounds), rounds)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("budget", ["one", "three", "default"])
def test_hsd_significant_set_does_not_depend_on_budget(monkeypatch, budget, threads):
    m = 5
    per_trial = np.random.default_rng(45).random((m, COLS)) + np.linspace(0.0, 0.5, m)[:, None]
    expected = randomized_tukey_hsd(per_trial, permutations=600, seed=3)
    assert 0 < len(expected) < m * (m - 1) // 2  # some pairs differ, some do not
    monkeypatch.setattr(kernels, "HSD_BLOCK", _budget(budget, m))
    assert randomized_tukey_hsd(per_trial, permutations=600, seed=3, threads=threads) == expected


def test_hsd_memory_is_bounded_by_block():
    # A whole 256-round chunk of this grid would take 256 * 5000 * 3 * 8 bytes = 30.7 MB.
    values = np.random.default_rng(46).random((3, 5000))
    tracemalloc.start()
    try:
        randomized_tukey_hsd(values, permutations=256, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < kernels.HSD_BLOCK * 8 + 4 * values.nbytes
