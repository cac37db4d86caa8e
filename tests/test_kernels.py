import math
import tracemalloc

import numpy as np
import pytest

from _helpers import edge_values, naive_pair_counts, tie_heavy
from quantdiv import kernels
from quantdiv.measures import BIN_TIE_EPS
from quantdiv.meta_eval import randomized_tukey_hsd
from quantdiv.rank_correlation import pair_counts, tau_b, tau_with_ci


def _matches_naive(xs, ys, eps):
    # The kernel's counts of two (rows, n) blocks against the brute-force tally of each row.
    got = kernels.pair_stats(xs, ys, eps)
    assert all(count.shape == xs.shape[:1] and count.dtype == np.intp for count in got)
    expected = [naive_pair_counts(list(x), list(y), eps) for x, y in zip(xs, ys)]
    return np.array_equal(np.stack(got, axis=-1), expected)


# 2-D blocks where rows >= n, whose matrices are (n, n, rows): the DNKT
# block of the score-wide shape (250 cases, 11 classes) and a split-half
# block of 113 trials of 3 measures and 40 systems.
ROWS_INNERMOST = [(250, 11), (339, 40)]


def test_pair_stats_matches_naive():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        xs = np.round(rng.normal(size=(1, n)), 1)
        ys = np.round(rng.normal(size=(1, n)), 1)
        for eps in (0.0, 0.05):
            assert _matches_naive(xs, ys, eps), (n, eps)
    # (n, n, rows) matrices for the split-half blocks of the consistency-trials
    # benchmark and of the bundled data; few rows of many items keep (rows, n, n).
    for shape in [(282, 40), (2004, 12), (3, 400)]:
        assert _matches_naive(tie_heavy(rng, shape), tie_heavy(rng, shape), 0.0), shape
    # Tolerant ties on (n, n, rows), on values rounded to multiples of the tolerances.
    for shape in ROWS_INNERMOST:
        xs, ys = np.round(rng.normal(size=(2, *shape)), 1)
        for eps in (BIN_TIE_EPS, 0.05):
            assert _matches_naive(xs, ys, eps), (shape, eps)


@pytest.mark.parametrize("eps", [0.0, BIN_TIE_EPS, 0.05])
def test_pair_stats_matches_naive_at_tie_edges(eps):
    rng = np.random.default_rng(47)
    # Six rows: (n, n, rows) matrices up to n = 6, (rows, n, n) beyond.
    for n in range(2, 61):
        assert _matches_naive(edge_values(rng, (6, n), eps), edge_values(rng, (6, n), eps), eps), n
    for shape in ROWS_INNERMOST:
        assert _matches_naive(edge_values(rng, shape, eps), edge_values(rng, shape, eps), eps), shape


def test_pair_stats_edge_values_hit_the_tie_boundary():
    # The pool of edge_values really produces gaps of eps and one ulp either side.
    eps = 0.05
    assert 2 * eps - eps == eps
    assert 2 * eps - np.nextafter(eps, 0.0) > eps > 2 * eps - np.nextafter(eps, 1.0)


@pytest.mark.parametrize("n", [362, 363, 400])
def test_pair_stats_counts_past_uint16(n):
    # n (n - 1) / 2 exceeds 65535 from n = 363 on: every pair is concordant
    # in one row and discordant in the other, in the kernel and through
    # pair_counts with a 1-D list against a stack.
    xs = np.arange(n, dtype=np.float64)
    ys = np.stack([xs, -xs])
    pairs = n * (n - 1) // 2
    through_api = pair_counts(xs, ys)
    for conc, disc, tied_x, tied_y in (
        kernels.pair_stats(np.stack([xs, xs]), ys, 0.0),
        (through_api.conc, through_api.disc, through_api.tied_x, through_api.tied_y),
    ):
        assert conc.tolist() == [pairs, 0] and disc.tolist() == [0, pairs]
        assert np.all(tied_x == 0) and tied_y.tolist() == [0, 0]


@pytest.mark.parametrize("n", [256, 257, 400])
def test_column_counts_past_uint8(n):
    # With the rows innermost, each column is counted first: column 0 of
    # this matrix (x ascending) holds n - 1 True cells, past 255 from n = 257.
    above = np.tril(np.ones((n, n), dtype=bool), -1)[..., None]
    assert kernels._count_cells(above, (0, 1)).tolist() == [n * (n - 1) // 2]


@pytest.mark.parametrize("block", ["trials", "dnkt", "lists"])
def test_pair_counting_retains_no_memory(block):
    # Nothing a call allocates may outlive it. A tuple built from a generator
    # (or by np.moveaxis) on the per-call path leaves one more tuple on
    # CPython's free lists each call, up to 2000, and tracemalloc counts them.
    # 1,000 calls on a split-half block of 113 trials, 3 measures and 40
    # systems, on a DNKT block (250 cases of 11 classes against the gold) and
    # on two 1-D lists of 12 must leave under 8 KB traced.
    rng = np.random.default_rng(49)
    xs, ys, eps = {
        "trials": (tie_heavy(rng, (113, 3, 40)), tie_heavy(rng, (113, 3, 40)), 0.0),
        "dnkt": (rng.dirichlet(np.ones(11), (1, 250)), rng.dirichlet(np.ones(11), 250), BIN_TIE_EPS),
        "lists": (rng.random(12), np.round(rng.random(12), 1), 0.0),
    }[block]
    tracemalloc.start()
    try:
        for _ in range(10):
            tau_b(xs, ys, eps)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            tau_b(xs, ys, eps)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 8 << 10, retained


def test_tau_with_ci_memory_is_quadratic_bytes():
    # Two n x n boolean matrices, which the XOR and the AND overwrite; three
    # took 3 n^2 bytes, and the float pair differences 21 n^2 bytes.
    n = 3000
    rng = np.random.default_rng(48)
    xs, ys = rng.random(n), np.round(rng.random(n), 2)
    tracemalloc.start()
    try:
        tau_with_ci(xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n


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
    # one round per sub-block; three rounds (which does not divide 256); the
    # default. The budget covers the tiled source and the buffer: 2 B m a round.
    return {"one": 1, "three": 2 * 3 * COLS * m, "default": kernels.HSD_BLOCK}[kind]


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
