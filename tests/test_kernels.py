import math
import tracemalloc

import numpy as np
import pytest

from _helpers import naive_pair_counts
from quantdiv import kernels
from quantdiv.measures import BIN_TIE_EPS
from quantdiv.meta_eval import randomized_tukey_hsd
from quantdiv.rank_correlation import tau_with_ci


def _tie_heavy(rng, shape):
    # Seven levels: about one pair in seven is an exact tie, whatever n.
    return rng.integers(-3, 4, size=shape) / 4


def test_pair_stats_matches_naive():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        xs = np.round(rng.normal(size=n), 1)
        ys = np.round(rng.normal(size=n), 1)
        for eps in (0.0, 0.05):
            got = kernels.pair_stats(xs, ys, eps)
            assert tuple(got) == naive_pair_counts(list(xs), list(ys), eps)
    # Exact ties lay the pair matrices out (n, n, rows) once the rows number
    # at least n: the split-half blocks of the consistency-trials benchmark
    # and of the bundled data. Few rows of many items keep (rows, n, n).
    for shape in [(94, 3, 40), (167, 12, 12), (1, 3, 400)]:
        xs, ys = _tie_heavy(rng, shape), _tie_heavy(rng, shape)
        got = kernels.pair_stats(xs, ys, 0.0)
        assert all(count.shape == shape[:-1] for count in got)
        rows = zip(xs.reshape(-1, shape[-1]), ys.reshape(-1, shape[-1]))
        expected = [naive_pair_counts(list(x), list(y)) for x, y in rows]
        assert np.array_equal(np.stack(got, axis=-1).reshape(-1, 4), expected)


def _sign_pair_counts(xs, ys):
    # Exact-tie counts from the signs of the differences over pairs i < j.
    i, j = np.triu_indices(xs.shape[-1], 1)
    sx, sy = np.sign(xs[..., i] - xs[..., j]), np.sign(ys[..., i] - ys[..., j])
    product = sx * sy
    return (product > 0).sum(-1), (product < 0).sum(-1), (sx == 0).sum(-1), (sy == 0).sum(-1)


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
    # 12 broadcast rows: (n, n, rows) matrices up to n = 12, (rows, n, n)
    # beyond; every n up to 40, then every 12th, to keep the oracle quick.
    for n in [*range(2, 41), *range(48, 301, 12)]:
        xs, ys = _tie_heavy(rng, (3, 4, n)), _tie_heavy(rng, (4, n))
        got = kernels.pair_stats(xs, ys, 0.0)
        assert [count.shape for count in got] == [(3, 4), (3, 4), (3, 4), (4,)]
        assert all(map(np.array_equal, got, _sign_pair_counts(xs, ys))), n
    # A 1-D list against stacked rows, in either layout: its tied count is a numpy integer.
    for n in (5, 30):
        flat, stacked = _tie_heavy(rng, n), _tie_heavy(rng, (3, 4, n))
        for xs, ys in ((flat, stacked), (stacked, flat)):
            got = kernels.pair_stats(xs, ys, 0.0)
            assert [np.shape(count) for count in got] == [(3, 4), (3, 4), xs.shape[:-1], ys.shape[:-1]]
            assert isinstance(got[2] if xs is flat else got[3], np.integer)
            assert all(map(np.array_equal, got, _sign_pair_counts(xs, ys)))


def _edge_values(rng, shape, eps):
    # Half the values come from a pool whose gaps are exact ties, exactly
    # eps (2 eps - eps, eps - 0) and eps one ulp either side of it: values
    # within a factor of two subtract exactly. The rest are rounded normals.
    pool = np.array([0.0, eps, 2 * eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0)])
    edge = rng.choice(pool, size=shape)
    return np.where(rng.random(shape) < 0.5, edge, np.round(rng.normal(size=shape), 1))


@pytest.mark.parametrize("eps", [0.0, BIN_TIE_EPS, 0.05])
def test_pair_stats_matches_naive_at_tie_edges(eps):
    rng = np.random.default_rng(47)
    for n in range(2, 61):
        xs = _edge_values(rng, (2, 1, n), eps)
        ys = _edge_values(rng, (3, n), eps)  # broadcasts to (2, 3) rows
        conc, disc, tied_x, tied_y = kernels.pair_stats(xs, ys, eps)
        assert conc.shape == disc.shape == (2, 3)
        assert tied_x.shape == (2, 1) and tied_y.shape == (3,)
        for i in range(2):
            for j in range(3):
                expected = naive_pair_counts(list(xs[i, 0]), list(ys[j]), eps)
                assert (conc[i, j], disc[i, j], tied_x[i, 0], tied_y[j]) == expected


def test_pair_stats_edge_values_hit_the_tie_boundary():
    # The pool above really produces gaps of eps and one ulp either side.
    eps = 0.05
    assert 2 * eps - eps == eps
    assert 2 * eps - np.nextafter(eps, 0.0) > eps > 2 * eps - np.nextafter(eps, 1.0)


@pytest.mark.parametrize("n", [362, 363, 400])
def test_pair_stats_counts_past_uint16(n):
    # n (n - 1) / 2 exceeds 65535 from n = 363 on: every pair is concordant
    # in one row and discordant in the other.
    xs = np.arange(n, dtype=np.float64)
    ys = np.stack([xs, -xs])
    conc, disc, tied_x, tied_y = kernels.pair_stats(xs, ys, 0.0)
    pairs = n * (n - 1) // 2
    assert conc.tolist() == [pairs, 0] and disc.tolist() == [0, pairs]
    assert tied_x == 0 and tied_y.tolist() == [0, 0]


@pytest.mark.parametrize("n", [256, 257, 400])
def test_column_counts_past_uint8(n):
    # With the rows innermost, each column is counted first: column 0 of
    # this matrix (x ascending) holds n - 1 True cells, past 255 from n = 257.
    above = np.tril(np.ones((n, n), dtype=bool), -1)[..., None]
    assert kernels._count_cells(above, (0, 1)).tolist() == [n * (n - 1) // 2]


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
