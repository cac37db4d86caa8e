import math

import numpy as np
import pytest

from _helpers import naive_pair_counts
from quantdiv import kernels


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
