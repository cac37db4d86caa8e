import re

import numpy as np
import pytest

from _helpers import edge_values, naive_pair_counts, naive_tau_b, tie_heavy, tied_lists
from quantdiv import kernels
from quantdiv.errors import LengthMismatch, OutOfRange, TooShort
from quantdiv.measures import BIN_TIE_EPS
from quantdiv.rank_correlation import (
    PairCounts,
    TauResult,
    pair_counts,
    tau_b,
    tau_plain,
    tau_with_ci,
)


def test_pair_counts_basic():
    c = pair_counts([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
    assert (c.conc, c.disc, c.tied_x, c.tied_y) == (3, 0, 0, 0)
    assert c.n == 3
    assert c.total_pairs == 3
    assert c.not_tied_x == 3


def test_pair_counts_reversal_and_ties():
    c = pair_counts([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    assert (c.conc, c.disc) == (0, 3)
    c = pair_counts([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert c.tied_x == 1
    assert c.tied_y == 0
    assert (c.conc, c.disc) == (2, 0)


def test_pair_counts_tie_epsilon():
    xs = [1.0, 1.0 + 5e-10, 2.0]
    ys = [1.0, 2.0, 3.0]
    assert pair_counts(xs, ys, tie_eps=0.0).tied_x == 0
    assert pair_counts(xs, ys, tie_eps=1e-9).tied_x == 1


def test_pair_counts_errors():
    with pytest.raises(LengthMismatch):
        pair_counts([1.0, 2.0], [1.0])
    with pytest.raises(TooShort):
        pair_counts([1.0], [1.0])
    with pytest.raises(OutOfRange):
        pair_counts([1.0, 2.0], [1.0, 2.0], tie_eps=-1e-9)
    with pytest.raises(OutOfRange):
        pair_counts([1.0, float("nan")], [1.0, 2.0])
    with pytest.raises(OutOfRange, match="inputs must be sequences"):
        pair_counts(1.0, [1.0, 2.0])
    with pytest.raises(LengthMismatch, match=r"shapes \(2, 3\) and \(3, 3\) differ"):
        pair_counts(np.zeros((2, 3)), np.zeros((3, 3)))


@pytest.mark.parametrize("call", [pair_counts, tau_b, tau_plain])
def test_two_shapes_that_differ_are_refused(call):
    # One shape for both inputs: a list against a stack, in either order, is
    # refused like two stacks or two lists of different shapes.
    flat, stack = [1.0, 2.0, 3.0], np.zeros((2, 3))
    for xs, ys in ((flat, stack), (stack, flat), (stack, np.zeros((1, 2, 3))), ([1.0, 2.0], flat)):
        message = re.escape(f"shapes {np.shape(xs)} and {np.shape(ys)} differ")
        with pytest.raises(LengthMismatch, match=message):
            call(xs, ys)


def test_tau_b_exact_endpoints():
    xs = list(map(float, range(12)))
    assert tau_b(xs, xs) == 1.0
    assert tau_b(xs, xs[::-1]) == -1.0


def test_tau_b_fully_tied_list_gives_zero():
    assert tau_b([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
    assert tau_b([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]) == 0.0


def test_tau_b_monotone_invariance():
    rng = np.random.default_rng(31)
    for _ in range(100):
        xs = rng.normal(size=10)
        ys = rng.normal(size=10)
        assert tau_b(xs, ys) == tau_b(xs, np.exp(ys))
        assert tau_b(xs, ys) == tau_b(2.0 * xs + 5.0, ys)


def test_tau_b_antisymmetry():
    rng = np.random.default_rng(32)
    for _ in range(100):
        xs = rng.normal(size=8)
        ys = rng.normal(size=8)
        assert tau_b(xs, -ys) == -tau_b(xs, ys)


def test_tau_b_matches_naive_oracle():
    rng = np.random.default_rng(33)
    for _ in range(300):
        n = int(rng.integers(2, 26))
        xs, ys = tied_lists(rng, n)
        for eps in (0.0, 1e-9, 0.05):
            assert pair_counts(xs, ys, eps) == PairCounts(
                *naive_pair_counts(xs, ys, eps), n=n
            )
            assert tau_b(xs, ys, eps) == naive_tau_b(xs, ys, eps)


def _tallies(c: PairCounts):
    return c.conc, c.disc, c.tied_x, c.tied_y


def _sign_pair_counts(xs, ys, eps=0.0):
    # Counts from the signs of the differences over pairs i < j; a gap of at most eps is a tie.
    i, j = np.triu_indices(xs.shape[-1], 1)
    dx, dy = xs[..., i] - xs[..., j], ys[..., i] - ys[..., j]
    sx, sy = np.sign(dx) * (np.abs(dx) > eps), np.sign(dy) * (np.abs(dy) > eps)
    product = sx * sy
    return (product > 0).sum(-1), (product < 0).sum(-1), (sx == 0).sum(-1), (sy == 0).sum(-1)


def test_pair_counts_tallies_stacked_rows_independently():
    rng = np.random.default_rng(42)
    xs = np.round(rng.normal(size=(3, 4, 9)), 1)
    ys = np.round(rng.normal(size=(3, 4, 9)), 1)
    for eps in (0.0, 1e-9, 0.1):
        got = _tallies(pair_counts(xs, ys, eps))
        assert [count.shape for count in got] == [(3, 4)] * 4
        for i in range(3):
            for j in range(4):
                expected = naive_pair_counts(list(xs[i, j]), list(ys[i, j]), eps)
                assert tuple(int(count[i, j]) for count in got) == expected
    # 12 rows take (rows, n, n) matrices and 32 rows (n, n, rows), whatever n;
    # every n up to 40, then every 12th, to keep the oracle quick. Values a
    # multiple of 0.25 apart: with tie_eps 0.25, a gap of one step is a tie.
    assert 12 < kernels.ROWS_INNERMOST_FROM <= 32
    for stack in ((3, 4), (8, 4)):
        for n in [*range(2, 41), *range(48, 301, 12)]:
            xs, ys = tie_heavy(rng, (*stack, n)), tie_heavy(rng, (*stack, n))
            for eps in (0.0, 0.25):
                got = _tallies(pair_counts(xs, ys, eps))
                assert [count.shape for count in got] == [stack] * 4
                assert all(map(np.array_equal, got, _sign_pair_counts(xs, ys, eps))), (stack, n, eps)
    # One list broadcast against stacked rows, as the batch DNKT passes its
    # gold: a read-only view, in either layout, counted as one list per row.
    for stack, n in (((3, 4), 5), ((8, 4), 30)):
        flat, stacked = tie_heavy(rng, n), tie_heavy(rng, (*stack, n))
        for xs, ys in (np.broadcast_arrays(flat, stacked), np.broadcast_arrays(stacked, flat)):
            got = _tallies(pair_counts(xs, ys))
            assert [count.shape for count in got] == [stack] * 4
            assert all(map(np.array_equal, got, _sign_pair_counts(xs, ys)))
            alone = pair_counts(flat, flat).tied_x
            assert np.all(got[2] == alone) if xs.strides[0] == 0 else np.all(got[3] == alone)


@pytest.mark.parametrize("eps", [0.0, BIN_TIE_EPS, 0.05])
def test_pair_counts_matches_naive_at_tie_edges(eps):
    rng = np.random.default_rng(47)
    for n in range(2, 61):
        xs, ys = edge_values(rng, (2, 3, n), eps), edge_values(rng, (2, 3, n), eps)
        got = _tallies(pair_counts(xs, ys, eps))
        assert [count.shape for count in got] == [(2, 3)] * 4
        for i in range(2):
            for j in range(3):
                expected = naive_pair_counts(list(xs[i, j]), list(ys[i, j]), eps)
                assert tuple(count[i, j] for count in got) == expected


def test_pair_counts_of_empty_stacks_are_empty():
    for eps in (0.0, 1.0):
        for shape in ((0, 3), (2, 0, 3)):
            c = pair_counts(np.zeros(shape), np.zeros(shape), eps)
            assert all(np.shape(count) == shape[:-1] for count in _tallies(c))
    assert tau_b(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)


def test_tolerant_ties_of_gaps_past_the_float_range():
    # 1e308 - -1e308 rounds to inf, which is > tie_eps, without a warning.
    xs, ys = [1e308, -1e308, 0.0, 1e308], [1.0, 2.0, 3.0, 1.5]
    assert pair_counts(xs, ys, 1.0) == PairCounts(*naive_pair_counts(xs, ys, 1.0), n=4)
    assert tau_b(xs, ys, 1.0) == naive_tau_b(xs, ys, 1.0)
    # 36 stacked rows, whose matrices are (n, n, rows).
    assert kernels.ROWS_INNERMOST_FROM <= 36
    rows = np.tile([xs, xs[::-1], ys, [-1e308, 1e308, -1e308, 1e308], ys, xs], (6, 1))
    got = _tallies(pair_counts(rows, rows[::-1], 1.0))
    expected = [naive_pair_counts(x.tolist(), y.tolist(), 1.0) for x, y in zip(rows, rows[::-1])]
    assert np.array_equal(np.stack(got, axis=-1), expected)


def test_tau_b_matches_scipy_on_tied_lists():
    # scipy is an optional, independent oracle of tau_b with ties at equality.
    # A fully tied list makes scipy's tau NaN, where tau_b gives 0, so those are left out.
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(51)
    compared = 0
    for n in [*range(3, 41), *range(50, 301, 25)]:
        for levels in (2, 3, 7):
            xs, ys = rng.integers(0, levels, size=(2, 4, n)) / levels
            stacked = tau_b(xs, ys)
            for x, y, tau in zip(xs, ys, stacked):
                if np.ptp(x) == 0 or np.ptp(y) == 0:
                    continue
                expected = stats.kendalltau(x, y, variant="b").statistic
                assert abs(tau - expected) <= 1e-12 and abs(tau_b(x, y) - expected) <= 1e-12, (n, levels)
                compared += 1
    assert compared > 500


def test_tau_plain():
    assert tau_plain([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    # ties shrink plain tau because the denominator keeps all pairs
    xs = [1.0, 1.0, 2.0]
    ys = [1.0, 2.0, 3.0]
    assert tau_plain(xs, ys) == pytest.approx(2.0 / 3.0)
    assert tau_b(xs, ys) > tau_plain(xs, ys)


def test_tau_with_ci_degenerate_endpoints():
    xs = list(map(float, range(8)))
    r = tau_with_ci(xs, xs)
    assert (r.tau, r.ci_low, r.ci_high, r.n) == (1.0, 1.0, 1.0, 8)
    r = tau_with_ci(xs, xs[::-1])
    assert (r.tau, r.ci_low, r.ci_high) == (-1.0, -1.0, -1.0)


def test_tau_with_ci_regression_cell():
    # 12 items, 3 discordant pairs: tau = 60/66
    xs = list(map(float, range(12)))
    ys = list(xs)
    ys[0], ys[2] = ys[2], ys[0]
    r = tau_with_ci(xs, ys)
    assert r.tau == pytest.approx(60.0 / 66.0, abs=1e-12)
    assert r.ci_low == pytest.approx(0.787, abs=0.02)
    assert r.ci_high == pytest.approx(0.963, abs=0.02)


def test_tau_with_ci_brackets_tau_and_shrinks_with_n():
    rng = np.random.default_rng(34)
    for _ in range(100):
        n = int(rng.integers(5, 30))
        xs = rng.normal(size=n)
        ys = xs + rng.normal(size=n)
        r = tau_with_ci(xs, ys)
        assert -1.0 <= r.ci_low <= r.tau <= r.ci_high <= 1.0

    def width(n):
        xs = np.arange(n, dtype=float)
        ys = xs.copy()
        ys[0], ys[1] = ys[1], ys[0]
        r = tau_with_ci(xs, ys)
        return r.ci_high - r.ci_low

    assert width(30) < width(10)


def test_tau_with_ci_small_n_falls_back_to_full_interval():
    r = tau_with_ci([1.0, 3.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    assert (r.ci_low, r.ci_high) == (-1.0, 1.0)
    assert r.ci_low <= r.tau <= r.ci_high


def test_tau_with_ci_confidence_widens():
    xs = list(map(float, range(12)))
    ys = list(xs)
    ys[0], ys[2] = ys[2], ys[0]
    narrow = tau_with_ci(xs, ys, confidence=0.90)
    wide = tau_with_ci(xs, ys, confidence=0.99)
    assert wide.ci_low < narrow.ci_low
    assert wide.ci_high > narrow.ci_high


def test_tau_with_ci_errors():
    with pytest.raises(TooShort):
        tau_with_ci([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(OutOfRange):
        tau_with_ci([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], confidence=1.0)
    with pytest.raises(OutOfRange):
        tau_with_ci([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], confidence=0.0)
    for confidence in ("0.9", None, True, False, float("nan")):
        with pytest.raises(OutOfRange, match="^confidence must be"):
            tau_with_ci([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], confidence=confidence)
    with pytest.raises(OutOfRange, match="one-dimensional"):
        tau_with_ci(np.zeros((2, 3)), np.zeros((2, 3)))


def test_tau_with_ci_refuses_a_confidence_whose_level_rounds_to_one():
    # 0.5 + c / 2 rounds to 1.0 only for the largest float below 1, where the
    # normal quantile is infinite. Other confidences keep their interval bits.
    xs, ys = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 3.0, 2.0, 4.0, 6.0, 5.0]
    for n in (3, 6):
        with pytest.raises(OutOfRange, match=r"^confidence 0\.9999999999999999 is too close to 1"):
            tau_with_ci(xs[:n], ys[:n], confidence=1.0 - 2.0**-53)
    for confidence, ci_low, ci_high in (
        (1.0 - 2.0**-52, -0.9939819540267054, 0.9998571413514132),
        (0.99, -0.26189710895444446, 0.9726897896942157),
        (0.95, 0.019733283542760927, 0.9519401812523016),
        (0.5, 0.5515579678854534, 0.8486154484183941),
    ):
        r = tau_with_ci(xs, ys, confidence)
        assert (r.ci_low, r.ci_high) == (ci_low, ci_high)


def test_tau_result_checks_itself():
    assert TauResult(tau=1.0, ci_low=1.0, ci_high=1.0, n=3).n == 3
    assert TauResult(tau=0.2, ci_low=-1.0, ci_high=1.0, n=4).tau == 0.2
    good = dict(tau=0.2, ci_low=-0.1, ci_high=0.5, n=12)
    for key, value, message in (
        ("tau", 7, r"tau must be a number in \[-1, 1\], got 7"),
        ("tau", float("nan"), "tau must be a number"),
        ("ci_low", -1.5, "ci_low must be a number"),
        ("ci_high", True, "ci_high must be a number"),
        ("ci_high", "0.5", "ci_high must be a number"),
        ("tau", 0.6, "need ci_low <= tau <= ci_high"),
        ("ci_low", 0.3, "need ci_low <= tau <= ci_high"),
        ("n", "twelve", "n must be an integer >= 3, got 'twelve'"),
        ("n", True, "n must be an integer"),
        ("n", 12.0, "n must be an integer"),
        ("n", 2, "n must be an integer >= 3, got 2"),
    ):
        with pytest.raises(OutOfRange, match=message):
            TauResult(**{**good, key: value})
