"""Seeded edge values fed to every name in quantdiv.__all__ that takes data.

Each case calls one name with arguments drawn from pools of edge values:
zeros of both signs, subnormals, infinities and NaN, rows that sum to
1 +- 1.1e-9, bools, strings, complex numbers, numpy scalars, and 0-D, 3-D
and empty arrays, next to valid values. The call must return a value within
the name's invariants (a score in [0, 1 + slack], a tau in [-1, 1] with
ci_low <= tau <= ci_high, settings stored as Python numbers, a report that
renders as JSON) or raise a ValidationError subclass, and it must warn
nothing. Any other exception, any warning and any value outside the
invariants fails the case. The cases the defects were found by come first.

Records go only where a record is taken, and the scoring functions get
records of valid rows: Dataset and SystemRun keep any rows by design, and
score_batch does not check the rows it scores.
"""

import dataclasses
import json
import math
import warnings

import numpy as np

import quantdiv
from quantdiv import (
    AgreementReport,
    ConsistencyReport,
    Dataset,
    DistanceScheme,
    FixedSize,
    FullSplit,
    MeasureId,
    ScoreMatrix,
    SystemRun,
    TauResult,
    agreement,
    combine_harmonic,
    from_votes,
    mean_scores,
    pair_counts,
    randomized_tukey_hsd,
    render_report,
    score,
    score_matrices,
    score_matrix,
    split_half_consistency,
    tau_b,
    tau_plain,
    tau_with_ci,
    validate,
)
from quantdiv.errors import ValidationError
from quantdiv.measures import _RANGE_SLACK, od
from quantdiv.meta_eval import check_consistency_args, consistency_per_trial, parse_subset_mode

CASES = 2000
# Names that take no data, or take it only as files, which the table and
# report mutation tests cover; PairCounts is the plain record pair_counts fills.
NOT_SWEPT = {
    "__version__", "ALL_MEASURES", "DEFAULT_SUITE", "DistanceScheme", "MeasureId", "FullSplit",
    "PairCounts", "load_gold", "load_run", "read_report", "write_dataset", "write_report",
    "write_run",
}
SUBNORMAL = 5e-324
NUMBERS = (
    0.0, -0.0, SUBNORMAL, -SUBNORMAL, 1e-16, 0.05, 0.5, 1.0 - 2**-52, 1.0, 2.0, -1e-10, 1e308,
    math.inf, -math.inf, math.nan, True, False, "0.5", 0.5 + 0j, 1j, np.float32(0.5),
    np.float64(0.25), np.float64(math.nan), np.int64(3), np.bool_(True), 3, 0, -1, 10**400, None,
)
INTEGERS = (0, 1, 2, 3, 5, -1, 2.0, 2.5, True, False, np.int64(4), np.uint8(3), "3", 3 + 0j, None)
MEASURES = (*MeasureId, "NMD", None, 3)
SCHEMES = (*DistanceScheme, "equidistant", None)
FORMATS = ("json", "tsv", "markdown", "JSON", "", None, 1, True)


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _maybe(rng, valid, edges):
    """valid, or one of edges a third of the time, so that most calls get far enough to return."""
    return _pick(rng, edges) if rng.random() < 1 / 3 else valid


def _row(rng, k: int) -> np.ndarray:
    row = rng.dirichlet(np.ones(k))
    row[rng.random(k) < 0.3] = 0.0
    return row / row.sum() if row.sum() else np.eye(k)[0]


def _rows(rng, k: int):
    """A row of k probabilities, or an edge in its place."""
    row = _row(rng, k)
    edits = (
        lambda: row, lambda: row.tolist(), lambda: np.where(row == 0.0, -0.0, row),
        lambda: [SUBNORMAL, *row[1:]] if row[0] == 0.0 else row,
        lambda: row * (1.0 + _pick(rng, (1.1e-9, -1.1e-9, 0.9e-9, -0.9e-9))),
        lambda: [*row[:-1], _pick(rng, (math.inf, -math.inf, math.nan))],
        lambda: [-0.5, 1.5, *np.zeros(k - 2)], lambda: [2.0, 3.0][:k] + [0.0] * (k - 2),
        lambda: [True] + [False] * (k - 1), lambda: [str(p) for p in row],
        lambda: row.astype(complex), lambda: row.astype(np.float32), lambda: np.float64(row[0]),
        lambda: np.asarray(0.5), lambda: row.reshape(1, 1, k), lambda: row[None], lambda: [],
        lambda: np.empty((0, k)), lambda: [[0.5], [0.5, 0.5]], lambda: [None, 1.0], lambda: [1.0],
        lambda: iter(row.tolist()), lambda: [np.int64(1)] + [0] * (k - 1),
    )
    return _maybe(rng, lambda: row, edits)()


def _lists(rng, n=None):
    """A list of n numbers for the tau functions, or an edge in its place."""
    n = int(rng.integers(0, 8)) if n is None else n
    xs = rng.normal(size=n).round(int(rng.integers(0, 3)))
    edits = (
        lambda: xs, lambda: xs.tolist(), lambda: np.where(xs == 0.0, -0.0, xs),
        lambda: np.append(xs, _pick(rng, (math.inf, -math.inf, math.nan, SUBNORMAL))),
        lambda: xs > 0, lambda: [str(x) for x in xs], lambda: xs.astype(complex),
        lambda: xs.astype(np.float32), lambda: xs.astype(int), lambda: np.float64(1.0),
        lambda: np.tile(xs, (2, 2, 1)), lambda: [], lambda: [[1.0, 2.0], [3.0]],
        lambda: [None] * n, lambda: np.tile(xs, (3, 1)),
    )
    return _maybe(rng, lambda: xs, edits)()


def _grids(rng, low: float, high: float):
    """An (m, B) grid of values in [low, high], or an edge in its place."""
    m, b = int(rng.integers(1, 4)), int(rng.integers(1, 7))
    grid = rng.uniform(low, high, (m, b))
    grid[rng.random((m, b)) < 0.2] = _pick(rng, (low, high, -0.0, SUBNORMAL))
    edits = (
        lambda: grid, lambda: grid.tolist(), lambda: grid.astype(np.float32),
        lambda: np.where(grid == grid.flat[0], _pick(rng, (math.nan, math.inf, -1e-10, 1.5)), grid),
        lambda: grid > 0, lambda: grid.astype(str), lambda: grid.astype(complex),
        lambda: np.float64(grid.flat[0]), lambda: grid[None], lambda: np.empty((m, 0)),
        lambda: np.empty((0, 0)), lambda: [[0.5], [0.5, 0.5]], lambda: grid.astype(object),
    )
    return _maybe(rng, lambda: grid, edits)()


def _shape(value) -> tuple:
    """numpy's shape of value; () for a ragged nesting, which numpy refuses to shape."""
    try:
        return np.shape(value)
    except ValueError:
        return ()


def _in(value, low: float, high: float) -> bool:
    """Every value a finite float in [low, high]."""
    values = np.asarray(value)
    return values.dtype == np.float64 and bool(np.all((low <= values) & (values <= high)))


def _is_distribution(d) -> bool:
    return (
        isinstance(d, np.ndarray) and d.dtype == np.float64 and d.ndim == 1 and len(d) >= 2
        and not d.flags.writeable and _in(d, 0.0, 1.0) and abs(math.fsum(d.tolist()) - 1.0) <= 1e-12
    )


def _is_score(value) -> bool:
    return type(value) is float and 0.0 <= value <= 1.0 + _RANGE_SLACK


def _is_tau_result(r) -> bool:
    types = [type(v) for v in (r.tau, r.ci_low, r.ci_high, r.n)]
    ordered = -1.0 <= r.ci_low <= r.tau <= r.ci_high <= 1.0 and r.n >= 3
    return types == [float, float, float, int] and ordered and bool(json.dumps(dataclasses.asdict(r)))


def _renders(report) -> bool:
    """The report's JSON text parses back; a numpy scalar in it would have made the writer raise."""
    return isinstance(json.loads(render_report(report, "json")), dict)


def _is_consistency(r) -> bool:
    settings = [type(v) for v in (r.seed, r.alpha, r.permutations)]
    return settings == [int, float, int] and _in(r.per_trial_tau, -1.0, 1.0) and _renders(r)


def _is_pair_counts(c) -> bool:
    tallies = [np.asarray(v) for v in (c.conc, c.disc, c.tied_x, c.tied_y)]
    return all((t >= 0).all() and (t <= c.total_pairs).all() for t in tallies)


def _data(rng):
    """A Dataset and runs of valid rows: 3 to 5 systems, 4 to 8 cases, 3 classes."""
    n, s = int(rng.integers(4, 9)), int(rng.integers(3, 6))
    gold = [_row(rng, 3) for _ in range(n)]
    ds = Dataset(tuple(f"c{i}" for i in range(n)), ("a", "b", "c"), gold)
    return ds, [SystemRun(f"s{j}", [_row(rng, 3) for _ in range(n)]) for j in range(s)]


def _case(rng, name):
    """(call, check, numbers): one call of name with drawn arguments, numbers being the ones
    drawn for a number or an array of numbers."""
    if name == "validate":
        row = _rows(rng, int(rng.integers(2, 6)))
        return (validate, row), _is_distribution, (row,)
    if name == "from_votes":
        counts = _pick(rng, (
            [3, 1], [0, 5, 2], [True, 1], [2.5, 1], [2.0, 1], [np.int64(3), 1], ["3", "1"], [0, 0],
            [-1, 2], [10**400, 1], [math.inf, 1], [math.nan, 1], [], 5, np.int64(5), np.array(5),
            np.array([[1, 2]]), [[1, 2], [3]], [3 + 0j, 1], np.array([3, 1]), [True, False],
        ))
        return (from_votes, counts), _is_distribution, (counts,)
    k = _maybe(rng, 4, (2, 3, 5))
    est, gold = _rows(rng, k), _rows(rng, 4)
    if name == "score":
        return (score, _maybe(rng, MeasureId.DNKT_JSD, MEASURES), est, gold), _is_score, (est, gold)
    if name == "od":
        check = lambda v: type(v) is float and 0.0 <= v < math.inf
        return (od, est, gold, _maybe(rng, DistanceScheme.GOLD_MASS, SCHEMES)), check, (est, gold)
    if name == "combine_harmonic":
        d, m = _pick(rng, NUMBERS), _pick(rng, NUMBERS)
        return (combine_harmonic, d, m), _is_score, (d, m)
    n = int(rng.integers(0, 9))
    xs, ys = _lists(rng, n), _lists(rng, n)
    tie_eps = _maybe(rng, _pick(rng, (0.0, 1e-9, 0.5)), NUMBERS)
    if name == "pair_counts":
        return (pair_counts, xs, ys, tie_eps), _is_pair_counts, (xs, ys, tie_eps)
    if name == "tau_b":
        return (tau_b, xs, ys, tie_eps), lambda t: _in(t, -1.0, 1.0), (xs, ys, tie_eps)
    if name == "tau_plain":
        return (tau_plain, xs, ys), lambda t: _in(t, -1.0, 1.0), (xs, ys)
    confidence = _maybe(rng, _pick(rng, (1e-16, 0.5, 0.95, np.float64(0.9))), NUMBERS)
    if name == "tau_with_ci":
        return (tau_with_ci, xs, ys, confidence), _is_tau_result, (xs, ys, confidence)
    if name == "TauResult":
        valid = sorted(_pick(rng, (-1.0, -0.0, SUBNORMAL, 0.5, 1, np.float32(0.5))) for _ in range(3))
        tau, low, high = (_maybe(rng, v, NUMBERS) for v in (valid[1], valid[0], valid[2]))
        values = (tau, low, high, _maybe(rng, 5, INTEGERS))
        return (TauResult, *values), _is_tau_result, values
    # At most 5 trials and 5 rounds, so that each call is quick.
    settings = {
        "B": _maybe(rng, 3, INTEGERS), "seed": _maybe(rng, np.int64(7), INTEGERS),
        "alpha": _maybe(rng, 0.05, NUMBERS), "permutations": _maybe(rng, 5, INTEGERS),
        "threads": _maybe(rng, 2, INTEGERS),
    }
    taus = _grids(rng, -1.0, 1.0)
    if name == "randomized_tukey_hsd":
        del settings["B"]
        check = lambda pairs: all(i != j and type(i) is int for i, j in pairs)
        call = lambda: randomized_tukey_hsd(taus, **settings)
        return (call,), check, (taus, *settings.values())
    if name == "ConsistencyReport":
        measures = (MeasureId.NMD, MeasureId.NVD, MeasureId.JSD)[: (*_shape(taus), 1)[0]]
        args = (settings["seed"], settings["alpha"], settings["permutations"])
        return (ConsistencyReport, measures, taus, (), FullSplit(), *args), _is_consistency, (taus, *args)
    if name in ("ScoreMatrix", "mean_scores", "render_report"):
        grid = _grids(rng, 0.0, 1.0 + _RANGE_SLACK)
        m, b = _shape(grid)[:2] if len(_shape(grid)) >= 2 else (1, 1)
        ids = (tuple(f"s{i}" for i in range(m)), tuple(f"c{i}" for i in range(b)))
        if name == "ScoreMatrix":
            check = lambda r: _in(r.values, 0.0, 1.0 + _RANGE_SLACK) and _renders(r)
            return (ScoreMatrix, grid, *ids, _pick(rng, MEASURES)), check, (grid,)
        try:
            matrix = ScoreMatrix(grid, *ids, MeasureId.NMD)
        except Exception:  # whatever ScoreMatrix's own case finds, these names get a matrix
            matrix = ScoreMatrix(np.zeros((1, 1)), ("s",), ("c",), MeasureId.NMD)
        if name == "mean_scores":
            return (mean_scores, matrix), lambda v: _in(v, 0.0, 1.0 + _RANGE_SLACK), ()
        return (render_report, matrix, _pick(rng, FORMATS)), lambda text: isinstance(text, str), ()
    if name == "AgreementReport":
        results = tuple(TauResult(t, -1.0, 1.0, 5) for t in rng.uniform(-1, 1, int(rng.integers(0, 4))))
        measures = _pick(rng, ((MeasureId.NMD, MeasureId.NVD), (MeasureId.NMD, "NVD"), ()))
        return (AgreementReport, measures, results), _renders, ()
    if name == "FixedSize":
        size = _pick(rng, INTEGERS)
        return (FixedSize, size), lambda mode: type(mode.k) is int and mode.k >= 1, (size,)
    if name in ("Dataset", "SystemRun"):
        grid = _grids(rng, 0.0, 1.0)
        n, k = (*_shape(grid), 1, 2)[0], (2, *_shape(grid))[-1]
        check = lambda r: [a.dtype for a in vars(r).values() if isinstance(a, np.ndarray)] == [np.float64]
        if name == "Dataset":
            ids = (tuple(f"c{i}" for i in range(n)), tuple(f"k{i}" for i in range(k)))
            return (Dataset, *ids, grid), check, (grid,)
        return (SystemRun, _pick(rng, ("s", 1, None)), grid), check, (grid,)
    ds, runs = _data(rng)
    listed = rng.permutation(len(MeasureId))[: rng.integers(1, 4)]
    measures = [_maybe(rng, list(MeasureId)[i], MEASURES) for i in listed]
    if name == "agreement":
        return (agreement, ds, runs, measures, confidence), _renders, (confidence,)
    if name == "split_half_consistency":
        call = lambda: split_half_consistency(ds, runs, measures, **settings)
        return (call,), _is_consistency, tuple(settings.values())
    if name == "score_matrix":
        return (score_matrix, ds, runs, measures[0]), lambda r: _in(r.values, 0.0, 1.0 + _RANGE_SLACK), ()
    if name == "score_matrices":
        return (score_matrices, ds, runs, measures), lambda rs: all(map(_renders, rs)), ()
    raise AssertionError(f"no case for {name}")


def _not_a_number(value) -> bool:
    """A bool, str, complex or None, an array of them, or a list that holds one."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "iuf"
    if isinstance(value, (list, tuple)):
        return any(map(_not_a_number, value))
    return isinstance(value, (bool, np.bool_, str, complex, type(None)))


def _outcome(call, check, numbers=()) -> str:
    """"returned" (within the invariants), "refused" (a ValidationError), or what went wrong.

    A call given something that is not a number where it takes one must refuse it.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call[0](*call[1:])
        except ValidationError:
            return "refused"
        except Exception as exc:
            return f"raised {type(exc).__name__}: {exc}"
        if any(map(_not_a_number, numbers)):
            return f"returned {result!r} for {numbers!r}, which holds a value that is not a number"
        try:
            return "returned" if check(result) else f"returned {result!r}"
        except Exception as exc:
            return f"returned {result!r}, and its check raised {type(exc).__name__}: {exc}"


# The defects this sweep was written for, one call each, before the drawn cases: a valid
# input that must return within its invariants, or (check None) one that must be refused.
XS, YS = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 3.0, 2.0, 4.0, 6.0, 5.0]
DS, RUNS = _data(np.random.default_rng(0))
NAMED = [
    ((combine_harmonic, -1e-10, 0.5), None),
    ((TauResult, 0.5, 0.0, 1.0, np.int64(5)), _is_tau_result),
    ((TauResult, np.float32(0.5), -1.0, 1.0, 5), _is_tau_result),
    ((tau_with_ci, XS, YS, 1e-16), _is_tau_result),
    ((randomized_tukey_hsd, [["a", "b"], ["c", "d"]]), None),
    ((score, MeasureId.NMD, [2.0, 3.0], [0.5, 0.5]), None),
    ((score, MeasureId.JSD, [-0.5, 1.5], [0.5, 0.5]), None),
    ((score, MeasureId.NMD, [[0.5, 0.5]], [0.5, 0.5]), None),
    ((score, MeasureId.NMD, ["0.5", "0.5"], [0.5, 0.5]), None),
    ((score, MeasureId.JSD, [0.0, 0.5, 0.5], [SUBNORMAL, 0.0, 1.0]), _is_score),
    ((mean_scores, ScoreMatrix(np.empty((2, 0)), ("s", "t"), (), MeasureId.NMD)), None),
    ((validate, [[0.5, 0.5]]), None),
    ((validate, [0.5 + 0j, 0.5]), None),
    ((validate, [True, False]), None),
    ((from_votes, [True, 1]), None),
    ((tau_b, [True, False, True], [1.0, 2.0, 3.0]), None),
    ((tau_b, ["1", "2", "3"], [1.0, 2.0, 3.0]), None),
    ((tau_b, XS, YS, True), None),
    ((tau_b, XS, YS, "0"), None),
    ((combine_harmonic, True, 0.5), None),
    ((combine_harmonic, "0.5", 0.5), None),
    # A collection, mode or record argument of the wrong kind.
    ((AgreementReport, [MeasureId.NMD, MeasureId.NVD], 5), None),
    ((ConsistencyReport, [MeasureId.NMD], np.zeros((1, 2)), 5, FullSplit(), 0, 0.05, 10), None),
    ((Dataset, ("c",), ("a", "b"), [[0.5, 0.5]], [1, 2]), None),
    ((consistency_per_trial, [np.zeros((3, 4))], "half", 2, 1), None),
    ((agreement, DS, 5, [MeasureId.NMD, MeasureId.NVD]), None),
    ((split_half_consistency, DS, 5, [MeasureId.NMD]), None),
    ((score_matrix, DS, 5, MeasureId.NMD), None),
    ((agreement, DS, [5, 5, 5], [MeasureId.NMD, MeasureId.NVD]), None),
    ((score_matrices, DS, [RUNS[0], 5], [MeasureId.NMD]), None),
    ((score_matrix, 5, RUNS, MeasureId.NMD), None),
    # An unhashable tau variant, and a subset mode that is not a str.
    ((check_consistency_args, 1, 0, 0.05, 1, 1, ["b"]), None),
    ((check_consistency_args, 1, 0, 0.05, 1, 1, {}), None),
    ((consistency_per_trial, [np.zeros((3, 4))], FullSplit(), 2, 1, 1, ["b"]), None),
    ((split_half_consistency, DS, RUNS, [MeasureId.NMD], FullSplit(), 2, 0, 0.05, 5, 1, {}), None),
    ((ConsistencyReport, [MeasureId.NMD], np.zeros((1, 2)), (), FullSplit(), 0, 0.05, 10, {}), None),
    ((parse_subset_mode, 3), None),
    ((parse_subset_mode, None), None),
]


def test_named_edge_values_return_within_invariants_or_raise_validation_error():
    outcomes = [(call, _outcome(call, check or (lambda result: False))) for call, check in NAMED]
    expected = [(call, "returned" if check else "refused") for call, check in NAMED]
    assert outcomes == expected


def test_drawn_edge_values_return_within_invariants_or_raise_validation_error():
    assert NOT_SWEPT <= set(quantdiv.__all__)
    swept = sorted(set(quantdiv.__all__) - NOT_SWEPT | {"od"})
    rng = np.random.default_rng(26)
    outcomes = {name: {"returned": 0, "refused": 0} for name in swept}
    failures = []
    for _ in range(CASES):
        name = _pick(rng, swept)
        call, check, numbers = _case(rng, name)
        why = _outcome(call, check, numbers)
        if why in outcomes[name]:
            outcomes[name][why] += 1
        else:
            failures.append(f"{name}{tuple(call[1:])!r:.300}: {why:.300}")
    assert failures == []
    # Each name both returned and refused at least once.
    assert all(all(tally.values()) for tally in outcomes.values()), outcomes
