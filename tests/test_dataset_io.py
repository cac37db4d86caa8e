import copy
import dataclasses
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quantdiv.dataset_io import (
    Dataset,
    SystemRun,
    _table,
    load_gold,
    load_run,
    read_report,
    render_report,
    write_dataset,
    write_report,
    write_run,
)
from quantdiv.errors import (
    AllZeroVotes,
    DuplicateCaseId,
    InconsistentClassCount,
    LengthMismatch,
    MissingCase,
    NegativeProbability,
    NotNormalized,
    OutOfRange,
    ParseError,
    TooFewClasses,
    UnknownCase,
    ValidationError,
)
from quantdiv.measures import _RANGE_SLACK, DEFAULT_SUITE, MeasureId
from quantdiv.meta_eval import (
    ConsistencyReport,
    FixedSize,
    FullSplit,
    ScoreMatrix,
    agreement,
    score_matrix,
    split_half_consistency,
)
import _oracle
import quantdiv
from _helpers import reference_rows
from quantdiv import dataset_io, distributions, synth
from quantdiv.distributions import from_votes, validate

GOLD_PROBS = """\
case_id\tlow\tmid\thigh
q1\t0.5\t0.3\t0.2
q2\t0.0\t0.2\t0.8
"""

GOLD_COUNTS = """\
#mode: counts
case_id\tlow\tmid\thigh
q1\t5\t3\t2
q2\t0\t2\t8
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# --- parsing ---


def test_load_gold_probs(tmp_path):
    ds = load_gold(write(tmp_path, "g.tsv", GOLD_PROBS))
    assert ds.case_ids == ("q1", "q2")
    assert ds.class_labels == ("low", "mid", "high")
    assert ds.gold[0].tolist() == [0.5, 0.3, 0.2]
    assert ds.votes is None


def test_load_gold_counts(tmp_path):
    ds = load_gold(write(tmp_path, "g.tsv", GOLD_COUNTS))
    assert ds.votes == ((5, 3, 2), (0, 2, 8))
    assert ds.gold.tolist() == [[0.5, 0.3, 0.2], [0.0, 0.2, 0.8]]


def test_load_gold_skips_blank_lines(tmp_path):
    ds = load_gold(write(tmp_path, "g.tsv", "\n" + GOLD_PROBS.replace("q2", "\nq2")))
    assert ds.case_ids == ("q1", "q2")


@pytest.mark.parametrize(
    "text,exc,fragment",
    [
        ("case_id\tonly\nq1\t1.0\n", ParseError, "at least 2 class"),
        ("id\ta\tb\nq1\t0.5\t0.5\n", ParseError, "case_id"),
        ("case_id\ta\ta\nq1\t0.5\t0.5\n", ParseError, "duplicate class labels"),
        ("#mode: votes\ncase_id\ta\tb\nq1\t0.5\t0.5\n", ParseError, "line 1"),
        ("#units: percent\ncase_id\ta\tb\nq1\t0.5\t0.5\n", ParseError, "directive"),
        ("case_id\ta\tb\nq1\t0.5\t0.5\nq1\t0.5\t0.5\n", DuplicateCaseId, "line 3"),
        ("case_id\ta\tb\nq1\t0.5\n", InconsistentClassCount, "line 2"),
        ("case_id\ta\tb\nq1\t0.5\tx\n", ParseError, "bad probability"),
        ("#mode: counts\ncase_id\ta\tb\nq1\t1\t1.5\n", ParseError, "bad vote count"),
        ("#mode: counts\ncase_id\ta\tb\nq1\t0\t0\n", AllZeroVotes, "case 'q1': all vote counts"),
        (
            "#mode: counts\ncase_id\ta\tb\nq1\t-1\t3\n",
            NegativeProbability,
            "case 'q1': class 1 vote count must be an integer >= 0, got -1",
        ),
        ("case_id\ta\tb\n\t0.5\t0.5\n", ParseError, "empty case id"),
        ("", ParseError, "missing header"),
        ("case_id\ta\tb\n", ParseError, "no data rows"),
        ("case_id\ta\tb\nx1\t1e308\t1e308\n", NotNormalized, "case 'x1': probabilities sum to inf"),
        # The first bad line wins, whatever fault a later line has.
        (
            "case_id\ta\tb\nq1\t0.5\t0.5\nq2\t-0.5\t1.5\nq3\t0.5\t0.5\nq4\t0.5\tx\n",
            NegativeProbability,
            "case 'q2': class 1 has probability -0.5",
        ),
        (
            "case_id\ta\tb\nq1\t0.5\t0.4\nq2\t0.5\t0.5\nq3\tnan\t0.5\n",
            NotNormalized,
            "case 'q1': probabilities sum to 0.9",
        ),
        # A negative cell in a row that sums to 1.
        ("case_id\ta\tb\nq1\t0.5\t0.5\nq2\t-0.5\t1.5\n", NegativeProbability, "case 'q2': class 1"),
        # math.fsum raises ValueError on inf + -inf; the row's checks come first.
        ("case_id\ta\tb\nq1\tinf\t-inf\n", NegativeProbability, "case 'q1': class 2 has probability -inf"),
        # Counts: a row the count checks refuse before a cell that does not
        # parse, and the other way round.
        (
            "#mode: counts\ncase_id\ta\tb\nq1\t0\t0\nq2\t1\t1\nq3\t1\tx\n",
            AllZeroVotes,
            "line 3: case 'q1': all vote counts are zero",
        ),
        (
            "#mode: counts\ncase_id\ta\tb\nq1\t1\tx\nq2\t-1\t3\n",
            ParseError,
            "line 3: bad vote count 'x'",
        ),
        # A row that only the check of the whole table refuses, after a row
        # that parses and before a repeated case id.
        (
            "case_id\ta\tb\nq1\t0.5\t0.5\nq2\t0.5\t0.6\nq1\t0.5\t0.5\n",
            NotNormalized,
            "line 3: case 'q2': probabilities sum to 1.1",
        ),
        # The last row is the only bad one: the end-of-table check names it.
        (
            "case_id\ta\tb\n" + "".join(f"q{i}\t0.5\t0.5\n" for i in range(50)) + "q50\t0.5\t-0.5\n",
            NegativeProbability,
            "line 52: case 'q50': class 2 has probability -0.5",
        ),
    ],
)
def test_parse_errors(tmp_path, text, exc, fragment):
    path = write(tmp_path, "bad.tsv", text)
    gold = Dataset(("q1",), ("a", "b"), gold=[[0.5, 0.5]])
    for load in (load_gold, lambda table: load_run(table, gold)):
        with pytest.raises(exc) as err:
            load(path)
        assert fragment in str(err.value)
        assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_undecodable_table_names_the_line_of_the_first_bad_byte(tmp_path, newline):
    # A multi-byte label before it is one character; the bad byte is on line 3.
    head = newline.join(["case_id\tl\u00f6w\thigh", "q1\t0.5\t0.5", "q2\t0.5"]).encode()
    path = tmp_path / "bad.tsv"
    path.write_bytes(head + b"\t0.5\xff" + newline.encode() + b"q3\t\xfe\t1\n")
    message = rf"^{re.escape(str(path))}: line 3: not UTF-8: byte 0xff"
    with pytest.raises(ParseError, match=message):
        load_gold(path)
    good = write(tmp_path, "gold.tsv", "case_id\tl\u00f6w\thigh\nq1\t0.5\t0.5\nq2\t0.5\t0.5\n")
    with pytest.raises(ParseError, match=message):
        load_run(path, load_gold(good))


def test_only_newline_and_carriage_return_break_table_lines(tmp_path):
    # str.splitlines() also breaks at \f and U+0085; in a table they are cell text.
    head = "case_id\ta\tb\nq1\t0.5\t0.5\f\n"
    with pytest.raises(ParseError, match=r": line 3: bad probability '0\.x'$"):
        load_gold(write(tmp_path, "cell.tsv", head + "q2\t0.x\t0.5\n"))
    path = tmp_path / "byte.tsv"
    path.write_bytes(head.encode() + b"q2\t0.5\xff\t0.5\n")
    with pytest.raises(ParseError, match=r": line 3: not UTF-8: byte 0xff"):
        load_gold(path)
    ds = load_gold(write(tmp_path, "nel.tsv", "case_id\ta\tb\nq\x851\t0.5\t0.5\n"))
    assert ds.case_ids == ("q\x851",)
    lone_cr = write(tmp_path, "cr.tsv", GOLD_PROBS.replace("\n", "\r"))
    assert load_gold(lone_cr).case_ids == ("q1", "q2")


def test_bad_row_carries_case_id(tmp_path):
    with pytest.raises(NotNormalized) as err:
        load_gold(write(tmp_path, "bad.tsv", "case_id\ta\tb\nq7\t0.5\t0.4\n"))
    assert "case 'q7'" in str(err.value)


def test_load_run_alignment(tmp_path):
    ds = load_gold(write(tmp_path, "g.tsv", GOLD_PROBS))
    # rows may arrive in any order; loader realigns them to the dataset
    run_text = "case_id\tlow\tmid\thigh\nq2\t0.1\t0.1\t0.8\nq1\t0.6\t0.2\t0.2\n"
    run = load_run(write(tmp_path, "sysA.tsv", run_text), ds)
    assert run.system_id == "sysA"
    assert run.est.tolist() == [[0.6, 0.2, 0.2], [0.1, 0.1, 0.8]]
    named = load_run(tmp_path / "sysA.tsv", ds, system_id="alias")
    assert named.system_id == "alias"


def test_load_run_case_and_label_mismatches(tmp_path):
    ds = load_gold(write(tmp_path, "g.tsv", GOLD_PROBS))
    with pytest.raises(MissingCase) as err:
        load_run(write(tmp_path, "r1.tsv", "case_id\tlow\tmid\thigh\nq1\t0.5\t0.3\t0.2\n"), ds)
    assert "'q2'" in str(err.value)
    with pytest.raises(UnknownCase) as err:
        load_run(
            write(
                tmp_path,
                "r2.tsv",
                "case_id\tlow\tmid\thigh\nq1\t0.5\t0.3\t0.2\nq2\t0\t0.2\t0.8\nq9\t1\t0\t0\n",
            ),
            ds,
        )
    assert "'q9'" in str(err.value)
    with pytest.raises(InconsistentClassCount):
        load_run(write(tmp_path, "r3.tsv", "case_id\tlow\thigh\nq1\t0.5\t0.5\nq2\t0.5\t0.5\n"), ds)
    with pytest.raises(InconsistentClassCount):
        load_run(
            write(
                tmp_path,
                "r4.tsv",
                "case_id\tlo\tmid\thigh\nq1\t0.5\t0.3\t0.2\nq2\t0\t0.2\t0.8\n",
            ),
            ds,
        )


# --- loaded values: bit for bit the plain-Python normalisation ---

def _fuzzed_probs_row(rng, k):
    """Cells of one probs row: zeros of both signs, subnormals, tiny normals,
    and a total off 1 by less than 1e-9, in several float spellings."""
    raw = rng.dirichlet(np.full(k, 0.5))
    for i in rng.choice(k, size=int(rng.integers(0, k - 1)), replace=False):
        raw[i] = rng.choice([0.0, -0.0, 5e-324, 2.5e-310, 1e-308, 2.2250738585072014e-308])
    raw = raw / math.fsum(raw) * (1.0 + rng.uniform(-5e-10, 5e-10))
    spellings = (repr, "{:.17e}".format, "{:.12g}".format)
    return [spellings[int(rng.integers(3))](float(v)) for v in raw]


def _fuzzed_counts_row(rng, k):
    """Cells of one counts row: zeros, small counts and counts far beyond int64."""
    pool = [0, 0, 1, 7, 20, 10**18, 10**308, 10**308 + 1, 3 * 10**400]
    counts = [pool[i] for i in rng.integers(len(pool), size=k)]
    counts[int(rng.integers(k))] = pool[int(rng.integers(2, len(pool)))]
    return [str(c) for c in counts]


def _corrupted(rng, mode, rows):
    """rows with one cell of one row made bad: (that row, the rows, error type, message).

    The message is the row checks' own, after the line or case it names.
    """
    bad, j = int(rng.integers(len(rows))), int(rng.integers(len(rows[0])))
    cells = list(rows[bad])
    if mode == "counts":
        faults = (
            ("-3", NegativeProbability, f"class {j + 1} vote count must be an integer >= 0, got -3"),
            ("1.5", ParseError, "bad vote count '1.5'"),
            ("0", AllZeroVotes, "all vote counts are zero"),
        )
    else:
        faults = (
            ("-0.25", NegativeProbability, f"class {j + 1} has probability -0.25"),
            ("nan", NegativeProbability, f"class {j + 1} has probability nan"),
            ("0.x5", ParseError, "bad probability '0.x5'"),
            ("inf", NotNormalized, "probabilities sum to inf"),
            ("2.5", NotNormalized, None),
        )
    cell, exc, message = faults[int(rng.integers(len(faults)))]
    if exc is AllZeroVotes:
        cells = ["0"] * len(cells)
    else:
        cells[j] = cell
    if message is None:
        message = f"probabilities sum to {math.fsum(map(float, cells))!r}"
    return bad, [*rows[:bad], cells, *rows[bad + 1 :]], exc, message


def _table_text(mode, ids, rows):
    header = "\t".join(["case_id"] + [f"c{i}" for i in range(1, len(rows[0]) + 1)])
    body = "".join("\t".join([cid, *cells]) + "\n" for cid, cells in zip(ids, rows))
    return f"#mode: {mode}\n{header}\n{body}"


def _outcome(call):
    """The bytes of the array call() returns, or the type and message of its error."""
    try:
        return call().tobytes()
    except ValidationError as exc:
        return type(exc), str(exc)


def _short_repr(value) -> str:
    """repr(value), or a long integer as '<first digit>e<exponent>'."""
    text = repr(value)
    return text if len(text) < 25 else f"{text[0]}e{len(text) - 1}"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "mode, row",
    [
        ("probs", [-0.0, 1.0]),
        ("probs", [5e-324, 1.0]),
        ("probs", [NAN, 1.0]),
        ("probs", [0.5, NAN, 0.5]),
        ("probs", [INF, 0.0]),
        ("probs", [-INF, 1.0]),
        ("probs", [INF, -INF]),
        ("probs", [1e308, 1e308]),
        ("probs", [-0.25, 0.75, 0.5]),
        ("probs", [0.5, 0.5 + 0.9e-9]),
        ("probs", [0.5, 0.5 - 0.9e-9]),
        ("probs", [0.5, 0.5 + 1.1e-9]),
        ("probs", [0.5, 0.5 - 1.1e-9]),
        ("counts", [0, 0, 0]),
        ("counts", [3, -1, 2]),
        ("counts", [10**400, 1]),
        ("counts", [10**400, 0, 3 * 10**399]),
    ],
    ids=lambda v: v if isinstance(v, str) else "/".join(map(_short_repr, v)),
)
def test_a_one_row_table_loads_as_its_row_checks_it(tmp_path, mode, row):
    # validate() (from_votes() for counts) and the loader share one row rule:
    # the same values bit for bit, or the same error after the row's prefix.
    check = from_votes if mode == "counts" else validate
    path = write(tmp_path, "one.tsv", _table_text(mode, ["q1"], [list(map(repr, row))]))
    expected = _outcome(lambda: check(row))
    loaded = _outcome(lambda: load_gold(path).gold[0])
    if isinstance(expected, bytes):
        assert loaded == expected
    else:
        exc, message = expected
        assert loaded == (exc, f"{path}: line 3: case 'q1': {message}")


@pytest.mark.parametrize("mode", ["probs", "counts"])
@pytest.mark.parametrize("seed", range(4))
def test_loaded_arrays_equal_plain_python_reference(tmp_path, mode, seed):
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(2, 12)), int(rng.integers(1, 60))
    fuzz = _fuzzed_counts_row if mode == "counts" else _fuzzed_probs_row
    rows = [fuzz(rng, k) for _ in range(n)]
    ids = [f"q{i}" for i in range(n)]
    expected = reference_rows(mode, rows)
    ds = load_gold(write(tmp_path, "g.tsv", _table_text(mode, ids, rows)))
    assert ds.gold.dtype == np.float64 and ds.gold.shape == (n, k)
    assert not ds.gold.flags.writeable
    assert ds.gold.tobytes() == expected.tobytes()
    if mode == "counts":
        assert ds.votes == tuple(tuple(int(c) for c in cells) for cells in rows)
    # A run lists its cases in any order; est follows the dataset's order.
    order = rng.permutation(n)
    text = _table_text(mode, [ids[i] for i in order], [rows[i] for i in order])
    run = load_run(write(tmp_path, "r.tsv", text), ds)
    assert run.est.tobytes() == expected.tobytes()
    # One row made bad: both loaders raise the row checks' error for that row.
    bad, bad_rows, exc, message = _corrupted(rng, mode, rows)
    for loader, file_order in ((load_gold, range(n)), (lambda f: load_run(f, ds), order)):
        file_order = list(file_order)
        text = _table_text(mode, [ids[i] for i in file_order], [bad_rows[i] for i in file_order])
        path = write(tmp_path, "bad.tsv", text)
        line = 3 + file_order.index(bad)  # after the mode line and the header
        where = f"line {line}" if exc is ParseError else f"line {line}: case {ids[bad]!r}"
        with pytest.raises(exc) as err:
            loader(path)
        assert type(err.value) is exc
        assert str(err.value) == f"{path}: {where}: {message}"
        assert err.value.line == line


def _fixed_point_rows(rng, n, k):
    """Probs rows whose exact float sum rounds to 1.0, so loading keeps every bit.

    The loader divides every row by its math.fsum; a row summing to 1.0 up to
    a rounding is divided again, so only such rows survive a reload unchanged.
    """
    rows = []
    for _ in range(n):
        units = rng.multinomial(1 << 52, rng.dirichlet(np.ones(k - 1)))
        values = [float(u) / (1 << 52) for u in units]
        values.insert(int(rng.integers(k)), float(rng.choice([0.0, -0.0, 5e-324])))
        rows.append([repr(v) for v in values])
    return rows


def test_write_run_reproduces_the_file_it_loaded(tmp_path):
    rng = np.random.default_rng(5)
    for n, k in ((40, 6), (25, 2), (10, 11)):
        rows = _fixed_point_rows(rng, n, k)
        f = write(tmp_path, "f.tsv", _table_text("probs", [f"q{i}" for i in range(n)], rows))
        ds = load_gold(f)
        back = write_run(load_run(f, ds), ds, tmp_path / "back.tsv")
        assert back.read_bytes() == f.read_bytes()


# --- writers round-trip ---


def test_write_dataset_counts_round_trip(tmp_path):
    ds, _ = synth.generate(n_systems=1, n_cases=25, seed=3)
    back = load_gold(write_dataset(ds, tmp_path / "gold.tsv"))
    assert back == ds


def test_write_dataset_refuses_votes_that_are_not_the_gold(tmp_path):
    # The votes would reload as [[0.5, 0.5], [0.0, 1.0]]; all-zero votes give no shares.
    ds = Dataset(("a", "b"), ("x", "y"), gold=[[2.0, -1.0], [0.0, 0.0]], votes=((1, 1), (0, 3)))
    with pytest.raises(OutOfRange, match=r"^case 'a': votes \[1, 1\] do not give the gold row \[2.0, -1.0\]$"):
        write_dataset(ds, tmp_path / "gold.tsv")
    ds = Dataset(("a", "b"), ("x", "y"), gold=[[0.5, 0.5], [0.0, 0.0]], votes=((1, 1), (0, 0)))
    with pytest.raises(OutOfRange, match=r"^case 'b': votes \[0, 0\] do not give"):
        write_dataset(ds, tmp_path / "gold.tsv")
    # One rounding off is refused too: the table would reload with the other bits.
    near = np.nextafter(1 / 3, 1.0)
    ds = Dataset(("a",), ("x", "y"), gold=[[near, 2 / 3]], votes=((1, 2),))
    with pytest.raises(OutOfRange, match=r"^case 'a'"):
        write_dataset(ds, tmp_path / "gold.tsv")
    assert not (tmp_path / "gold.tsv").exists()
    ds = Dataset(("a",), ("x", "y"), gold=[[1 / 3, 2 / 3]], votes=((1, 2),))
    assert load_gold(write_dataset(ds, tmp_path / "gold.tsv")) == ds


def test_write_dataset_probs_round_trip(tmp_path):
    ds = load_gold(write(tmp_path, "g.tsv", GOLD_PROBS))
    back = load_gold(write_dataset(ds, tmp_path / "copy.tsv"))
    assert back == ds
    assert (tmp_path / "copy.tsv").read_text(encoding="utf-8").startswith("#mode: probs\n")


def test_write_run_round_trip(tmp_path):
    # repr writes each float exactly, but the loader divides every row by its
    # math.fsum total t again. A row whose t is exactly 1.0 loads bit for bit.
    # Any other loaded value q is one correctly rounded division of the
    # written p, so |q - p| <= p * (|1 - t| + u) / t, with u = 2**-53. And
    # |1 - t| <= 2u, since synth's rows are themselves one division by their
    # math.fsum total (validate), whose own rounding is at most u.
    u = Fraction(1, 2**53)
    changed = 0
    for seed in range(20):
        ds, runs = synth.generate(n_systems=2, n_cases=25, seed=seed)
        for run in runs:
            back = load_run(write_run(run, ds, tmp_path / "r.tsv"), ds, system_id=run.system_id)
            assert back.system_id == run.system_id and back.est.shape == run.est.shape
            for p_row, q_row in zip(run.est, back.est):
                t = Fraction(math.fsum(p_row.tolist()))
                if t == 1:
                    assert q_row.tobytes() == p_row.tobytes()
                    continue
                assert abs(1 - t) <= 2 * u
                changed += q_row.tobytes() != p_row.tobytes()
                for p, q in zip(map(Fraction, p_row.tolist()), map(Fraction, q_row.tolist())):
                    assert abs(q - p) <= p * (abs(1 - t) + u) / t
    assert changed  # some rows do move, so the bound is exercised


# --- report serialization ---


@pytest.fixture(scope="module")
def reports():
    ds, runs = synth.generate(n_systems=6, n_cases=24, seed=9)
    matrix = score_matrix(ds, runs, MeasureId.NMD)
    agree = agreement(ds, runs, [MeasureId.NMD, MeasureId.NVD, MeasureId.DNKT])
    consistency = split_half_consistency(
        ds, runs, [MeasureId.NMD, MeasureId.NVD], B=25, seed=4, permutations=200
    )
    return matrix, agree, consistency


def test_json_round_trip_is_exact(tmp_path, reports):
    for report in reports:
        path = write_report(report, "json", tmp_path / "r.json")
        back = read_report(path)
        assert back == report
        for fmt in ("tsv", "markdown"):
            assert render_report(back, fmt) == render_report(report, fmt)


def test_consistency_report_from_numpy_scalars_writes_and_reads_back(tmp_path):
    # check_consistency_args takes numpy integers and floats; the report
    # stores them as Python numbers, so json can write them.
    ds, runs = synth.generate(n_systems=6, n_cases=24, seed=9)
    measures = [MeasureId.NMD, MeasureId.NVD]
    plain = split_half_consistency(ds, runs, measures, B=5, seed=3, permutations=20)
    numpy_ints = split_half_consistency(
        ds, runs, measures, B=5, seed=np.int64(3), permutations=np.int64(20)
    )
    assert render_report(numpy_ints, "json") == render_report(plain, "json")
    report = dataclasses.replace(
        plain, seed=np.int64(3), alpha=np.float32(0.05), permutations=np.int64(20)
    )
    assert [type(v) for v in (report.seed, report.alpha, report.permutations)] == [int, float, int]
    back = read_report(write_report(report, "json", tmp_path / "r.json"))
    assert back == report and back.alpha == float(np.float32(0.05))


def _as_lists(value):
    """value with every tuple in it, nested ones too, turned into a list."""
    return [_as_lists(item) for item in value] if isinstance(value, tuple) else value


def _types(value):
    """The type of value and, for a tuple or a list, of each item in it, nested ones too."""
    if isinstance(value, (tuple, list)):
        return type(value), [_types(item) for item in value]
    return type(value)


def test_loaders_hand_the_arrays_they_build_to_the_records(monkeypatch):
    # Each loader builds a fresh array and makes it read-only, so the record
    # holds that array and _frozen makes no second copy of the table.
    handed = []

    def spy(values, _frozen=distributions._frozen):
        handed.append(values)
        return _frozen(values)

    monkeypatch.setattr(distributions, "_frozen", spy)
    data = Path(__file__).resolve().parent.parent / "data" / "synth"
    ds = load_gold(data / "gold.tsv")
    run = load_run(sorted((data / "runs").glob("*.tsv"))[0], ds)
    assert len(handed) == 2 and handed[0] is ds.gold and handed[1] is run.est


def test_public_records_are_frozen_with_read_only_arrays(tmp_path, reports):
    records = [getattr(quantdiv, name) for name in quantdiv.__all__]
    records = [cls for cls in records if isinstance(cls, type) and dataclasses.is_dataclass(cls)]
    for cls in records:
        assert cls.__dataclass_params__.frozen, cls.__name__
    ds, runs = synth.generate(n_systems=2, n_cases=5, seed=1)
    matrix, agree, consistency = reports
    for record in (ds, runs[0], matrix, consistency):
        arrays = [getattr(record, f.name) for f in dataclasses.fields(record)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == 1 and not arrays[0].flags.writeable, type(record).__name__
    # Every collection field is stored as a tuple, pairs and votes as tuples of
    # tuples, whether a list or a one-shot iterator of lists built the record:
    # it equals the record built from tuples and writes the same bytes.
    nmd, nvd, jsd = MeasureId.NMD, MeasureId.NVD, MeasureId.JSD
    apart = np.array([[0.9] * 5, [0.1] * 5])
    ranked = ConsistencyReport((nmd, nvd), apart, ((nmd, nvd),), FullSplit(), 1, 0.05, 4)

    def written(record) -> bytes:
        if isinstance(record, Dataset):
            return write_dataset(record, tmp_path / "d.tsv").read_bytes()
        return write_report(record, "json", tmp_path / "r.json").read_bytes()

    for record, names in (
        (ds, ("case_ids", "class_labels", "votes")),
        (matrix, ("system_ids", "case_ids")),
        (agree, ("measures", "taus")),
        (ranked, ("measures", "significant_pairs")),
    ):
        for name in names:
            value = getattr(record, name)
            assert type(value) is tuple and len(value) >= 1, name
            for given in (_as_lists(value), iter(_as_lists(value))):
                built = dataclasses.replace(record, **{name: given})
                assert _types(getattr(built, name)) == _types(value), name
                assert built == record, name
                assert written(built) == written(record), name
    # A mode that is not a FullSplit or FixedSize, a significant pair of other
    # than 2 measures, and ids given as one string (each character an id) are refused.
    with pytest.raises(OutOfRange, match="mode 'half' is not a FullSplit or FixedSize"):
        dataclasses.replace(ranked, mode="half")
    for pair in ((nmd,), (nmd, nvd, jsd)):
        with pytest.raises(OutOfRange, match="must name two report measures"):
            dataclasses.replace(ranked, significant_pairs=(pair,))
    for record, name in (
        (ds, "case_ids"), (ds, "class_labels"), (matrix, "system_ids"), (matrix, "case_ids")
    ):
        text = "".join(chr(0x4E00 + i) for i in range(len(getattr(record, name))))
        with pytest.raises(OutOfRange, match=f"must be a collection of str, got '{text}'"):
            dataclasses.replace(record, **{name: text})


def test_dataset_and_run_check_their_shapes_when_built():
    # Unchecked, numpy broadcasting would score each of these without an error.
    abcd, xyz = ("a", "b", "c", "d"), ("x", "y", "z")
    with pytest.raises(LengthMismatch, match=r"gold grid \(1, 3\) must be 4 cases x 3 classes"):
        Dataset(case_ids=abcd, class_labels=xyz, gold=[[0.2, 0.3, 0.5]])
    pair = Dataset(case_ids=("a", "b"), class_labels=("x", "y"), gold=[[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(LengthMismatch, match=r"est must be a \(cases, K\) grid, got shape \(2,\)"):
        SystemRun("s1", [0.3, 0.7])
    with pytest.raises(OutOfRange, match="case id 'a' is listed twice"):
        dataclasses.replace(pair, case_ids=("a", "a"))
    for changes, error, message in (
        ({"case_ids": ("a", 2)}, OutOfRange, "case id 2 is not a str"),
        ({"case_ids": ("a", "a", 2)}, OutOfRange, "case id 2 is not a str"),
        ({"class_labels": ("x", "x")}, OutOfRange, "class label 'x' is listed twice"),
        ({"class_labels": ("x", None)}, OutOfRange, "class label None is not a str"),
        ({"class_labels": ("x",), "gold": [[1.0], [1.0]]}, TooFewClasses, "got 1"),
        ({"gold": [0.5, 0.5]}, LengthMismatch, "gold grid"),
        ({"gold": [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]}, LengthMismatch, "gold grid"),
        ({"votes": ((1, 1),)}, LengthMismatch, "votes must hold one row of 2 counts"),
        ({"votes": ((1, 1), (1, 1, 0))}, LengthMismatch, "votes must hold one row of 2 counts"),
        ({"votes": ((True, 1), (1, 1))}, OutOfRange, "vote count must be an integer >= 0, got True"),
        ({"votes": ((1.0, 1), (1, 1))}, OutOfRange, "vote count must be an integer >= 0, got 1.0"),
        ({"votes": ((1, 1), (-1, 2))}, OutOfRange, "vote count must be an integer >= 0, got -1"),
    ):
        with pytest.raises(error, match=message):
            dataclasses.replace(pair, **changes)
    with pytest.raises(OutOfRange, match="system id 1 is not a str"):
        SystemRun(1, [[0.5, 0.5]])
    with pytest.raises(LengthMismatch, match="got shape"):
        SystemRun("s1", [[[0.5, 0.5]]])
    # Rows need not be simplex points, and votes need not match gold; counts are kept as Python ints.
    loose = dataclasses.replace(pair, gold=[[2.0, -1.0], [0.0, 0.0]], votes=[[np.int64(1), 1], [0, 3]])
    assert loose.gold.tolist() == [[2.0, -1.0], [0.0, 0.0]]
    assert _types(loose.votes) == (tuple, [(tuple, [int, int])] * 2)
    assert loose.votes == dataclasses.replace(loose, votes=[[1, 1], [0, 3]]).votes == ((1, 1), (0, 3))
    assert SystemRun("s1", [[2.0, -1.0]]).est.shape == (1, 2)


def test_reports_are_frozen_records_equal_field_by_field(tmp_path, reports):
    # A report cannot change after its checks ran; changing any one field
    # gives an unequal report, and JSON keeps every field.
    matrix, _, _ = reports
    nmd, nvd, jsd = MeasureId.NMD, MeasureId.NVD, MeasureId.JSD
    apart = np.array([[0.9] * 5, [0.1] * 5])
    consistency = ConsistencyReport(
        (nmd, nvd), apart, (), FullSplit(), seed=1, alpha=0.05, permutations=10
    )
    for record, changes in (
        (
            matrix,
            {
                "values": matrix.values / 2.0,
                "system_ids": matrix.system_ids[::-1],
                "case_ids": matrix.case_ids[::-1],
                "measure": nvd,
            },
        ),
        (
            consistency,
            {
                "measures": (nmd, jsd),
                "per_trial_tau": consistency.per_trial_tau[::-1],
                "significant_pairs": ((nmd, nvd),),
                "mode": FixedSize(2),
                "seed": 2,
                "alpha": 0.01,
                "permutations": 11,
                "tau_variant": "plain",
            },
        ),
    ):
        assert set(changes) == {f.name for f in dataclasses.fields(record)}
        assert dataclasses.replace(record) == record
        for name, value in changes.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, value)
            changed = dataclasses.replace(record, **{name: value})
            assert changed != record, name
            assert read_report(write_report(changed, "json", tmp_path / "r.json")) == changed


def test_json_meta_fields(reports):
    _, _, consistency = reports
    doc = json.loads(render_report(consistency, "json"))
    assert doc["kind"] == "consistency"
    assert doc["measures"] == ["NMD", "NVD"]
    assert doc["meta"] == {
        "seed": 4,
        "B": 25,
        "mode": "half",
        "alpha": 0.05,
        "tool_version": doc["meta"]["tool_version"],
    }
    assert doc["payload"]["permutations"] == 200


def test_tsv_score_matrix_format(reports):
    matrix, _, _ = reports
    lines = render_report(matrix, "tsv").splitlines()
    assert lines[0].split("\t")[0] == "system_id"
    assert len(lines) == 1 + 6
    cell = lines[1].split("\t")[1]
    assert len(cell.split(".")[1]) == 6


# Scores whose 6-decimal form is easy to get wrong: zeros of both signs,
# subnormals, ties at the sixth decimal, 1.0 and the largest score allowed.
_RENDER_EDGES = (0.0, -0.0, 5e-324, 2.5e-310, 2.5e-7, 5e-7, 0.1234565, 0.9999995, 1.0, 1.0 + 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_score_rows_render_as_per_cell_format(seed):
    rng = np.random.default_rng(seed)
    n_systems, n_cases = int(rng.integers(1, 9)), int(rng.integers(1, 40))
    values = rng.choice(_RENDER_EDGES, size=(n_systems, n_cases))
    ties = (rng.integers(0, 1_000_000, size=values.shape) + 0.5) / 1e6
    values = np.where(rng.random(values.shape) < 0.5, values, ties)
    # Ids with % in them are cells, not parts of the row format.
    system_ids = tuple(f"s{i}%s%%d" for i in range(n_systems))
    case_ids = tuple(f"c{i}%" for i in range(n_cases))
    matrix = ScoreMatrix(values, system_ids, case_ids, MeasureId.NMD)
    for fmt, corner in (("tsv", "system_id"), ("markdown", "system (NMD)")):
        rows = ([sid, *(f"{x:.6f}" for x in row)] for sid, row in zip(system_ids, values.tolist()))
        assert render_report(matrix, fmt) == _table(fmt, [corner, *case_ids], rows)
    for x in (math.nan, math.inf, -math.inf, 10.0, 1e15, *_RENDER_EDGES):
        assert "%.6f" % x == f"{x:.6f}"


def test_tsv_agreement_has_pairs_and_averages(reports):
    _, agree, _ = reports
    text = render_report(agree, "tsv")
    assert text.startswith("first\tsecond\ttau\tci_low\tci_high\tn\n")
    assert "measure\tavg_similarity" in text
    assert text.count("\nNMD\t") + text.count("\nNVD\t") + text.count("\nDNKT\t") >= 3


def test_tsv_consistency_sorted_by_mean(reports):
    _, _, consistency = reports
    lines = render_report(consistency, "tsv").splitlines()
    assert lines[0] == "measure\tmean_tau\tsignificantly_outperforms"
    means = [float(line.split("\t")[1]) for line in lines[1:]]
    assert means == sorted(means, reverse=True)


def test_markdown_tables(reports):
    matrix, agree, consistency = reports
    md = render_report(matrix, "markdown")
    assert md.startswith("| system (NMD) |")
    rows = md.splitlines()
    assert all(r.startswith("|") and r.endswith("|") for r in rows)
    md = render_report(agree, "markdown")
    assert "| measure | average tau |" in md
    md = render_report(consistency, "markdown")
    assert "| measure | mean tau | significantly outperforms |" in md


def test_unknown_format_rejected(reports):
    with pytest.raises(OutOfRange):
        render_report(reports[0], "yaml")
    for fmt in ("tsv", "json"):
        with pytest.raises(OutOfRange, match="cannot serialize object"):
            render_report(object(), fmt)


_DELETE = object()  # in place of a value: the key is deleted


def test_read_report_rejects_bad_input(tmp_path, reports):
    bad = write(tmp_path, "r.json", "not json at all {")
    with pytest.raises(ParseError):
        read_report(bad)
    unknown = write(tmp_path, "r2.json", json.dumps({"kind": "summary", "payload": {}}))
    with pytest.raises(ParseError):
        read_report(unknown)
    # Ragged grids and a non-string mode, which numpy and str methods reject
    # with their own exception types; then documents that differ from the one
    # the writer writes for their data (section None is the top level).
    docs = [json.loads(render_report(report, "json")) for report in reports]
    pairs, averages = docs[1]["payload"]["pairs"], docs[1]["payload"]["avg_similarity"]
    scores, case_ids = docs[0]["payload"]["values"], docs[0]["payload"]["case_ids"]
    scores = [[7.0, *scores[0][1:]], *scores[1:]]
    noted = [{**pairs[0], "note": 0}, *pairs[1:]]
    for report, section, key, value, message in (
        (0, "payload", "values", [[0.1, 0.2], [0.3]], "payload.values"),
        (0, "payload", "values", scores, r"scores must be numbers in \[0, 1\]"),
        (2, "payload", "per_trial_tau", [[0.5], [0.5, 0.6]], "payload.per_trial_tau"),
        (2, "meta", "mode", 3, "meta.mode"),
        (2, "payload", "significant_pairs", [["NMD"]], r"^report key 'payload.significant_pairs': significant pair \(NMD\) must name two report measures$"),
        (2, "payload", "mean_tau", docs[2]["payload"]["mean_tau"][:1], "payload.mean_tau"),
        (2, "meta", "B", 7, "meta.B"),
        (2, "meta", "B", "five", "meta.B"),
        (2, "meta", "seed", -3, "seed must be an integer >= 0"),
        (2, "meta", "seed", 1.5, "seed must be an integer"),
        (2, "payload", "permutations", 2.5, "permutations must be an integer"),
        (2, "meta", "alpha", 7, "alpha must be a number in"),
        (1, "payload", "pairs", pairs[1:], "agreement of 3 measures needs 3 TauResults"),
        (1, "payload", "pairs", pairs[::-1], r"key 'payload.pairs\[0\].first' is 'NVD', the data give 'NMD'"),
        (1, "payload", "avg_similarity", averages[:2], "payload.avg_similarity"),
        (1, "payload", "note", "hand-edited", "report key 'payload.note' is 'hand-edited'"),
        (1, "payload", "pairs", noted, r"'payload.pairs\[0\].note' is 0, the data give absent$"),
        (0, None, "meta", [None], r"^report key 'meta' must be a JSON object, got list$"),
        (1, "meta", "alpha", "?", "report key 'meta.alpha' is '\\?', the data give None"),
        (1, "meta", "seed", 4, "report key 'meta.seed' is 4, the data give None"),
        (0, "meta", "seed", 4, "report key 'meta.seed' is 4, the data give None"),
        (0, "meta", "mode", "half", "report key 'meta.mode' is 'half'"),
        (0, None, "note", None, "report key 'note' is None, the data give absent"),
        (2, "meta", "mode", "k=+2", "report key 'meta.mode' is 'k=\\+2', the data give 'k=2'"),
        (0, None, "measures", [], "'measures' must name one measure"),
        (0, "payload", "system_ids", ["a"] * 6, "system id 'a' is listed twice"),
        (0, "payload", "system_ids", list(range(6)), "system id 0 is not a str"),
        (0, "payload", "case_ids", ["c"] * 24, "case id 'c' is listed twice"),
        (2, None, "measures", ["NMD", "NMD"], "measure NMD is listed twice"),
        (2, None, "meta", [0.05], "^report key 'meta' must be a JSON object, got list$"),
        (2, None, "payload", [], "^report key 'payload' must be a JSON object, got list$"),
        (0, None, "payload", [[0.1]], "^report key 'payload' must be a JSON object, got list$"),
        # A collection of another JSON type is named by its key.
        (1, "payload", "pairs", [[1, 2], *pairs[1:]], r"^report key 'payload.pairs\[0\]' must be a JSON object"),
        (1, "payload", "pairs", [pairs[0], "NMD", pairs[2]], r"key 'payload.pairs\[1\]' must .* got str$"),
        (1, "payload", "pairs", 5, "^report key 'payload.pairs' must be a JSON list, got int$"),
        (1, "payload", "pairs", {}, "^report key 'payload.pairs' must be a JSON list, got dict$"),
        (2, None, "measures", "NMD", "^report key 'measures' must be a JSON list, got str$"),
        (0, None, "measures", 5, "^report key 'measures' must be a JSON list, got int$"),
        (2, "payload", "significant_pairs", 5, "^report key 'payload.significant_pairs' must be a JSON list, got int$"),
        (2, "payload", "significant_pairs", [["NMD", "JSD"], 3], r"^report key 'payload.significant_pairs\[1\]' must be a JSON list, got int$"),
        (2, "payload", "significant_pairs", ["NMDNVD"], r"^report key 'payload.significant_pairs\[0\]' must be a JSON list, got str$"),
        (0, "payload", "case_ids", [case_ids[1], *case_ids[1:]], f"^report key 'payload.case_ids': case id '{case_ids[1]}' is listed twice$"),
        # A rule's message quotes the refused value cut at QUOTE_LIMIT characters.
        (0, None, "measures", ["x" * 100_000], r"^report key 'measures\[0\]': 'x{119}\.\.\. \(100027 characters\)$"),
        (0, "payload", "case_ids", ["x" * 100_000] * 2 + case_ids[2:], r"^report key 'payload.case_ids': case id 'x{111}\.\.\. \(100026 characters\)$"),
        # Each field by its own rule, named by its own path.
        (2, "meta", "seed", -3, "^report key 'meta.seed': seed must be an integer >= 0, got -3$"),
        (2, "payload", "tau_variant", ["b"], r"^report key 'payload.tau_variant': unknown tau variant \['b'\]$"),
        (2, "meta", "mode", None, "^report key 'meta.mode': subset mode None is not a str$"),
        (1, "payload", "pairs", [{**pairs[0], "n": 2}, *pairs[1:]], r"^report key 'payload.pairs\[0\].n': n must be an integer >= 3, got 2$"),
        (1, "payload", "pairs", [pairs[0], {**pairs[1], "tau": 7}, pairs[2]], r"^report key 'payload.pairs\[1\].tau': tau must be a number in \[-1, 1\], got 7$"),
        (1, None, "measures", ["NMD", True, "DNKT"], r"^report key 'measures\[1\]': True is not a valid MeasureId$"),
        (1, None, "kind", None, "^report key 'kind' must name a report kind, got None$"),
        # A conflict between fields is named at the later key in the writer's order.
        (0, "payload", "values", scores[1:], r"^report key 'payload.values': score grid \(5, 24\) does not match 6 systems x 24 cases$"),
        (2, "payload", "per_trial_tau", docs[2]["payload"]["per_trial_tau"][:1], r"^report key 'payload.per_trial_tau': per-trial tau grid \(1, 25\) must be"),
        (1, "payload", "pairs", [{**pairs[0], "ci_high": -1.0}, *pairs[1:]], r"^report key 'payload.pairs\[0\].ci_high': need ci_low <= tau <= ci_high"),
        (1, "payload", "avg_similarity", None, "^report key 'payload.avg_similarity' is None, the data give"),
        (1, "payload", "avg_similarity", _DELETE, "^report lacks key 'payload.avg_similarity'$"),
    ):
        doc = json.loads(render_report(reports[report], "json"))
        (doc if section is None else doc[section])[key] = value
        if value is _DELETE:
            del (doc if section is None else doc[section])[key]
        with pytest.raises(ParseError, match=message):
            read_report(write(tmp_path, "r3.json", json.dumps(doc)))
    # Reports from other releases load: meta.tool_version may differ or be absent.
    for report, doc in zip(reports, docs):
        for version in ("9.9", None):
            doc["meta"].pop("tool_version")
            if version is not None:
                doc["meta"]["tool_version"] = version
            assert read_report(write(tmp_path, "r4.json", json.dumps(doc))) == report


@pytest.mark.parametrize("key", ["kind", "measures", "payload", "meta"])
@pytest.mark.parametrize("report", [0, 1, 2])
def test_read_report_missing_key_is_parse_error(tmp_path, reports, report, key):
    doc = json.loads(render_report(reports[report], "json"))
    del doc[key]
    path = write(tmp_path, "r.json", json.dumps(doc))
    with pytest.raises(ParseError, match=f"^report lacks key '{key}'$"):
        read_report(path)


def test_read_report_unknown_measure_is_parse_error(tmp_path, reports):
    doc = json.loads(render_report(reports[2], "json"))
    doc["payload"]["significant_pairs"] = [["NMD", "XYZ"]]
    path = write(tmp_path, "r.json", json.dumps(doc))
    with pytest.raises(ParseError, match="XYZ"):
        read_report(path)
    doc["measures"] = ["NMD", "ABC"]
    path = write(tmp_path, "r.json", json.dumps(doc))
    with pytest.raises(ParseError, match="ABC"):
        read_report(path)


def test_read_report_agreement_pair_outside_measure_list(tmp_path, reports):
    doc = json.loads(render_report(reports[1], "json"))
    for measures, message in (
        (["NMD", "JSD"], "agreement of 2 measures needs 1 TauResults"),
        (["NMD", "JSD", "DNKT"], r"^report key 'payload.pairs\[0\].second' is 'NVD', the data give 'JSD'$"),
    ):
        doc["measures"] = measures
        with pytest.raises(ParseError, match=message):
            read_report(write(tmp_path, "r.json", json.dumps(doc)))


def test_read_report_checks_each_agreement_pair(tmp_path, reports):
    doc = json.loads(render_report(reports[1], "json"))
    pairs = doc["payload"]["pairs"]
    cases = [
        ([{**pairs[0], key: value}, *pairs[1:]], message)
        for key, value, message in (
            ("tau", 7, "tau must be a number in"),
            ("tau", -1.5, "tau must be a number in"),
            ("ci_high", None, "ci_high must be a number"),
            ("n", "twelve", "n must be an integer"),
            ("n", 2, "n must be an integer >= 3"),
        )
    ]
    # A pair listed twice, with the same or other valid values: one pair too
    # many, or in the place of another pair.
    other = {**pairs[1], "first": pairs[0]["first"], "second": pairs[0]["second"]}
    cases += [
        ([*pairs, pairs[0]], "agreement of 3 measures needs 3 TauResults"),
        ([*pairs, other], "agreement of 3 measures needs 3 TauResults"),
        ([pairs[0], pairs[0], pairs[2]], r"key 'payload.pairs\[1\].second' is 'NVD', the data give 'DNKT'"),
    ]
    for bad, message in cases:
        edited = {**doc, "payload": {**doc["payload"], "pairs": bad}}
        with pytest.raises(ParseError, match=message):
            read_report(write(tmp_path, "r.json", json.dumps(edited)))


@pytest.fixture(scope="module")
def bundled_consistency():
    """The bundled data's `consistency --B 50 --permutations 200` report, as JSON."""
    data = Path(__file__).resolve().parent.parent / "data" / "synth"
    ds = load_gold(data / "gold.tsv")
    runs = [load_run(path, ds) for path in sorted((data / "runs").glob("*.tsv"))]
    report = split_half_consistency(ds, runs, DEFAULT_SUITE, B=50, permutations=200)
    return json.loads(render_report(report, "json"))


def test_read_report_checks_the_significant_pairs(tmp_path, bundled_consistency):
    doc = bundled_consistency
    pairs = doc["payload"]["significant_pairs"]
    assert len(pairs) > 2
    read_report(write(tmp_path, "r.json", json.dumps(doc)))
    for bad, message in (
        ([*pairs, pairs[1]], "listed twice"),
        ([*pairs, pairs[1][::-1]], "listed twice"),
        ([pairs[0][::-1], *pairs[1:]], "is not above the loser's"),
        ([pair[::-1] for pair in pairs], "is not above the loser's"),
    ):
        edited = {**doc, "payload": {**doc["payload"], "significant_pairs": bad}}
        with pytest.raises(ParseError, match=message):
            read_report(write(tmp_path, "r.json", json.dumps(edited)))


def test_read_report_undecodable_or_deeply_nested_is_parse_error(tmp_path, reports):
    path = tmp_path / "r.json"
    path.write_bytes(render_report(reports[2], "json").encode().replace(b'"meta"', b'"m\xffeta"'))
    with pytest.raises(ParseError, match="not UTF-8: byte 0xff"):
        read_report(path)
    with pytest.raises(ParseError, match="nested too deeply"):
        read_report(write(tmp_path, "r.json", "[" * 200000 + "]" * 200000))


def test_read_report_bounds_the_per_trial_taus(tmp_path, reports):
    doc = json.loads(render_report(reports[2], "json"))
    for value in (1.5, -1.0000000000000002, math.nan, 1e308):
        row = [value, value, *doc["payload"]["per_trial_tau"][0][2:]]
        with np.errstate(over="ignore"):
            mean = float(np.mean(row))
        edited = copy.deepcopy(doc)
        edited["payload"]["per_trial_tau"][0] = row
        edited["payload"]["mean_tau"][0] = mean
        with pytest.raises(ParseError, match=r"per-trial taus must be numbers in \[-1, 1\]"):
            read_report(write(tmp_path, "r.json", json.dumps(edited)))


def test_read_report_takes_no_bool_for_a_number(tmp_path, reports):
    # Python's == makes true equal 1 and 1.0; the writer never writes a bool.
    doc = json.loads(render_report(reports[0], "json"))
    doc["payload"].update(system_ids=["s"], case_ids=["a", "b"], values=[[True, False]])
    for values, message in (
        ([[True, False]], r"^report key 'payload.values': scores must be numbers, got a bool array$"),
        ([[True, 0.5]], r"^report key 'payload.values\[0\]\[0\]' is True, the data give 1.0$"),
        ([[1, False]], r"^report key 'payload.values\[0\]\[1\]' is False, the data give 0.0$"),
    ):
        doc["payload"]["values"] = values
        with pytest.raises(ParseError, match=message):
            read_report(write(tmp_path, "r.json", json.dumps(doc)))
    doc["payload"]["values"] = [[1, 0]]  # an int still equals its float
    assert read_report(write(tmp_path, "r.json", json.dumps(doc))).values.tolist() == [[1.0, 0.0]]
    # A one-trial consistency report whose meta.B is true.
    ds, runs = synth.generate(n_systems=4, n_cases=12, seed=2)
    one = split_half_consistency(ds, runs, [MeasureId.NMD, MeasureId.NVD], B=1, seed=0, permutations=20)
    doc = json.loads(render_report(one, "json"))
    assert read_report(write(tmp_path, "c.json", json.dumps(doc))) == one
    doc["meta"]["B"] = True
    with pytest.raises(ParseError, match=r"^report key 'meta.B' is True, the data give 1$"):
        read_report(write(tmp_path, "c.json", json.dumps(doc)))


def test_read_report_quotes_lists_at_their_first_difference(tmp_path, reports):
    # The bundled data's default agreement report, with its 66 pairs reversed.
    data = Path(__file__).resolve().parent.parent / "data" / "synth"
    ds = load_gold(data / "gold.tsv")
    runs = [load_run(path, ds) for path in sorted((data / "runs").glob("*.tsv"))]
    doc = json.loads(render_report(agreement(ds, runs, DEFAULT_SUITE), "json"))
    pairs = doc["payload"]["pairs"]
    edited = {**doc, "payload": {**doc["payload"], "pairs": pairs[::-1]}}
    with pytest.raises(ParseError) as err:
        read_report(write(tmp_path, "r.json", json.dumps(edited)))
    message = str(err.value)
    assert message == f"report key 'payload.pairs[0].first' is {pairs[-1]['first']!r}, the data give 'NMD'"
    assert len(message) < 300
    # Pairs 3 and 4 swapped: they share their first measure, so the second is quoted.
    swapped = [*pairs[:3], pairs[4], pairs[3], *pairs[5:]]
    edited = {**doc, "payload": {**doc["payload"], "pairs": swapped}}
    with pytest.raises(ParseError) as err:
        read_report(write(tmp_path, "r.json", json.dumps(edited)))
    got, wanted = pairs[4]["second"], pairs[3]["second"]
    assert str(err.value) == f"report key 'payload.pairs[3].second' is {got!r}, the data give {wanted!r}"
    # One list a prefix of the other: the two lengths.
    doc = json.loads(render_report(reports[2], "json"))
    doc["payload"]["mean_tau"] = doc["payload"]["mean_tau"][:1]
    with pytest.raises(
        ParseError, match=r"^report key 'payload.mean_tau' is a list of length 1, the data give 2$"
    ):
        read_report(write(tmp_path, "r.json", json.dumps(doc)))


def test_read_report_cuts_long_quotes(tmp_path, reports):
    # A value is quoted up to a fixed length, and the cut is marked.
    doc = json.loads(render_report(reports[1], "json"))
    doc["payload"]["note"] = "x" * 100_000
    with pytest.raises(ParseError) as err:
        read_report(write(tmp_path, "r.json", json.dumps(doc)))
    message = str(err.value)
    assert message.startswith("report key 'payload.note' is 'xxx")
    assert message.endswith("xxx... (100002 characters), the data give absent")
    assert len(message) < 400
    del doc["payload"]["note"]
    pair = doc["payload"]["pairs"][0]
    doc["payload"]["pairs"][0] = {**pair, "first": "x" * 100_000}
    with pytest.raises(ParseError) as err:
        read_report(write(tmp_path, "r.json", json.dumps(doc)))
    message = str(err.value)
    assert message.startswith("report key 'payload.pairs[0].first' is 'xxx")
    assert message.endswith("xxx... (100002 characters), the data give 'NMD'")
    assert len(message) < 400
    # A key name is cut the same way.
    doc["payload"]["pairs"][0] = pair
    doc["payload"]["x" * 100_000] = 1
    with pytest.raises(ParseError) as err:
        read_report(write(tmp_path, "r.json", json.dumps(doc)))
    message = str(err.value)
    assert message.startswith("report key 'payload.xxx")
    assert message.endswith("xxx... (100008 characters)' is 1, the data give absent")
    assert len(message) < 400
    # So is a key path that runs through a list.
    del doc["payload"]["x" * 100_000]
    doc["payload"]["pairs"][0] = {**pair, "x" * 100_000: 1}
    with pytest.raises(ParseError) as err:
        read_report(write(tmp_path, "r.json", json.dumps(doc)))
    message = str(err.value)
    assert message.startswith("report key 'payload.pairs[0].xxx")
    assert message.endswith("xxx... (100017 characters)' is 1, the data give absent")
    assert len(message) < 400


@pytest.mark.parametrize("text", ["[]", "3", '"score_matrix"', "null"])
def test_read_report_non_object_is_parse_error(tmp_path, text):
    with pytest.raises(ParseError, match="JSON object"):
        read_report(write(tmp_path, "r.json", text))


def test_write_report_writes_all_formats(tmp_path, reports):
    matrix, _, _ = reports
    for fmt, name in (("tsv", "m.tsv"), ("json", "m.json"), ("markdown", "m.md")):
        path = write_report(matrix, fmt, tmp_path / name)
        assert path.read_text(encoding="utf-8") == render_report(matrix, fmt)


def test_write_report_refuses_before_opening_the_file(tmp_path, reports):
    kept = write(tmp_path, "kept.json", "earlier bytes\n")
    fresh = tmp_path / "fresh.json"
    for report, fmt in ((reports[2], "yaml"), (object(), "json"), (object(), "tsv")):
        for path in (kept, fresh):
            with pytest.raises(OutOfRange):
                write_report(report, fmt, path)
        assert kept.read_bytes() == b"earlier bytes\n"
        assert not fresh.exists()


# Ids that JSON must escape, or that spell the grid's key, its line or its stand-in.
_AWKWARD_IDS = ('say "hi"', "two\nlines", "nul\x00", "]", "],", "values")
_AWKWARD_IDS += ('"values": {}', '\n    "values": {}')


def _edge_reports(rng, n):
    """A ConsistencyReport and a ScoreMatrix whose rows hold n values, edge values first."""
    taus = [-0.0, 1.0, -1.0, 5e-324, 0.30000000000000004, *rng.uniform(-1.0, 1.0, 3 * n)]
    scores = [-0.0, 1.0, 1.0 + _RANGE_SLACK, 5e-324, 0.30000000000000004]
    scores += rng.uniform(0.0, 1.0, len(_AWKWARD_IDS) * n).tolist()
    measures = (MeasureId.NMD, MeasureId.NVD, MeasureId.JSD)
    case_ids = (*_AWKWARD_IDS, *(f"c{i}" for i in range(n)))[:n]
    return (
        ConsistencyReport(
            measures, np.resize(taus, (3, n)), (), FullSplit(), seed=1, alpha=0.05, permutations=10
        ),
        ScoreMatrix(
            np.resize(scores, (len(_AWKWARD_IDS), n)), _AWKWARD_IDS, case_ids, MeasureId.NMD
        ),
    )


@pytest.mark.parametrize("chunk", [1, 2, 3, dataset_io.JSON_CHUNK])
def test_json_reports_are_one_json_dumps_of_the_document(tmp_path, monkeypatch, reports, chunk):
    monkeypatch.setattr(dataset_io, "JSON_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    empty = (
        ScoreMatrix(np.zeros((0, 2)), (), ("a", "b"), MeasureId.NMD),
        ScoreMatrix(np.zeros((2, 0)), ("a", "b"), (), MeasureId.NMD),
    )
    lengths = sorted({1, max(chunk - 1, 1), chunk, chunk + 1})
    edge = [report for n in lengths for report in _edge_reports(rng, n)]
    for report in (*reports, *empty, *edge):
        expected = _oracle.json_report(report)
        assert render_report(report, "json") == expected
        path = write_report(report, "json", tmp_path / "r.json")
        assert path.read_bytes() == expected.encode("utf-8")


def test_json_writer_memory_is_bounded_by_the_chunk(tmp_path):
    # 300,000 taus: one json.dumps of the whole document peaks near 42 MB,
    # the chunked writer near 0.3 MB, whatever B is.
    taus = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 100_000))
    measures = (MeasureId.NMD, MeasureId.NVD, MeasureId.JSD)
    report = ConsistencyReport(measures, taus, (), FullSplit(), seed=1, alpha=0.05, permutations=10)
    tracemalloc.start()
    try:
        write_report(report, "json", tmp_path / "r.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_default_suite_tags_are_stable():
    assert [m.value for m in DEFAULT_SUITE] == [
        "NMD",
        "RNADW",
        "RNOD",
        "RNADW2",
        "RNOD2",
        "NVD",
        "RNSS",
        "JSD",
        "DNKT",
        "DNKT_JSD",
        "DNKT_NMD",
        "DNKT_RNOD",
    ]
