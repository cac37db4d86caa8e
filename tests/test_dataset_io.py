import copy
import dataclasses
import json
import math
import re
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
    MissingCase,
    NegativeProbability,
    NotNormalized,
    OutOfRange,
    ParseError,
    UnknownCase,
)
from quantdiv.measures import DEFAULT_SUITE, MeasureId
from quantdiv.meta_eval import (
    ConsistencyReport,
    FixedSize,
    FullSplit,
    ScoreMatrix,
    agreement,
    score_matrix,
    split_half_consistency,
)
import quantdiv
from quantdiv import synth

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
            "case 'q1': class 1 has negative vote count -1",
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
    ],
)
def test_parse_errors(tmp_path, text, exc, fragment):
    path = write(tmp_path, "bad.tsv", text)
    with pytest.raises(exc) as err:
        load_gold(path)
    assert fragment in str(err.value)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
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


def _reference_rows(mode, rows):
    """Plain-Python normalisation: a float per cell, math.fsum, then divide."""
    out = []
    for cells in rows:
        if mode == "counts":
            counts = [int(c) for c in cells]
            values = [c / sum(counts) for c in counts]
        else:
            values = [float(c) for c in cells]
        total = math.fsum(values)
        out.append([v / total for v in values])
    return np.array(out, dtype=np.float64)


def _corrupted(rng, mode, rows):
    """rows with one cell of one row made bad: (that row, the rows, error type, message).

    The message is the row checks' own, after the line or case it names.
    """
    bad, j = int(rng.integers(len(rows))), int(rng.integers(len(rows[0])))
    cells = list(rows[bad])
    if mode == "counts":
        faults = (
            ("-3", NegativeProbability, f"class {j + 1} has negative vote count -3"),
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


@pytest.mark.parametrize("mode", ["probs", "counts"])
@pytest.mark.parametrize("seed", range(4))
def test_loaded_arrays_equal_plain_python_reference(tmp_path, mode, seed):
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(2, 12)), int(rng.integers(1, 60))
    fuzz = _fuzzed_counts_row if mode == "counts" else _fuzzed_probs_row
    rows = [fuzz(rng, k) for _ in range(n)]
    ids = [f"q{i}" for i in range(n)]
    expected = _reference_rows(mode, rows)
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
        where = f"line {line}" if exc is ParseError else f"case {ids[bad]!r}"
        with pytest.raises(exc) as err:
            loader(path)
        assert type(err.value) is exc
        assert str(err.value) == f"{path}: {where}: {message}"


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


def test_write_dataset_probs_round_trip(tmp_path):
    ds = load_gold(write(tmp_path, "g.tsv", GOLD_PROBS))
    back = load_gold(write_dataset(ds, tmp_path / "copy.tsv"))
    assert back == ds
    assert (tmp_path / "copy.tsv").read_text(encoding="utf-8").startswith("#mode: probs\n")


def test_write_run_round_trip(tmp_path):
    ds, runs = synth.generate(n_systems=2, n_cases=25, seed=3)
    # repr round-trips floats exactly, so re-loading reproduces the run
    back = load_run(write_run(runs[1], ds, tmp_path / "r.tsv"), ds, system_id=runs[1].system_id)
    assert back == runs[1]


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


def test_public_records_are_frozen_with_read_only_arrays(reports):
    records = [getattr(quantdiv, name) for name in quantdiv.__all__]
    records = [cls for cls in records if isinstance(cls, type) and dataclasses.is_dataclass(cls)]
    for cls in records:
        assert cls.__dataclass_params__.frozen, cls.__name__
    ds, runs = synth.generate(n_systems=2, n_cases=5, seed=1)
    matrix, _, consistency = reports
    for record in (ds, runs[0], matrix, consistency):
        arrays = [getattr(record, f.name) for f in dataclasses.fields(record)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == 1 and not arrays[0].flags.writeable, type(record).__name__


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
                "values": matrix.values + 1.0,
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


# Values whose 6-decimal form is easy to get wrong: zeros of both signs,
# subnormals, ties at the sixth decimal, 1.0 and values of 10 and more.
_RENDER_EDGES = (0.0, -0.0, 5e-324, 2.5e-310, 2.5e-7, 5e-7, 0.1234565, 0.9999995, 1.0, 10.0, 1e15)


@pytest.mark.parametrize("seed", range(4))
def test_score_rows_render_as_per_cell_format(seed):
    rng = np.random.default_rng(seed)
    n_systems, n_cases = int(rng.integers(1, 9)), int(rng.integers(1, 40))
    values = rng.choice(_RENDER_EDGES, size=(n_systems, n_cases))
    ties = (rng.integers(0, 20_000_000, size=values.shape) + 0.5) / 1e6
    values = np.where(rng.random(values.shape) < 0.5, values, ties)
    # Ids with % in them are cells, not parts of the row format.
    system_ids = tuple(f"s{i}%s%%d" for i in range(n_systems))
    case_ids = tuple(f"c{i}%" for i in range(n_cases))
    matrix = ScoreMatrix(values, system_ids, case_ids, MeasureId.NMD)
    for fmt, corner in (("tsv", "system_id"), ("markdown", "system (NMD)")):
        rows = ([sid, *(f"{x:.6f}" for x in row)] for sid, row in zip(system_ids, values.tolist()))
        assert render_report(matrix, fmt) == _table(fmt, [corner, *case_ids], rows)
    for x in (math.nan, math.inf, -math.inf, -0.0, *_RENDER_EDGES):
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
    for report, section, key, value, message in (
        (0, "payload", "values", [[0.1, 0.2], [0.3]], "payload.values"),
        (2, "payload", "per_trial_tau", [[0.5], [0.5, 0.6]], "payload.per_trial_tau"),
        (2, "meta", "mode", 3, "meta.mode"),
        (2, "payload", "significant_pairs", [["NMD"]], "malformed report"),
        (2, "payload", "mean_tau", docs[2]["payload"]["mean_tau"][:1], "payload.mean_tau"),
        (2, "meta", "B", 7, "meta.B"),
        (2, "meta", "B", "five", "meta.B"),
        (2, "meta", "seed", -3, "seed must be non-negative"),
        (2, "meta", "seed", 1.5, "seed must be an integer"),
        (2, "payload", "permutations", 2.5, "permutations must be an integer"),
        (2, "meta", "alpha", 7, "alpha must be in"),
        (1, "payload", "pairs", pairs[1:], "agreement of 3 measures needs 3 TauResults"),
        (1, "payload", "pairs", pairs[::-1], "report key 'payload.pairs' is"),
        (1, "payload", "avg_similarity", averages[:2], "payload.avg_similarity"),
        (1, "payload", "note", "hand-edited", "report key 'payload.note' is 'hand-edited'"),
        (1, "meta", "alpha", "?", "report key 'meta.alpha' is '\\?', the data give None"),
        (1, "meta", "seed", 4, "report key 'meta.seed' is 4, the data give None"),
        (0, "meta", "seed", 4, "report key 'meta.seed' is 4, the data give None"),
        (0, "meta", "mode", "half", "report key 'meta.mode' is 'half'"),
        (0, None, "note", None, "report key 'note' is None, the data give absent"),
        (2, "meta", "mode", "k=+2", "report key 'meta.mode' is 'k=\\+2', the data give 'k=2'"),
        (0, None, "measures", [], "'measures' must name one measure"),
        (0, "payload", "system_ids", ["a"] * 6, "system_ids must be unique"),
        (0, "payload", "system_ids", list(range(6)), "system_ids must be strings"),
        (0, "payload", "case_ids", ["c"] * 24, "case_ids must be unique"),
        (2, None, "measures", ["NMD", "NMD"], "measure NMD is listed twice"),
    ):
        doc = json.loads(render_report(reports[report], "json"))
        (doc if section is None else doc[section])[key] = value
        with pytest.raises(ParseError, match=message):
            read_report(write(tmp_path, "r3.json", json.dumps(doc)))
    # Reports from other releases load: meta.tool_version may differ or be absent.
    for report, doc in zip(reports, docs):
        for version in ("9.9", None):
            doc["meta"].pop("tool_version")
            if version is not None:
                doc["meta"]["tool_version"] = version
            assert read_report(write(tmp_path, "r4.json", json.dumps(doc))) == report


@pytest.mark.parametrize("report, key", [(1, "payload"), (2, "payload"), (2, "meta")])
def test_read_report_missing_key_is_parse_error(tmp_path, reports, report, key):
    doc = json.loads(render_report(reports[report], "json"))
    del doc[key]
    path = write(tmp_path, "r.json", json.dumps(doc))
    with pytest.raises(ParseError, match=key):
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
        (["NMD", "JSD", "DNKT"], "report key 'payload.pairs' is .*'NVD'.*the data give .*'JSD'"),
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
        ([pairs[0], pairs[0], pairs[2]], "report key 'payload.pairs' is"),
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
    assert message.startswith(
        f"report key 'payload.pairs' is a list whose item 0 is {pairs[-1]!r}, "
        "the data give {'first': 'NMD', 'second': 'RNADW', "
    )
    assert len(message) < 300
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
    assert message.startswith("report key 'payload.pairs' is a list whose item 0 is {'first': 'xx")
    assert f", the data give {pair!r}" in message
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


@pytest.mark.parametrize("text", ["[]", "3", '"score_matrix"', "null"])
def test_read_report_non_object_is_parse_error(tmp_path, text):
    with pytest.raises(ParseError, match="JSON object"):
        read_report(write(tmp_path, "r.json", text))


def test_write_report_writes_all_formats(tmp_path, reports):
    matrix, _, _ = reports
    for fmt, name in (("tsv", "m.tsv"), ("json", "m.json"), ("markdown", "m.md")):
        path = write_report(matrix, fmt, tmp_path / name)
        assert path.read_text(encoding="utf-8") == render_report(matrix, fmt)


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
