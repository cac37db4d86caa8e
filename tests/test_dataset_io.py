import json

import numpy as np
import pytest

from quantdiv.dataset_io import (
    Dataset,
    SystemRun,
    load_gold,
    load_run,
    read_report,
    render_report,
    write_dataset,
    write_report,
    write_run,
)
from quantdiv.distributions import validate
from quantdiv.errors import (
    DuplicateCaseId,
    InconsistentClassCount,
    MissingCase,
    NotNormalized,
    OutOfRange,
    ParseError,
    UnknownCase,
)
from quantdiv.measures import DEFAULT_SUITE, MeasureId
from quantdiv.meta_eval import agreement, score_matrix, split_half_consistency
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
    assert ds.gold[0].probs == (0.5, 0.3, 0.2)
    assert ds.votes is None


def test_load_gold_counts(tmp_path):
    ds = load_gold(write(tmp_path, "g.tsv", GOLD_COUNTS))
    assert ds.votes == ((5, 3, 2), (0, 2, 8))
    assert ds.gold[0].probs == (0.5, 0.3, 0.2)
    assert ds.gold[1].probs == (0.0, 0.2, 0.8)


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
        ("case_id\ta\tb\n\t0.5\t0.5\n", ParseError, "empty case id"),
        ("", ParseError, "missing header"),
        ("case_id\ta\tb\n", ParseError, "no data rows"),
    ],
)
def test_parse_errors(tmp_path, text, exc, fragment):
    with pytest.raises(exc) as err:
        load_gold(write(tmp_path, "bad.tsv", text))
    assert fragment in str(err.value)


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
    assert run.est[0].probs == (0.6, 0.2, 0.2)
    assert run.est[1].probs == (0.1, 0.1, 0.8)
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
        assert read_report(path) == report


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
    with pytest.raises(OutOfRange):
        render_report(object(), "tsv")


def test_read_report_rejects_bad_input(tmp_path, reports):
    bad = write(tmp_path, "r.json", "not json at all {")
    with pytest.raises(ParseError):
        read_report(bad)
    unknown = write(tmp_path, "r2.json", json.dumps({"kind": "summary", "payload": {}}))
    with pytest.raises(ParseError):
        read_report(unknown)
    # Ragged grids and a non-string mode, which numpy and str methods reject
    # with their own exception types.
    for report, section, key, value, message in (
        (0, "payload", "values", [[0.1, 0.2], [0.3]], "payload.values"),
        (2, "payload", "per_trial_tau", [[0.5], [0.5, 0.6]], "payload.per_trial_tau"),
        (2, "meta", "mode", 3, "meta.mode"),
        (2, "payload", "significant_pairs", [["NMD"]], "malformed report"),
    ):
        doc = json.loads(render_report(reports[report], "json"))
        doc[section][key] = value
        with pytest.raises(ParseError, match=message):
            read_report(write(tmp_path, "r3.json", json.dumps(doc)))


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
    doc["measures"] = ["NMD", "JSD"]
    path = write(tmp_path, "r.json", json.dumps(doc))
    with pytest.raises(ParseError, match="'NVD' is not in the report's measure list"):
        read_report(path)


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
