"""The shipped data/synth tree: regenerable, and the default report is frozen."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quantdiv import synth
from quantdiv.cli import build_parser, main
from quantdiv.dataset_io import load_gold, load_run, render_report, write_dataset, write_run
from quantdiv.measures import MeasureId
from quantdiv.meta_eval import _usable_cpus, agreement, mean_scores, score_matrices

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data" / "synth"
GOLDEN = REPO / "tests" / "golden" / "consistency_default.tsv"


@pytest.fixture(scope="module")
def bundled():
    dataset = load_gold(DATA / "gold.tsv")
    runs = [load_run(path, dataset) for path in sorted((DATA / "runs").glob("*.tsv"))]
    return dataset, runs


def test_bundled_tree_shape(bundled):
    dataset, runs = bundled
    assert len(dataset.case_ids) == 300
    assert len(dataset.class_labels) == 5
    assert dataset.votes is not None
    assert [r.system_id for r in runs] == [f"s{i:02d}" for i in range(1, 13)]


def test_bundled_data_matches_generator(bundled, tmp_path):
    # the files are a deterministic serialization of the generator defaults,
    # so scripts/make_synth_data.py always rebuilds them byte-for-byte
    dataset, _ = bundled
    fresh_dataset, fresh_runs = synth.generate()
    assert dataset == fresh_dataset
    rebuilt = write_dataset(fresh_dataset, tmp_path / "gold.tsv")
    assert rebuilt.read_bytes() == (DATA / "gold.tsv").read_bytes()
    for run in fresh_runs:
        rebuilt = write_run(run, fresh_dataset, tmp_path / f"{run.system_id}.tsv")
        assert rebuilt.read_bytes() == (DATA / "runs" / f"{run.system_id}.tsv").read_bytes()


def _tree(root: Path) -> dict[str, bytes]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


def test_make_synth_data_script_rebuilds_tree_from_checkout(tmp_path):
    # Run as README says, from outside the repo and without PYTHONPATH: the
    # script finds the checkout's src/ itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "synth"
    subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_synth_data.py"), "--out", str(out)],
        cwd=tmp_path,
        env=env,
        check=True,
        capture_output=True,
        timeout=120,
    )
    assert _tree(out) == _tree(DATA)


def test_consistency_defaults_match_golden_report(bundled, tmp_path, capsys):
    # --threads defaults to the CPUs this process may use, and the report is
    # the one a single thread writes.
    argv = ["consistency", "--gold", str(DATA / "gold.tsv"), "--runs", str(DATA / "runs"), "--format", "tsv"]
    assert build_parser().parse_args(argv).threads == _usable_cpus()
    for extra in ([], ["--threads", "1"]):
        out = tmp_path / "report.tsv"
        assert main(argv + ["--output", str(out), *extra]) == 0
        capsys.readouterr()
        assert out.read_bytes() == GOLDEN.read_bytes(), extra


GOLDEN_COMMANDS = {
    "score": ["score", "--measures", "NMD,DNKT"],
    "agree": ["agree"],
    "consistency": ["consistency", "--B", "50", "--permutations", "200"],
}


@pytest.mark.parametrize("command", sorted(GOLDEN_COMMANDS))
def test_text_reports_match_golden_files(command, tmp_path, capsys, monkeypatch):
    # Every text layout the CLI writes: the markdown tables on stdout and the
    # --format tsv files (score writes one per measure), byte for byte.
    monkeypatch.delenv("QUANTDIV_SEED", raising=False)
    argv = GOLDEN_COMMANDS[command] + ["--gold", str(DATA / "gold.tsv"), "--runs", str(DATA / "runs")]
    argv += ["--format", "tsv", "--output", str(tmp_path / f"{command}.tsv")]
    assert main(argv) == 0
    got = {p.name: p.read_bytes() for p in tmp_path.glob(f"{command}.*")}
    got[f"{command}.stdout.md"] = capsys.readouterr().out.encode("utf-8")
    expected = {p.name: p.read_bytes() for p in GOLDEN.parent.glob(f"{command}.*")}
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], name


@pytest.mark.parametrize("fmt", ["tsv", "markdown"])
@pytest.mark.parametrize("tags", [["DNKT"], ["NMD", "RNOD", "DNKT_JSD"]])
def test_score_output_is_what_the_renderer_writes(bundled, tmp_path, capsys, fmt, tags):
    # stdout holds each matrix's markdown, a blank line after each, then the
    # means table; each report file holds its matrix rendered alone in fmt.
    dataset, runs = bundled
    out = tmp_path / f"score.{fmt}"
    argv = ["score", "--gold", str(DATA / "gold.tsv"), "--runs", str(DATA / "runs")]
    assert main(argv + ["--measures", ",".join(tags), "--format", fmt, "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    matrices = score_matrices(dataset, runs, [MeasureId(tag) for tag in tags])
    means = [mean_scores(matrix) for matrix in matrices]
    table = ["| system | " + " | ".join(tags) + " |", "| --- |" + " --- |" * len(tags)]
    table += [f"| {run.system_id} | " + " | ".join(f"{col[s]:.6f}" for col in means) + " |" for s, run in enumerate(runs)]
    shown = "".join(render_report(matrix, "markdown") + "\n" for matrix in matrices)
    assert stdout == shown + "\n".join(table) + "\n"
    paths = [out] if len(tags) == 1 else [out.with_name(f"score.{tag}.{fmt}") for tag in tags]
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    for path, matrix in zip(paths, matrices):
        assert path.read_text(encoding="utf-8") == render_report(matrix, fmt), path.name


@pytest.mark.parametrize(
    "cell, message",
    [
        ("-2", "case 'd0038': class 3 vote count must be an integer >= 0, got -2"),
        ("2.5", "bad vote count '2.5'"),
        ("True", "bad vote count 'True'"),
    ],
)
def test_score_names_a_bad_vote_count_and_its_line(tmp_path, capsys, cell, message):
    lines = (DATA / "gold.tsv").read_text(encoding="utf-8").split("\n")
    cells = lines[39].split("\t")
    assert cells[0] == "d0038"
    lines[39] = "\t".join([*cells[:3], cell, *cells[4:]])
    gold = tmp_path / "gold.tsv"
    gold.write_text("\n".join(lines), encoding="utf-8")
    assert main(["score", "--gold", str(gold), "--runs", str(DATA / "runs" / "s01.tsv")]) == 2
    assert capsys.readouterr().err == f"error: {gold}: line 40: {message}\n"


def test_score_json_matches_golden_digests(tmp_path, capsys):
    # Every measure's full-precision scores, pinned by the SHA-256 of its
    # JSON report; score.NMD.tsv and score.DNKT.tsv above keep only 6 decimals.
    argv = ["score", "--include-rsnod", "--format", "json", "--output", str(tmp_path / "score.json")]
    assert main(argv + ["--gold", str(DATA / "gold.tsv"), "--runs", str(DATA / "runs")]) == 0
    capsys.readouterr()
    lines = (GOLDEN.parent / "score_bundled.sha256").read_text(encoding="utf-8").splitlines()
    expected = {name: digest for digest, name in (line.split("  ") for line in lines)}
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("score.*.json")}
    assert sorted(got) == sorted(expected) and len(got) == 13
    wrong = [name.split(".")[1] for name in sorted(expected) if got[name] != expected[name]]
    assert not wrong, f"scores changed for {', '.join(wrong)}"


def test_consistency_json_matches_golden_digest(tmp_path, capsys, monkeypatch):
    # The full-precision per-trial taus of the golden consistency run, pinned
    # by the SHA-256 of its JSON report; consistency.tsv keeps only the means.
    monkeypatch.delenv("QUANTDIV_SEED", raising=False)
    out = tmp_path / "consistency.json"
    argv = GOLDEN_COMMANDS["consistency"] + ["--format", "json", "--output", str(out)]
    assert main(argv + ["--gold", str(DATA / "gold.tsv"), "--runs", str(DATA / "runs")]) == 0
    capsys.readouterr()
    line = (GOLDEN.parent / "consistency_json.sha256").read_text(encoding="utf-8")
    digest, name = line.rstrip("\n").split("  ")
    assert name == out.name
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_agreement_triangle_on_bundled_runs(bundled):
    dataset, runs = bundled
    nine = [
        MeasureId.NMD,
        MeasureId.RNADW,
        MeasureId.RNOD,
        MeasureId.RNADW2,
        MeasureId.RNOD2,
        MeasureId.NVD,
        MeasureId.RNSS,
        MeasureId.JSD,
        MeasureId.DNKT,
    ]
    report = agreement(dataset, runs, nine)
    taus = {(i, j): t for i, j, t in report.pairs()}
    assert list(taus) == [(i, j) for i in range(9) for j in range(i + 1, 9)]
    assert len(report.taus) == 36
    assert len(report.avg_similarity) == 9
    text = render_report(report, "tsv")
    assert text.count("\n") == 1 + 36 + 1 + 1 + 9
    # systems are graded by construction, so related measures agree strongly
    assert taus[0, 2].tau > 0.7
