import pytest

from quantdiv import synth
from quantdiv.cli import main
from quantdiv.dataset_io import read_report, write_dataset, write_run

GOLD = "case_id\tlow\tmid\thigh\nq1\t0.5\t0.3\t0.2\nq2\t0.1\t0.1\t0.8\n"


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """Gold table plus a directory of four graded run tables."""
    root = tmp_path_factory.mktemp("bench")
    ds, runs = synth.generate(n_systems=4, n_cases=16, n_classes=4, seed=21)
    gold = write_dataset(ds, root / "gold.tsv")
    run_dir = root / "runs"
    run_dir.mkdir()
    for run in runs:
        write_run(run, ds, run_dir / f"{run.system_id}.tsv")
    return {"gold": gold, "runs": run_dir, "files": sorted(run_dir.glob("*.tsv"))}


@pytest.fixture()
def perfect(tmp_path):
    gold = tmp_path / "gold.tsv"
    gold.write_text(GOLD, encoding="utf-8")
    run = tmp_path / "echo.tsv"
    run.write_text(GOLD, encoding="utf-8")
    return gold, run


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert "score" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("quantdiv ")
    assert main(["score", "--help"]) == 0
    assert "--include-rsnod" in capsys.readouterr().out


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["transmogrify"]) == 2
    assert main(["score", "--gold"]) == 2
    assert main(["consistency", "--gold", "g.tsv", "--runs", "r.tsv", "--B", "ten"]) == 2
    capsys.readouterr()


def test_score_perfect_run(perfect, capsys):
    gold, run = perfect
    assert main(["score", "--gold", str(gold), "--runs", str(run), "--measures", "NMD,NVD"]) == 0
    out = capsys.readouterr().out
    assert "| system (NMD) |" in out
    assert "| system (NVD) |" in out
    assert "| system | NMD | NVD |" in out
    assert "| echo | 0.000000 | 0.000000 |" in out


def test_score_output_single_measure(perfect, tmp_path, capsys):
    gold, run = perfect
    out_path = tmp_path / "scores.json"
    code = main(
        [
            "score",
            "--gold",
            str(gold),
            "--runs",
            str(run),
            "--measures",
            "NMD",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    assert str(out_path) in capsys.readouterr().err
    matrix = read_report(out_path)
    assert matrix.system_ids == ("echo",)
    assert matrix.values.tolist() == [[0.0, 0.0]]


def test_score_output_per_measure_files(bench, tmp_path, capsys):
    out_path = tmp_path / "scores.json"
    code = main(
        [
            "score",
            "--gold",
            str(bench["gold"]),
            "--runs",
            str(bench["runs"]),
            "--measures",
            "NMD,NVD",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    for tag in ("NMD", "NVD"):
        report = read_report(tmp_path / f"scores.{tag}.json")
        assert report.measure.value == tag
        assert len(report.system_ids) == 4


def test_hybrid_before_its_parts_writes_the_same_scores(bench, tmp_path, capsys):
    # The default suite combines DNKT_JSD from the DNKT and JSD grids scored
    # before it; listed first, it is scored from the runs. The bytes agree.
    written = {}
    for measures in (None, "DNKT_JSD,DNKT,JSD"):
        out_path = tmp_path / f"{measures}" / "scores.tsv"
        out_path.parent.mkdir()
        argv = ["score", "--gold", str(bench["gold"]), "--runs", str(bench["runs"])]
        if measures is not None:
            argv += ["--measures", measures]
        assert main([*argv, "--format", "tsv", "--output", str(out_path)]) == 0
        written[measures] = (tmp_path / f"{measures}" / "scores.DNKT_JSD.tsv").read_bytes()
    capsys.readouterr()
    assert written[None] == written["DNKT_JSD,DNKT,JSD"]


def test_score_rejects_bad_run(perfect, tmp_path, capsys):
    gold, run = perfect
    bad = tmp_path / "bad.tsv"
    bad.write_text("case_id\tlow\tmid\thigh\nq1\t0.5\t0.3\t0.1\nq2\t0.1\t0.1\t0.8\n", "utf-8")
    assert main(["score", "--gold", str(gold), "--runs", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "q1" in err
    bad.write_text("case_id\tlow\tmid\thigh\nx1\t1e308\t1e308\t0\n", "utf-8")
    assert main(["score", "--gold", str(gold), "--runs", str(bad)]) == 2
    assert f"error: {bad}: case 'x1': probabilities sum to inf" in capsys.readouterr().err
    # A byte that is not UTF-8, in the gold or a run table.
    bad.write_bytes(GOLD.encode().replace(b"0.8", b"0.8\xff"))
    for gold_path, run_path in ((bad, run), (gold, bad)):
        assert main(["score", "--gold", str(gold_path), "--runs", str(run_path)]) == 2
        assert f"error: {bad}: line 3: not UTF-8: byte 0xff" in capsys.readouterr().err


def test_missing_gold_is_io_error(tmp_path, capsys):
    run = tmp_path / "r.tsv"
    run.write_text(GOLD, "utf-8")
    assert main(["score", "--gold", str(tmp_path / "nope.tsv"), "--runs", str(run)]) == 1
    assert "io error" in capsys.readouterr().err


def test_measure_list_parsing(perfect, capsys):
    gold, run = perfect
    base = ["score", "--gold", str(gold), "--runs", str(run)]
    assert main(base + ["--measures", "NMD,NMD,NVD"]) == 0
    captured = capsys.readouterr()
    assert "duplicate measure NMD ignored" in captured.err
    assert main(base + ["--measures", "WOBBLE"]) == 2
    assert "valid measures" in capsys.readouterr().err
    assert main(base + ["--measures", ","]) == 2
    assert "no measures" in capsys.readouterr().err


def test_include_rsnod_adds_column(perfect, capsys):
    gold, run = perfect
    assert (
        main(
            [
                "score",
                "--gold",
                str(gold),
                "--runs",
                str(run),
                "--measures",
                "NMD",
                "--include-rsnod",
            ]
        )
        == 0
    )
    assert "| system | NMD | RSNOD |" in capsys.readouterr().out


def test_run_path_errors(perfect, tmp_path, capsys):
    gold, run = perfect
    assert main(["score", "--gold", str(gold), "--runs", str(tmp_path / "ghost.tsv")]) == 2
    assert "not found" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["score", "--gold", str(gold), "--runs", str(empty)]) == 2
    assert "no .tsv files" in capsys.readouterr().err
    assert main(["score", "--gold", str(gold), "--runs", str(run), str(run)]) == 2
    assert "duplicate system id" in capsys.readouterr().err


def test_agree_command(bench, tmp_path, capsys):
    out_path = tmp_path / "agree.json"
    code = main(
        [
            "agree",
            "--gold",
            str(bench["gold"]),
            "--runs",
            str(bench["runs"]),
            "--measures",
            "NMD,NVD,RNSS",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "| measure | average tau |" in out
    report = read_report(out_path)
    assert [m.value for m in report.measures] == ["NMD", "NVD", "RNSS"]


def test_agree_needs_three_systems(bench, capsys):
    two = [str(p) for p in bench["files"][:2]]
    code = main(["agree", "--gold", str(bench["gold"]), "--runs", *two])
    assert code == 2
    assert "at least 3 systems" in capsys.readouterr().err


def consistency_args(bench, out_path, *extra):
    return [
        "consistency",
        "--gold",
        str(bench["gold"]),
        "--runs",
        str(bench["runs"]),
        "--measures",
        "NMD,NVD",
        "--B",
        "25",
        "--permutations",
        "200",
        "--output",
        str(out_path),
        *extra,
    ]


def test_consistency_deterministic_across_runs_and_threads(bench, tmp_path, capsys):
    outs = []
    texts = []
    for i, threads in enumerate(("1", "1", "4")):
        out_path = tmp_path / f"c{i}.json"
        code = main(consistency_args(bench, out_path, "--seed", "5", "--threads", threads))
        assert code == 0
        texts.append(capsys.readouterr().out)
        outs.append(out_path.read_bytes())
    assert texts[0] == texts[1] == texts[2]
    assert outs[0] == outs[1] == outs[2]
    report = read_report(tmp_path / "c0.json")
    assert report.per_trial_tau.shape == (2, 25)
    assert report.seed == 5


def test_consistency_seed_from_environment(bench, tmp_path, capsys, monkeypatch):
    flagged = tmp_path / "flag.json"
    assert main(consistency_args(bench, flagged, "--seed", "7")) == 0
    monkeypatch.setenv("QUANTDIV_SEED", "7")
    from_env = tmp_path / "env.json"
    assert main(consistency_args(bench, from_env)) == 0
    assert flagged.read_bytes() == from_env.read_bytes()
    monkeypatch.setenv("QUANTDIV_SEED", "8")
    other = tmp_path / "other.json"
    assert main(consistency_args(bench, other)) == 0
    assert flagged.read_bytes() != other.read_bytes()
    monkeypatch.setenv("QUANTDIV_SEED", "lucky")
    assert main(consistency_args(bench, tmp_path / "x.json")) == 2
    assert "QUANTDIV_SEED" in capsys.readouterr().err


def test_consistency_flag_validation(bench, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(consistency_args(bench, out, "--threads", "0")) == 2
    assert main(consistency_args(bench, out, "--B", "0")) == 2
    assert main(consistency_args(bench, out, "--subset-mode", "k=9")) == 2
    assert "16" in capsys.readouterr().err
    assert main(consistency_args(bench, out, "--subset-mode", "third")) == 2
    assert main(consistency_args(bench, out, "--alpha", "1.5")) == 2
    assert main(consistency_args(bench, out, "--tau", "spearman")) == 2
    capsys.readouterr()
    # B = 1 or one measure skips the HSD, but the report would record the value
    assert main(consistency_args(bench, out, "--B", "1", "--alpha", "5")) == 2
    assert "alpha must be in (0, 1), got 5.0" in capsys.readouterr().err
    assert main(consistency_args(bench, out, "--measures", "NMD", "--alpha", "5")) == 2
    assert "alpha must be in (0, 1), got 5.0" in capsys.readouterr().err
    assert main(consistency_args(bench, out, "--B", "1", "--permutations", "0")) == 2
    assert "need at least 1 permutation round, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--B", "0"), "need at least 1 trial, got 0"),
        (("--seed", "-3"), "seed must be non-negative, got -3"),
        (("--subset-mode", "k=9"), "two disjoint subsets of 9 need 18 cases, got 16"),
    ],
)
def test_consistency_trial_flags_checked_before_scoring(
    bench, tmp_path, capsys, monkeypatch, flags, message
):
    from quantdiv import meta_eval

    def no_scoring(*args):
        raise AssertionError("scored before the trial flags were checked")

    monkeypatch.setattr(meta_eval, "score_matrix", no_scoring)
    out = tmp_path / "r.json"
    assert main(consistency_args(bench, out, *flags)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_consistency_threads_checked_before_loading(tmp_path, capsys):
    out = tmp_path / "r.json"
    missing = str(tmp_path / "missing.tsv")
    argv = ["consistency", "--gold", missing, "--runs", missing, "--threads", "0"]
    argv += ["--output", str(out)]
    assert main(argv) == 2
    assert "--threads must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, env_seed, message",
    [
        (["consistency", "--subset-mode", "third"], None, "unknown subset mode 'third'"),
        (["consistency"], "lucky", "QUANTDIV_SEED is not an integer: 'lucky'"),
        (["score", "--measures", "BOGUS"], None, "unknown measure 'BOGUS'"),
        (["consistency", "--B", "0"], None, "need at least 1 trial, got 0"),
        (["consistency", "--alpha", "5"], None, "alpha must be in (0, 1), got 5.0"),
        (["consistency", "--permutations", "0"], None, "need at least 1 permutation round, got 0"),
        (["consistency", "--seed", "-3"], None, "seed must be non-negative, got -3"),
        (["agree", "--measures", "NMD"], None, "need at least 2 measures, got 1"),
    ],
    ids=["subset-mode", "seed-env", "measures", "B", "alpha", "permutations", "seed", "agree-measures"],
)
def test_flags_checked_before_loading(tmp_path, capsys, monkeypatch, argv, env_seed, message):
    # The tables do not exist, so a flag checked after loading would exit 1.
    if env_seed is None:
        monkeypatch.delenv("QUANTDIV_SEED", raising=False)
    else:
        monkeypatch.setenv("QUANTDIV_SEED", env_seed)
    out = tmp_path / "r.json"
    missing = str(tmp_path / "missing.tsv")
    assert main([*argv, "--gold", missing, "--runs", missing, "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_consistency_tau_plain_and_fixed_size(bench, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(consistency_args(bench, out, "--tau", "plain", "--subset-mode", "k=6"))
    assert code == 0
    capsys.readouterr()
    report = read_report(out)
    assert report.tau_variant == "plain"
    from quantdiv.meta_eval import FixedSize

    assert report.mode == FixedSize(6)


def test_consistency_format_tsv_output(bench, tmp_path, capsys):
    out = tmp_path / "r.tsv"
    code = main(consistency_args(bench, out, "--format", "tsv", "--seed", "3"))
    assert code == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    assert text.startswith("measure\tmean_tau\tsignificantly_outperforms\n")
