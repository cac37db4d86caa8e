"""Self-tests of the benchmark on tiny shapes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "tiny-score": workloads.score_wide(n_systems=3, n_cases=12, n_classes=4),
    "tiny-trials": workloads.consistency_trials(
        n_systems=4, n_cases=12, n_classes=3, B=20, permutations=30
    ),
}


def _invoke(work: Path):
    return lambda argv: run.run_cli(argv, work / "ref.log", work / "ref_err.log")[3]


@pytest.fixture(params=sorted(TINY))
def prepared(request, tmp_path):
    return TINY[request.param](ROOT, tmp_path, 5, _invoke(tmp_path)), tmp_path


def _tiny_main(monkeypatch, tmp_path, capsys, trace: int) -> tuple[dict, str]:
    tiny = {name: workloads.Workload(name, "tiny", prep) for name, prep in TINY.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", {"tiny-trials": tiny["tiny-trials"]})
    monkeypatch.setattr(run, "WORK", tmp_path)
    code = run.main(["--workload", "tiny-trials", "--seed", "2", "--seconds", "0.01", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out.splitlines()[-1]), out


def test_every_end_to_end_metric_is_emitted_with_unit_and_count(monkeypatch, tmp_path, capsys):
    result, out = _tiny_main(monkeypatch, tmp_path, capsys, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
        assert any(line.split()[:1] == [name] and " n=" in line for line in out.splitlines())
    assert "fail_ratio 0.0000" in out


def test_every_per_layer_metric_is_emitted_with_unit(monkeypatch, tmp_path, capsys):
    result, _ = _tiny_main(monkeypatch, tmp_path, capsys, trace=1)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["meta_eval.taus"] == 3 * 20
    assert metrics["meta_eval.hsd_rounds"] == 30
    assert metrics["meta_eval.hsd_peak_mb"] > 0
    assert metrics["kernels.pair_stats_calls"] == metrics["rank_correlation.pair_counts_calls"] > 0
    # The stages partition the traced run, so they account for the untraced one.
    full = json.loads(next((tmp_path / "results").glob("*_trace1.json")).read_text())
    wall, setup = full["timings"]["wall_s"]["median"], full["timings"]["setup_s"]["median"]
    assert sum(metrics[k] for k in spans.STAGES) == pytest.approx(
        wall - setup + metrics["trace.overhead_s"], abs=1e-9
    )


def test_traced_report_is_byte_identical_and_self_times_non_negative(prepared):
    prep, work = prepared
    _, _, _, code = run.run_cli(prep.argv, work / "plain.out", work / "plain.err")
    assert code == 0 and prep.check()
    untraced = [p.read_bytes() for p in (work / "plain.out", *prep.outputs)]
    for path in prep.outputs:
        path.unlink()
    code, tracer = spans.traced_main(prep.argv, work / "traced.out", work / "traced.err")
    assert code == 0 and prep.check()
    assert [p.read_bytes() for p in (work / "traced.out", *prep.outputs)] == untraced
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] == -1
    assert all(0 <= parent < i for i, (*_, parent) in enumerate(tracer.spans) if i)
    assert all(t >= 0 for t in tracer.self_times_ns())
    assert not tracer.absent


def test_wrapped_attributes_are_restored(prepared):
    import importlib

    prep, work = prepared
    targets = [(importlib.import_module(f"quantdiv.{m}"), a) for m, a, *_ in spans.TARGETS]
    before = [getattr(module, attr) for module, attr in targets]
    spans.traced_main(prep.argv, work / "traced.out", work / "traced.err")
    assert [getattr(module, attr) for module, attr in targets] == before
    with pytest.raises(ZeroDivisionError), spans.Tracer().installed():
        1 / 0
    assert [getattr(module, attr) for module, attr in targets] == before


def test_a_missing_target_is_reported_absent(prepared, monkeypatch):
    prep, work = prepared
    gone = (("kernels", "no_such_kernel", "kernels.no_such_kernel", None), ("no_such_module", "f", "x", None))
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + gone)
    code, tracer = spans.traced_main(prep.argv, work / "traced.out", work / "traced.err")
    assert code == 0 and prep.check()
    assert tracer.absent == ["kernels.no_such_kernel", "no_such_module.f"]


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = bytearray(b"\x01") * (160 * 2**20)  # raise this process's peak RSS
    _, _, rss_mb, code = run.run_cli(["--version"], tmp_path / "out", tmp_path / "err")
    assert code == 0 and len(ballast) and rss_mb < 120


def test_checks_reject_a_changed_output(prepared):
    prep, _ = prepared
    for path in prep.outputs:
        path.unlink(missing_ok=True)
    assert not prep.check()
    log = prep.outputs[0].with_suffix(".log")
    assert run.run_cli(prep.argv, log, log.with_suffix(".err"))[3] == 0
    assert prep.check()
    target = prep.outputs[-1]
    text = target.read_text(encoding="utf-8")
    digit = next(i for i in range(len(text) - 1, 0, -1) if text[i].isdigit())
    target.write_text(text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1 :], encoding="utf-8")
    assert not prep.check()


def test_bundled_check_compares_with_the_golden_report(tmp_path):
    prep = workloads.bundled(ROOT, tmp_path, 0, _invoke(tmp_path))
    golden = (ROOT / "tests" / "golden" / "consistency_default.tsv").read_bytes()
    prep.outputs[0].write_bytes(golden)
    assert prep.check()
    prep.outputs[0].write_bytes(golden.replace(b"DNKT_NMD\t0.99", b"DNKT_NMD\t0.98", 1))
    assert not prep.check()


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in spans.PER_LAYER.items()
    }
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for _, moves in spans.PER_LAYER.values():
        for metric, workload in moves:
            assert metric in end_to_end and workload in workloads.WORKLOADS


def test_exits_non_zero_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "score-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_compare_refuses_different_backends(tmp_path, capsys):
    result = {
        "workload": "score-wide", "trace": 0, "stamp": {"backend": "python"},
        "end_to_end": {"wall_rel": ["ratio", 2.0]},
    }
    old, new, slower = tmp_path / "old.json", tmp_path / "new.json", tmp_path / "slower.json"
    old.write_text(json.dumps(result))
    new.write_text(json.dumps({**result, "stamp": {"backend": "compiled"}}))
    slower.write_text(json.dumps({**result, "end_to_end": {"wall_rel": ["ratio", 4.0]}}))
    assert compare.main([str(old), str(new)]) == 2
    assert "backend differs" in capsys.readouterr().err
    assert compare.main([str(old), str(old)]) == 0
    assert compare.main([str(old), str(slower)]) == 1
