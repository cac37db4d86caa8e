#!/usr/bin/env python3
"""End-to-end benchmark of the quantdiv CLI.

    python3 perfbench/run.py --workload consistency-bundled --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

The CLI is taken from the `src/` tree of the checkout this file sits in.
For `--seconds` seconds the benchmark repeats: two set-up samples
(`python -m quantdiv.cli --version`) and two runs of a fixed calibration
task, then one full CLI run of the workload. Each is a child process run
alone, with single-threaded math libraries. Every run's outputs are checked against a
reference computed once, before timing.

With `--trace 0` it reports the end-to-end metrics: wall_rel and cpu_rel,
the median wall and CPU time (user + sys, from wait4) of a CLI run divided
by those of the calibration task; the median peak RSS of a CLI run; the
median set-up time; and the share of runs that succeeded. On a shared
host, other tenants slow every process alike for minutes at a time, by up
to half; raw seconds then differ that much between runs, while the ratio
to a task timed in the same run does not. The raw medians are printed as
well. With `--trace 1` each iteration also repeats the run in-process
under the tracer of spans.py, and it reports the per-layer metrics instead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The lines before it give the machine
stamp, each raw timing's median, 90th percentile and sample count, and
each metric with its unit. A fuller record goes to .bench_work/results/; compare two such files
with perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPAWN = Path(__file__).resolve().parent / "spawn.py"

# One process at a time, and no helper threads inside it.
_SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(_SINGLE_THREAD)
os.environ.pop("QUANTDIV_SEED", None)  # the workloads pass every seed explicitly

MIN_RUNS = 3
PROBES_PER_RUN = 2  # set-up samples, and calibration samples, per workload run

# A fixed task that imports nothing from the checkout: interpreter start-up,
# numpy import, a Python loop and numpy sorts, a mix like the CLI's own.
CALIBRATION = """
import numpy as np
total = 0
for i in range(400_000):
    total += i * i
values = np.random.default_rng(0).random(200_000)
for _ in range(6):
    values = np.sort(values[::-1])
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(cmd: list[str], stdout: Path, stderr: Path) -> tuple[float, float, float, int]:
    """Run cmd as a child process: (wall s, CPU s, peak RSS MB, exit code)."""
    launcher = [sys.executable, str(SPAWN), str(stdout), str(stderr), *cmd]
    # A session of its own, so that an interrupted run can be killed with its child.
    proc = subprocess.Popen(
        launcher, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py exited with {proc.returncode}")
    cost = json.loads(out)
    return cost["wall_s"], cost["cpu_s"], cost["peak_rss_mb"], cost["code"]


def run_cli(argv: list[str], stdout: Path, stderr: Path) -> tuple[float, float, float, int]:
    """Run the quantdiv CLI as a child process; see spawn()."""
    return spawn([sys.executable, "-m", "quantdiv.cli", *argv], stdout, stderr)


def stamp() -> dict:
    """What produced a result: machine, interpreter, libraries and source."""
    import numpy
    import quantdiv

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "backend": getattr(quantdiv, "BACKEND", None),
    }


def summary(values: list[float]) -> dict:
    """Median, 90th percentile and sample count."""
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]
    return {"median": statistics.median(values), "p90": p90, "n": len(values)}


def _outputs_snapshot(prepared, stdout: Path) -> list[bytes]:
    return [stdout.read_bytes()] + [p.read_bytes() if p.is_file() else b"" for p in prepared.outputs]


def measure(prepared, work: Path, seconds: float, trace: bool) -> dict:
    """Time the workload for about `seconds` seconds; see the module docstring."""
    import spans

    logs = {k: work / f"{k}.log" for k in ("setup", "setup_err", "run", "run_err", "traced", "traced_err")}
    run_cli(["--version"], logs["setup"], logs["setup_err"])  # untimed: fills caches, writes bytecode
    setup, wall, cpu, rss, cal_wall, cal_cpu, tracers = [], [], [], [], [], [], []
    attempted = failed = 0

    def probe() -> None:
        elapsed, _, _, code = run_cli(["--version"], logs["setup"], logs["setup_err"])
        if code != 0:
            raise RuntimeError(f"`quantdiv --version` exited with {code}")
        setup.append(elapsed)
        elapsed, busy, _, code = spawn([sys.executable, "-c", CALIBRATION], logs["setup"], logs["setup_err"])
        if code != 0:
            raise RuntimeError(f"the calibration task exited with {code}")
        cal_wall.append(elapsed)
        cal_cpu.append(busy)

    start = time.perf_counter()
    while True:
        for _ in range(PROBES_PER_RUN):
            probe()
        for path in prepared.outputs:
            path.unlink(missing_ok=True)
        w, c, r, code = run_cli(prepared.argv, logs["run"], logs["run_err"])
        ok = code == 0 and prepared.check()
        wall.append(w)
        cpu.append(c)
        rss.append(r)
        attempted += 1
        failed += not ok
        if not ok:
            sys.stderr.write(f"run failed (exit {code}):\n{logs['run_err'].read_text()[-2000:]}\n")
        if trace:
            untraced = _outputs_snapshot(prepared, logs["run"])
            for path in prepared.outputs:
                path.unlink(missing_ok=True)
            code, tracer = spans.traced_main(prepared.argv, logs["traced"], logs["traced_err"])
            same = code == 0 and _outputs_snapshot(prepared, logs["traced"]) == untraced
            tracers.append(tracer)
            attempted += 1
            failed += not (same and prepared.check())
        elapsed = time.perf_counter() - start
        per_iteration = elapsed / len(wall)
        if len(wall) >= MIN_RUNS and elapsed + per_iteration > seconds:
            break
        if elapsed >= 2 * seconds:
            break

    samples = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "setup_s": setup,
        "calibration_wall_s": cal_wall,
        "calibration_cpu_s": cal_cpu,
    }
    timings = {name: summary(values) for name, values in samples.items()}
    median = {name: t["median"] for name, t in timings.items()}
    # On a shared host, other tenants slow every process alike, in phases of
    # minutes; dividing by the calibration task timed in the same run cancels
    # that, so a bound can hold these ratios.
    metrics = {
        "wall_rel": ("ratio", median["wall_s"] / median["calibration_wall_s"]),
        "cpu_rel": ("ratio", median["cpu_s"] / median["calibration_cpu_s"]),
        "peak_rss_mb": ("MB", median["peak_rss_mb"]),
        "setup_s": ("s", median["setup_s"]),
        "success_ratio": ("ratio", 1.0 - failed / attempted),
    }
    result = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "timings": timings,
        "samples": samples,
        "end_to_end": metrics,
    }
    if trace:
        layers = spans.layer_metrics(tracers, median["wall_s"], median["setup_s"])
        result["per_layer"] = {k: (spans.PER_LAYER[k][0], v) for k, v in layers.items()}
        result["stages_s"] = sum(layers[k] for k in spans.STAGES)
        result["traced_runs"] = len(tracers)
        result["absent"] = sorted({a for t in tracers for a in t.absent})
    return result


def run_workload(workload, seed: int, seconds: float, trace: bool, stamp_: dict) -> dict:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def invoke(argv: list[str]) -> int:
        return run_cli(argv, work / "reference.log", work / "reference_err.log")[3]

    prepared = workload.prepare(ROOT, work, seed, invoke)
    result = measure(prepared, work, seconds, trace)
    result.update(workload=workload.name, seed=seed, seconds=seconds, trace=int(trace))
    result.update(argv=prepared.argv, inputs=prepared.meta, stamp=stamp_)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"BENCH_{workload.name}_seed{seed}_trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def print_summary(result: dict) -> None:
    head = f"{result['workload']} seed={result['seed']} trace={result['trace']}"
    print(f"== {head}: {result['attempted']} runs, fail_ratio {result['fail_ratio']:.4f} "
          f"({result['failed']}/{result['attempted']})")
    for name, t in result["timings"].items():
        unit = "MB" if name.endswith("_mb") else "s"
        print(f"  {name:<18} median {t['median']:.4f} {unit}  p90 {t['p90']:.4f} {unit}  n={t['n']}")
    for name, (unit, value) in result["end_to_end"].items():
        print(f"  {name:<18} {value:.4f} {unit}")
    print(f"  inputs: {result['inputs']}")
    if "per_layer" in result:
        absent = ", ".join(result["absent"]) or "none"
        print(f"  per layer (mean of {result['traced_runs']} traced runs; absent: {absent}):")
        for name, (unit, value) in result["per_layer"].items():
            print(f"    {name:<36} {value:.6g} {unit}")
        wall, setup = result["timings"]["wall_s"]["median"], result["timings"]["setup_s"]["median"]
        print(f"  stages sum to {result['stages_s']:.4f} s = wall_s - setup_s ({wall - setup:.4f} s)"
              f" + trace.overhead_s ({result['per_layer']['trace.overhead_s'][1]:.4f} s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quantdiv" / "__init__.py").is_file():
        print(f"error: no quantdiv source tree under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    stamp_ = stamp()
    print("stamp: " + json.dumps(stamp_))
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), stamp_)
        print_summary(result)
        results.append(result)

    key = "per_layer" if args.trace else "end_to_end"
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
        for r in results
        for name, (unit, value) in r[key].items()
    }
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
