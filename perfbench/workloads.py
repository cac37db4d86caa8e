"""The benchmark's workloads: inputs, CLI arguments and correctness checks.

`prepare` writes a workload's inputs under a work directory, computes its
reference output once, and returns the CLI arguments plus a check that
compares the CLI's outputs with that reference. All of it runs outside the
timed region. The synthetic inputs are a function of the seed alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Runs the quantdiv CLI with the given arguments and returns its exit code.
Invoke = Callable[[list[str]], int]


@dataclass(frozen=True)
class Prepared:
    """A materialised workload, ready to be timed."""

    argv: list[str]
    outputs: tuple[Path, ...]  # files the CLI writes; removed before each run
    check: Callable[[], bool]  # True when the outputs match the reference
    meta: dict = field(default_factory=dict)  # input_bytes, generate_s


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, Path, int, Invoke], Prepared]  # (root, work, seed, invoke)


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _materialise(work: Path, seed: int, shape: dict):
    """Generate a synthetic dataset and write it as TSV tables under work/inputs."""
    from quantdiv import synth
    from quantdiv.dataset_io import write_dataset, write_run

    start = time.perf_counter()
    dataset, runs = synth.generate(seed=seed, **shape)
    inputs = work / "inputs"
    (inputs / "runs").mkdir(parents=True)
    write_dataset(dataset, inputs / "gold.tsv")
    for run in runs:
        write_run(run, dataset, inputs / "runs" / f"{run.system_id}.tsv")
    meta = {"generate_s": time.perf_counter() - start, "input_bytes": _tree_bytes(inputs)}
    return dataset, runs, inputs, meta


def bundled(root: Path, work: Path, seed: int, invoke: Invoke) -> Prepared:
    """Default `consistency` on the shipped data; the seed does not enter."""
    data = root / "data" / "synth"
    golden = (root / "tests" / "golden" / "consistency_default.tsv").read_bytes()
    out = work / "report.tsv"
    argv = [
        "consistency", "--gold", str(data / "gold.tsv"), "--runs", str(data / "runs"),
        "--threads", "1", "--format", "tsv", "--output", str(out),
    ]
    return Prepared(
        argv=argv,
        outputs=(out,),
        check=lambda: out.is_file() and out.read_bytes() == golden,
        meta={"generate_s": 0.0, "input_bytes": _tree_bytes(data)},
    )


def _parse_score_tsv(text: str):
    lines = text.splitlines()
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    return header[1:], [row[0] for row in rows], [row[1:] for row in rows]


def score_wide(n_systems: int = 16, n_cases: int = 250, n_classes: int = 11):
    """`score --include-rsnod` on a synthetic grid of the given shape."""

    def prepare(root: Path, work: Path, seed: int, invoke: Invoke) -> Prepared:
        from quantdiv.measures import ALL_MEASURES, score

        shape = {"n_systems": n_systems, "n_cases": n_cases, "n_classes": n_classes}
        dataset, runs, inputs, meta = _materialise(work, seed, shape)
        # The reference is the public scalar score(), printed as the report prints it.
        reference = {
            m.value: [[f"{score(m, e, g):.6f}" for e, g in zip(run.est, dataset.gold)] for run in runs]
            for m in ALL_MEASURES
        }
        case_ids = list(dataset.case_ids)
        system_ids = [run.system_id for run in runs]
        out = work / "scores.tsv"
        outputs = {tag: out.with_name(f"scores.{tag}.tsv") for tag in reference}

        def check() -> bool:
            for tag, path in outputs.items():
                if not path.is_file():
                    return False
                cases, systems, values = _parse_score_tsv(path.read_text(encoding="utf-8"))
                if cases != case_ids or systems != system_ids or values != reference[tag]:
                    return False
            return True

        argv = [
            "score", "--gold", str(inputs / "gold.tsv"), "--runs", str(inputs / "runs"),
            "--include-rsnod", "--format", "tsv", "--output", str(out),
        ]
        return Prepared(argv=argv, outputs=tuple(outputs.values()), check=check, meta=meta)

    return prepare


def consistency_trials(
    n_systems: int = 40, n_cases: int = 200, n_classes: int = 5, B: int = 10000, permutations: int = 1000
):
    """Three-measure `consistency` with many trials on a tall, thin grid."""

    def prepare(root: Path, work: Path, seed: int, invoke: Invoke) -> Prepared:
        shape = {"n_systems": n_systems, "n_cases": n_cases, "n_classes": n_classes}
        _, _, inputs, meta = _materialise(work, seed, shape)

        def argv_for(threads: int, out: Path) -> list[str]:
            return [
                "consistency", "--gold", str(inputs / "gold.tsv"), "--runs", str(inputs / "runs"),
                "--measures", "NMD,NVD,JSD", "--B", str(B), "--permutations", str(permutations),
                "--seed", str(seed), "--threads", str(threads), "--format", "json", "--output", str(out),
            ]

        # Reports must be byte-identical across --threads, so the reference is
        # an untimed two-thread run.
        ref_path = work / "reference.json"
        code = invoke(argv_for(2, ref_path))
        if code != 0:
            raise RuntimeError(f"reference run exited with {code}")
        reference = ref_path.read_bytes()
        out = work / "report.json"
        return Prepared(
            argv=argv_for(1, out),
            outputs=(out,),
            check=lambda: out.is_file() and out.read_bytes() == reference,
            meta=meta,
        )

    return prepare


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "consistency-bundled",
            "the paper's headline run (12 measures, B=1000, 5000 HSD rounds) and the only one with a golden report",
            bundled,
        ),
        Workload(
            "score-wide",
            "all 13 measures at K=11: per-pair scalar calls, O(K^2) dw loops and O(K^3) gold-mass delta; no trials, no HSD",
            score_wide(),
        ),
        Workload(
            "consistency-trials",
            "tall thin grid (40 systems, 3 measures, B=10000): split-half trials dominate and B sets HSD memory",
            consistency_trials(),
        ),
    )
}
