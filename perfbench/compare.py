#!/usr/bin/env python3
"""Compare two result files written by run.py (under .bench_work/results/).

    python3 perfbench/compare.py OLD.json NEW.json

Prints each metric's old and new median and the relative change. For the
end-to-end metrics it marks a change worse than the bound in BENCHMARK.json
and then exits with 1. It refuses, with exit code 2, to compare results of
different workloads, trace modes or kernel backends: compiled and numpy
kernels differ by far more than any bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result files.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    old = json.loads(args.old.read_text(encoding="utf-8"))
    new = json.loads(args.new.read_text(encoding="utf-8"))
    for what, a, b in (
        ("workload", old["workload"], new["workload"]),
        ("trace mode", old["trace"], new["trace"]),
        ("backend", old["stamp"]["backend"], new["stamp"]["backend"]),
    ):
        if a != b:
            print(f"refusing to compare: {what} differs ({a!r} vs {b!r})", file=sys.stderr)
            return 2

    section = "per_layer" if old["trace"] else "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    regressions = 0
    print(f"{old['workload']} ({section}): {args.old.name} -> {args.new.name}")
    for name, (unit, before) in old[section].items():
        after = new[section].get(name, (unit, None))[1]
        if after is None:
            print(f"  {name:<36} {before:.6g} {unit} -> absent")
            continue
        change = (after - before) / before if before else 0.0
        flag = ""
        if name in bounds:
            bound, better = bounds[name]
            if (change if better == "lower" else -change) > bound:
                flag = f"  worse than bound {bound:.0%}"
                regressions += 1
        print(f"  {name:<36} {before:.6g} -> {after:.6g} {unit} ({change:+.1%}){flag}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
