#!/usr/bin/env python3
"""Regenerate the bundled synthetic dataset under data/synth/.

The output is fully determined by the generator defaults, so running this
script twice produces byte-identical files. The gold table keeps the raw
vote counts; run tables store full-precision probabilities (repr). The
loader divides every row by its float sum again, so a reloaded run matches
the generated one up to one rounding in rows whose sum is not exactly 1.0.
"""

import argparse
import shutil
import sys
from pathlib import Path

# Import quantdiv from this checkout, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantdiv import synth  # noqa: E402
from quantdiv.dataset_io import write_dataset, write_run  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "data" / "synth",
        help="output directory (default: data/synth next to this repo's root)",
    )
    args = parser.parse_args()

    dataset, runs = synth.generate()
    run_dir = args.out / "runs"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    write_dataset(dataset, args.out / "gold.tsv")
    for run in runs:
        write_run(run, dataset, run_dir / f"{run.system_id}.tsv")
    print(f"wrote gold + {len(runs)} runs to {args.out}")


if __name__ == "__main__":
    main()
