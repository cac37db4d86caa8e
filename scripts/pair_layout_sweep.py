#!/usr/bin/env python3
"""Time kernels.pair_stats in both pair-matrix layouts over a fixed grid of (rows, n) shapes.

kernels.ROWS_INNERMOST_FROM picks the layout from the number of rows: set
to 0, every block is laid out (n, n, rows); set above every row count, every
block is laid out (rows, n, n). For each shape this script counts the same
exactly tied inputs (tie_eps = 0, as in the split-half trials) both ways,
checks that the counts are equal, and prints each layout's median time per
call, the faster layout and the one the constant picks; a "*" marks a shape
where the pick is more than 10% slower than the other layout. Shapes whose
two boolean pair matrices would exceed 64 MB are skipped. It takes well
under a minute on 2 CPUs.

    python scripts/pair_layout_sweep.py
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

# Import quantdiv from this checkout, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantdiv import kernels  # noqa: E402

ROWS = (1, 3, 6, 12, 24, 31, 32, 36, 48, 63, 113, 150, 339, 1000)
ITEMS = (5, 11, 24, 40, 100, 300, 1000, 2000)
MATRIX_LIMIT = 64 << 20  # bytes of one shape's two boolean pair matrices, 2 rows n n
REPEATS = 5  # timed samples per layout, alternating which layout goes first
SAMPLE_S = 2e-3  # each sample repeats its call for about this long
LAYOUTS = {"(rows, n, n)": max(ROWS) + 1, "(n, n, rows)": 0}


def _per_call(x: np.ndarray, y: np.ndarray, threshold: int, calls: int) -> float:
    kernels.ROWS_INNERMOST_FROM = threshold
    start = time.perf_counter()
    for _ in range(calls):
        kernels.pair_stats(x, y, 0.0)
    return (time.perf_counter() - start) / calls


def sweep_shape(rng: np.random.Generator, rows: int, n: int) -> dict[str, float]:
    """The median seconds per call of each layout on one (rows, n) shape."""
    x, y = rng.integers(-3, 4, size=(2, rows, n)) / 4  # about one pair in seven tied
    counts = {}
    for name, threshold in LAYOUTS.items():
        kernels.ROWS_INNERMOST_FROM = threshold
        counts[name] = np.stack(kernels.pair_stats(x, y, 0.0))
    first, second = counts.values()
    if not np.array_equal(first, second):
        raise SystemExit(f"the two layouts count ({rows}, {n}) differently")
    calls = max(1, round(SAMPLE_S / max(_per_call(x, y, threshold, 1) for threshold in LAYOUTS.values())))
    samples = {name: [] for name in LAYOUTS}
    for repeat in range(REPEATS):
        for name in list(LAYOUTS)[:: 1 if repeat % 2 else -1]:
            samples[name].append(_per_call(x, y, LAYOUTS[name], calls))
    return {name: statistics.median(times) for name, times in samples.items()}


def main() -> None:
    threshold = kernels.ROWS_INNERMOST_FROM
    rng = np.random.default_rng(0)
    print(f"ROWS_INNERMOST_FROM = {threshold}; median ms per call, tie_eps = 0")
    print(f"{'rows':>5} {'n':>5} {'(rows, n, n)':>13} {'(n, n, rows)':>13}  {'faster':<13} picked")
    misplaced = 0
    try:
        for rows in ROWS:
            for n in ITEMS:
                if 2 * rows * n * n > MATRIX_LIMIT:
                    continue
                medians = sweep_shape(rng, rows, n)
                outer, inner = medians.values()
                faster = min(medians, key=medians.get)
                picked = "(n, n, rows)" if rows >= threshold else "(rows, n, n)"
                slow = medians[picked] > 1.1 * min(outer, inner)
                misplaced += slow
                print(
                    f"{rows:>5} {n:>5} {outer * 1e3:>13.3f} {inner * 1e3:>13.3f}  {faster:<13} "
                    f"{picked}{' *' if slow else ''}"
                )
    finally:
        kernels.ROWS_INNERMOST_FROM = threshold
    print(f"{misplaced} shapes where the picked layout is more than 10% slower")


if __name__ == "__main__":
    main()
