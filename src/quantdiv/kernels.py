"""The two hot kernels, in numpy: pair counting and the HSD null statistic."""

from __future__ import annotations

import numpy as np

# hsd_max_stats permutes rounds in sub-blocks of at most this many float64
# elements of (rounds, B, m), at least one round each: 2 MB per call.
HSD_BLOCK = 1 << 18


def pair_stats(x: np.ndarray, y: np.ndarray, tie_eps: float):
    """Count (concordant, discordant, tied_x, tied_y) over index pairs i < j.

    Pairs are taken along the last axis and the leading axes of x and y
    broadcast: conc and disc have the broadcast leading shape, tied_x and
    tied_y the leading shape of x and of y (numpy integers for 1-D inputs).
    A pair is tied in a list when the absolute difference is <= tie_eps;
    pairs tied in either list are excluded from the concordance counts.
    """
    first, second = np.triu_indices(x.shape[-1], k=1)
    dx = x[..., first] - x[..., second]
    dy = y[..., first] - y[..., second]
    tied_x = np.abs(dx) <= tie_eps
    tied_y = np.abs(dy) <= tie_eps
    live = ~tied_x & ~tied_y
    conc = np.count_nonzero(live & ((dx > 0) == (dy > 0)), axis=-1)
    disc = np.count_nonzero(live, axis=-1) - conc
    return conc, disc, np.count_nonzero(tied_x, axis=-1), np.count_nonzero(tied_y, axis=-1)


def hsd_max_stats(values: np.ndarray, rng: np.random.Generator, out: np.ndarray) -> None:
    """Largest gap between row means after relabelling rows, one per round.

    values: (m, B) grid of per-trial scores. Each of the len(out) rounds
    permutes the m values of every column independently with rng and writes
    max_i mean_i - min_i mean_i of the permuted rows to out[r]. Permuting the
    values in place draws the same stream as permuting row labels would.

    Rounds run in sub-blocks of rows = max(1, HSD_BLOCK // (B * m)) through
    one reused (rows, B, m) buffer, so the work memory is at most HSD_BLOCK
    float64 elements (one round if B * m is larger) whatever len(out). The
    sub-blocks draw from rng in order, which consumes the stream exactly as
    permuting all rounds at once, and each round's column sums add in the
    same order, so out does not depend on HSD_BLOCK.
    """
    n_measures, n_cols = values.shape
    rounds = out.shape[0]
    columns = np.ascontiguousarray(values.T)  # (B, m)
    rows = min(rounds, max(1, HSD_BLOCK // (n_cols * n_measures)))
    buffer = np.empty((rows, n_cols, n_measures))
    for start in range(0, rounds, rows):
        work = buffer[: min(rows, rounds - start)]
        # Fill a contiguous array first: permuting a broadcast view makes
        # numpy build a strided copy, which is markedly slower.
        work[...] = columns
        rng.permuted(work, axis=2, out=work)
        sums = work.sum(axis=1)  # (rows, m)
        out[start : start + work.shape[0]] = (sums.max(axis=1) - sums.min(axis=1)) / n_cols
