"""The two hot kernels, in numpy: pair counting and the HSD null statistic."""

from __future__ import annotations

import numpy as np

# hsd_max_stats keeps its tiled source and its work buffer within this many
# float64 elements together, at least one round each: 2 MB per call.
HSD_BLOCK = 1 << 18


def pair_stats(x: np.ndarray, y: np.ndarray, tie_eps: float):
    """Count (concordant, discordant, tied_x, tied_y) over index pairs i < j.

    Pairs are taken along the last axis and the leading axes of x and y
    broadcast: conc and disc have the broadcast leading shape, tied_x and
    tied_y the leading shape of x and of y (numpy integers for 1-D inputs).
    A pair is tied in a list when the absolute difference is <= tie_eps;
    pairs tied in either list are excluded from the concordance counts.

    Each list gives an n x n matrix above[i, j] = x_i - x_j > tie_eps (for
    tie_eps == 0 the comparison x_i > x_j, which is the same for finite
    floats). An untied pair is above in exactly one orientation, so
    conc = count(above_x & above_y), disc = count(above_x & above_y.T) and
    tied = n (n - 1) / 2 - count(above). Temporaries are three n x n boolean
    arrays per broadcast row, plus one n x n float difference at a time when
    tie_eps > 0.
    """
    if tie_eps == 0:
        above_x = x[..., :, None] > x[..., None, :]
        above_y = y[..., :, None] > y[..., None, :]
    else:
        above_x = x[..., :, None] - x[..., None, :] > tie_eps
        above_y = y[..., :, None] - y[..., None, :] > tie_eps
    both = above_x & above_y
    conc = _count_cells(both)
    np.logical_and(above_x, np.swapaxes(above_y, -2, -1), out=both)
    disc = _count_cells(both)
    total = x.shape[-1] * (x.shape[-1] - 1) // 2
    return conc, disc, total - _count_cells(above_x), total - _count_cells(above_y)


def _count_cells(above: np.ndarray) -> np.ndarray:
    """Number of True cells in each trailing n x n matrix, as intp.

    A pair is above in at most one orientation, so a matrix holds at most
    n (n - 1) / 2 True cells. Summing into the narrowest integer type that
    holds that is several times faster than count_nonzero along axes, which
    casts every cell to intp. The totals are widened back so that products
    of them cannot overflow.
    """
    n = above.shape[-1]
    most = n * (n - 1) // 2
    acc = next(t for t in (np.uint16, np.int32, np.int64) if most <= np.iinfo(t).max)
    return above.sum(axis=(-2, -1), dtype=acc).astype(np.intp)


def hsd_max_stats(values: np.ndarray, rng: np.random.Generator, out: np.ndarray) -> None:
    """Largest gap between row means after relabelling rows, one per round.

    values: (m, B) grid of per-trial scores. Each of the len(out) rounds
    permutes the m values of every column independently with rng and writes
    max_i mean_i - min_i mean_i of the permuted rows to out[r]. Permuting the
    values in place draws the same stream as permuting row labels would.

    Rounds run in sub-blocks of rows = max(1, HSD_BLOCK // (2 B m)). A
    (B, rows m) source holds the columns tiled once per round, and each
    sub-block copies it into a (B, rows m) buffer of the same size, so the
    two stay within HSD_BLOCK float64 elements (two rounds if B m is
    larger) whatever len(out). The buffer is permuted through its
    (rows, B, m) view, which rng walks in the same (round, column) order as
    a contiguous (rows, B, m) array, and summed over B along rows of
    rows m values. The sub-blocks draw from rng in order, which consumes the
    stream exactly as permuting all rounds at once, and each round's column
    sums add in the same order, so out does not depend on HSD_BLOCK.
    """
    n_measures, n_cols = values.shape
    rounds = out.shape[0]
    rows = min(rounds, max(1, HSD_BLOCK // (2 * n_cols * n_measures)))
    source = np.tile(np.ascontiguousarray(values.T), (1, rows))  # (B, rows * m)
    # C order: the sums must run over B in the outer loop, sequentially.
    buffer = np.empty(source.shape)
    for start in range(0, rounds, rows):
        width = min(rows, rounds - start) * n_measures
        work = buffer[:, :width]
        work[...] = source[:, :width]
        rounds_view = work.reshape(n_cols, -1, n_measures).transpose(1, 0, 2)
        rng.permuted(rounds_view, axis=2, out=rounds_view)
        sums = work.sum(axis=0).reshape(-1, n_measures)  # (rounds, m)
        out[start : start + sums.shape[0]] = (sums.max(axis=1) - sums.min(axis=1)) / n_cols
