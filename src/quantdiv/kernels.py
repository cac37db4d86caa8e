"""The two hot kernels, in numpy: pair counting and the HSD null statistic."""

from __future__ import annotations

import numpy as np

# hsd_max_stats keeps its tiled source and its work buffer within this many
# float64 elements together, at least one round each: 2 MB per call.
HSD_BLOCK = 1 << 18


def pair_stats(x: np.ndarray, y: np.ndarray, tie_eps: float):
    """Count (concordant, discordant, tied_x, tied_y) over index pairs i < j.

    x and y are float64 (rows, n) arrays of one shape, and each count is an
    intp array with one entry per row; rank_correlation.pair_counts does the
    broadcasting. A pair is tied in a list when the absolute difference is
    <= tie_eps; pairs tied in either list are in neither conc nor disc.

    Each list gives an n x n matrix above[i, j] = x_i - x_j > tie_eps (for
    tie_eps == 0 the comparison x_i > x_j, which is the same for finite
    floats). An untied pair is above in exactly one orientation, so a list's
    untied pairs are count(above). differ = above_x ^ above_y holds both
    cells of a discordant pair and one of a pair tied in one list only, so
    count(differ) = untied_x + untied_y - 2 conc; where above_x holds,
    differ.T is above_y.T, so disc = count(above_x & differ.T).

    The matrices are (n, n, rows) when rows >= n, from a transposed copy of
    each list, so that numpy's inner loops run over the contiguous rows, and
    (rows, n, n) otherwise; the counts do not depend on the layout. Both are
    one allocation, which glibc's malloc keeps for the next call instead of
    returning it to the system: that spares the split-half trials most of
    their page faults. differ and the AND overwrite them; beyond their two
    n x n booleans per row, the temporaries are a float64 copy of one list
    at a time for (n, n, rows), and one list's n x n float differences per
    row when tie_eps > 0.
    """
    rows, n = x.shape
    pair = (0, 1) if rows >= n else (1, 2)
    above_x, above_y = np.empty((2, n, n, rows) if rows >= n else (2, rows, n, n), dtype=bool)
    for v, out in ((x, above_x), (y, above_y)):
        v_i = v.T.copy()[:, None] if rows >= n else v[:, :, None]  # item i on the first pair axis
        v_j = np.swapaxes(v_i, *pair)
        np.greater(v_i - v_j, tie_eps, out=out) if tie_eps else np.greater(v_i, v_j, out=out)
        del v_i, v_j  # one list's float64 copy at a time
    untied_x, untied_y = _count_cells(above_x, pair), _count_cells(above_y, pair)
    differ = np.logical_xor(above_x, above_y, out=above_y)
    conc = (untied_x + untied_y - _count_cells(differ, pair)) // 2
    disc = _count_cells(np.logical_and(above_x, np.swapaxes(differ, *pair), out=above_x), pair)
    total = n * (n - 1) // 2
    return conc, disc, total - untied_x, total - untied_y


def _count_cells(above: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Number of True cells in each n x n matrix on the pair axes, as intp.

    A column holds at most n - 1 True cells and a matrix n (n - 1) (differ
    holds both cells of a discordant pair). Summing into the smallest type
    that holds that is several times faster than count_nonzero along axes,
    which casts every cell to intp. (n, n, rows) is first summed down its
    columns, with the contiguous rows innermost; (rows, n, n) over both
    pair axes at once. The totals are intp, so products cannot overflow.
    """
    n = above.shape[pair[0]]
    if pair == (0, 1):
        above, pair = above.sum(axis=0, dtype=np.min_scalar_type(n - 1)), 0
    return above.sum(axis=pair, dtype=np.min_scalar_type(n * (n - 1))).astype(np.intp)


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
