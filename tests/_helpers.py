"""Shared test utilities: random simplex points and naive oracles.

The oracles re-implement pair counting, the HSD null distribution and the
normalisation of a table's rows with plain Python loops, independent of the
library's kernels and loader, so agreement between the two routes is
meaningful.
"""

from __future__ import annotations

import math
import random

import numpy as np

from quantdiv.distributions import validate


def random_distribution(rng: np.random.Generator, k: int, zero_rate: float = 0.25) -> np.ndarray:
    """Random k-class distribution; some classes get exactly zero mass."""
    raw = rng.dirichlet(np.ones(k))
    mask = rng.random(k) < zero_rate
    if mask.all():
        mask[int(rng.integers(k))] = False
    raw[mask] = 0.0
    return validate(raw / raw.sum())


def positive_distribution(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random k-class distribution with strictly positive entries."""
    raw = rng.uniform(0.05, 1.0, size=k)
    return validate(raw / raw.sum())


def random_pair(rng: np.random.Generator, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    if k is None:
        k = int(rng.integers(2, 8))
    return random_distribution(rng, k), random_distribution(rng, k)


def reference_rows(mode: str, rows) -> np.ndarray:
    """A table's rows of cell strings normalised in plain Python: a float per
    cell (a share per vote count in counts mode), math.fsum, then divide."""
    out = []
    for cells in rows:
        if mode == "counts":
            counts = [int(c) for c in cells]
            values = [c / sum(counts) for c in counts]
        else:
            values = [float(c) for c in cells]
        total = math.fsum(values)
        out.append([v / total for v in values])
    return np.array(out, dtype=np.float64)


def tied_lists(rng: np.random.Generator, n: int) -> tuple[list[float], list[float]]:
    """Random real lists with deliberately injected exact ties."""
    xs = [round(float(rng.normal()), 1) for _ in range(n)]
    ys = [round(float(rng.normal()), 1) for _ in range(n)]
    return xs, ys


def tie_heavy(rng: np.random.Generator, shape) -> np.ndarray:
    """Seven levels: about one pair in seven is an exact tie, whatever n."""
    return rng.integers(-3, 4, size=shape) / 4


def edge_values(rng: np.random.Generator, shape, eps: float) -> np.ndarray:
    """Values whose gaps sit on and either side of the tie tolerance eps.

    Half the values come from a pool whose gaps are exact ties, exactly
    eps (2 eps - eps, eps - 0) and eps one ulp either side of it: values
    within a factor of two subtract exactly. The rest are rounded normals.
    """
    pool = np.array([0.0, eps, 2 * eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0)])
    edge = rng.choice(pool, size=shape)
    return np.where(rng.random(shape) < 0.5, edge, np.round(rng.normal(size=shape), 1))


def naive_pair_counts(xs, ys, tie_eps: float = 0.0) -> tuple[int, int, int, int]:
    """Brute-force pair tally: (conc, disc, tied_x, tied_y)."""
    n = len(xs)
    conc = disc = tied_x = tied_y = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            tx = abs(dx) <= tie_eps
            ty = abs(dy) <= tie_eps
            tied_x += tx
            tied_y += ty
            if tx or ty:
                continue
            if (dx > 0) == (dy > 0):
                conc += 1
            else:
                disc += 1
    return conc, disc, tied_x, tied_y


def naive_tau_b(xs, ys, tie_eps: float = 0.0) -> float:
    """Brute-force tie-adjusted tau with the same max guard as the library."""
    conc, disc, tied_x, tied_y = naive_pair_counts(xs, ys, tie_eps)
    total = len(xs) * (len(xs) - 1) // 2
    denom = math.sqrt(max(1, total - tied_x) * max(1, total - tied_y))
    return (conc - disc) / denom


def oracle_hsd_critical(per_trial, alpha: float, rounds: int, seed: int) -> float:
    """Brute-force permutation estimate of the HSD critical value.

    Uses Python's random module so the permutation stream is independent of
    the library's; the critical values agree only statistically.
    """
    grid = [list(row) for row in per_trial]
    m = len(grid)
    n_cols = len(grid[0])
    rng = random.Random(seed)
    stats = []
    labels = list(range(m))
    for _ in range(rounds):
        sums = [0.0] * m
        for b in range(n_cols):
            rng.shuffle(labels)
            for k in range(m):
                sums[k] += grid[labels[k]][b]
        means = [s / n_cols for s in sums]
        stats.append(max(means) - min(means))
    stats.sort()
    return stats[math.ceil((1.0 - alpha) * rounds) - 1]
