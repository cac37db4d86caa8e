"""Synthetic benchmark data: graded-quality systems over voted gold labels.

Gold distributions mimic assessor voting: a latent class distribution is
drawn per case, a fixed number of votes is sampled from it, and the gold is
the normalized vote histogram. System s estimates the gold blended with
Dirichlet noise at a system-specific rate, so lower-numbered systems are
strictly better on average and a sensible measure should rank them stably.
"""

from __future__ import annotations

import numpy as np

from .dataset_io import Dataset, SystemRun
from .distributions import from_votes, validate
from .errors import OutOfRange

GENERATOR_STREAM = 0

# Narrow noise band: systems stay close in quality, which rank-only scoring
# of the probability bins separates poorly, while magnitude-aware measures
# still resolve the grading. Used by the end-to-end separation check.
LOW_NOISE = {"noise_lo": 0.01, "noise_hi": 0.10}


def generate(
    n_systems: int = 12,
    n_cases: int = 300,
    n_classes: int = 5,
    seed: int = 42,
    assessors: int = 20,
    noise_lo: float = 0.05,
    noise_hi: float = 0.65,
) -> tuple[Dataset, list[SystemRun]]:
    """Build a voted gold dataset and n_systems runs of graded quality."""
    if n_systems < 1 or n_cases < 1 or n_classes < 2 or assessors < 1:
        raise OutOfRange("need n_systems >= 1, n_cases >= 1, n_classes >= 2, assessors >= 1")
    if not 0.0 <= noise_lo <= noise_hi <= 1.0:
        raise OutOfRange("need 0 <= noise_lo <= noise_hi <= 1")
    if seed < 0:
        raise OutOfRange(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, GENERATOR_STREAM)))

    width = max(4, len(str(n_cases)))
    case_ids = tuple(f"d{i:0{width}d}" for i in range(1, n_cases + 1))
    class_labels = tuple(f"c{i}" for i in range(1, n_classes + 1))

    votes = []
    for _ in range(n_cases):
        latent = rng.dirichlet(np.full(n_classes, 0.8))
        votes.append(tuple(int(v) for v in rng.multinomial(assessors, latent)))
    gold = [from_votes(v) for v in votes]
    dataset = Dataset(case_ids=case_ids, class_labels=class_labels, gold=gold, votes=tuple(votes))

    if n_systems == 1:
        levels = [noise_lo]
    else:
        levels = list(np.linspace(noise_lo, noise_hi, n_systems))
    sys_width = len(str(n_systems))
    runs = []
    for s, level in enumerate(levels, start=1):
        est = [
            validate((1.0 - level) * row + level * rng.dirichlet(np.ones(n_classes)))
            for row in dataset.gold
        ]
        runs.append(SystemRun(system_id=f"s{s:0{sys_width}d}", est=est))
    return dataset, runs
