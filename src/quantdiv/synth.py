"""Synthetic benchmark data: graded-quality systems over voted gold labels.

Gold distributions mimic assessor voting: a latent class distribution is
drawn per case, a fixed number of votes is sampled from it, and the gold is
the normalized vote histogram. System s estimates the gold blended with
Dirichlet noise at a system-specific rate, so lower-numbered systems are
strictly better on average and a sensible measure should rank them stably.
"""

from __future__ import annotations

import numpy as np

from .distributions import Dataset, SystemRun, _checked_integer, _checked_number, from_votes, validate

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
    n_systems = _checked_integer("n_systems", n_systems, 1)
    n_cases = _checked_integer("n_cases", n_cases, 1)
    n_classes = _checked_integer("n_classes", n_classes, 2)
    assessors = _checked_integer("assessors", assessors, 1)
    seed = _checked_integer("seed", seed, 0)
    noise_lo = _checked_number("noise_lo", noise_lo, 0.0, 1.0)
    noise_hi = _checked_number("noise_hi", noise_hi, noise_lo, 1.0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, GENERATOR_STREAM)))

    width = max(4, len(str(n_cases)))
    case_ids = tuple(f"d{i:0{width}d}" for i in range(1, n_cases + 1))
    class_labels = tuple(f"c{i}" for i in range(1, n_classes + 1))

    # Each case draws its latent distribution, then its votes; the record keeps them as Python ints.
    votes = [rng.multinomial(assessors, rng.dirichlet(np.full(n_classes, 0.8))) for _ in range(n_cases)]
    gold = [from_votes(v) for v in votes]
    dataset = Dataset(case_ids=case_ids, class_labels=class_labels, gold=gold, votes=votes)

    sys_width = len(str(n_systems))
    runs = []
    for s, level in enumerate(np.linspace(noise_lo, noise_hi, n_systems), start=1):
        est = [
            validate((1.0 - level) * row + level * rng.dirichlet(np.ones(n_classes)))
            for row in dataset.gold
        ]
        runs.append(SystemRun(system_id=f"s{s:0{sys_width}d}", est=est))
    return dataset, runs
