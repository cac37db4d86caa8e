"""Rank-based comparison of divergence measures over a common dataset.

Three experiments: system agreement between measures (pairwise Kendall tau
with confidence intervals), split-half consistency (how stably a measure
ranks systems across disjoint case subsets), and randomized Tukey HSD
significance testing on the per-trial consistency grid.

Determinism contract: every trial b derives its generator from
SeedSequence((seed, TRIAL_STREAM, b)) and every permutation chunk c from
SeedSequence((seed, HSD_STREAM, c)), so results are reproducible for a given
seed and identical for any thread count. The trial seed words are derived in
bulk (_trial_seed_words), equal to what those SeedSequences generate, and
numpy's own PCG64 is seeded from each trial's words.
Workers write to pre-assigned slots of the output arrays; nothing is
accumulated in shared mutable state.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from . import kernels
from .distributions import _fields_equal, _frozen
from .errors import (
    DatasetTooSmall,
    LengthMismatch,
    MisalignedRun,
    OutOfRange,
    TooFewMeasures,
    TooFewSystems,
    TooFewTrials,
)
from .measures import HYBRID_PARTNERS, MeasureId, combine_harmonic_batch, score_batch
from .rank_correlation import TauResult, tau_b, tau_plain, tau_with_ci

if TYPE_CHECKING:
    from .dataset_io import Dataset, SystemRun

TRIAL_STREAM = 1
HSD_STREAM = 2
# Permutation rounds are generated and evaluated in fixed-size chunks; the
# chunk index seeds the sub-stream, so results do not depend on threading.
HSD_CHUNK = 256
# score_matrix scores systems in blocks of at most this many elements of the
# measure's largest temporary: (systems, cases, K) for most measures, and
# (systems, cases, K, K) for DNKT and the hybrids, whose pair counts compare
# every class with every other. That bounds each temporary array to 256 KB
# and keeps peak memory flat in the number of systems.
SCORE_BLOCK = 1 << 15
# consistency_per_trial runs trials in blocks of at most this many elements
# of permutations, case gathers and n x n pair cells (at least one trial per
# block), so its temporaries stay bounded whatever B and the number of cases.
TRIAL_BLOCK = 1 << 19

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _check_integer(name: str, value) -> None:
    """Reject a value that operator.index does not take, or a bool."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise OutOfRange(f"{name} must be an integer, got {value!r}") from None


def _check_measures(measures: Sequence[MeasureId]) -> None:
    """Reject a measure listed twice, or a value that is not a MeasureId, such as a plain "NMD"."""
    for i, measure in enumerate(measures):
        if not isinstance(measure, MeasureId):
            raise OutOfRange(f"measure {measure!r} is not a MeasureId")
        if measure in measures[:i]:
            raise OutOfRange(f"measure {measure.value} is listed twice")


@dataclass(frozen=True)
class FullSplit:
    """Shuffle all cases and split in half; odd case goes to the first half."""

    def bounds(self, n_cases: int) -> tuple[int, int]:
        """(split, end): a trial's subsets are perm[:split] and perm[split:end]."""
        if n_cases < 4:
            raise DatasetTooSmall(f"half-split needs at least 4 cases, got {n_cases}")
        return (n_cases + 1) // 2, n_cases


@dataclass(frozen=True)
class FixedSize:
    """Draw two disjoint subsets of exactly k cases each."""

    k: int

    def __post_init__(self):
        _check_integer("subset size", self.k)
        if self.k < 1:
            raise OutOfRange(f"subset size must be >= 1, got {self.k}")

    def bounds(self, n_cases: int) -> tuple[int, int]:
        """(split, end): a trial's subsets are perm[:split] and perm[split:end]."""
        if n_cases < 2 * self.k:
            raise DatasetTooSmall(
                f"two disjoint subsets of {self.k} need {2 * self.k} cases, got {n_cases}"
            )
        return self.k, 2 * self.k


SubsetMode = FullSplit | FixedSize


def format_subset_mode(mode: SubsetMode) -> str:
    if isinstance(mode, FullSplit):
        return "half"
    return f"k={mode.k}"


def parse_subset_mode(text: str) -> SubsetMode:
    if text == "half":
        return FullSplit()
    if text.startswith("k="):
        try:
            k = int(text[2:])
        except ValueError:
            raise OutOfRange(f"bad subset size in {text!r}") from None
        return FixedSize(k)
    raise OutOfRange(f"unknown subset mode {text!r}; expected 'half' or 'k=<int>'")


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Per-system, per-case scores for one measure (rows align with systems)."""

    values: np.ndarray
    system_ids: tuple[str, ...]
    case_ids: tuple[str, ...]
    measure: MeasureId

    def __post_init__(self):
        _check_measures((self.measure,))
        for name, ids in (("system_ids", self.system_ids), ("case_ids", self.case_ids)):
            if not all(isinstance(i, str) for i in ids):
                raise OutOfRange(f"{name} must be strings")
            if len(set(ids)) != len(ids):
                raise OutOfRange(f"{name} must be unique")
        object.__setattr__(self, "values", _frozen(self.values))
        if self.values.shape != (len(self.system_ids), len(self.case_ids)):
            raise MisalignedRun(
                f"score grid {self.values.shape} does not match "
                f"{len(self.system_ids)} systems x {len(self.case_ids)} cases"
            )
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise OutOfRange("scores must be finite and >= 0")

    __eq__ = _fields_equal


@dataclass(frozen=True)
class AgreementReport:
    """Tau/CI for each pair of measures; each measure's average tau is derived."""

    measures: tuple[MeasureId, ...]
    taus: tuple[TauResult, ...]  # one per pair, in itertools.combinations order

    def __post_init__(self):
        m = len(self.measures)
        if m < 2:
            raise TooFewMeasures(f"need at least 2 measures, got {m}")
        _check_measures(self.measures)
        n_pairs = m * (m - 1) // 2
        if len(self.taus) != n_pairs or not all(isinstance(t, TauResult) for t in self.taus):
            raise LengthMismatch(f"agreement of {m} measures needs {n_pairs} TauResults, one per pair")

    def pairs(self) -> Iterator[tuple[int, int, TauResult]]:
        """(i, j, tau) for each pair of measure indices i < j, in the order taus holds them."""
        for (i, j), tau in zip(combinations(range(len(self.measures)), 2), self.taus):
            yield i, j, tau

    @property
    def avg_similarity(self) -> tuple[float, ...]:
        """Each measure's mean tau against every other measure."""
        m = len(self.measures)
        return tuple(
            math.fsum(t.tau for i, j, t in self.pairs() if k in (i, j)) / (m - 1) for k in range(m)
        )


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Split-half consistency of each measure plus HSD significance."""

    measures: tuple[MeasureId, ...]
    per_trial_tau: np.ndarray  # (measures, B)
    significant_pairs: tuple[tuple[MeasureId, MeasureId], ...]  # (winner, loser)
    mode: SubsetMode
    seed: int
    alpha: float
    permutations: int
    tau_variant: str = "b"

    def __post_init__(self):
        object.__setattr__(self, "per_trial_tau", _frozen(self.per_trial_tau))
        arr = self.per_trial_tau
        if not self.measures or arr.ndim != 2 or arr.shape[0] != len(self.measures):
            raise LengthMismatch(
                f"per-trial tau grid {arr.shape} must be (measures, B) with >= 1 measure, "
                f"got {len(self.measures)} measures"
            )
        if not (np.abs(arr) <= 1.0).all():
            raise OutOfRange("per-trial taus must be numbers in [-1, 1]")
        _check_measures(self.measures)
        check_consistency_args(
            self.B, self.seed, self.alpha, self.permutations, tau_variant=self.tau_variant
        )
        # Each pair once, winner first: randomized_tukey_hsd reports a pair
        # only when the winner's mean per-trial tau is strictly higher.
        means = dict(zip(self.measures, self.mean_tau))
        listed = set()
        for winner, loser in self.significant_pairs:
            if winner == loser or winner not in self.measures or loser not in self.measures:
                raise OutOfRange(
                    f"significant pair ({winner}, {loser}) must name two different report measures"
                )
            if frozenset((winner, loser)) in listed:
                raise OutOfRange(
                    f"significant pair ({winner.value}, {loser.value}) is listed twice "
                    "(in either orientation)"
                )
            listed.add(frozenset((winner, loser)))
            if not means[winner] > means[loser]:
                raise OutOfRange(
                    f"significant pair ({winner.value}, {loser.value}): the winner's mean tau "
                    f"{means[winner]!r} is not above the loser's {means[loser]!r}"
                )

    @property
    def mean_tau(self) -> tuple[float, ...]:
        """Each measure's mean per-trial tau."""
        return tuple(float(v) for v in self.per_trial_tau.mean(axis=1))

    @property
    def B(self) -> int:
        return self.per_trial_tau.shape[1]

    __eq__ = _fields_equal


def check_consistency_args(
    B: int = 1,
    seed: int = 0,
    alpha: float = 0.05,
    permutations: int = 1,
    threads: int = 1,
    tau_variant: str = "b",
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Reject a bad consistency argument before any work; return the tau function.

    B, seed, permutations and threads must be integers (bool is not one);
    alpha must be a real number.
    """
    integers = {"B": B, "seed": seed, "permutations": permutations, "threads": threads}
    for name, value in integers.items():
        _check_integer(name, value)
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
        raise OutOfRange(f"alpha must be a real number, got {alpha!r}")
    if B < 1:
        raise TooFewTrials(f"need at least 1 trial, got {B}")
    if B > 1 << 32:
        raise OutOfRange(f"at most 2**32 trials, got {B}")
    if seed < 0:
        raise OutOfRange(f"seed must be non-negative, got {seed}")
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must be in (0, 1), got {alpha}")
    if permutations < 1:
        raise OutOfRange(f"need at least 1 permutation round, got {permutations}")
    if threads < 1:
        raise OutOfRange(f"--threads must be >= 1, got {threads}")
    tau_fn = {"b": tau_b, "plain": tau_plain}.get(tau_variant)  # tau_b: ties at equality
    if tau_fn is None:
        raise OutOfRange(f"unknown tau variant {tau_variant!r}")
    return tau_fn


def score_matrix(
    dataset: "Dataset",
    runs: Sequence["SystemRun"],
    measure: MeasureId,
    scored: Sequence[ScoreMatrix] = (),
) -> ScoreMatrix:
    """Score every system on every case with one measure.

    scored holds matrices already scored on the same runs; one with other
    system or case ids is a MisalignedRun. A hybrid whose DNKT and partner
    are among them is their harmonic mean, the same bits as scoring it.
    Otherwise systems are scored a block of rows at a time, so temporaries
    stay within SCORE_BLOCK elements whatever the number of systems.
    """
    _check_measures((measure,))
    n_cases = len(dataset.case_ids)
    for run in runs:
        if len(run.est) != n_cases:
            raise MisalignedRun(
                f"system {run.system_id!r} has {len(run.est)} cases, dataset has {n_cases}"
            )
    system_ids = tuple(run.system_id for run in runs)
    case_ids = tuple(dataset.case_ids)
    done = {}
    for matrix in scored:
        if matrix.system_ids != system_ids or matrix.case_ids != case_ids:
            raise MisalignedRun(
                f"the {matrix.measure.value} scores are for other systems or cases than the runs"
            )
        done[matrix.measure] = matrix.values
    partner = HYBRID_PARTNERS.get(measure)
    if MeasureId.DNKT in done and partner in done:
        values = combine_harmonic_batch(done[MeasureId.DNKT], done[partner])
    else:
        gold = dataset.gold
        k = gold.shape[1]
        per_system = n_cases * k * (k if measure is MeasureId.DNKT or partner is not None else 1)
        rows = max(1, SCORE_BLOCK // max(1, per_system))
        values = np.empty((len(runs), n_cases), dtype=np.float64)
        for start in range(0, len(runs), rows):
            block = np.stack([run.est for run in runs[start : start + rows]])
            values[start : start + rows] = score_batch(measure, block, gold)
    return ScoreMatrix(values=values, system_ids=system_ids, case_ids=case_ids, measure=measure)


def mean_scores(matrix: ScoreMatrix) -> np.ndarray:
    """Mean score per system over all cases."""
    return matrix.values.mean(axis=1)


def agreement(
    dataset: "Dataset",
    runs: Sequence["SystemRun"],
    measures: Sequence[MeasureId],
    confidence: float = 0.95,
) -> AgreementReport:
    """Pairwise tau/CI between the measures' per-system mean-score lists.

    Ties are counted at exact equality; tau close to 1 means two measures
    rank the systems nearly identically.
    """
    measures = tuple(measures)
    if len(runs) < 3:
        raise TooFewSystems(f"need at least 3 systems, got {len(runs)}")
    if len(measures) < 2:
        raise TooFewMeasures(f"need at least 2 measures, got {len(measures)}")
    if not 0.0 < confidence < 1.0:
        raise OutOfRange(f"confidence must be in (0, 1), got {confidence}")
    _check_measures(measures)
    matrices: list[ScoreMatrix] = []
    for measure in measures:
        matrices.append(score_matrix(dataset, runs, measure, scored=matrices))
    means = [mean_scores(matrix) for matrix in matrices]
    taus = tuple(tau_with_ci(x, y, confidence) for x, y in combinations(means, 2))
    return AgreementReport(measures=measures, taus=taus)


def _uint32_words(n: int) -> list[int]:
    """n >= 0 as little-endian 32-bit words, at least one, as SeedSequence reads it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_sequence_words(entropy: list[np.ndarray]) -> np.ndarray:
    """generate_state(4, np.uint64) of one SeedSequence per entropy column.

    entropy lists the uint32 entropy words, each an array with one entry per
    sequence. This repeats numpy's mix_entropy and generate_state on every
    sequence at once; uint32 array arithmetic wraps as the C code does.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ result >> np.uint32(16)

    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = np.empty((zeros.shape[0], 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ value >> np.uint32(16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _trial_seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """SeedSequence((seed, TRIAL_STREAM, b)).generate_state(4, np.uint64), b in [start, stop).

    One (stop - start, 4) uint64 array from a vectorised pass over the
    trials. Trial ids stay below 2**32 (check_consistency_args caps B), so each
    is a single 32-bit entropy word.
    """
    head = _uint32_words(seed) + _uint32_words(TRIAL_STREAM)
    entropy = [np.full(stop - start, word, dtype=np.uint32) for word in head]
    return _seed_sequence_words(entropy + [np.arange(start, stop, dtype=np.uint32)])


@functools.cache
def _trial_seed_type() -> type:
    """The _TrialSeed class, defined on first use: importing numpy.random, where
    its base class lives, adds 6 MB of RSS, and only the trials need it."""

    class _TrialSeed(np.random.bit_generator.ISeedSequence):
        """One trial's seed words, handed to numpy's PCG64 as its SeedSequence would."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 asks for exactly the four uint64 words a row holds.
            return self.words

    return _TrialSeed


def _trial_permutations(n_cases: int, words: np.ndarray) -> np.ndarray:
    """(trials, n_cases) block: rng.permutation(n_cases) per row of trial seed words.

    Each rng is numpy's default_rng seeded from that row, which is the state
    the trial's SeedSequence gives. Each row starts as arange and is shuffled
    in place, which is how Generator.permutation(n) draws.
    """
    trial_seed = _trial_seed_type()
    perms = np.empty((len(words), n_cases), dtype=np.intp)
    perms[:] = np.arange(n_cases)
    for perm, row in zip(perms, words):
        np.random.default_rng(trial_seed(row)).shuffle(perm)
    return perms


def _run_all(task: Callable, items: Sequence, threads: int) -> None:
    """Run task on every item, on at most min(threads, usable CPUs, tasks) workers.

    The usable CPUs are those the process may run on, which in a container can
    be fewer than the host's os.cpu_count(); sched_getaffinity is Linux-only.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(threads, cpus, len(items))
    if workers <= 1:
        for item in items:
            task(item)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(task, items))


def consistency_per_trial(
    stacked: np.ndarray,
    mode: SubsetMode,
    B: int,
    seed: int,
    threads: int = 1,
    tau_variant: str = "b",
) -> np.ndarray:
    """Per-trial tau grid (measures x B) from raw score grids.

    stacked is (measures, systems, cases). Each trial splits the cases per
    mode, computes each measure's per-system mean on both subsets, and
    records the tau between the two system-score lists. Trials run a block
    at a time: one gather per subset and one tau call for the whole block.
    """
    stacked = np.asarray(stacked, dtype=np.float64)
    n_measures, n_systems, n_cases = stacked.shape
    if n_systems < 2:
        raise TooFewSystems(f"need at least 2 systems, got {n_systems}")
    tau_fn = check_consistency_args(B=B, seed=seed, threads=threads, tau_variant=tau_variant)
    split, end = mode.bounds(n_cases)

    per_trial = np.empty((n_measures, B), dtype=np.float64)
    per_trial_elements = n_cases + n_measures * n_systems * (end + n_systems)
    step = max(1, TRIAL_BLOCK // per_trial_elements)
    blocks = [(start, min(start + step, B)) for start in range(0, B, step)]
    words = _trial_seed_words(seed, 0, B)
    # One row of (measure, system) scores per case: a subset gathers whole
    # rows, and the mean adds the rows in subset order, one case at a time.
    cols = np.ascontiguousarray(stacked.reshape(n_measures * n_systems, n_cases).T)

    def run_block(block: tuple[int, int]) -> None:
        start, stop = block
        perms = _trial_permutations(n_cases, words[start:stop])
        # (trials, subset, measures * systems) -> per-system means as
        # (trials, measures, systems), so tau pairs up the systems.
        first, second = (
            cols[idx].mean(axis=1).reshape(-1, n_measures, n_systems)
            for idx in (perms[:, :split], perms[:, split:end])
        )
        per_trial[:, start:stop] = tau_fn(first, second).T

    _run_all(run_block, blocks, threads)
    return per_trial


def randomized_tukey_hsd(
    per_trial: np.ndarray,
    alpha: float = 0.05,
    permutations: int = 5000,
    seed: int = 42,
    threads: int = 1,
) -> frozenset[tuple[int, int]]:
    """Which measure pairs differ significantly in mean per-trial tau.

    The null distribution is the max pairwise gap between row means after
    permuting row labels independently within every trial column; a pair is
    significant when its observed gap exceeds the ceil((1-alpha)R)-th order
    statistic. Returns (winner, loser) row-index pairs, winner having the
    higher mean.
    """
    arr = np.ascontiguousarray(per_trial, dtype=np.float64)
    if arr.ndim != 2:
        raise OutOfRange("per-trial grid must be 2-dimensional")
    n_measures, n_trials = arr.shape
    if n_measures < 2:
        raise TooFewMeasures(f"need at least 2 measures, got {n_measures}")
    if n_trials < 2:
        raise TooFewTrials(f"need at least 2 trials, got {n_trials}")
    if not np.isfinite(arr).all():
        raise OutOfRange("per-trial grid must be finite")
    check_consistency_args(seed=seed, alpha=alpha, permutations=permutations, threads=threads)

    null_stats = np.empty(permutations, dtype=np.float64)
    chunks = [
        (ci, start, min(start + HSD_CHUNK, permutations))
        for ci, start in enumerate(range(0, permutations, HSD_CHUNK))
    ]

    def run_chunk(chunk: tuple[int, int, int]) -> None:
        ci, start, stop = chunk
        rng = np.random.default_rng(np.random.SeedSequence((seed, HSD_STREAM, ci)))
        kernels.hsd_max_stats(arr, rng, null_stats[start:stop])

    _run_all(run_chunk, chunks, threads)

    order = math.ceil((1.0 - alpha) * permutations)
    crit = float(np.sort(null_stats)[order - 1])
    means = arr.mean(axis=1)
    out = set()
    for i in range(n_measures):
        for j in range(i + 1, n_measures):
            if abs(means[i] - means[j]) > crit:
                out.add((i, j) if means[i] > means[j] else (j, i))
    return frozenset(out)


def split_half_consistency(
    dataset: "Dataset",
    runs: Sequence["SystemRun"],
    measures: Sequence[MeasureId],
    mode: SubsetMode = FullSplit(),
    B: int = 1000,
    seed: int = 42,
    alpha: float = 0.05,
    permutations: int = 5000,
    threads: int = 1,
    tau_variant: str = "b",
) -> ConsistencyReport:
    """Split-half consistency of each measure plus HSD significance.

    With B = 1 or a single measure the HSD stage is skipped (nothing to
    compare) and the significant set is empty; alpha and permutations are
    still validated first, so a report never records an invalid value.
    Every argument, the subset mode and the number of systems are
    validated before any scoring.
    """
    measures = tuple(measures)
    if len(measures) < 1:
        raise TooFewMeasures("need at least 1 measure")
    _check_measures(measures)
    if len(runs) < 2:
        raise TooFewSystems(f"need at least 2 systems, got {len(runs)}")
    check_consistency_args(B, seed, alpha, permutations, threads, tau_variant)
    mode.bounds(len(dataset.case_ids))
    matrices: list[ScoreMatrix] = []
    for measure in measures:
        matrices.append(score_matrix(dataset, runs, measure, scored=matrices))
    stacked = np.stack([matrix.values for matrix in matrices], axis=0)
    per_trial = consistency_per_trial(stacked, mode, B, seed, threads, tau_variant)
    if len(measures) >= 2 and B >= 2:
        sig_idx = randomized_tukey_hsd(per_trial, alpha, permutations, seed, threads)
    else:
        sig_idx = frozenset()
    pairs = tuple(
        (measures[i], measures[j]) for i, j in sorted(sig_idx)
    )
    return ConsistencyReport(
        measures=measures,
        per_trial_tau=per_trial,
        significant_pairs=pairs,
        mode=mode,
        seed=seed,
        alpha=alpha,
        permutations=permutations,
        tau_variant=tau_variant,
    )
