"""Rank-based comparison of divergence measures over a common dataset.

Three experiments: system agreement between measures (pairwise Kendall tau
with confidence intervals), split-half consistency (how stably a measure
ranks systems across disjoint case subsets), and randomized Tukey HSD
significance testing on the per-trial consistency grid.

Determinism contract: every trial b derives its generator from
SeedSequence((seed, TRIAL_STREAM, b)) and every permutation chunk c from
SeedSequence((seed, HSD_STREAM, c)), so results are reproducible for a given
seed and identical for any thread count. The trial generators are seeded in
bulk (_trial_seed_words), to the same states those SeedSequences give.
Workers write to pre-assigned slots of the output arrays; nothing is
accumulated in shared mutable state.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import kernels
from .errors import (
    DatasetTooSmall,
    LengthMismatch,
    MisalignedRun,
    OutOfRange,
    TooFewMeasures,
    TooFewSystems,
    TooFewTrials,
)
from .measures import MeasureId, score_batch
from .rank_correlation import TauResult, tau_b, tau_plain, tau_with_ci

if TYPE_CHECKING:
    from .dataset_io import Dataset, SystemRun

TRIAL_STREAM = 1
HSD_STREAM = 2
# Permutation rounds are generated and evaluated in fixed-size chunks; the
# chunk index seeds the sub-stream, so results do not depend on threading.
HSD_CHUNK = 256
# score_matrix scores systems in blocks of at most this many elements of
# (systems, cases, K, K), which bounds each temporary array of the batch
# measures to 256 KB and keeps peak memory flat in the number of systems.
SCORE_BLOCK = 1 << 15
# consistency_per_trial runs trials in blocks of at most this many elements
# of permutations, case gathers and n x n pair cells (at least one trial per
# block), so its temporaries stay bounded whatever B and the number of cases.
TRIAL_BLOCK = 1 << 19

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


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


@dataclass(eq=False)
class ScoreMatrix:
    """Per-system, per-case scores for one measure (rows align with systems)."""

    values: np.ndarray
    system_ids: tuple[str, ...]
    case_ids: tuple[str, ...]
    measure: MeasureId

    def __post_init__(self):
        for name, ids in (("system_ids", self.system_ids), ("case_ids", self.case_ids)):
            if not all(isinstance(i, str) for i in ids):
                raise OutOfRange(f"{name} must be strings")
            if len(set(ids)) != len(ids):
                raise OutOfRange(f"{name} must be unique")
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape != (len(self.system_ids), len(self.case_ids)):
            raise MisalignedRun(
                f"score grid {values.shape} does not match "
                f"{len(self.system_ids)} systems x {len(self.case_ids)} cases"
            )
        if not np.isfinite(values).all() or (values < 0).any():
            raise OutOfRange("scores must be finite and >= 0")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        return (
            isinstance(other, ScoreMatrix)
            and self.system_ids == other.system_ids
            and self.case_ids == other.case_ids
            and self.measure == other.measure
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class AgreementReport:
    """Pairwise tau/CI between measures; each measure's average tau is derived."""

    measures: tuple[MeasureId, ...]
    grid: tuple[tuple[TauResult | None, ...], ...]  # a TauResult exactly where i < j

    def __post_init__(self):
        m = len(self.measures)
        if m < 2:
            raise TooFewMeasures(f"need at least 2 measures, got {m}")
        filled = [[isinstance(cell, TauResult) for cell in row] for row in self.grid]
        if filled != [[i < j for j in range(m)] for i in range(m)]:
            raise LengthMismatch(f"agreement grid of {m} measures needs a tau exactly where i < j")

    @property
    def avg_similarity(self) -> tuple[float, ...]:
        """Each measure's mean tau against every other measure."""
        m = len(self.measures)
        return tuple(
            math.fsum(self.pair(i, j).tau for j in range(m) if j != i) / (m - 1)
            for i in range(m)
        )

    def pair(self, i: int, j: int) -> TauResult:
        if i == j:
            raise OutOfRange("no self-pair in the agreement grid")
        return self.grid[min(i, j)][max(i, j)]


@dataclass(eq=False)
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
        arr = np.array(self.per_trial_tau, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "per_trial_tau", arr)
        if not self.measures or arr.ndim != 2 or arr.shape[0] != len(self.measures):
            raise LengthMismatch(
                f"per-trial tau grid {arr.shape} must be (measures, B) with >= 1 measure, "
                f"got {len(self.measures)} measures"
            )
        check_consistency_args(
            self.B, self.seed, self.alpha, self.permutations, tau_variant=self.tau_variant
        )
        for winner, loser in self.significant_pairs:
            if winner == loser or winner not in self.measures or loser not in self.measures:
                raise OutOfRange(
                    f"significant pair ({winner}, {loser}) must name two different report measures"
                )

    @property
    def mean_tau(self) -> tuple[float, ...]:
        """Each measure's mean per-trial tau."""
        return tuple(float(v) for v in self.per_trial_tau.mean(axis=1))

    @property
    def B(self) -> int:
        return self.per_trial_tau.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, ConsistencyReport)
            and self.measures == other.measures
            and np.array_equal(self.per_trial_tau, other.per_trial_tau)
            and self.significant_pairs == other.significant_pairs
            and self.mode == other.mode
            and (self.seed, self.alpha, self.permutations, self.tau_variant)
            == (other.seed, other.alpha, other.permutations, other.tau_variant)
        )


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
        try:
            if isinstance(value, bool):
                raise TypeError
            operator.index(value)
        except TypeError:
            raise OutOfRange(f"{name} must be an integer, got {value!r}") from None
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


def score_matrix(dataset: "Dataset", runs: Sequence["SystemRun"], measure: MeasureId) -> ScoreMatrix:
    """Score every system on every case with one measure.

    Systems are scored a block of rows at a time, so temporaries stay within
    SCORE_BLOCK elements whatever the number of systems.
    """
    n_cases = len(dataset.case_ids)
    for run in runs:
        if len(run.est) != n_cases:
            raise MisalignedRun(
                f"system {run.system_id!r} has {len(run.est)} cases, dataset has {n_cases}"
            )
    gold = dataset.gold_array
    k = gold.shape[1]
    rows = max(1, SCORE_BLOCK // max(1, n_cases * k * k))
    values = np.empty((len(runs), n_cases), dtype=np.float64)
    for start in range(0, len(runs), rows):
        block = np.stack([run.est_array for run in runs[start : start + rows]])
        values[start : start + rows] = score_batch(measure, block, gold)
    return ScoreMatrix(
        values=values,
        system_ids=tuple(run.system_id for run in runs),
        case_ids=tuple(dataset.case_ids),
        measure=measure,
    )


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
    means = [mean_scores(score_matrix(dataset, runs, m)) for m in measures]
    m = len(measures)
    grid: list[list[TauResult | None]] = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            grid[i][j] = tau_with_ci(means[i], means[j], confidence)
    return AgreementReport(measures=measures, grid=tuple(tuple(row) for row in grid))


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


def _pcg64_state(words: Sequence[int]) -> tuple[int, int]:
    """PCG64's (state, inc) when seeded with four 64-bit seed words.

    pcg64_set_seed reads (words[0], words[1]) as the 128-bit initial state
    and (words[2], words[3]) as the stream, then runs pcg_setseq_128_srandom_r.
    """
    w0, w1, w2, w3 = (int(w) for w in words)
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    return ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128, inc


def _trial_permutations(n_cases: int, words: np.ndarray) -> np.ndarray:
    """(trials, n_cases) block: rng.permutation(n_cases) per row of trial seed words.

    Each rng is the default_rng of that trial's SeedSequence; one Generator
    is reused by assigning its PCG64 state. Each row starts as arange and is
    shuffled in place, which is how Generator.permutation(n) draws.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    perms = np.empty((len(words), n_cases), dtype=np.intp)
    perms[:] = np.arange(n_cases)
    for perm, row in zip(perms, words.tolist()):
        state, inc = _pcg64_state(row)
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.shuffle(perm)
    return perms


def _run_all(task: Callable, items: Sequence, threads: int) -> None:
    """Run task on every item, on at most min(threads, CPUs, tasks) workers."""
    workers = min(threads, os.cpu_count() or 1, len(items))
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
    if len(runs) < 2:
        raise TooFewSystems(f"need at least 2 systems, got {len(runs)}")
    check_consistency_args(B, seed, alpha, permutations, threads, tau_variant)
    mode.bounds(len(dataset.case_ids))
    stacked = np.stack(
        [score_matrix(dataset, runs, m).values for m in measures], axis=0
    )
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
