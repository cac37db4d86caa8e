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
numpy's own PCG64 is seeded from each trial's words. The bytes thus rest on
numpy's SeedSequence, PCG64, Generator.shuffle and Generator.permuted.
Workers write to pre-assigned slots of the output arrays; nothing is
accumulated in shared mutable state.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import kernels
from .distributions import Dataset, SystemRun, _check_confidence, _checked_array, _checked_integer
from .distributions import _checked_items, _checked_member, _checked_members, _checked_number
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
from .measures import HYBRID_PARTNERS, SCORE_RANGE, MeasureId, combine_harmonic_batch, score_batch
from .rank_correlation import TauResult, tau_b, tau_plain, tau_with_ci

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
# consistency_per_trial runs trials in blocks whose temporaries take at most
# this many bytes, 1.5 MB (at least one trial per block), so memory stays
# bounded whatever B and the number of cases; each worker thread holds one.
TRIAL_BLOCK = 3 << 19

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class SubsetMode:
    """How a trial draws its two disjoint case subsets: FullSplit or FixedSize, not this base."""


@dataclass(frozen=True)
class FullSplit(SubsetMode):
    """Shuffle all cases and split in half; odd case goes to the first half."""

    def bounds(self, n_cases: int) -> tuple[int, int]:
        """(split, end): a trial's subsets are perm[:split] and perm[split:end]."""
        if n_cases < 4:
            raise DatasetTooSmall(f"half-split needs at least 4 cases, got {n_cases}")
        return (n_cases + 1) // 2, n_cases


@dataclass(frozen=True)
class FixedSize(SubsetMode):
    """Draw two disjoint subsets of exactly k cases each."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _checked_integer("subset size", self.k, 1))

    def bounds(self, n_cases: int) -> tuple[int, int]:
        """(split, end): a trial's subsets are perm[:split] and perm[split:end]."""
        if n_cases < 2 * self.k:
            raise DatasetTooSmall(
                f"two disjoint subsets of {self.k} need {2 * self.k} cases, got {n_cases}"
            )
        return self.k, 2 * self.k


_MODES = (FullSplit, FixedSize)  # the bare SubsetMode has no bounds


def format_subset_mode(mode: SubsetMode) -> str:
    if isinstance(mode, FullSplit):
        return "half"
    return f"k={mode.k}"


def parse_subset_mode(text: str) -> SubsetMode:
    if _checked_member("subset mode", text, str) == "half":
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
        _checked_member("measure", self.measure, MeasureId)
        object.__setattr__(self, "system_ids", _checked_members("system id", self.system_ids, str))
        object.__setattr__(self, "case_ids", _checked_members("case id", self.case_ids, str))
        object.__setattr__(self, "values", _frozen(_checked_array("scores", self.values, *SCORE_RANGE)))
        if self.values.shape != (len(self.system_ids), len(self.case_ids)):
            raise MisalignedRun(
                f"score grid {self.values.shape} does not match "
                f"{len(self.system_ids)} systems x {len(self.case_ids)} cases"
            )

    __eq__ = _fields_equal


@dataclass(frozen=True)
class AgreementReport:
    """Tau/CI for each pair of measures; each measure's average tau is derived."""

    measures: tuple[MeasureId, ...]
    taus: tuple[TauResult, ...]  # one per pair, in itertools.combinations order

    def __post_init__(self):
        object.__setattr__(self, "measures", _checked_members("measure", self.measures, MeasureId))
        object.__setattr__(self, "taus", _checked_items("tau", self.taus))
        m = len(self.measures)
        if m < 2:
            raise TooFewMeasures(f"need at least 2 measures, got {m}")
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
        object.__setattr__(self, "measures", _checked_members("measure", self.measures, MeasureId))
        arr = _frozen(_checked_array("per-trial taus", self.per_trial_tau, -1.0, 1.0))
        object.__setattr__(self, "per_trial_tau", arr)
        if not self.measures or arr.ndim != 2 or arr.shape[0] != len(self.measures):
            raise LengthMismatch(
                f"per-trial tau grid {arr.shape} must be (measures, B) with >= 1 measure, "
                f"got {len(self.measures)} measures"
            )
        _checked_member("mode", self.mode, _MODES)
        # Settings are stored as the Python numbers the rules give, so a numpy scalar renders as JSON.
        _, seed, alpha, permutations, _, _ = check_consistency_args(
            self.B, self.seed, self.alpha, self.permutations, tau_variant=self.tau_variant
        )
        for name, value in (("seed", seed), ("alpha", alpha), ("permutations", permutations)):
            object.__setattr__(self, name, value)
        # Each pair once, winner first: randomized_tukey_hsd reports a pair
        # only when the winner's mean per-trial tau is strictly higher.
        pairs = _checked_items("significant pair", self.significant_pairs)
        pairs = tuple(_checked_members("measure", pair, MeasureId) for pair in pairs)
        object.__setattr__(self, "significant_pairs", pairs)
        means = dict(zip(self.measures, self.mean_tau))
        listed = set()
        for pair in pairs:
            named = ", ".join(m.value for m in pair)
            if len(pair) != 2 or not means.keys() >= set(pair):
                raise OutOfRange(f"significant pair ({named}) must name two report measures")
            if frozenset(pair) in listed:
                raise OutOfRange(f"significant pair ({named}) is listed twice (in either orientation)")
            listed.add(frozenset(pair))
            winner, loser = pair
            if not means[winner] > means[loser]:
                raise OutOfRange(
                    f"significant pair ({named}): the winner's mean tau "
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
) -> tuple[int, int, float, int, int, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """Reject a bad consistency argument before any work, by the value rules in distributions.

    Returns (B, seed, alpha, permutations, threads) as the Python numbers the
    rules give, then the tau function.
    """
    B = _checked_integer("B", B)
    if B < 1:
        raise TooFewTrials(f"need at least 1 trial, got {B}")
    if B > 1 << 32:
        raise OutOfRange(f"at most 2**32 trials, got {B}")
    seed = _checked_integer("seed", seed, 0)
    alpha = _checked_number("alpha", alpha, 0.0, 1.0, open=True)
    permutations = _checked_integer("permutations", permutations, 1)
    threads = _checked_integer("--threads", threads, 1)
    # tau_b: ties at equality. Only a str is looked up, so an unhashable variant is refused too.
    tau_fn = {"b": tau_b, "plain": tau_plain}.get(tau_variant) if isinstance(tau_variant, str) else None
    if tau_fn is None:
        raise OutOfRange(f"unknown tau variant {tau_variant!r}")
    return B, seed, alpha, permutations, threads, tau_fn


def score_matrix(dataset: Dataset, runs: Sequence[SystemRun], measure: MeasureId) -> ScoreMatrix:
    """Score every system on every case with one measure.

    Systems are scored a block of rows at a time, so temporaries stay within
    SCORE_BLOCK elements whatever the number of systems. The ScoreMatrix
    holds the grid this call fills, not a copy of it.
    """
    _checked_member("measure", measure, MeasureId)
    _checked_member("dataset", dataset, Dataset)
    runs = _checked_items("run", runs, SystemRun)
    n_cases = len(dataset.case_ids)
    for run in runs:
        if len(run.est) != n_cases:
            raise MisalignedRun(
                f"system {run.system_id!r} has {len(run.est)} cases, dataset has {n_cases}"
            )
    k = dataset.gold.shape[1]
    pairwise = measure is MeasureId.DNKT or measure in HYBRID_PARTNERS
    rows = max(1, SCORE_BLOCK // max(1, n_cases * k * (k if pairwise else 1)))
    values = np.empty((len(runs), n_cases), dtype=np.float64)
    for start in range(0, len(runs), rows):
        block = np.stack([run.est for run in runs[start : start + rows]])
        values[start : start + rows] = score_batch(measure, block, dataset.gold)
    values.setflags(write=False)
    return ScoreMatrix(values, (run.system_id for run in runs), dataset.case_ids, measure)


def score_matrices(
    dataset: Dataset, runs: Sequence[SystemRun], measures: Sequence[MeasureId]
) -> tuple[ScoreMatrix, ...]:
    """score_matrix for each measure, in list order, each scored once.

    A hybrid whose DNKT and partner are both listed, in any order, is the
    harmonic mean of their grids: the same bits as scoring it.
    """
    measures = _checked_members("measure", measures, MeasureId)
    runs = _checked_items("run", runs, SystemRun)  # a one-shot iterator is read once
    listed = set(measures)
    composed = {h: p for h, p in HYBRID_PARTNERS.items() if {h, p, MeasureId.DNKT} <= listed}
    done = {m: score_matrix(dataset, runs, m) for m in measures if m not in composed}
    for hybrid, partner in composed.items():
        dnkt = done[MeasureId.DNKT]
        values = combine_harmonic_batch(dnkt.values, done[partner].values)
        values.setflags(write=False)
        done[hybrid] = ScoreMatrix(values, dnkt.system_ids, dnkt.case_ids, hybrid)
    return tuple(done[m] for m in measures)


def mean_scores(matrix: ScoreMatrix) -> np.ndarray:
    """Mean score per system over all cases, of which there must be at least one."""
    if not matrix.case_ids:
        raise DatasetTooSmall("mean scores need at least 1 case")
    return matrix.values.mean(axis=1)


def agreement(
    dataset: Dataset,
    runs: Sequence[SystemRun],
    measures: Sequence[MeasureId],
    confidence: float = 0.95,
) -> AgreementReport:
    """Pairwise tau/CI between the measures' per-system mean-score lists.

    Ties are counted at exact equality; tau close to 1 means two measures
    rank the systems nearly identically.
    """
    measures = _checked_members("measure", measures, MeasureId)
    runs = _checked_items("run", runs, SystemRun)
    if len(runs) < 3:
        raise TooFewSystems(f"need at least 3 systems, got {len(runs)}")
    if len(measures) < 2:
        raise TooFewMeasures(f"need at least 2 measures, got {len(measures)}")
    _check_confidence(confidence)
    means = [mean_scores(matrix) for matrix in score_matrices(dataset, runs, measures)]
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
            # PCG64 asks for exactly the four uint64 words a row holds; any
            # other request would seed the trial from other words.
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError(f"a trial seed holds 4 uint64 words, not {n_words} {np.dtype(dtype)}")
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


def _subset_means(cols: np.ndarray, perms: np.ndarray, split: int, end: int) -> np.ndarray:
    """Each trial's two subset means, as a (2, trials, cells) array.

    Trial t's subsets are perms[t, :split] and perms[t, split:end], and a
    subset's mean is the mean of its cols rows. One running sum per subset
    starts at zero and adds the rows one subset position at a time, in
    subset order, which are the additions numpy makes when it averages a
    gathered (trials, subset, cells) array over its middle axis. The extra
    case of an odd half split is added last to the first subset. Only the
    permutations, their index, one gathered row per subset and the sums are
    held, never a whole subset's rows.
    """
    shared = end - split  # positions both subsets have; the first may have one more
    index = np.stack((perms[:, :shared].T, perms[:, split:end].T), axis=1)
    rows = np.empty((2, len(perms), cols.shape[1]))
    sums = np.zeros_like(rows)
    for pair in index:  # mode="clip" gathers straight into rows; no index is out of range
        cols.take(pair, axis=0, out=rows, mode="clip")
        sums += rows
    if split > shared:
        cols.take(perms[:, split - 1], axis=0, out=rows[0], mode="clip")
        sums[0] += rows[0]
    sums[0] /= split
    sums[1] /= shared
    return sums


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one (Linux), which in a container can hold fewer than the host's
    os.cpu_count(); else os.cpu_count(), or 1 if that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_all(task: Callable, items: Sequence, threads: int) -> None:
    """Run task on every item, on at most min(threads, _usable_cpus(), tasks) workers.

    concurrent.futures is imported only when more than one worker runs: with
    the logging, queue and threading modules it pulls in, it costs a command
    about 7 ms that a single-threaded run does not need.
    """
    workers = min(threads, _usable_cpus(), len(items))
    if workers <= 1:
        for item in items:
            task(item)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(task, items))


def consistency_per_trial(
    grids: Iterable[np.ndarray],
    mode: SubsetMode,
    B: int,
    seed: int,
    threads: int = 1,
    tau_variant: str = "b",
) -> np.ndarray:
    """Per-trial tau grid (measures x B) from raw score grids.

    grids holds one (systems, cases) grid per measure: a list, a one-shot
    iterator or a (measures, systems, cases) array. They are copied once
    into a case-major table and dropped, so a caller that hands over its
    only references holds no copy of the scores. Each trial splits the cases
    per mode, computes each measure's per-system mean on both subsets, and
    records the tau between the two system-score lists. Trials run a block
    at a time: one running sum per block and one tau call for the whole block.
    The grid returned is owned and read-only, so a ConsistencyReport keeps it.
    """
    grids = [_checked_array("score grid", grid, -math.inf, math.inf) for grid in grids]
    if not grids:
        raise TooFewMeasures("need at least 1 measure")
    if grids[0].ndim != 2 or any(grid.shape != grids[0].shape for grid in grids):
        raise LengthMismatch("score grids must be (systems, cases) arrays of one shape")
    n_measures = len(grids)
    n_systems, n_cases = grids[0].shape
    if n_systems < 2:
        raise TooFewSystems(f"need at least 2 systems, got {n_systems}")
    B, seed, _, _, threads, tau_fn = check_consistency_args(
        B, seed, threads=threads, tau_variant=tau_variant
    )
    split, end = _checked_member("mode", mode, _MODES).bounds(n_cases)

    per_trial = np.empty((n_measures, B), dtype=np.float64)
    cells = n_measures * n_systems
    # The bytes each trial adds to a block, at the larger of its two peaks.
    # Summing holds its permutation and index (intp) and its two gathered
    # rows and two sums (float64); the tau step holds the sums, two n x n
    # boolean pair matrices per measure, a float64 copy of one half's means
    # (or narrow counts) and at most eight (trials, measures) counts and
    # quotients. Broadcasting ufuncs may buffer np.getbufsize() values of two
    # float64 operands (128 KB by default) whatever the block size: that is
    # set aside first.
    summing = 8 * (n_cases + 2 * (end - split) + 4 * cells)
    pairing = 16 * cells + cells * (2 * n_systems + 8) + 64 * n_measures
    step = max(1, (TRIAL_BLOCK - 16 * np.getbufsize()) // max(summing, pairing))
    blocks = [(start, min(start + step, B)) for start in range(0, B, step)]
    words = _trial_seed_words(seed, 0, B)
    # One row of (measure, system) scores per case, so a subset position
    # gathers one whole row per trial.
    cols = np.empty((n_cases, cells))
    for i, grid in enumerate(grids):
        cols[:, i * n_systems : (i + 1) * n_systems] = grid.T
    del grids, grid

    def run_block(block: tuple[int, int]) -> None:
        start, stop = block
        means = _subset_means(cols, _trial_permutations(n_cases, words[start:stop]), split, end)
        # (trials, measures, systems) per subset, so tau pairs up the systems.
        first, second = means.reshape(2, -1, n_measures, n_systems)
        per_trial[:, start:stop] = tau_fn(first, second).T

    _run_all(run_block, blocks, threads)
    per_trial.setflags(write=False)
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
    arr = np.ascontiguousarray(_checked_array("per-trial grid", per_trial, -math.inf, math.inf))
    if arr.ndim != 2:
        raise OutOfRange("per-trial grid must be 2-dimensional")
    n_measures, n_trials = arr.shape
    if n_measures < 2:
        raise TooFewMeasures(f"need at least 2 measures, got {n_measures}")
    if n_trials < 2:
        raise TooFewTrials(f"need at least 2 trials, got {n_trials}")
    seed, alpha, permutations, threads = check_consistency_args(1, seed, alpha, permutations, threads)[1:5]

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
    dataset: Dataset,
    runs: Sequence[SystemRun],
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
    measures = _checked_members("measure", measures, MeasureId)
    if len(measures) < 1:
        raise TooFewMeasures("need at least 1 measure")
    _checked_member("dataset", dataset, Dataset)
    runs = _checked_items("run", runs, SystemRun)
    if len(runs) < 2:
        raise TooFewSystems(f"need at least 2 systems, got {len(runs)}")
    check_consistency_args(B, seed, alpha, permutations, threads, tau_variant)
    _checked_member("mode", mode, _MODES).bounds(len(dataset.case_ids))
    # A one-shot iterator, so the trials hold the only copy of the scores.
    grids = (matrix.values for matrix in score_matrices(dataset, runs, measures))
    per_trial = consistency_per_trial(grids, mode, B, seed, threads, tau_variant)
    if len(measures) >= 2 and B >= 2:
        sig_idx = randomized_tukey_hsd(per_trial, alpha, permutations, seed, threads)
    else:
        sig_idx = frozenset()
    pairs = tuple((measures[i], measures[j]) for i, j in sorted(sig_idx))
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
