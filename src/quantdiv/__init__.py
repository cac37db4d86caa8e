"""Divergence measures over ordinal class distributions, plus the machinery
to compare the measures themselves: rank agreement, split-half consistency,
and randomized significance testing."""

from ._version import __version__
from .dataset_io import (
    load_gold,
    load_run,
    read_report,
    render_report,
    write_dataset,
    write_report,
    write_run,
)
from .distributions import Dataset, SystemRun, from_votes, validate
from .measures import (
    ALL_MEASURES,
    DEFAULT_SUITE,
    DistanceScheme,
    MeasureId,
    combine_harmonic,
    score,
)
from .meta_eval import (
    AgreementReport,
    ConsistencyReport,
    FixedSize,
    FullSplit,
    ScoreMatrix,
    agreement,
    mean_scores,
    randomized_tukey_hsd,
    score_matrices,
    score_matrix,
    split_half_consistency,
)
from .rank_correlation import PairCounts, TauResult, pair_counts, tau_b, tau_plain, tau_with_ci

__all__ = [
    "__version__",
    "ALL_MEASURES",
    "DEFAULT_SUITE",
    "AgreementReport",
    "ConsistencyReport",
    "Dataset",
    "DistanceScheme",
    "FixedSize",
    "FullSplit",
    "MeasureId",
    "PairCounts",
    "ScoreMatrix",
    "SystemRun",
    "TauResult",
    "agreement",
    "combine_harmonic",
    "from_votes",
    "load_gold",
    "load_run",
    "mean_scores",
    "pair_counts",
    "randomized_tukey_hsd",
    "read_report",
    "render_report",
    "score",
    "score_matrices",
    "score_matrix",
    "split_half_consistency",
    "tau_b",
    "tau_plain",
    "tau_with_ci",
    "validate",
    "write_dataset",
    "write_report",
    "write_run",
]
