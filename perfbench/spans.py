"""In-process tracing of one quantdiv CLI run, from outside the package.

The tracer replaces the module attributes the pipeline calls through with
wrappers that record a span (name, start, end, parent) and a few counts, runs
`quantdiv.cli.main(argv)`, and restores the attributes afterwards. Spans stay
in memory; `layer_metrics` folds them into the per-layer metrics listed in
PER_LAYER. Traced runs are single-threaded (`--threads 1`), so one stack
gives each span its parent.

Self time is a span's duration minus the durations of its direct children.
Times are integer nanoseconds, so self time is never negative.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
import tracemalloc
from collections import Counter
from pathlib import Path

# Per-layer metric -> (unit, (end-to-end metric, workload) pairs it should move).
# A workload absent from a metric's pairs is predicted not to move with it.
_ALL = ("consistency-bundled", "score-wide", "consistency-trials")
_SCORING = (
    ("wall_rel", "score-wide"),
    ("cpu_rel", "score-wide"),
    ("wall_rel", "consistency-bundled"),
    ("cpu_rel", "consistency-bundled"),
)
_TAGS = (
    "NMD", "RNOD", "RNOD2", "RNADW", "RNADW2", "RSNOD", "NVD",
    "RNSS", "JSD", "DNKT", "DNKT_JSD", "DNKT_NMD", "DNKT_RNOD",
)
PER_LAYER: dict[str, tuple[str, tuple[tuple[str, str], ...]]] = {
    "cli.self_s": ("s", tuple(("wall_rel", w) for w in _ALL)),
    "dataset_io.load_s": ("s", (("wall_rel", "score-wide"),)),
    "dataset_io.rows_loaded": ("count", (("wall_rel", "score-wide"),)),
    "dataset_io.render_s": ("s", (("wall_rel", "score-wide"),)),
    "dataset_io.bytes_out": ("count", (("wall_rel", "score-wide"),)),
    "measures.score_s": ("s", _SCORING),
    **{f"measures.score_s.{tag}": ("s", _SCORING) for tag in _TAGS},
    "measures.cells": ("count", _SCORING),
    "rank_correlation.pair_counts_s": (
        "s", (("wall_rel", "score-wide"), ("wall_rel", "consistency-trials"))
    ),
    "rank_correlation.pair_counts_calls": (
        "count", (("wall_rel", "score-wide"), ("wall_rel", "consistency-trials"))
    ),
    "meta_eval.consistency_self_s": ("s", (("wall_rel", "consistency-bundled"),)),
    "meta_eval.trials_s": ("s", (("wall_rel", "consistency-trials"),)),
    "meta_eval.taus": ("count", (("wall_rel", "consistency-trials"),)),
    "meta_eval.hsd_s": ("s", (("wall_rel", "consistency-bundled"),)),
    "meta_eval.hsd_self_s": ("s", (("wall_rel", "consistency-bundled"),)),
    "meta_eval.hsd_rounds": ("count", (("wall_rel", "consistency-bundled"),)),
    "meta_eval.hsd_peak_mb": ("MB", (("peak_rss_mb", "consistency-trials"),)),
    "kernels.pair_stats_s": (
        "s", (("wall_rel", "score-wide"), ("wall_rel", "consistency-trials"))
    ),
    "kernels.pair_stats_calls": (
        "count", (("wall_rel", "score-wide"), ("wall_rel", "consistency-trials"))
    ),
    "kernels.hsd_max_stats_s": (
        "s", (("wall_rel", "consistency-bundled"), ("wall_rel", "consistency-trials"))
    ),
    "kernels.hsd_max_stats_calls": (
        "count", (("wall_rel", "consistency-bundled"), ("wall_rel", "consistency-trials"))
    ),
    "trace.overhead_s": ("s", ()),
}


def _measure_name(bound: inspect.BoundArguments) -> str:
    measure = bound.arguments.get("measure")
    return f"measures.score.{getattr(measure, 'value', measure)}"


def _count(key: str, amount):
    return lambda tracer, bound, result: tracer.counts.update({key: amount(bound, result)})


_ROWS_GOLD = _count("dataset_io.rows_loaded", lambda b, r: len(r.case_ids))
_ROWS_RUN = _count("dataset_io.rows_loaded", lambda b, r: len(r.est))
_BYTES_RENDERED = _count("dataset_io.bytes_out", lambda b, r: len(r.encode("utf-8")))
_BYTES_WRITTEN = _count("dataset_io.bytes_out", lambda b, r: Path(r).stat().st_size)
_CELLS = _count("measures.cells", lambda b, r: r.values.size)
_TAUS = _count("meta_eval.taus", lambda b, r: r.size)
_ROUNDS = _count("meta_eval.hsd_rounds", lambda b, r: b.arguments.get("permutations", 0))

# Disjoint stages that together cover a traced run (the cli.main span).
STAGES = (
    "cli.self_s",
    "dataset_io.load_s",
    "dataset_io.render_s",
    "measures.score_s",
    "meta_eval.consistency_self_s",
    "meta_eval.trials_s",
    "meta_eval.hsd_s",
)

# (module, attribute, span name or function of the bound arguments, on-result hook)
TARGETS = (
    ("cli", "load_gold", "dataset_io.load_gold", _ROWS_GOLD),
    ("cli", "load_run", "dataset_io.load_run", _ROWS_RUN),
    ("cli", "score_matrix", _measure_name, _CELLS),
    ("cli", "split_half_consistency", "meta_eval.split_half_consistency", None),
    ("cli", "render_report", "dataset_io.render_report", _BYTES_RENDERED),
    ("cli", "write_report", "dataset_io.write_report", _BYTES_WRITTEN),
    ("meta_eval", "score_matrix", _measure_name, _CELLS),
    ("meta_eval", "consistency_per_trial", "meta_eval.consistency_per_trial", _TAUS),
    ("meta_eval", "randomized_tukey_hsd", "meta_eval.randomized_tukey_hsd", _ROUNDS),
    ("rank_correlation", "pair_counts", "rank_correlation.pair_counts", None),
    ("kernels", "pair_stats", "kernels.pair_stats", None),
    ("kernels", "hsd_max_stats", "kernels.hsd_max_stats", None),
)
# The HSD span also records the tracemalloc peak of its call alone.
_MEMORY_SPAN = "meta_eval.randomized_tukey_hsd"


class Tracer:
    """Spans and counts of one traced CLI run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.hsd_peak_bytes = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.counts[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def _wrap(self, fn, name, on_result):
        signature = inspect.signature(fn) if callable(name) or on_result else None

        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            span = name(bound) if callable(name) else name
            if span == _MEMORY_SPAN:
                result = self._call_measuring_memory(span, fn, args, kwargs)
            else:
                result = self.call(span, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, bound, result)
            return result

        return wrapper

    def _call_measuring_memory(self, span, fn, args, kwargs):
        tracemalloc.start()
        try:
            return self.call(span, fn, *args, **kwargs)
        finally:
            self.hsd_peak_bytes = max(self.hsd_peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target attribute; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, on_result in TARGETS:
                try:
                    module = importlib.import_module(f"quantdiv.{module_name}")
                except ImportError:
                    module = None
                if module is None or not hasattr(module, attr):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, on_result))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals_s(self) -> tuple[Counter, Counter]:
        """Inclusive and self seconds summed per span name (0 for names not seen)."""
        total: Counter = Counter()
        own: Counter = Counter()
        for (name, start, end, _), self_ns in zip(self.spans, self.self_times_ns()):
            total[name] += (end - start) / 1e9
            own[name] += self_ns / 1e9
        return total, own


def traced_main(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[int, Tracer]:
    """Run `quantdiv.cli.main(argv)` in-process under a fresh tracer."""
    from quantdiv import cli

    tracer = Tracer()
    with open(stdout_path, "w", encoding="utf-8") as out, open(
        stderr_path, "w", encoding="utf-8"
    ) as err, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer.installed():
            code = tracer.call("cli.main", cli.main, argv)
    return code, tracer


def layer_metrics(tracers: list[Tracer], untraced_wall_s: float, setup_s: float) -> dict[str, float]:
    """Per-layer metrics, each the mean over the traced runs."""
    sums: Counter = Counter()
    for tracer in tracers:
        total, own = tracer.totals_s()
        count = tracer.counts
        prefix = "measures.score."
        score = Counter({k.removeprefix(prefix): v for k, v in total.items() if k.startswith(prefix)})
        one = {
            "cli.self_s": own["cli.main"],
            "dataset_io.load_s": total["dataset_io.load_gold"] + total["dataset_io.load_run"],
            "dataset_io.rows_loaded": count["dataset_io.rows_loaded"],
            "dataset_io.render_s": total["dataset_io.render_report"] + total["dataset_io.write_report"],
            "dataset_io.bytes_out": count["dataset_io.bytes_out"],
            "measures.score_s": sum(score.values()),
            **{f"measures.score_s.{tag}": score[tag] for tag in _TAGS},
            "measures.cells": count["measures.cells"],
            "rank_correlation.pair_counts_s": own["rank_correlation.pair_counts"],
            "rank_correlation.pair_counts_calls": count["rank_correlation.pair_counts"],
            "meta_eval.consistency_self_s": own["meta_eval.split_half_consistency"],
            "meta_eval.trials_s": total["meta_eval.consistency_per_trial"],
            "meta_eval.taus": count["meta_eval.taus"],
            "meta_eval.hsd_s": total["meta_eval.randomized_tukey_hsd"],
            "meta_eval.hsd_self_s": own["meta_eval.randomized_tukey_hsd"],
            "meta_eval.hsd_rounds": count["meta_eval.hsd_rounds"],
            "meta_eval.hsd_peak_mb": tracer.hsd_peak_bytes / 2**20,
            "kernels.pair_stats_s": total["kernels.pair_stats"],
            "kernels.pair_stats_calls": count["kernels.pair_stats"],
            "kernels.hsd_max_stats_s": total["kernels.hsd_max_stats"],
            "kernels.hsd_max_stats_calls": count["kernels.hsd_max_stats"],
            # A traced run skips interpreter start-up, so add it back before
            # comparing with the untraced subprocess.
            "trace.overhead_s": total["cli.main"] + setup_s - untraced_wall_s,
        }
        sums.update(one)
    return {name: sums[name] / len(tracers) for name in PER_LAYER}
