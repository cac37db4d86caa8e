"""File formats: gold/run tables in TSV, reports in TSV, JSON or markdown.

Table files are UTF-8 TSV with a header row `case_id<TAB><label>...` and one
row per case. An optional directive line `#mode: counts` or `#mode: probs`
before the header says whether rows hold raw vote counts or probabilities
(default probs). OS-level failures are not wrapped; OSError propagates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from ._version import __version__
from .distributions import Distribution, from_votes, stack_probs, validate
from .errors import (
    DuplicateCaseId,
    InconsistentClassCount,
    MissingCase,
    OutOfRange,
    ParseError,
    UnknownCase,
    ValidationError,
)
from .measures import MeasureId
from .meta_eval import (
    AgreementReport,
    ConsistencyReport,
    ScoreMatrix,
    format_subset_mode,
    parse_subset_mode,
)
from .rank_correlation import TauResult

FORMATS = ("tsv", "json", "markdown")


@dataclass(frozen=True)
class Dataset:
    """Gold distributions per case; votes kept when loaded from counts."""

    case_ids: tuple[str, ...]
    class_labels: tuple[str, ...]
    gold: tuple[Distribution, ...]
    votes: tuple[tuple[int, ...], ...] | None = None

    @cached_property
    def gold_array(self) -> np.ndarray:
        """gold as a read-only (cases, K) array, built on first use."""
        return stack_probs(self.gold)


@dataclass(frozen=True)
class SystemRun:
    """One system's estimated distributions, aligned with the dataset order."""

    system_id: str
    est: tuple[Distribution, ...]

    @cached_property
    def est_array(self) -> np.ndarray:
        """est as a read-only (cases, K) array, built on first use."""
        return stack_probs(self.est)


def _parse_table(path) -> tuple[str, tuple[str, ...], list[tuple[int, str, list[str]]]]:
    text = Path(path).read_text(encoding="utf-8")
    mode = "probs"
    labels: tuple[str, ...] | None = None
    rows: list[tuple[int, str, list[str]]] = []
    seen: dict[str, int] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if labels is None and line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("mode:"):
                value = body[5:].strip()
                if value not in ("counts", "probs"):
                    raise ParseError(f"unknown mode {value!r}", ln)
                mode = value
            else:
                raise ParseError(f"unknown directive {line!r}", ln)
            continue
        cells = line.split("\t")
        if labels is None:
            if cells[0] != "case_id":
                raise ParseError(f"header must start with 'case_id', got {cells[0]!r}", ln)
            labels = tuple(cells[1:])
            if len(labels) < 2:
                raise ParseError("header needs at least 2 class columns", ln)
            if len(set(labels)) != len(labels):
                raise ParseError("duplicate class labels in header", ln)
            continue
        if len(cells) != 1 + len(labels):
            raise InconsistentClassCount(
                f"row has {len(cells) - 1} values but header has {len(labels)} classes", ln
            )
        case_id = cells[0].strip()
        if not case_id:
            raise ParseError("empty case id", ln)
        if case_id in seen:
            raise DuplicateCaseId(
                f"case {case_id!r} repeated (first seen at line {seen[case_id]})", ln
            )
        seen[case_id] = ln
        rows.append((ln, case_id, cells[1:]))
    if labels is None:
        raise ParseError("missing header row")
    if not rows:
        raise ParseError("no data rows")
    return mode, labels, rows


def _row_distribution(
    mode: str, case_id: str, ln: int, cells: list[str]
) -> tuple[Distribution, tuple[int, ...] | None]:
    if mode == "counts":
        counts = []
        for cell in cells:
            try:
                counts.append(int(cell))
            except ValueError:
                raise ParseError(f"bad vote count {cell!r}", ln) from None
        try:
            return from_votes(counts), tuple(counts)
        except ValidationError as exc:
            raise type(exc)(f"case {case_id!r}: {exc}") from exc
    values = []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError:
            raise ParseError(f"bad probability {cell!r}", ln) from None
    try:
        return validate(values), None
    except ValidationError as exc:
        raise type(exc)(f"case {case_id!r}: {exc}") from exc


def load_gold(path) -> Dataset:
    """Read the gold table; counts rows are converted to distributions."""
    mode, labels, rows = _parse_table(path)
    gold = []
    votes = []
    for ln, case_id, cells in rows:
        dist, row_votes = _row_distribution(mode, case_id, ln, cells)
        gold.append(dist)
        votes.append(row_votes)
    return Dataset(
        case_ids=tuple(cid for _, cid, _ in rows),
        class_labels=labels,
        gold=tuple(gold),
        votes=tuple(votes) if mode == "counts" else None,  # type: ignore[arg-type]
    )


def load_run(path, dataset: Dataset, system_id: str | None = None) -> SystemRun:
    """Read one system's table and align its cases with the dataset order."""
    mode, labels, rows = _parse_table(path)
    if len(labels) != len(dataset.class_labels):
        raise InconsistentClassCount(
            f"run has {len(labels)} classes, dataset has {len(dataset.class_labels)}"
        )
    if labels != dataset.class_labels:
        raise InconsistentClassCount(
            f"run class labels {labels!r} differ from dataset's {dataset.class_labels!r}"
        )
    by_case: dict[str, Distribution] = {}
    for ln, case_id, cells in rows:
        by_case[case_id], _ = _row_distribution(mode, case_id, ln, cells)
    wanted = set(dataset.case_ids)
    missing = [cid for cid in dataset.case_ids if cid not in by_case]
    if missing:
        raise MissingCase(f"run lacks {len(missing)} dataset case(s), e.g. {missing[0]!r}")
    extra = sorted(set(by_case) - wanted)
    if extra:
        raise UnknownCase(f"run has {len(extra)} unknown case(s), e.g. {extra[0]!r}")
    return SystemRun(
        system_id=system_id if system_id is not None else Path(path).stem,
        est=tuple(by_case[cid] for cid in dataset.case_ids),
    )


def _table(fmt: str, header: Sequence[str], rows) -> str:
    """Rows of cells as TSV lines, or as a markdown table with a --- row."""
    if fmt == "tsv":
        return "".join("\t".join(cells) + "\n" for cells in (header, *rows))
    lines = (header, ["---"] * len(header), *rows)
    return "".join("| " + " | ".join(cells) + " |\n" for cells in lines)


def _write_table(path, mode: str, dataset: Dataset, rows) -> Path:
    path = Path(path)
    rows = ([cid, *cells] for cid, cells in zip(dataset.case_ids, rows))
    body = _table("tsv", ["case_id", *dataset.class_labels], rows)
    path.write_text(f"#mode: {mode}\n" + body, encoding="utf-8")
    return path


def write_dataset(dataset: Dataset, path) -> Path:
    """Write a gold table; vote counts when available, else full-precision probs."""
    if dataset.votes is not None:
        return _write_table(path, "counts", dataset, (map(str, row) for row in dataset.votes))
    return _write_table(path, "probs", dataset, (map(repr, dist.probs) for dist in dataset.gold))


def write_run(run: SystemRun, dataset: Dataset, path) -> Path:
    """Write one system's table with full-precision probabilities."""
    return _write_table(path, "probs", dataset, (map(repr, dist.probs) for dist in run.est))


def _fmt6(x: float) -> str:
    return f"{x:.6f}"


def _meta(seed=None, B=None, mode=None, alpha=None) -> dict:
    return {"seed": seed, "B": B, "mode": mode, "alpha": alpha, "tool_version": __version__}


def _json_doc(report) -> dict:
    if isinstance(report, ScoreMatrix):
        return {
            "kind": "score_matrix",
            "measures": [report.measure.value],
            "payload": {
                "system_ids": list(report.system_ids),
                "case_ids": list(report.case_ids),
                "values": report.values.tolist(),
            },
            "meta": _meta(),
        }
    if isinstance(report, AgreementReport):
        pairs = []
        m = len(report.measures)
        for i in range(m):
            for j in range(i + 1, m):
                cell = report.grid[i][j]
                pairs.append(
                    {
                        "first": report.measures[i].value,
                        "second": report.measures[j].value,
                        "tau": cell.tau,
                        "ci_low": cell.ci_low,
                        "ci_high": cell.ci_high,
                        "n": cell.n,
                    }
                )
        return {
            "kind": "agreement",
            "measures": [m.value for m in report.measures],
            "payload": {"pairs": pairs, "avg_similarity": list(report.avg_similarity)},
            "meta": _meta(),
        }
    if isinstance(report, ConsistencyReport):
        return {
            "kind": "consistency",
            "measures": [m.value for m in report.measures],
            "payload": {
                "mean_tau": list(report.mean_tau),
                "per_trial_tau": report.per_trial_tau.tolist(),
                "significant_pairs": [[w.value, l.value] for w, l in report.significant_pairs],
                "permutations": report.permutations,
                "tau_variant": report.tau_variant,
            },
            "meta": _meta(
                seed=report.seed,
                B=report.B,
                mode=format_subset_mode(report.mode),
                alpha=report.alpha,
            ),
        }
    raise OutOfRange(f"cannot serialize {type(report).__name__}")


def _render_scores(report: ScoreMatrix, fmt: str) -> str:
    corner = "system_id" if fmt == "tsv" else f"system ({report.measure.value})"
    rows = ([sid, *map(_fmt6, row)] for sid, row in zip(report.system_ids, report.values))
    return _table(fmt, [corner, *report.case_ids], rows)


def _render_agreement(report: AgreementReport, fmt: str) -> str:
    tags = [m.value for m in report.measures]
    m = len(tags)
    upper = [(i, j, report.grid[i][j]) for i in range(m) for j in range(i + 1, m)]
    if fmt == "tsv":
        pairs = (
            [tags[i], tags[j], _fmt6(c.tau), _fmt6(c.ci_low), _fmt6(c.ci_high), str(c.n)]
            for i, j, c in upper
        )
        grid = _table(fmt, ["first", "second", "tau", "ci_low", "ci_high", "n"], pairs)
        avg_header, avg_fmt = "avg_similarity", "{:.6f}"
    else:
        # Row i, column j: the upper triangle of measure pairs, blank below it.
        cells = [[""] * (m - 1) for _ in range(m - 1)]
        for i, j, c in upper:
            cells[i][j - 1] = f"{c.tau:.3f} [{c.ci_low:.3f}, {c.ci_high:.3f}]"
        grid = _table(fmt, ["measure", *tags[1:]], ([tag, *row] for tag, row in zip(tags, cells)))
        avg_header, avg_fmt = "average tau", "{:.3f}"
    averages = ([tag, avg_fmt.format(avg)] for tag, avg in zip(tags, report.avg_similarity))
    return grid + "\n" + _table(fmt, ["measure", avg_header], averages)


def _render_consistency(report: ConsistencyReport, fmt: str) -> str:
    """Measures by descending mean tau, each with the measures it beats."""
    if fmt == "tsv":
        header = ["measure", "mean_tau", "significantly_outperforms"]
        mean_fmt, sep, nobody = "{:.6f}", ",", ""
    else:
        header = ["measure", "mean tau", "significantly outperforms"]
        mean_fmt, sep, nobody = "{:.4f}", ", ", "-"
    rows = []
    means = report.mean_tau
    for i in sorted(range(len(report.measures)), key=lambda i: (-means[i], i)):
        measure, mean = report.measures[i], mean_fmt.format(means[i])
        beats = sep.join(l.value for w, l in report.significant_pairs if w is measure)
        rows.append([measure.value, mean, beats or nobody])
    return _table(fmt, header, rows)


def render_report(report, fmt: str) -> str:
    """Serialize a report to one of FORMATS; JSON keeps full float precision."""
    if fmt not in FORMATS:
        raise OutOfRange(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "json":
        return json.dumps(_json_doc(report), indent=2) + "\n"
    if isinstance(report, ScoreMatrix):
        return _render_scores(report, fmt)
    if isinstance(report, AgreementReport):
        return _render_agreement(report, fmt)
    if isinstance(report, ConsistencyReport):
        return _render_consistency(report, fmt)
    raise OutOfRange(f"cannot serialize {type(report).__name__}")


def write_report(report, fmt: str, path) -> Path:
    path = Path(path)
    path.write_text(render_report(report, fmt), encoding="utf-8")
    return path


def _measure_tag(tag) -> MeasureId:
    try:
        return MeasureId(tag)
    except ValueError:
        raise ParseError(f"unknown measure {tag!r} in report") from None


def read_report(path):
    """Load a JSON report back into its report object (full precision)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"not a JSON report: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"report must be a JSON object, got {type(doc).__name__}")
    try:
        return _report_from_doc(doc)
    except KeyError as exc:
        raise ParseError(f"report lacks key {exc.args[0]!r}") from None
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:  # the reports' own checks raise ValidationError
        raise ParseError(f"malformed report: {exc}") from None


def _float_grid(payload: dict, key: str) -> np.ndarray:
    try:
        return np.array(payload[key], dtype=np.float64)
    except ValueError:
        raise ParseError(f"report key 'payload.{key}' is not a grid of numbers") from None


def _check_stored(doc: dict, section: str, key: str, derived) -> None:
    """A summary key the writer stores must equal the value the report derives."""
    stored = doc[section][key]
    if stored != derived:
        raise ParseError(f"report key '{section}.{key}' is {stored!r}, the data give {derived!r}")


def _report_from_doc(doc: dict):
    kind = doc.get("kind")
    measures = tuple(_measure_tag(tag) for tag in doc.get("measures", []))
    payload = doc["payload"]
    if kind == "score_matrix":
        if len(measures) != 1:
            raise ParseError(f"report key 'measures' must name one measure, got {len(measures)}")
        return ScoreMatrix(
            values=_float_grid(payload, "values"),
            system_ids=tuple(payload["system_ids"]),
            case_ids=tuple(payload["case_ids"]),
            measure=measures[0],
        )
    if kind == "agreement":
        index = {m.value: i for i, m in enumerate(measures)}
        m = len(measures)
        grid: list[list[TauResult | None]] = [[None] * m for _ in range(m)]
        for pair in payload["pairs"]:
            first, second = pair["first"], pair["second"]
            for tag in (first, second):
                if tag not in index:
                    raise ParseError(f"pair measure {tag!r} is not in the report's measure list")
            i, j = index[first], index[second]
            grid[i][j] = TauResult(
                tau=pair["tau"], ci_low=pair["ci_low"], ci_high=pair["ci_high"], n=pair["n"]
            )
        report = AgreementReport(measures=measures, grid=tuple(tuple(row) for row in grid))
        _check_stored(doc, "payload", "avg_similarity", list(report.avg_similarity))
        return report
    if kind == "consistency":
        meta = doc["meta"]
        if not isinstance(meta["mode"], str):
            raise ParseError(f"report key 'meta.mode' must be a string, got {meta['mode']!r}")
        report = ConsistencyReport(
            measures=measures,
            per_trial_tau=_float_grid(payload, "per_trial_tau"),
            significant_pairs=tuple(
                (_measure_tag(w), _measure_tag(l)) for w, l in payload["significant_pairs"]
            ),
            mode=parse_subset_mode(meta["mode"]),
            seed=meta["seed"],
            alpha=meta["alpha"],
            permutations=payload["permutations"],
            tau_variant=payload["tau_variant"],
        )
        _check_stored(doc, "payload", "mean_tau", list(report.mean_tau))
        _check_stored(doc, "meta", "B", report.B)
        return report
    raise ParseError(f"unknown report kind {kind!r}")
