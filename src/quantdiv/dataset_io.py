"""File formats: gold/run tables in TSV, reports in TSV, JSON or markdown.

Table files are UTF-8 TSV with a header row `case_id<TAB><label>...` and one
row per case. An optional directive line `#mode: counts` or `#mode: probs`
before the header says whether rows hold raw vote counts or probabilities
(default probs). A probs table is parsed and normalised whole: a float per
cell, math.fsum per row, one numpy division. When that path refuses a table,
the row-by-row checks re-read it, so the error names the first bad row. Each
table is stored as one read-only (cases, K) float64 array, and every error in
a table's content begins with the table's path. OS-level failures are not
wrapped; OSError propagates.

Score tables are rendered a whole row at a time, with one %-format per row.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._version import __version__
from .distributions import SUM_TOLERANCE, _fields_equal, _frozen, _normalized, _vote_shares
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


@dataclass(frozen=True, eq=False)
class Dataset:
    """Gold distributions as one (cases, K) array; votes kept when loaded from counts."""

    case_ids: tuple[str, ...]
    class_labels: tuple[str, ...]
    gold: np.ndarray  # stored read-only; any (cases, K) rows are accepted
    votes: tuple[tuple[int, ...], ...] | None = None  # Python ints: counts may exceed int64

    def __post_init__(self):
        object.__setattr__(self, "gold", _frozen(self.gold))

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class SystemRun:
    """One system's estimated distributions as one (cases, K) array, in dataset order."""

    system_id: str
    est: np.ndarray  # stored read-only; any (cases, K) rows are accepted

    def __post_init__(self):
        object.__setattr__(self, "est", _frozen(self.est))

    __eq__ = _fields_equal


def _read_text(path) -> str:
    """The file decoded as UTF-8; a bad byte is a ParseError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines are counted as _parse_table counts them, with splitlines();
        # the "x" stands for the bad byte, so a line break just before it counts.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})", line) from None


def _parse_table(path) -> tuple[str, tuple[str, ...], list[tuple[int, str, list[str]]]]:
    text = _read_text(path)
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


def _row_values(
    mode: str, case_id: str, ln: int, cells: list[str]
) -> tuple[list[float], tuple[int, ...] | None]:
    if mode == "counts":
        counts = []
        for cell in cells:
            try:
                counts.append(int(cell))
            except ValueError:
                raise ParseError(f"bad vote count {cell!r}", ln) from None
        try:
            return _vote_shares(counts), tuple(counts)
        except ValidationError as exc:
            raise type(exc)(f"case {case_id!r}: {exc}") from exc
    values = []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError:
            raise ParseError(f"bad probability {cell!r}", ln) from None
    try:
        return _normalized(values), None
    except ValidationError as exc:
        raise type(exc)(f"case {case_id!r}: {exc}") from exc


def _probs_array(rows) -> np.ndarray | None:
    """A probs table's rows normalised whole, or None where the row loop would reject one.

    The same float() per cell, math.fsum per row and IEEE division as
    _normalized, so the values are the row loop's bit for bit.
    """
    try:
        parsed = [list(map(float, cells)) for _, _, cells in rows]
        totals = [math.fsum(row) for row in parsed]
    except (ValueError, OverflowError):
        return None
    a, totals = np.array(parsed), np.array(totals)
    if not ((a >= 0).all() and (np.abs(totals - 1.0) <= SUM_TOLERANCE).all()):  # NaN fails >= 0
        return None
    return a / totals[:, None]


def _table_values(mode: str, rows) -> tuple[np.ndarray, list]:
    """(values in file order, each row's vote counts or None); errors name the first bad row."""
    fast = _probs_array(rows) if mode == "probs" else None
    if fast is not None:
        return fast, [None] * len(rows)
    values, votes = zip(*(_row_values(mode, case_id, ln, cells) for ln, case_id, cells in rows))
    return np.array(values), list(votes)


@contextmanager
def _errors_name(path):
    """Prefix the message of an error in a table's content with the table's path."""
    try:
        yield
    except ValidationError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_gold(path) -> Dataset:
    """Read the gold table; counts rows are converted to distributions."""
    with _errors_name(path):
        mode, labels, rows = _parse_table(path)
        gold, votes = _table_values(mode, rows)
    return Dataset(
        case_ids=tuple(cid for _, cid, _ in rows),
        class_labels=labels,
        gold=gold,
        votes=tuple(votes) if mode == "counts" else None,  # type: ignore[arg-type]
    )


def load_run(path, dataset: Dataset, system_id: str | None = None) -> SystemRun:
    """Read one system's table and align its cases with the dataset order."""
    with _errors_name(path):
        mode, labels, rows = _parse_table(path)
        if len(labels) != len(dataset.class_labels):
            raise InconsistentClassCount(
                f"run has {len(labels)} classes, dataset has {len(dataset.class_labels)}"
            )
        if labels != dataset.class_labels:
            raise InconsistentClassCount(
                f"run class labels {labels!r} differ from dataset's {dataset.class_labels!r}"
            )
        values, _ = _table_values(mode, rows)
        position = {case_id: i for i, (_, case_id, _) in enumerate(rows)}
        missing = [cid for cid in dataset.case_ids if cid not in position]
        if missing:
            raise MissingCase(f"run lacks {len(missing)} dataset case(s), e.g. {missing[0]!r}")
        extra = sorted(set(position) - set(dataset.case_ids))
        if extra:
            raise UnknownCase(f"run has {len(extra)} unknown case(s), e.g. {extra[0]!r}")
    return SystemRun(
        system_id=system_id if system_id is not None else Path(path).stem,
        est=values[[position[cid] for cid in dataset.case_ids]],
    )


def _layout(fmt: str) -> tuple[str, str, str]:
    """(line start, cell separator, line end) of a TSV or a markdown row."""
    return ("", "\t", "\n") if fmt == "tsv" else ("| ", " | ", " |\n")


def _table(fmt: str, header: Sequence[str], rows) -> str:
    """Rows of cells as TSV lines, or as a markdown table with a --- row."""
    start, sep, end = _layout(fmt)
    lines = (header, *rows) if fmt == "tsv" else (header, ["---"] * len(header), *rows)
    return "".join(start + sep.join(cells) + end for cells in lines)


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
    return _write_table(path, "probs", dataset, (map(repr, row) for row in dataset.gold.tolist()))


def write_run(run: SystemRun, dataset: Dataset, path) -> Path:
    """Write one system's table with full-precision probabilities."""
    return _write_table(path, "probs", dataset, (map(repr, row) for row in run.est.tolist()))


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
        tags = [m.value for m in report.measures]
        pairs = [
            {"first": tags[i], "second": tags[j], **asdict(cell)} for i, j, cell in report.pairs()
        ]
        return {
            "kind": "agreement",
            "measures": tags,
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
    # One %-format per row: "%.6f" % x writes the bytes of f"{x:.6f}" for
    # every float, -0.0, nan and inf included.
    start, sep, end = _layout(fmt)
    line = start + sep.join(["%s"] + ["%.6f"] * len(report.case_ids)) + end
    rows = zip(report.system_ids, report.values.tolist())
    return _table(fmt, [corner, *report.case_ids], []) + "".join(line % (s, *r) for s, r in rows)


def _render_agreement(report: AgreementReport, fmt: str) -> str:
    tags = [m.value for m in report.measures]
    m = len(tags)
    if fmt == "tsv":
        pairs = (
            [tags[i], tags[j], _fmt6(c.tau), _fmt6(c.ci_low), _fmt6(c.ci_high), str(c.n)]
            for i, j, c in report.pairs()
        )
        grid = _table(fmt, ["first", "second", "tau", "ci_low", "ci_high", "n"], pairs)
        avg_header, avg_fmt = "avg_similarity", "{:.6f}"
    else:
        # Row i, column j: the upper triangle of measure pairs, blank below it.
        cells = [[""] * (m - 1) for _ in range(m - 1)]
        for i, j, c in report.pairs():
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
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"not a JSON report: {exc}") from exc
    except RecursionError:
        raise ParseError("not a JSON report: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"report must be a JSON object, got {type(doc).__name__}")
    try:
        report = _report_from_doc(doc)
    except KeyError as exc:
        raise ParseError(f"report lacks key {exc.args[0]!r}") from None
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:  # the reports' own checks raise ValidationError
        raise ParseError(f"malformed report: {exc}") from None
    _check_written_form(doc, _json_doc(report))
    return report


def _float_grid(payload: dict, key: str) -> np.ndarray:
    try:
        return np.array(payload[key], dtype=np.float64)
    except (ValueError, OverflowError):
        raise ParseError(f"report key 'payload.{key}' is not a grid of numbers") from None


class _Absent:
    """Stands for a key that one document lacks; None is a JSON value."""

    def __repr__(self) -> str:
        return "absent"


_ABSENT = _Absent()


def _check_written_form(doc: dict, written: dict) -> None:
    """A document must be the one the writer writes for its report, tool_version apart.

    Objects in both documents are compared key by key, so the first differing
    'section.key' is named; values compare as parsed JSON.
    """
    for key in {**written, **doc}:
        stored, derived = doc.get(key, _ABSENT), written.get(key, _ABSENT)
        if isinstance(stored, dict) and isinstance(derived, dict):
            entries = [
                (f"{key}.{sub}", stored.get(sub, _ABSENT), derived.get(sub, _ABSENT))
                for sub in {**derived, **stored}
            ]
        else:
            entries = [(key, stored, derived)]
        for name, value, wanted in entries:
            if name != "meta.tool_version" and value != wanted:
                raise ParseError(f"report key '{_cut(name)}' is {_difference(value, wanted)}")


QUOTE_LIMIT = 120  # characters of a key name or a value's repr that an error message quotes


def _cut(text: str) -> str:
    """text cut after QUOTE_LIMIT characters; the cut is marked with the full length."""
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


def _quote(value) -> str:
    """repr(value), cut as _cut cuts it."""
    return _cut(repr(value))


def _difference(value, wanted) -> str:
    """'<value>, the data give <wanted>'; two lists are quoted at their first difference."""
    if isinstance(value, list) and isinstance(wanted, list):
        for i, (item, wanted_item) in enumerate(zip(value, wanted)):
            if item != wanted_item:
                item, wanted_item = _quote(item), _quote(wanted_item)
                return f"a list whose item {i} is {item}, the data give {wanted_item}"
        return f"a list of length {len(value)}, the data give {len(wanted)}"
    return f"{_quote(value)}, the data give {_quote(wanted)}"


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
        taus = (TauResult(p["tau"], p["ci_low"], p["ci_high"], p["n"]) for p in payload["pairs"])
        return AgreementReport(measures=measures, taus=tuple(taus))
    if kind == "consistency":
        meta = doc["meta"]
        if not isinstance(meta["mode"], str):
            raise ParseError(f"report key 'meta.mode' must be a string, got {meta['mode']!r}")
        return ConsistencyReport(
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
    raise ParseError(f"unknown report kind {kind!r}")
