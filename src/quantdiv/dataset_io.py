"""File formats: gold/run tables in TSV, reports in TSV, JSON or markdown.

Table files are UTF-8 TSV with a header row `case_id<TAB><label>...` and one
row per case. An optional directive line `#mode: counts` or `#mode: probs`
before the header says whether rows hold raw vote counts or probabilities
(default probs). One reader serves both modes in one pass over the lines:
each row becomes floats as it is read (a probs row its float() cells, a
counts row its exact vote shares) and is checked there, by the rule
validate() uses, so the first bad row in file order is the one named. The
check gives each row's math.fsum total; the table is divided by its totals
at once and stored as one read-only (cases, K) float64 array. Every error
in a table's content begins with the table's path. An error in a row goes
on with `line N: ` and carries N as .line; a row that fails its check
(from_votes()'s or validate()'s) goes on with `line N: case '<id>': `.
OS-level failures are not wrapped; OSError propagates.

Score tables are rendered as TSV a whole row at a time, with one %-format
per row, and as markdown from that TSV text, so a command that shows one
and saves the other formats each score once.
A JSON report's grid is written a row at a time, JSON_CHUNK values at a
time, in the bytes json.dumps(indent=2) gives the whole document.
"""

from __future__ import annotations

import itertools
import re
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._version import __version__
from .distributions import Dataset, SystemRun, _checked_members, _checked_total, _vote_shares
from .distributions import from_votes
from .errors import DuplicateCaseId, InconsistentClassCount, MissingCase, OutOfRange, ParseError
from .errors import UnknownCase, ValidationError
from .measures import MeasureId
from .meta_eval import AgreementReport, ConsistencyReport, FullSplit, ScoreMatrix, format_subset_mode
from .meta_eval import parse_subset_mode
from .rank_correlation import TauResult

FORMATS = ("tsv", "json", "markdown")


def _lines(text: str) -> list[str]:
    """text split at \\n, \\r\\n and \\r only.

    str.splitlines() also breaks at \\v, \\f, \\x1c-\\x1e, U+0085, U+2028 and
    U+2029, which would split a row and shift every line number after one.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read_text(path) -> str:
    """The file decoded as UTF-8; a bad byte is a ParseError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte is on the last line of the text before it.
        line = len(_lines(data[: exc.start].decode("utf-8")))
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})", line) from None


def _read_table(path) -> tuple[tuple[str, ...], dict[str, int], np.ndarray, tuple | None]:
    """(class labels, each case id's line, values, a counts table's votes or None), in one pass."""
    text = _read_text(path)
    mode, labels = "probs", None
    cases: dict[str, int] = {}
    rows, totals, votes = [], [], []
    for ln, line in enumerate(_lines(text), start=1):
        if not line.strip():
            continue
        if labels is None and line.startswith("#"):
            body = line[1:].strip()
            if not body.lower().startswith("mode:"):
                raise ParseError(f"unknown directive {line!r}", ln)
            mode = body[5:].strip()
            if mode not in ("counts", "probs"):
                raise ParseError(f"unknown mode {mode!r}", ln)
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
            parse, noun = (int, "vote count") if mode == "counts" else (float, "probability")
            continue
        case_id = cells[0].strip()
        if len(cells) != 1 + len(labels):
            raise InconsistentClassCount(
                f"row has {len(cells) - 1} values but header has {len(labels)} classes", ln
            )
        if not case_id:
            raise ParseError("empty case id", ln)
        if case_id in cases:
            raise DuplicateCaseId(
                f"case {case_id!r} repeated (first seen at line {cases[case_id]})", ln
            )
        del cells[0]
        try:
            row = list(map(parse, cells))
        except ValueError:
            for cell in cells:  # name the first cell that does not parse
                try:
                    parse(cell)
                except ValueError:
                    raise ParseError(f"bad {noun} {cell!r}", ln) from None
        try:
            if mode == "counts":
                votes.append(tuple(row))
                row = _vote_shares(row)
            totals.append(_checked_total(row))
        except ValidationError as exc:
            raise type(exc)(f"case {case_id!r}: {exc}", ln) from exc
        rows.append(row)
        cases[case_id] = ln
    if labels is None:
        raise ParseError("missing header row")
    if not rows:
        raise ParseError("no data rows")
    values = np.array(rows) / np.array(totals)[:, None]
    values.setflags(write=False)  # a fresh array, so the record holds it without a copy
    return labels, cases, values, tuple(votes) if mode == "counts" else None


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
        labels, cases, gold, votes = _read_table(path)
    return Dataset(case_ids=cases, class_labels=labels, gold=gold, votes=votes)


def load_run(path, dataset: Dataset, system_id: str | None = None) -> SystemRun:
    """Read one system's table and align its cases with the dataset order."""
    with _errors_name(path):
        labels, cases, values, _ = _read_table(path)
        if len(labels) != len(dataset.class_labels):
            raise InconsistentClassCount(
                f"run has {len(labels)} classes, dataset has {len(dataset.class_labels)}"
            )
        if labels != dataset.class_labels:
            raise InconsistentClassCount(
                f"run class labels {labels!r} differ from dataset's {dataset.class_labels!r}"
            )
        position = {case_id: i for i, case_id in enumerate(cases)}
        missing = [cid for cid in dataset.case_ids if cid not in position]
        if missing:
            raise MissingCase(f"run lacks {len(missing)} dataset case(s), e.g. {missing[0]!r}")
        extra = sorted(set(position) - set(dataset.case_ids))
        if extra:
            raise UnknownCase(f"run has {len(extra)} unknown case(s), e.g. {extra[0]!r}")
    est = values[[position[cid] for cid in dataset.case_ids]]
    est.setflags(write=False)  # the gather is a fresh array too
    return SystemRun(system_id=system_id if system_id is not None else Path(path).stem, est=est)


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
    """Write a gold table; vote counts when available, else full-precision probs.

    Counts reload as their vote shares, so each case's shares must be its gold
    row bit for bit; OutOfRange names the first case whose are not.
    """
    if dataset.votes is not None:
        for case_id, votes, gold in zip(dataset.case_ids, dataset.votes, dataset.gold):
            try:
                same = from_votes(votes).tobytes() == gold.tobytes()
            except ValidationError:  # votes that give no shares, such as all zeros
                same = False
            if not same:
                raise OutOfRange(
                    f"case {case_id!r}: votes {list(votes)} do not give the gold row {gold.tolist()}"
                )
        return _write_table(path, "counts", dataset, (map(str, row) for row in dataset.votes))
    return _write_table(path, "probs", dataset, (map(repr, row) for row in dataset.gold.tolist()))


def write_run(run: SystemRun, dataset: Dataset, path) -> Path:
    """Write one system's table with full-precision probabilities."""
    return _write_table(path, "probs", dataset, (map(repr, row) for row in run.est.tolist()))


def _fmt6(x: float) -> str:
    return f"{x:.6f}"


def _meta(seed=None, B=None, mode=None, alpha=None) -> dict:
    return {"seed": seed, "B": B, "mode": mode, "alpha": alpha, "tool_version": __version__}


def _json_doc(report, grid=np.ndarray.tolist) -> dict:
    """The JSON document of a report; its grid of values, if it has one, is grid(array)."""
    if isinstance(report, ScoreMatrix):
        return {
            "kind": "score_matrix",
            "measures": [report.measure.value],
            "payload": {
                "system_ids": list(report.system_ids),
                "case_ids": list(report.case_ids),
                "values": grid(report.values),
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
                "per_trial_tau": grid(report.per_trial_tau),
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


JSON_CHUNK = 2048  # grid values joined into one string; the writer peaks near 0.3 MB

# The line of the grid's key when {} stands for the grid. No other object in
# a report is empty, and no JSON string holds a raw newline or an unescaped
# quote, so no id can make this line: only the grid's key starts it.
_GRID_KEY_LINE = re.compile(r'^( *)("[^"\\\n]*": )\{\}', re.MULTILINE)


def _json_chunks(report) -> Iterator[str]:
    """The text of json.dumps(_json_doc(report), indent=2) + "\\n", in pieces.

    The grid goes out a row at a time and JSON_CHUNK values at a time, each
    value written as json writes a finite float (float.__repr__); a report's
    checks keep every grid value finite. An unknown report kind raises here,
    before the first piece is asked for. json is imported here and in
    read_report, the two users of JSON: it costs every command about 2 ms to
    import, and only a JSON report needs it.
    """
    import json

    grids = []

    def hold(grid: np.ndarray) -> dict:
        grids.append(grid)
        return {}

    text = json.dumps(_json_doc(report, grid=hold), indent=2) + "\n"
    if not grids:
        return iter((text,))
    head, indent, key, tail = _GRID_KEY_LINE.split(text)
    return itertools.chain((head + indent + key,), _json_list(grids[0], indent), (tail,))


def _json_list(values: np.ndarray, indent: str) -> Iterator[str]:
    """values.tolist() as json.dumps(indent=2) writes it on a line that starts with indent."""
    if not len(values):
        yield "[]"
        return
    sep = ",\n" + indent + "  "
    if values.ndim == 1:
        for start in range(0, len(values), JSON_CHUNK):
            chunk = values[start : start + JSON_CHUNK].tolist()
            yield (sep if start else "[" + sep[1:]) + sep.join(map(float.__repr__, chunk))
    else:
        for i, row in enumerate(values):
            yield sep if i else "[" + sep[1:]
            yield from _json_list(row, indent + "  ")
    yield "\n" + indent + "]"


def _render_scores(report: ScoreMatrix, fmt: str) -> str:
    """A score table as TSV, or as the markdown that _markdown_scores makes of that TSV."""
    # One %-format per row: "%.6f" % x writes the bytes of f"{x:.6f}" for
    # every float, -0.0, nan and inf included.
    line = "\t".join(["%s"] + ["%.6f"] * len(report.case_ids)) + "\n"
    rows = zip(report.system_ids, report.values.tolist())
    tsv = _table("tsv", ["system_id", *report.case_ids], []) + "".join(line % (s, *r) for s, r in rows)
    return tsv if fmt == "tsv" else _markdown_scores(report, tsv)


def _markdown_scores(report: ScoreMatrix, tsv: str) -> str:
    """The markdown table of a score matrix, made from its TSV text without formatting a score again.

    Each row's scores keep their text, with every tab replaced by " | ": no
    score's text holds a tab. The rows are found by the lengths of the
    header and the system ids, so an id that holds a tab or a newline is
    copied as it is.
    """
    start = len(_table("tsv", ["system_id", *report.case_ids], []))
    lines = [_table("markdown", [f"system ({report.measure.value})", *report.case_ids], [])]
    for system_id in report.system_ids:
        scores = start + len(system_id)
        start = tsv.index("\n", scores) + 1
        lines.append("| " + system_id + tsv[scores : start - 1].replace("\t", " | ") + " |\n")
    return "".join(lines)


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
        return "".join(_json_chunks(report))
    if isinstance(report, ScoreMatrix):
        return _render_scores(report, fmt)
    if isinstance(report, AgreementReport):
        return _render_agreement(report, fmt)
    if isinstance(report, ConsistencyReport):
        return _render_consistency(report, fmt)
    raise OutOfRange(f"cannot serialize {type(report).__name__}")


def write_report(report, fmt: str, path, text: str | None = None) -> Path:
    """Write a report to path; a bad format or report kind raises before the file is opened.

    text, if given, is render_report(report, fmt) made already, for a caller
    that also shows it; it is written as it is.
    """
    path = Path(path)
    if text is not None:
        chunks = (text,)
    else:
        chunks = _json_chunks(report) if fmt == "json" else (render_report(report, fmt),)
    with path.open("w", encoding="utf-8") as out:
        out.writelines(chunks)
    return path


def read_report(path):
    """Load a JSON report back into its report object (full precision)."""
    import json

    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"not a JSON report: {exc}") from exc
    except RecursionError:
        raise ParseError("not a JSON report: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"report must be a JSON object, got {type(doc).__name__}")
    report = _report_from_doc(doc)
    written = _json_doc(report)  # the one valid document, but for tool_version: other releases load
    del written["meta"]["tool_version"]
    _field(doc, ("meta",), dict).pop("tool_version", None)
    if found := _first_difference(doc, written):
        path = _cut(found[0][1:])
        raise ParseError(f"report key '{path}' is {found[1]}" if found[1] else f"report lacks key '{path}'")
    return report


QUOTE_LIMIT = 120  # characters of a key path or a value's repr that an error message quotes


def _cut(text: str) -> str:
    """text cut after QUOTE_LIMIT characters; the cut is marked with the full length."""
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


def _first_difference(value, wanted) -> tuple[str, str | None] | None:
    """(key path, "<value>, the data give <wanted>") where parsed JSON first differs, else None.

    Objects are walked key by key, wanted's keys in their order and then
    value's others; a key that value lacks gives the text None, one that
    wanted lacks "<value>, the data give absent". Lists are walked item by
    item, then by length. A bool equals only a bool: 1 == 1.0, but not true.
    The path is built on the way back, so items that agree cost no string.
    """
    if isinstance(value, dict) and isinstance(wanted, dict):
        for key in itertools.chain(wanted, (key for key in value if key not in wanted)):
            if key not in value:
                return f".{key}", None
            if key not in wanted:
                return f".{key}", f"{_cut(repr(value[key]))}, the data give absent"
            if found := _first_difference(value[key], wanted[key]):
                return f".{key}{found[0]}", found[1]
    elif isinstance(value, list) and isinstance(wanted, list):
        for i, found in enumerate(map(_first_difference, value, wanted)):
            if found:
                return f"[{i}]{found[0]}", found[1]
        if len(value) != len(wanted):
            return "", f"a list of length {len(value)}, the data give {len(wanted)}"
    elif isinstance(value, bool) != isinstance(wanted, bool) or value != wanted:
        return "", f"{_cut(repr(value))}, the data give {_cut(repr(wanted))}"
    return None


def _dotted(path: tuple) -> str:
    """A key path as messages name it: ("payload", "pairs", 3, "tau") is payload.pairs[3].tau."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def _field(doc: dict, path: tuple, read=None):
    """The report's value at path (object keys and list indices) through read.

    Each step asks for the JSON object or list that holds its key, and
    read=dict or read=list for that type of value. Any other read is a check
    the record makes; its ValueError becomes a ParseError naming path, with
    the check's message, which may quote the refused value, cut by _cut.
    """
    node = doc
    for depth, key in enumerate((*path, read) if read in (dict, list) else path):
        kind = key if key in (dict, list) else list if isinstance(key, int) else dict
        if not isinstance(node, kind):
            name, got = "object" if kind is dict else "list", type(node).__name__
            raise ParseError(f"report key '{_dotted(path[:depth])}' must be a JSON {name}, got {got}")
        if kind is key:
            return node
        if key >= len(node) if kind is list else key not in node:
            raise ParseError(f"report lacks key '{_dotted(path[: depth + 1])}'")
        node = node[key]
    try:
        return node if read is None else read(node)
    except ValueError as exc:  # a rule's ValidationError, or MeasureId's for an unknown tag
        raise ParseError(f"report key '{_dotted(path)}': {_cut(str(exc))}") from None


def _items(doc: dict, path: tuple, item) -> tuple:
    """item(path + (i,)) for each index i of the JSON list at path."""
    return tuple(item((*path, i)) for i in range(len(_field(doc, path, list))))


def _with_fields(doc: dict, record, path: tuple, keys: Sequence[str]):
    """record with each field in keys set in turn to the value at path + (key,).

    The record checks each value, so a conflict is named by the later key.
    """
    for key in keys:
        record = _field(doc, (*path, key), lambda value: replace(record, **{key: value}))
    return record


def _report_from_doc(doc: dict):
    """The report that the document's primary keys give, read in the writer's key order."""
    kind = _field(doc, ("kind",))
    if kind not in ("score_matrix", "agreement", "consistency"):
        raise ParseError(f"report key 'kind' must name a report kind, got {_cut(repr(kind))}")
    tag = lambda path: _field(doc, path, MeasureId)
    tags = _items(doc, ("measures",), tag)
    measures = _field(doc, ("measures",), lambda _: _checked_members("measure", tags, MeasureId))
    if kind == "score_matrix":
        if len(measures) != 1:
            raise ParseError(f"report key 'measures' must name one measure, got {len(measures)}")
        system_ids, case_ids = (
            _field(doc, ("payload", key), lambda ids: _checked_members(noun, ids, str))
            for key, noun in (("system_ids", "system id"), ("case_ids", "case id"))
        )
        score = lambda grid: ScoreMatrix(grid, system_ids, case_ids, measures[0])
        return _field(doc, ("payload", "values"), score)
    if kind == "agreement":
        blank, keys = TauResult(0.0, -1.0, 1.0, 3), ("tau", "ci_low", "ci_high", "n")
        taus = _items(doc, ("payload", "pairs"), lambda pair: _with_fields(doc, blank, pair, keys))
        return _field(doc, ("payload", "pairs"), lambda _: AgreementReport(measures, taus))
    # A consistency report starts as its grid with no pairs and valid settings.
    blank = lambda grid: ConsistencyReport(measures, grid, (), FullSplit(), 0, 0.5, 1)
    report = _field(doc, ("payload", "per_trial_tau"), blank)
    significant = ("payload", "significant_pairs")
    pairs = _items(doc, significant, lambda pair: _items(doc, pair, tag))
    report = _field(doc, significant, lambda _: replace(report, significant_pairs=pairs))
    report = _with_fields(doc, report, ("payload",), ("permutations", "tau_variant"))
    report = _with_fields(doc, report, ("meta",), ("seed",))
    report = _field(doc, ("meta", "mode"), lambda text: replace(report, mode=parse_subset_mode(text)))
    return _with_fields(doc, report, ("meta",), ("alpha",))
