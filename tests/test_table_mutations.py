"""Seeded mutations of the bundled gold table (counts) and of one run table (probs).

Each case makes one or two edits, each to either table: an edit deletes,
duplicates or swaps a line or a column, corrupts a cell, changes the header,
the #mode line or the line endings, inserts a form feed, U+0085 or U+2028,
or puts a byte that is not UTF-8 in place of a valid one. `score` must then
exit 2 with an error that begins with one table's path and names the line
at fault, or exit 0 having loaded the values that plain Python gives for the
mutated files. Only the errors about the run table as a whole name no line:
a missing or unknown case, or class labels that differ from the gold's.
Exit 1 is an internal error. Lines are counted as tables count them: only
\\n, \\r\\n and \\r end one.
"""

import re
from pathlib import Path

import numpy as np

from _helpers import reference_rows
from quantdiv.cli import main
from quantdiv.dataset_io import load_gold, load_run
from quantdiv.errors import InconsistentClassCount, MissingCase, UnknownCase, ValidationError

DATA = Path(__file__).resolve().parent.parent / "data" / "synth"
TABLES = {"gold": DATA / "gold.tsv", "run": DATA / "runs" / "s01.tsv"}
MUTATIONS = 240
# Cells that parse in one mode only, in neither, or to an edge value;
# U+0663 is an Arabic-Indic 3, which int() and float() both read.
CELLS = ("0.x", "", "-1", "-0.0", "nan", "inf", "1e400", "7", " 3 ", "0.5", "9" * 30, "\u0663")
MODE_LINES = ("#mode: probs", "#mode: counts", "#mode: votes", "#MODE:counts", "#note", "")
CHARACTERS = ("\f", "\x85", "\u2028")
BAD_BYTES = (0x80, 0xC3, 0xFE, 0xFF)
# The run-table checks of class labels against the gold's, which name no line.
CLASS_LABEL_CHECKS = re.compile(r": run (has \d+ classes|class labels .* differ from)")
OPS = ("delete", "duplicate", "swap", "column", "cell", "header", "mode", "endings", "character", "byte")


def _lines(data: bytes) -> list[bytes]:
    """A table's lines, each with its line ending."""
    return re.findall(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z", data)


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _mutate(rng, data: bytes) -> tuple[str, bytes]:
    """One random edit of a table's bytes, maybe edited before: (what it was, the new bytes)."""
    lines = data.decode("utf-8", errors="surrogateescape").split("\n")
    i, j = int(rng.integers(len(lines))), int(rng.integers(len(lines)))
    header = next((n for n, line in enumerate(lines) if line.startswith("case_id")), 0)
    op = _pick(rng, OPS)
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[j])
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif op in ("column", "cell", "header"):
        rows = [line.split("\t") for line in lines]
        width = len(rows[header])
        c, d = int(rng.integers(width)), int(rng.integers(width))
        if op == "column":
            how = _pick(rng, ("delete", "duplicate", "swap"))
            op = f"{how} column {c}"
            for row in rows[header:]:
                if how == "delete" and c < len(row):
                    del row[c]
                elif how == "duplicate" and c < len(row):
                    row.insert(c, row[c])
                elif max(c, d) < len(row):
                    row[c], row[d] = row[d], row[c]
        elif op == "cell":
            c = int(rng.integers(len(rows[i])))
            rows[i][c] = _pick(rng, CELLS)
            op = f"cell {c} of line {i + 1} = {rows[i][c]!r}"
        else:
            rows[header][c] = _pick(rng, ("id", "case_id", "c9", rows[header][d], ""))
            op = f"header cell {c} = {rows[header][c]!r}"
        lines = ["\t".join(row) for row in rows]
    elif op == "mode":
        line = _pick(rng, MODE_LINES)
        if header:
            lines[0] = line
        else:
            lines.insert(0, line)
        op = f"mode line {line!r}"
    elif op == "endings":
        ending = _pick(rng, ("\r\n", "\r", ""))
        lines = [line + (ending if rng.random() < 0.5 else "") for line in lines[:-1]] + lines[-1:]
        op = f"endings {ending!r}"
    text = "\n".join(lines)
    if op == "character":
        at, char = int(rng.integers(len(text) + 1)), _pick(rng, CHARACTERS)
        text = text[:at] + char + text[at:]
        op = f"{char!r} at {at}"
    data = text.encode("utf-8", errors="surrogateescape")
    if op == "byte":
        at, byte = int(rng.integers(len(data))), _pick(rng, BAD_BYTES)
        data = data[:at] + bytes([byte]) + data[at + 1 :]
        op = f"byte 0x{byte:02x} at {at}"
    return op, data


def _reference(data: bytes) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """(labels, case ids, values) of a table that loads, read with plain Python."""
    mode, rows = "probs", []
    for line in (line.decode("utf-8").rstrip("\r\n") for line in _lines(data)):
        if not line.strip():
            continue
        if not rows and line.startswith("#"):
            mode = line[1:].strip()[5:].strip()
            continue
        rows.append(line.split("\t"))
    ids = tuple(row[0].strip() for row in rows[1:])
    return tuple(rows[0][1:]), ids, reference_rows(mode, [row[1:] for row in rows[1:]])


def _score(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().err


def _raised(paths) -> ValidationError:
    """The error that loading the tables raises, gold first, as `score` loads them."""
    try:
        load_run(paths["run"], load_gold(paths["gold"]))
    except ValidationError as exc:
        return exc
    raise AssertionError("the tables load")


def _whole_table(exc: ValidationError) -> bool:
    """Errors about the run table as a whole, which name no line."""
    return isinstance(exc, (MissingCase, UnknownCase)) or (
        type(exc) is InconsistentClassCount and CLASS_LABEL_CHECKS.search(str(exc)) is not None
    )


def _check_error(argv, stderr, paths, files, capsys, edits) -> None:
    """The error begins with one table's path and, unless it is about the run
    table as a whole, names the line at fault first: that line holds text,
    and with the table cut just before it the error names no line from there on."""
    path = next((path for path in files if stderr.startswith(f"error: {path}:")), None)
    assert path is not None, (edits, stderr)
    exc = _raised(paths)
    assert stderr == f"error: {exc}\n", (edits, stderr, str(exc))
    if _whole_table(exc):
        assert exc.line is None, (edits, stderr)
        return
    named = re.search(r"\bline (\d+)", stderr)
    assert named is not None and exc.line == int(named.group(1)), (edits, stderr, exc.line)
    n = exc.line
    lines = _lines(files[path])
    assert n <= len(lines) and lines[n - 1].decode(errors="replace").strip(), (edits, stderr)
    Path(path).write_bytes(b"".join(lines[: n - 1]))
    _, cut = _score(argv, capsys)
    if cut.startswith(f"error: {path}:"):
        assert all(int(m) < n for m in re.findall(r"\bline (\d+)", cut)), (edits, stderr, cut)


def test_mutated_tables_exit_2_at_the_right_line_or_load_exactly(tmp_path, capsys):
    rng = np.random.default_rng(20)
    paths = {name: str(tmp_path / f"{name}.tsv") for name in TABLES}
    argv = ["score", "--gold", paths["gold"], "--runs", paths["run"], "--measures", "NMD"]
    outcomes = {0: 0, 2: 0}
    for _ in range(MUTATIONS):
        files = {paths[name]: source.read_bytes() for name, source in TABLES.items()}
        edits = []
        for _ in range(1 + (rng.random() < 0.5)):
            path = _pick(rng, list(files))
            edit, files[path] = _mutate(rng, files[path])
            edits.append(f"{Path(path).stem}: {edit}")
        for path, data in files.items():
            Path(path).write_bytes(data)
        code, stderr = _score(argv, capsys)
        assert code in outcomes, (edits, code, stderr)
        outcomes[code] += 1
        if code == 2:
            _check_error(argv, stderr, paths, files, capsys, edits)
            continue
        labels, ids, gold = _reference(files[paths["gold"]])
        ds = load_gold(paths["gold"])
        assert (ds.class_labels, ds.case_ids) == (labels, ids), edits
        assert ds.gold.tobytes() == gold.tobytes(), edits
        run_labels, run_ids, est = _reference(files[paths["run"]])
        position = {case_id: i for i, case_id in enumerate(run_ids)}
        order = [position[case_id] for case_id in ids]
        assert run_labels == labels, edits
        assert load_run(paths["run"], ds).est.tobytes() == est[order].tobytes(), edits
    # Most edits break a table; some leave it loadable (a swapped column,
    # CRLF endings, a U+0085 in a cell).
    assert outcomes[0] > MUTATIONS // 20 and outcomes[2] > MUTATIONS // 2, outcomes
