"""Seeded structured mutations of the JSON reports the CLI writes.

Each mutation edits one random node of a report document: it deletes a key or
an element, gives a value another JSON type, truncates, extends, duplicates
within or reorders a list, or adds a key. read_report must then raise
ParseError, or load a report that renders back to the mutated document, apart
from meta.tool_version. The two documents compare as parsed JSON, except that
a bool equals only a bool: true is not the number 1.

Every ParseError names a key path, as `report key '<path>'` or
`report lacks key '<path>'`, with list indices: payload.pairs[3].tau. The
path of `report key` must resolve in the mutated document; the path of
`lacks key` must not, but its parent must. The path need not be the mutated
node's: a conflict between fields is named at the later key in the writer's
key order, and a document that differs from the one its data give at the
first difference, so reordered measures are named at payload.pairs[0].first.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from quantdiv.cli import main
from quantdiv.dataset_io import read_report, render_report
from quantdiv.errors import ParseError

DATA = Path(__file__).resolve().parent.parent / "data" / "synth"
RUNS = sorted(str(path) for path in (DATA / "runs").glob("*.tsv"))
MUTATIONS = 2000
# The score report takes 4 of the 12 runs: a 4 x 300 grid has every node kind
# of the full one and is three times cheaper to write and read 2000 times.
COMMANDS = {
    "score": ["score", "--measures", "NMD", "--runs", *RUNS[:4]],
    "agree": ["agree", "--runs", *RUNS],
    "consistency": ["consistency", "--B", "50", "--permutations", "200", "--runs", *RUNS],
}
# Replacement values, one list per JSON type: ints and floats at the edges of
# the reports' ranges (10**400 has no float), and tags, modes and kinds that
# the reader knows.
VALUES = (
    [0, 1, -1, 3, 50, 10**400],
    [0.0, 0.5, -0.5, 1.0, 2.5, 1e300],
    [True, False],
    ["", "NMD", "NVD", "half", "k=2", "b", "plain", "agreement", "consistency"],
    [None],
    [[], [0.5], ["NMD", "NVD"], [[0.5, 0.5]]],
)
NEW_KEYS = ("note", "seed", "B", "pairs", "values", "tau", "tool_version")
# The mutated documents of each command that load, out of MUTATIONS.
LOADED = {"score": 307, "agree": 170, "consistency": 154}
NAMED_KEY = re.compile(r"^report (key|lacks key) '([^']*)'")


def _value(rng):
    choices = VALUES[rng.integers(len(VALUES))]
    return choices[rng.integers(len(choices))]


def _copy(value):
    return json.loads(json.dumps(value))


def _mutate(rng, doc: dict) -> str:
    """Apply one random edit to doc in place; return where and what it was.

    The edit lands on a dict or list reached by walking down from the top,
    stopping at each level with chance 1/3, so every level gets edits.
    """
    node, path = doc, []
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        inner = [key for key in keys if isinstance(node[key], (dict, list))]
        if not inner or rng.random() < 1 / 3:
            break
        path.append(inner[rng.integers(len(inner))])
        node = node[path[-1]]
    ops = ["add"] if isinstance(node, dict) else ["extend", "reorder"]
    if keys:
        ops += ["delete", "retype"] + (["truncate", "duplicate"] if isinstance(node, list) else [])
    op = ops[rng.integers(len(ops))]
    key = keys[rng.integers(len(keys))] if keys else None
    if op == "add":
        key = NEW_KEYS[rng.integers(len(NEW_KEYS))]
        node[key] = _value(rng)
    elif op == "delete":
        del node[key]
    elif op == "retype":
        node[key] = _value(rng)
    elif op == "truncate":
        del node[rng.integers(len(node)) :]
    elif op == "extend":
        node.append(_copy(node[key]) if keys and rng.random() < 0.5 else _value(rng))
    elif op == "duplicate":  # an id or a pair twice, in place of another or added
        source = _copy(node[rng.integers(len(node))])
        if rng.random() < 0.5:
            node[key] = source
        else:
            node.insert(key, source)
    else:
        node[:] = node[::-1] if rng.random() < 0.5 else [node[i] for i in rng.permutation(len(node))]
    return f"{op} {key!r} at {path}"


def _resolves(doc, path: str) -> bool:
    """Whether the key path (payload.pairs[3].tau) leads to a value in doc."""
    node = doc
    for key, index in re.findall(r"\.?([^.\[\]]+)|\[(\d+)\]", path):
        if key and isinstance(node, dict) and key in node:
            node = node[key]
        elif index and isinstance(node, list) and int(index) < len(node):
            node = node[int(index)]
        else:
            return False
    return True


def _names_its_key(message: str, doc: dict) -> bool:
    """Whether message names a key path as the module docstring says."""
    named = NAMED_KEY.match(message)
    if named is None:
        return False
    how, path = named.groups()
    if how == "key":
        return _resolves(doc, path)
    parent = path[: max(path.rfind("."), path.rfind("["), 0)]
    return not _resolves(doc, path) and _resolves(doc, parent)


def _without_version(doc: dict) -> dict:
    doc["meta"].pop("tool_version", None)
    return doc


def _bools_tagged(value):
    """value with each bool wrapped in a tuple, so == tells true from 1 and 1.0."""
    if isinstance(value, dict):
        return {key: _bools_tagged(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_bools_tagged(item) for item in value]
    return ("bool", value) if isinstance(value, bool) else value


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_reports_raise_parse_error_or_read_back_unchanged(command, tmp_path, monkeypatch):
    monkeypatch.delenv("QUANTDIV_SEED", raising=False)
    written = tmp_path / "report.json"
    argv = [*COMMANDS[command], "--gold", str(DATA / "gold.tsv"), "--output", str(written)]
    assert main(argv) == 0
    text = written.read_text(encoding="utf-8")
    assert render_report(read_report(written), "json") == text

    rng = np.random.default_rng(sorted(COMMANDS).index(command))
    path = tmp_path / "mutated.json"
    loaded = 0
    for _ in range(MUTATIONS):
        doc = json.loads(text)
        edit = _mutate(rng, doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            report = read_report(path)
        except ParseError as exc:
            assert _names_its_key(str(exc), doc), f"{edit}: {exc}"
            continue
        except Exception as exc:  # anything but ParseError is a reader fault
            pytest.fail(f"{edit}: {type(exc).__name__}: {exc}")
        loaded += 1
        back = json.loads(render_report(report, "json"))
        assert _bools_tagged(_without_version(back)) == _bools_tagged(_without_version(doc)), edit
    # Some edits leave the document as written (a one-element list reordered,
    # tool_version changed); the rest must be rejected.
    assert loaded == LOADED[command]
