import ast
import dataclasses
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import quantdiv
from quantdiv.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _build_requires() -> list[str]:
    # tomllib is 3.11+ and the package supports 3.10, so read the one line
    # needed: `requires = [...]` in the [build-system] table.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[build-system\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert table is not None
    line = re.search(r"^requires\s*=\s*(\[.*?\])", table.group(1), re.M | re.S)
    assert line is not None
    return ast.literal_eval(line.group(1))


def test_build_needs_no_compiled_extension():
    requires = _build_requires()
    assert requires and all(isinstance(req, str) for req in requires)
    assert not any("cython" in req.lower() for req in requires)
    assert not (ROOT / "setup.py").exists()
    assert not list(ROOT.rglob("*.pyx"))


def _spans_targets() -> set[tuple[str, str]]:
    """(module, attribute) of each entry of perfbench/spans.py's TARGETS, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            return {(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts}
    raise AssertionError("perfbench/spans.py assigns no TARGETS")


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports and never uses; a quoted annotation and __all__ count as uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.walk(ast.parse(part.value, mode="eval"))
                    used.update(name.id for name in quoted if isinstance(name, ast.Name))
    return imported - used


def test_no_module_imports_a_name_it_does_not_use():
    # The library, the tests and the scripts. cli imports score_matrix only
    # because the benchmark's tracer wraps cli.score_matrix; once TARGETS
    # drops it, the import must go too.
    folders = [ROOT / "src" / "quantdiv", ROOT / "tests", ROOT / "scripts"]
    paths = sorted(path for folder in folders for path in folder.glob("*.py"))
    unused = {
        f"{path.relative_to(ROOT).as_posix()}: {name}"
        for path in paths
        for name in _unused_imports(path)
    }
    if ("cli", "score_matrix") in _spans_targets():
        unused.discard("src/quantdiv/cli.py: score_matrix")
    assert unused == set()


def test_value_rules_live_only_in_distributions():
    # Outside distributions.py a module calls _checked_integer, _checked_number,
    # _checked_array, _checked_items or _checked_members instead of these tools of a value rule,
    # and defines no _check* function of its own. Only dataset_io._first_difference
    # may test isinstance(..., bool): it is JSON equality, in which true must not equal 1.
    tools = {"operator.index", "numbers.Real", "np.isfinite", "numpy.isfinite", "def _check*"}
    found = []
    for path in sorted((ROOT / "src" / "quantdiv").glob("*.py")):
        if path.name == "distributions.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and path.name == "dataset_io.py"
            and function.name == "_first_difference"
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.FunctionDef):
                used = {"def _check*"} if node.name.startswith("_check") else set()
            elif isinstance(node, ast.Attribute):
                used = {ast.unparse(node)}
            elif isinstance(node, ast.ImportFrom):
                used = {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2:
                names = {part.id for part in ast.walk(node.args[1]) if isinstance(part, ast.Name)}
                used = {"isinstance(..., bool)"} if "bool" in names else set()
                tools.add("isinstance(..., bool)")
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {tool}" for tool in used & tools]
    assert found == []


def test_readme_library_example_gives_its_commented_results():
    # The "Library" section's Python block, run as written; each line ending
    # in a `# <number>` comment must give that number at the digits shown.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)
    assert code is not None
    namespace: dict = {}
    exec(code.group(1), namespace)
    checked = 0
    for line in code.group(1).splitlines():
        result = re.fullmatch(r"(.+?)\s+# (-?\d+\.(\d+))\b.*", line)
        if result is None:
            continue
        value = eval(result.group(1), namespace)
        assert round(value, len(result.group(3))) == float(result.group(2)), line
        checked += 1
    assert checked == 2


def test_readme_test_map_names_every_test_file():
    # The "Tests" section's table has a row for each test file, and each row
    # names a file that exists.
    section = README.read_text(encoding="utf-8").split("\n## Tests\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"^\| `([^`]+)` \|", section, re.M))
    test_files = {path.relative_to(ROOT).as_posix() for path in ROOT.glob("tests/test_*.py")}
    assert test_files | {"perfbench/test_perfbench.py"} <= named
    assert {name for name in named if not (ROOT / name).is_file()} == set()


# Heads of the dotted names README cites that are not quantdiv's: numpy, the
# standard library, a variable and report key paths. A file name is not one either.
_FOREIGN_HEADS = {"np", "json", "itertools", "operator", "Generator", "mode", "meta", "payload"}
_FILE_NAME = re.compile(r".+\.(py|tsv|toml|sha256)")


def _resolves(name: str) -> bool:
    """True if a dotted name README cites is a quantdiv module's attribute or
    a public class's (a dataclass field counts), or is not quantdiv's."""
    head, *_ = parts = name.removeprefix("quantdiv.").split(".")
    if (ROOT / "src" / "quantdiv" / f"{head}.py").is_file():
        importlib.import_module(f"quantdiv.{head}")  # now an attribute of the package
    elif not (name.startswith("quantdiv.") or head in quantdiv.__all__):
        return head in _FOREIGN_HEADS or _FILE_NAME.fullmatch(name) is not None
    *path, last = parts
    value = quantdiv
    for attr in path:
        if not hasattr(value, attr):
            return False
        value = getattr(value, attr)
    fields = {field.name for field in dataclasses.fields(value)} if dataclasses.is_dataclass(value) else ()
    return hasattr(value, last) or last in fields


def test_readme_cites_only_names_that_exist():
    # Every backticked dotted name outside the code blocks, such as
    # `kernels.HSD_BLOCK` or `Dataset.votes`; one inside a path, such as
    # quantdiv/distributions.py, is not a name.
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    names = {
        name
        for span in re.findall(r"`([^`]+)`", text)
        for name in re.findall(r"(?<![\w/.])[A-Za-z_]\w*(?:\.\w+)+", span)
    }
    assert {"kernels.HSD_BLOCK", "meta_eval.check_consistency_args"} <= names
    assert sorted(name for name in names if not _resolves(name)) == []


def test_readme_shell_commands_parse():
    # Each `quantdiv <command> ...` line of README's sh blocks, with its
    # backslash continuations, is accepted by the CLI's parser.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("quantdiv ")]
    parser = build_parser()
    refused = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused.append(shlex.join(argv))
    assert commands and refused == []


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random adds about 6 MB of RSS to every command; only the
    # split-half trials need it, and they import it on first use. Each other
    # module here is imported by its one user when it runs: concurrent.futures
    # by a pool of more than one worker, statistics by tau_with_ci and json by
    # the JSON report writer and reader.
    deferred = ["numpy.random", "concurrent.futures", "statistics", "json"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = f"import sys, quantdiv.cli; print([m for m in {deferred!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_package_version_is_read_from_the_module(tmp_path):
    # pyproject.toml declares the version dynamic; setuptools reads it from
    # quantdiv._version, the value --version prints and every JSON report embeds.
    before = sorted(ROOT.rglob("*.egg-info"))
    out = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()", "egg_info"]
        + ["--egg-base", str(tmp_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    info = (tmp_path / "quantdiv.egg-info" / "PKG-INFO").read_text(encoding="utf-8")
    assert re.search(r"^Version: (.+)$", info, re.M).group(1) == quantdiv.__version__
    assert sorted(ROOT.rglob("*.egg-info")) == before
