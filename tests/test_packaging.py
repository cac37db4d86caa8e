import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import quantdiv

ROOT = Path(__file__).resolve().parent.parent


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


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random adds about 6 MB of RSS to every command; only the
    # split-half trials need it, and they import it on first use.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, quantdiv.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


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
