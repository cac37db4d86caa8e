import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_build_needs_no_compiled_extension():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert not any("cython" in req.lower() for req in config["build-system"]["requires"])
    assert not (ROOT / "setup.py").exists()
    assert not list(ROOT.rglob("*.pyx"))
