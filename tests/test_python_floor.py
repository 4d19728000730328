"""Every Python file of the project parses under the grammar of the oldest
Python that `requires-python` in pyproject.toml admits. This checks the
grammar only: a library call or standard module newer than the floor is
not caught."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "perfbench")


def python_floor() -> tuple[int, int]:
    """(major, minor) of the `requires-python = ">=X.Y"` line; tomllib is
    newer than the floor, so the line is read by pattern."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text,
                      re.MULTILINE)
    assert found, "pyproject.toml states no requires-python floor"
    return int(found[1]), int(found[2])


def test_sources_parse_under_the_floor_grammar():
    floor = python_floor()
    paths = [path for folder in FOLDERS
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert {path.relative_to(ROOT).parts[0] for path in paths} == set(FOLDERS)
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=floor)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == [], f"not Python {floor[0]}.{floor[1]} grammar"
