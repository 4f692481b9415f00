"""Invariants of the program are real checks, not assert statements.

`python -O` strips every assert, so a check written as one would silently stop
running.  This parses each Python file under src/ and scripts/ and refuses any
assert statement there; tests may assert freely.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "scripts") for p in (ROOT / d).rglob("*.py"))


def test_the_sources_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in SOURCES}
    assert {"src/dualcount/series.py", "src/dualcount/refined.py"} <= names


def test_no_assert_statements_in_src_or_scripts():
    found = [f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
