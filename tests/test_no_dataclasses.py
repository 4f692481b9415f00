"""Records are record.Record classes, never dataclasses.

Importing dataclasses costs every command that loads it a few milliseconds
(it brings in inspect and its dependencies), and `record.Record` gives the
same immutable value records without it.  This parses each Python file under
src/ and refuses any import of dataclasses there; tests may use it freely.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, [node.module]


def test_the_sources_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in SOURCES}
    assert {"src/dualcount/record.py", "src/dualcount/affine.py"} <= names


def test_no_dataclasses_import_in_src():
    found = [f"{path.relative_to(ROOT).as_posix()}:{lineno}"
             for path in SOURCES
             for lineno, names in _imported_modules(
                 ast.parse(path.read_text(), filename=str(path)))
             if any(name.split(".")[0] == "dataclasses" for name in names)]
    assert found == []
