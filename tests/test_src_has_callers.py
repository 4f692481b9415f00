"""Every function and class in the program has a caller in the program.

Each quantity has one route in the package; a second route kept only to check
the first is a test oracle under tests/, which no module of the package may
import.  This refuses a top-level function or class of src/dualcount or
scripts/ that no code outside its own body loads, by name or as an attribute;
imports and `__all__` strings do not count.  `cli.main` and the functions that
the benchmark's tracer wraps by name (`perfbench/child.py`'s TRACED) count as
called.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "dualcount").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")])


def _traced():
    # read the way test_perfbench_tracer_wraps_the_lazy_layers reads it
    spec = importlib.util.spec_from_file_location(
        "child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return {(module, name) for module, name, _ in child.TRACED}


def _loaded_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def uncalled(sources, exempt) -> list[str]:
    """module.name of every top-level def or class in sources that no code
    outside its own body loads, less the exempt (module, name) pairs."""
    defs, loads = [], []
    for path in sources:
        module = path.stem
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = set(_loaded_names(stmt))
            loads.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((module, stmt))
    return [f"{module}.{stmt.name}" for module, stmt in defs
            if (module, stmt.name) not in exempt
            and not any(stmt.name in names
                        for other, names in loads if other is not stmt)]


def test_the_sources_and_the_traced_names_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in SOURCES}
    assert {"src/dualcount/counting.py", "src/dualcount/suites.py"} <= names
    assert ("lattice", "lattice_quotient") in _traced()


def test_every_top_level_definition_has_a_caller():
    assert uncalled(SOURCES, _traced() | {("cli", "main")}) == []


def test_the_guard_sees_a_definition_without_a_caller(tmp_path):
    path = tmp_path / "layer.py"
    path.write_text(
        "__all__ = ['unused']\n"
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n"
        "def unused():\n    return used()\n"
        "class Kept:\n    pass\n"
        "VALUE = Kept()\n")
    assert uncalled([path], set()) == ["layer.recursive", "layer.unused"]
    assert uncalled([path], {("layer", "recursive")}) == ["layer.unused"]


def test_no_module_of_the_package_imports_the_tests():
    oracles = {p.stem for p in (ROOT / "tests").glob("*.py")} | {"tests"}
    found = []
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] in oracles for m in modules):
                found.append(f"{path.relative_to(ROOT).as_posix()}:{node.lineno}")
    assert found == []
