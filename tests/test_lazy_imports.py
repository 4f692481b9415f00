"""One mechanism decides which module bodies a command runs.

The package registers the modules of `dualcount.LAZY` with a LazyLoader in
its `__init__`, and every module imports its dualcount dependencies at its
top.  This parses each Python file under src/ and refuses an import of a
dualcount module inside a function or method body, and an import of a module
of LAZY by `from .name import x` or `import dualcount.name`, either of which
would run its body at once.
"""

import ast
from pathlib import Path

from dualcount import LAZY

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def _dualcount_modules(node) -> list[str]:
    """The dualcount modules, relative to the package, that an import
    statement names as its source: '' for the package itself."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return [node.module or ""]
        names = [node.module]
    else:
        names = [alias.name for alias in node.names]
    return [name.partition(".")[2] for name in names
            if name.split(".")[0] == "dualcount"]


def refused(tree: ast.Module) -> list[int]:
    """Line numbers of the imports in tree that the rules above refuse."""
    in_functions = {id(node)
                    for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda))
                    for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for module in _dualcount_modules(node)
                  if id(node) in in_functions or module in LAZY)


def test_the_sources_and_the_lazy_modules_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in SOURCES}
    assert {"src/dualcount/__init__.py", "src/dualcount/counting.py"} <= names
    assert {"refined", "suites", "cyclotomic"} <= set(LAZY)


def test_the_rules_refuse_both_forms():
    tree = ast.parse("from . import refined\n"
                     "from .counting import count_table\n"
                     "from .refined import sector_row\n"
                     "import dualcount.lattice\n"
                     "def f():\n"
                     "    from . import series\n"
                     "    import json\n"
                     "    from .counting import count_table\n")
    assert refused(tree) == [3, 4, 6, 8]


def test_no_function_imports_a_dualcount_module_and_no_lazy_module_runs_early():
    found = [f"{path.relative_to(ROOT).as_posix()}:{lineno}"
             for path in SOURCES
             for lineno in refused(ast.parse(path.read_text(),
                                             filename=str(path)))]
    assert found == []
