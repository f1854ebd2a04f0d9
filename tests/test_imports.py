"""Static checks on the library source, with the standard library's ast only."""

import ast
from pathlib import Path

import gca2

SRC = Path(gca2.__file__).resolve().parent

# Imported but unused in their module: perfbench/tracer.py patches each of
# these names on the module that imports it, and raises KeyError without it.
KEPT_FOR_THE_TRACER = {"cluster.lp_eval_univariate", "greedy.multinomial",
                       "greedy.compositions_weighted"}


def unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_dead_imports():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":  # the package's re-exports
            tree = ast.parse(path.read_text(), filename=str(path))
            found |= {f"{path.stem}.{name}" for name in unused_imports(tree)}
    assert found == KEPT_FOR_THE_TRACER
