"""Static checks on the library source, with the standard library's ast only."""

import ast
from pathlib import Path

import gca2

SRC = Path(gca2.__file__).resolve().parent

# Imported but unused in their module: perfbench/tracer.py patches each of
# these names on the module that imports it, and raises KeyError without it.
KEPT_FOR_THE_TRACER = {"cluster.lp_eval_univariate", "greedy.multinomial",
                       "greedy.compositions_weighted", "greedy.compatible_structure_h"}


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


def test_no_private_imports_across_modules():
    """A module's _names are its own: no other gca2 module imports one."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "gca2"):
                found |= {f"{path.stem}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")}
    assert not found


def dead_private_names(tree: ast.Module) -> set[str]:
    """Module-level _names (functions, classes, assignments) never loaded."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name for name in defined - loaded
            if name.startswith("_") and not name.startswith("__")}


def test_no_dead_private_names():
    """A module's _names are its own, so one that it never reads is dead."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {f"{path.stem}.{name}" for name in dead_private_names(tree)}
    assert not found
