"""Static checks on the library source, with the standard library's ast and symtable only."""

import ast
import symtable
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


# Public names that no library code reads, each with why it stays.
UNREAD_BUT_KEPT = {
    "cluster.AlgebraContext.iter_cluster_expansions":
        "perfbench/tracer.py wraps it for cluster.probe",
    "compat.compatible_structure_h": "perfbench/tracer.py wraps it for compat.structure",
    "laurent.lp_eval_univariate": "perfbench/tracer.py wraps it for laurent.eval",
    "dyckpath.DyckPath.full_loop": "the paper's full loop, which the subpath tests build",
    "greedy.pair_weight": "the paper's pair weight, which the greedy definition oracle sums",
    "cli._Parser.error": "argparse calls it on each parse error, to raise one UsageError",
}


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def global_reads(table: symtable.SymbolTable, top: str | None = None):
    """(top, name) for each module-level name read in table or a scope
    nested in it: every name read in the module's own scope, and in any
    other scope the names that resolve to the module, not to a local or an
    enclosing function's variable.  top names the module-level definition
    the scope lies in, None for the module's own scope."""
    for sym in table.get_symbols():
        if sym.is_referenced() and (top is None or sym.is_global()):
            yield top, sym.get_name()
    for child in table.get_children():
        yield from global_reads(child, child.get_name() if top is None else top)


def test_every_public_name_is_read_in_the_library():
    """Each public function, class and method is read somewhere in src/gca2
    outside its own definition, or is listed in UNREAD_BUT_KEPT: a name that
    only tests reach cannot creep back.  A method is read only as an
    attribute, x.name; a module-level function or class as a name that
    resolves to a module, not to a local variable, or as module.name."""
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    trees = {stem: ast.parse(text, filename=stem) for stem, text in sources.items()}
    attrs: dict[str, list] = {}  # x.name read anywhere -> the Attribute nodes
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.setdefault(node.attr, []).append(node)
    names = {(stem, top, name) for stem, text in sources.items()
             for top, name in global_reads(symtable.symtable(text, stem, "exec"))}
    unread = set()
    for stem, tree in trees.items():
        for name, definition in public_definitions(tree):
            inside = set(map(id, ast.walk(definition)))
            outside = [node for node in attrs.get(name.rsplit(".", 1)[-1], ())
                       if id(node) not in inside]
            if "." not in name:  # module-level: module.name or a global read
                read = any(isinstance(node.value, ast.Name) and node.value.id == stem
                           for node in outside)
                read = read or any(n == name and (s, t) != (stem, name) for s, t, n in names)
            else:
                read = bool(outside)
            if not read:
                unread.add(f"{stem}.{name}")
    assert unread == set(UNREAD_BUT_KEPT)


def error_lines(node: ast.AST, where: str = "") -> list[str]:
    """The innermost function around each string that starts an `error:`
    line under node, as Class.method or function, "" at module level."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += error_lines(child, f"{where}.{child.name}".lstrip("."))
        elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
              and child.value.startswith("error:")):
            found.append(where)
        else:
            found += error_lines(child, where)
    return found


def test_the_cli_refuses_input_in_main_only():
    """cli.py has one refusal path: a usage or input error raises UsageError
    and main alone prints it.  No SystemExit is raised or named, sys.exit
    is called at module level only, and the only other `error:` line is
    expand's exit-1 line for an input outside the algebra."""
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "SystemExit" not in names and "_usage_error" not in names
    exits = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "exit"]
    top = [node for stmt in tree.body if isinstance(stmt, ast.If) for node in ast.walk(stmt)]
    assert exits and all(node in top for node in exits)
    assert sorted(error_lines(tree)) == ["cmd_expand", "main"]
