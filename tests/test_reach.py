"""Reach census: which library functions the CLI's golden cases never call.

Every golden argv but `verify` runs under sys.setprofile, and each function
of src/gca2 (verify.py aside, which is the `verify` command's own module)
that no case calls must be listed in NOT_REACHED with why it stays.  A
function that the commands stop calling shows up here, and so does one that
a change starts calling; either way the list is edited on purpose.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

from test_golden import CASES, run_case
import gca2
from gca2 import cli, greedy

SRC = Path(gca2.__file__).resolve().parent

TRACER = "perfbench/tracer.py wraps it"
VERIFY = "a `verify` check runs it"
ORACLE = "a test oracle"
VALUE = "repr or value semantics"

NOT_REACHED = {
    "cli.cmd_verify": VERIFY,
    "cluster.AlgebraContext.apply_reflection": VERIFY,
    "cluster.AlgebraContext.greedy": VERIFY,
    "cluster.AlgebraContext.greedy_params_of_cluster_monomial": VERIFY,
    "cluster.AlgebraContext.greedy_params_of_cluster_variable": VERIFY,
    "cluster.AlgebraContext.iter_cluster_expansions": TRACER,
    "coeffring.CoeffPoly.__hash__": VALUE,
    "coeffring.CoeffPoly.__repr__": VALUE,
    "coeffring.CoeffPoly.eval": VERIFY,
    "coeffring.CoeffPoly.generators": VERIFY,
    "coeffring.SparsePoly.__pow__": VERIFY,
    "coeffring.SparsePoly.__rsub__": VALUE,
    "coeffring.SparsePoly.__sub__": VALUE,
    "compat._check_length": VERIFY,
    "compat._partition": VERIFY,
    "compat.compatible_structure_h": TRACER,
    "compat.fstat_v": VERIFY,
    "compat.is_compatible": VERIFY,
    "compat.local_shadow_v": VERIFY,
    "compat.omega": VERIFY,
    "compat.omega.transport": VERIFY,
    "compat.phi_pullback": VERIFY,
    "compat.rsh_block_size_v": VERIFY,
    "compat.shadow_report_v": VERIFY,
    "compat.support_region": VERIFY,
    "dyckpath.DyckPath.__eq__": VALUE,
    "dyckpath.DyckPath.__hash__": VALUE,
    "dyckpath.DyckPath.__repr__": VALUE,
    "dyckpath.DyckPath._bounds": VERIFY,
    "dyckpath.DyckPath.count_h": VERIFY,
    "dyckpath.DyckPath.count_v": VERIFY,
    "dyckpath.DyckPath.edge_at": VERIFY,
    "dyckpath.DyckPath.full_loop": VERIFY,
    "dyckpath.DyckPath.h": VERIFY,
    "dyckpath.DyckPath.pos": VERIFY,
    "dyckpath.DyckPath.positions": VERIFY,
    "dyckpath.DyckPath.subpath_edges": VERIFY,
    "dyckpath.DyckPath.v": VERIFY,
    "greedy.pair_weight": ORACLE,
    "greedy.reflect_params": VERIFY,
    "laurent.LaurentPoly.__mul__": VALUE,
    "laurent.LaurentPoly.__repr__": VALUE,
    "laurent.LaurentPoly.exact_div": VERIFY,
    "laurent.LaurentPoly.min_exponents": VERIFY,
    "laurent.LaurentPoly.swap_vars": VERIFY,
    "laurent.LaurentPoly.zero": VERIFY,
    "laurent.lp_eval_univariate": TRACER,
    "laurent.lp_to_pointed": VERIFY,
    "multinom._compose_weighted": VERIFY,
    "multinom.compositions": VERIFY,
    "multinom.compositions_weighted": VERIFY,
    "multinom.gen_binomial": VERIFY,
    "multinom.multinomial": VERIFY,
    "multinom.poly_power_series": VERIFY,
}


def library_functions() -> dict:
    """{(file, first line): qualified name} of every function and method in
    src/gca2 but verify.py, nested ones included.  The first line is the
    code object's co_firstlineno: the first decorator's line, if any."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = name
                visit(child, name, path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "verify.py":
            visit(ast.parse(path.read_text(), filename=str(path)), path.stem, str(path))
    return found


def test_golden_cases_reach_every_function_not_listed():
    functions = library_functions()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    cli._parser.cache_clear()  # built once per process: the first case builds it
    for case in CASES:
        if "verify" in case["argv"]:
            continue
        greedy.greedy_combinatorial.cache_clear()
        greedy.greedy_recursive.cache_clear()
        sys.setprofile(profile)
        try:
            run_case(case["argv"])
        finally:
            sys.setprofile(previous)
    called = {functions.get((os.path.realpath(code.co_filename), code.co_firstlineno))
              for code in codes}
    assert set(functions.values()) - called == set(NOT_REACHED)
