"""The benchmark's tracer still finds and restores every name it patches.

``perfbench/tracer.py`` wraps gca2 functions and methods by name (reading
class and module ``__dict__`` entries), so moving or renaming one of them
breaks ``perfbench/run.py --trace 1``.  This test installs the tracer in
process, runs one job of each kind and checks the per-layer counters.
"""

import importlib.util
from pathlib import Path

from gca2 import cli, cluster, coeffring, compat, dyckpath, greedy, laurent, multinom

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
OWNERS = (cluster, coeffring, compat, dyckpath, greedy, laurent, multinom,
          laurent.LaurentPoly, coeffring.CoeffPoly, cluster.AlgebraContext,
          dyckpath.DyckPath)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer_and_uninstalls(capsys):
    before = [(owner, dict(vars(owner))) for owner in OWNERS]
    greedy.greedy_combinatorial.cache_clear()
    greedy.greedy_recursive.cache_clear()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        patched = {(owner, name) for owner, attrs in before
                   for name, value in attrs.items() if vars(owner).get(name) is not value}
        for argv in (["--p1", "1,2,1", "--p2", "1,1,1,1", "var", "6"],
                     ["--d1", "2", "--d2", "3", "var", "5"],
                     ["--p1", "1,1,1", "--p2", "1,1,1,1", "greedy", "3", "2",
                      "--method", "recursive", "--clusters=-1..2"],
                     ["--d1", "2", "--d2", "3", "pairs", "4", "2"]):
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out
    for name in ("laurent.mul", "laurent.div", "coeffring.mul", "compat.structure",
                 "greedy.rec", "dyckpath.build"):
        assert tracer.calls.get(name, 0) > 0, name
    assert {(laurent.LaurentPoly, "__mul__"), (laurent.LaurentPoly, "exact_div"),
            (coeffring.CoeffPoly, "__mul__"), (greedy, "greedy_recursive"),
            (compat, "compatible_structure"), (dyckpath.DyckPath, "build")} <= patched
    for owner, attrs in before:
        for name, value in attrs.items():
            assert vars(owner)[name] is value, (owner, name)
