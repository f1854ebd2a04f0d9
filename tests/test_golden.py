"""Golden stdout corpus: every case's stdout must replay byte for byte.

`golden/manifest.json` lists the cases: a name, the CLI argv, and the exit
code.  `golden/<name>.out` holds the stdout that argv printed when the case
was captured: the first 23 cases before the Laurent kernels were rewritten
on packed monomial keys, the last three (`verify all` and two numeric `var`
cases with dense, many-term exchange steps) before a big-int (Kronecker)
Laurent multiply was added; that multiply has since been removed again.
`verify_num23_all_text.out` has since lost one line, `PASS coeffring: exact
division round trip [300 cases]`, when `CoeffPoly` division was deleted:
every exchange polynomial has constant term 1, so nothing divides one
coefficient by another.  It has since gained four `compat` lines, after
`grading bound and support region`, when the paper's shadow, remote-shadow
block, f/phi* and Omega statements moved from acceptance criterion 07 into
`gca2.verify`; its other lines kept their bytes and their order.  The two `pairs_num10_1_3_1` cases (d1 = 10, so
S1 values and m1 reach two digits) were captured before `pairs` rendered
its blocks by a prefix-sharing walk.  The eight `greedy_*_clusters_<lo>_<hi>`
cases (ranges that walk both ways, only up, only down or not at all) were
captured before the positivity probe decided its outermost clusters without
building their expansions.  `pairs_sym23_2_4_text` (a2 > a1, so the backward
walks wrap and cross runs of vertical edges) and `greedy_sym22_comb_4_4_json`
(the diagonal path, where `greedy_combinatorial` keeps the vertical family
outer because the transpose test is a strict `>`) were captured before
`compatible_structure` read per-path walk tables.  `var_sym23_1_json` (an
int coefficient in symbolic mode), `var_sym41_4_json` (three-slot rho
arrays, no vrho array), `var_sym00_3_json` (empty exponent arrays) and
`expand_sym23_neg_json` (negative coefficients) were captured before the
JSON documents were written as text with no dict tree.  The `usage_*` cases,
one per usage or input error path of the CLI (argparse's included), were
captured before exchange polynomials owned their tables of powers and
before argparse errors printed one line: each prints nothing on stdout,
exits 2 and must print one `error:` line on stderr.
`bench_num23_3x2_4x2_text` (stdout only: the timings go to stderr) was
captured before `bench` refused cells over its budget.
`greedy_sym44_comb_3_2_json` (two generators per family),
`greedy_sym53_comb_2_3_text`, `greedy_sym11_comb_3_2_json` (symbolic with
no generator) and `greedy_num101_comb_3_3_text` (a zero inner coefficient)
were captured before `greedy_combinatorial` summed on packed integer keys;
they pin its generator order and coefficient types.  `var_sym45_m1_text`,
`var_sym45_4_text` and `var_sym53_m1_json` (three or more generators, with
product and division slices) were captured before symbolic exchange steps
ran on packed integer keys; they pin render order and monomial form there.
`expand` cases read
their input from `golden/` by a relative path.

Refactors must leave this corpus unchanged.  Only a deliberate change of
output format justifies rewriting it, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gca2 import cli

GOLDEN = Path(__file__).with_name("golden")
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def run_case(argv) -> tuple[int, bytes, str]:
    """(exit status, stdout, stderr) of cli.main(argv), run in golden/.

    A usage error returns 2 from main, as every other outcome returns its
    status, so nothing is caught here: a case that raises fails.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def test_golden_corpus_replays_byte_identically():
    assert CASES
    differ, not_one_line = [], []
    for case in CASES:
        code, out, err = run_case(case["argv"])
        if code != case["exit"] or out != (GOLDEN / f"{case['name']}.out").read_bytes():
            differ.append(case["name"])
        if code == 2 and not (err.startswith("error: ") and err.count("\n") == 1):
            not_one_line.append(case["name"])
    assert not differ, f"stdout or exit code changed: {differ}"
    assert not not_one_line, f"exit 2 without one error line: {not_one_line}"


def test_usage_errors_return_2_from_main_in_process():
    # each exit-2 case, run in this process: main returns 2, raising nothing,
    # with nothing on stdout and one error line on stderr
    usage = [case for case in CASES if case["exit"] == 2]
    assert len(usage) == 18
    for case in usage:
        code, out, err = run_case(case["argv"])
        assert (code, out) == (2, b""), case["name"]
        assert err.startswith("error: ") and err.count("\n") == 1, (case["name"], err)


def test_json_outputs_are_compact_canonical_json():
    # spacing, key order and escaping as json.dumps writes them, line by line
    lines = [line for path in sorted(GOLDEN.glob("*_json.out"))
             for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(lines) > 1500
    assert [line for line in lines
            if line != json.dumps(json.loads(line), separators=(",", ":"))] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for case in CASES:
        code, out, _ = run_case(case["argv"])
        case["exit"] = code
        (GOLDEN / f"{case['name']}.out").write_bytes(out)
    (GOLDEN / "manifest.json").write_text(json.dumps(CASES, indent=1) + "\n",
                                          encoding="utf-8")
