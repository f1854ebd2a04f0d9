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
coefficient by another.  `expand` cases read their input from `golden/` by
a relative path.

Refactors must leave this corpus unchanged.  Only a deliberate change of
output format justifies rewriting it, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

from gca2 import cli

GOLDEN = Path(__file__).with_name("golden")
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def run_case(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, buf.getvalue().encode("utf-8")


def test_golden_corpus_replays_byte_identically():
    assert CASES
    differ = []
    for case in CASES:
        code, out = run_case(case["argv"])
        if code != case["exit"] or out != (GOLDEN / f"{case['name']}.out").read_bytes():
            differ.append(case["name"])
    assert not differ, f"stdout or exit code changed: {differ}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for case in CASES:
        code, out = run_case(case["argv"])
        case["exit"] = code
        (GOLDEN / f"{case['name']}.out").write_bytes(out)
    (GOLDEN / "manifest.json").write_text(json.dumps(CASES, indent=1) + "\n",
                                          encoding="utf-8")
