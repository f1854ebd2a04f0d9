"""Standing mutant list: each mutant must make the tests it names fail.

Run from anywhere, stdlib only (pytest must be importable):

    python tests/mutants.py

Each entry of MUTANTS names a file under src/gca2, one exact snippet of it,
the snippet's replacement and the pytest node ids that must fail.  For each
mutant in turn the script copies src/ to a temporary directory, applies the
replacement there and runs the named tests against the copy in one pytest
subprocess; the checkout's src/ is never edited, and one subprocess runs at a
time.  A mutant survives when any named test passes; a run that times out
counts as killed, since a hang fails the suite too.  A snippet that matches
zero times or more than once is an error, so code that moves breaks the list
loudly instead of skipping a mutant.  Exit status 0 when every mutant is
killed, 1 when one survives or a snippet does not match exactly once.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

C07 = "tests/test_acceptance.py::test_criterion_07_combinatorics_lemma_suite"
LENGTHS = "tests/test_compat.py::test_shadow_entry_points_refuse_a_grading_of_the_wrong_length"
GOLDEN = "tests/test_golden.py::test_golden_corpus_replays_byte_identically"
FIELDS = "tests/test_laurent.py::test_packed_fields_fill_exactly_and_refuse_one_more"


class Mutant(NamedTuple):
    name: str
    file: str       # relative to src/gca2
    snippet: str    # must occur exactly once in file
    replacement: str
    tests: tuple    # pytest node ids, relative to the repository root


MUTANTS = (
    # the verify lemma checks (criterion 07 runs them at full scale)
    Mutant("phi-pullback-unreversed", "compat.py",
           "new_s2 = tuple(r - s2[a2 - j] for j in range(1, a2 + 1))",
           "new_s2 = tuple(r - s2[j - 1] for j in range(1, a2 + 1))",
           (C07, "tests/test_compat.py::test_phi_pullback_examples")),
    Mutant("omega-block-reversed", "compat.py",
           "for j, j2 in zip(edges, target))",
           "for j, j2 in zip(edges, reversed(target)))",
           (C07,)),
    Mutant("omega-transport-clipped", "compat.py",
           "new_s1[i2] = s1[i]",
           "new_s1[i2] = min(s1[i], 1)",
           (C07,)),
    Mutant("partition-owner-strict", "compat.py",
           "if d <= fz[k - 1])",
           "if d < fz[k - 1])",
           (C07, "tests/test_compat.py::test_shadow_core_is_the_report_shadow")),
    # v_{ell+1}..v_{k-1} loses its last edge
    Mutant("block-between-short", "compat.py",
           "(k - ell - 1) % a2 + 1)",
           "(k - ell - 1) % a2)",
           (C07,)),
    Mutant("block-size-max", "compat.py",
           "vals.append(min(neg_f_from_l, f_to_k))",
           "vals.append(max(neg_f_from_l, f_to_k))",
           (C07,)),
    Mutant("local-shadow-twice-as-long", "compat.py",
           "Subpath(path.edge_at(end - t), path.edge_at(end))",
           "Subpath(path.edge_at(end - 2 * t), path.edge_at(end))",
           (C07, "tests/test_compat.py::test_local_shadow_examples")),
    Mutant("local-shadow-past-v", "compat.py",
           "Subpath(path.edge_at(end - t), path.edge_at(end))",
           "Subpath(path.edge_at(end - t), path.edge_at(end + 1))",
           (C07, "tests/test_compat.py::test_local_shadow_examples")),
    # the whole loop starting at v_k holds the same h-edges: only the
    # example that compares subpaths sees it
    Mutant("whole-loop-from-v", "compat.py",
           "path.full_loop(path.edge_at(end + 1))",
           "path.full_loop(path.edge_at(end))",
           ("tests/test_compat.py::test_local_shadow_examples",)),
    # the grading length checks of the paper layer
    Mutant("fstat-length-unchecked", "compat.py",
           "    _check_length(s2, path.a2)\n    total = 0",
           "    total = 0",
           (LENGTHS,)),
    Mutant("structure-h-length-unchecked", "compat.py",
           "    _check_length(s1, path.a1)\n    a2 = path.a2",
           "    a2 = path.a2",
           (LENGTHS,)),
    # compatible_structure's deadline walks
    Mutant("deadline-run-strict", "compat.py",
           "if f <= run:  # f > 0 reaches 0 inside this run",
           "if f < run:  # f > 0 reaches 0 inside this run",
           ("tests/test_compat.py::test_compatible_structure_matches_all_pairs_check",
            "tests/test_compat.py::test_compatible_structure_matches_definition_oracle")),
    Mutant("deadline-zero-shortcut-inverted", "compat.py",
           "if f:  # a zero value is its own witness",
           "if not f:  # a zero value is its own witness",
           ("tests/test_compat.py::test_compatible_structure_matches_all_pairs_check",
            "tests/test_compat.py::test_compatible_structure_matches_definition_oracle")),
    # greedy_combinatorial's packed keys and rotation orbits
    Mutant("packed-field-one-bit-short", "greedy.py",
           "w = (max(mode.d1, mode.d2, 1) * (b1 + b2)).bit_length()",
           "w = (max(mode.d1, mode.d2, 1) * (b1 + b2)).bit_length() - 1",
           ("tests/test_greedy.py::test_packed_degrees_fill_their_field_exactly",
            "tests/test_greedy.py::test_greedy_combinatorial_is_the_sum_over_compatible_pairs")),
    Mutant("orbit-weight-one", "greedy.py",
           "entry[key] = entry.get(key, 0) + size",
           "entry[key] = entry.get(key, 0) + 1",
           ("tests/test_greedy.py::test_orbit_tally_is_the_sum_over_compatible_pairs",
            "tests/test_greedy.py::test_greedy_combinatorial_is_the_sum_over_compatible_pairs")),
    # the slots reversed, in offset and in decode order: monomials come out
    # in the wrong generator order
    Mutant("greedy-generator-slots-reversed", "greedy.py",
           "for i, gid in enumerate(gens)}",
           "for i, gid in enumerate(reversed(gens))}",
           (GOLDEN, "tests/test_greedy.py::test_orbit_tally_is_the_sum_over_compatible_pairs",
            "tests/test_greedy.py::test_greedy_combinatorial_is_the_sum_over_compatible_pairs")),
    Mutant("greedy-degree-fields-swapped", "greedy.py",
           "(0, w) if transposed else (w, 0)",
           "(w, 0) if transposed else (0, w)",
           ("tests/test_greedy.py::test_greedy_combinatorial_examples",
            "tests/test_greedy.py::test_packed_degrees_fill_their_field_exactly",
            "tests/test_greedy.py::test_greedy_combinatorial_is_the_sum_over_compatible_pairs")),
    # exact division eliminates the remainder's maximal monomial
    Mutant("exact-div-eliminates-max", "laurent.py",
           "_, e1, e2 = min((e1 + e2, e1, e2) for e1, e2 in rem)",
           "_, e1, e2 = max((e1 + e2, e1, e2) for e1, e2 in rem)",
           ("tests/test_laurent.py::test_exact_div_examples",
            "tests/test_laurent.py::test_exact_div_roundtrip_random",
            "tests/test_laurent.py::test_exact_div_of_oracle_products")),
    # the packed keys of a symbolic exchange step
    Mutant("packed-guard-one-bit-short", "coeffring.py",
           "if top >> FIELD_BITS:",
           "if top >> FIELD_BITS - 1:",
           (FIELDS,)),
    Mutant("packed-decode-order-swapped", "coeffring.py",
           "((RHO, 0), (VRHO, 1))",
           "((VRHO, 1), (RHO, 0))",
           (GOLDEN, "tests/test_laurent.py::test_symbolic_substitute_ratio_matches_sympy",
            "tests/test_cluster.py::test_symbolic_cluster_variables")),
    Mutant("packed-row-mask-one-bit-short", "coeffring.py",
           "rows.setdefault(k & FIELD_MASK, {})",
           "rows.setdefault(k & FIELD_MASK >> 1, {})",
           (FIELDS,)),
)

TIMEOUT_S = 1800


def failed_ids(output: str) -> set[str]:
    """Node ids of the FAILED and ERROR lines of pytest's -rfE summary."""
    return {m.group(2) for m in re.finditer(r"^(FAILED|ERROR) (\S+)", output, re.M)}


def run(mutant: Mutant, scratch: Path) -> tuple[bool, str]:
    """(killed, detail) of one mutant, applied to a fresh copy of src/."""
    src = scratch / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "gca2" / mutant.file
    text = target.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.file}")
    target.write_text(text.replace(mutant.snippet, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--tb=no", "-rfE", *mutant.tests]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT_S} s"
    if proc.returncode not in (0, 1):  # 2-5: interrupted, usage error, nothing collected
        raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}")
    passed = [t for t in mutant.tests if t not in failed_ids(proc.stdout)]
    if passed:
        return False, "passes " + ", ".join(passed)
    return True, f"fails {len(mutant.tests)} of {len(mutant.tests)}"


def main() -> int:
    survivors = errors = 0
    with tempfile.TemporaryDirectory(prefix="gca2-mutants-") as tmp:
        for mutant in MUTANTS:
            try:
                killed, detail = run(mutant, Path(tmp))
            except (ValueError, RuntimeError) as exc:
                errors += 1
                print(f"ERROR {exc}", flush=True)
                continue
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'} {mutant.name}: {detail}", flush=True)
    print(f"{len(MUTANTS)} mutants: {survivors} survived, {errors} errors")
    return 1 if survivors or errors else 0


if __name__ == "__main__":
    sys.exit(main())
