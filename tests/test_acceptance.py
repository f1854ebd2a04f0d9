"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report including wall times against the stated budgets.
"""

import time
from itertools import product

import pytest

from conftest import ALL_ONES, DIAGRAMS_5_2, expected_x3, expected_x4, expected_x5
from gca2 import verify
from gca2.cluster import AlgebraContext
from gca2.coeffring import CoefficientMode
from gca2.compat import enumerate_bruteforce, enumerate_fast
from gca2.greedy import greedy_combinatorial, greedy_expand, greedy_recursive
from gca2.laurent import LaurentPoly
from gca2.multinom import compositions, multinomial

GRID_MODES = [ALL_ONES[key] for key in verify.GRID_SYSTEMS]

_LINES = []


def _report(num, name, elapsed, budget=None):
    extra = f" (budget {budget:.0f}s)" if budget else ""
    line = f"ACCEPTANCE {num:02d} {name}: PASS in {elapsed:.2f}s{extra}"
    _LINES.append(line)
    print(line)


def _clear_caches():
    greedy_combinatorial.cache_clear()
    greedy_recursive.cache_clear()


@pytest.fixture(scope="module", autouse=True)
def summary():
    yield
    print()
    for line in _LINES:
        print(line)


def test_criterion_01_golden_cluster_variables():
    t0 = time.perf_counter()
    ctx = AlgebraContext(ALL_ONES[(2, 3)])
    assert ctx.cluster_variable(3).terms == expected_x3()
    assert ctx.cluster_variable(4).terms == expected_x4()
    assert ctx.cluster_variable(5).terms == expected_x5()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "golden x3, x4, x5", elapsed, 1.0)


def test_criterion_02_golden_compatible_pairs():
    t0 = time.perf_counter()
    pairs = enumerate_fast(5, 2, 2, 3)
    assert len(pairs) == 547

    groups = {}
    for s1, s2 in pairs:
        groups.setdefault(s2, []).append(s1)
    assert set(groups) == set(DIAGRAMS_5_2)
    for s2, expected_sets in DIAGRAMS_5_2.items():
        block = groups[s2]
        per_edge = tuple({s1[i] for s1 in block} for i in range(5))
        assert per_edge == expected_sets, s2
        # each diagram stands for the full product of its value sets
        assert sorted(block) == sorted(product(*expected_sets)), s2

    # weighted sum reproduces the bracket of x5 (all-ones coefficients)
    bracket = {}
    for s1, s2 in pairs:
        key = (sum(s2), sum(s1))
        bracket[key] = bracket.get(key, 0) + 1
    want = {(e1 + 5, e2 + 2): c for (e1, e2), c in expected_x5().items()}
    assert bracket == want
    assert [bracket.get((4, q), 0) for q in range(4)] == [3, 4, 4, 1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, "golden D(5,2) pair diagrams and x5 bracket", elapsed, 5.0)


def test_criterion_03_cross_method_oracle():
    _clear_caches()
    t0 = time.perf_counter()
    assert verify.recursion_equals_combinatorial(
        modes=GRID_MODES, points=verify.square(-2, 4)) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(3, "recursion = combinatorial on [-2,4]^2 x 5 systems", elapsed, 120.0)


def test_criterion_04_positivity():
    _clear_caches()
    t0 = time.perf_counter()
    assert verify.positivity(modes=GRID_MODES, points=verify.square(-2, 4),
                             clusters=range(-2, 5)) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(4, "positivity in clusters [-2,4]", elapsed, 300.0)


def test_criterion_05_reflection_symmetry():
    t0 = time.perf_counter()
    numeric = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (0, 2), (3, 0)]
    modes = [ALL_ONES[key] for key in numeric]
    modes.append(CoefficientMode.symbolic(2, 3))
    assert verify.reflection_symmetry(modes=modes, points=verify.square(-2, 3)) is None
    elapsed = time.perf_counter() - t0
    _report(5, "sigma_1/sigma_2 match reflected parameters on [-2,3]^2", elapsed)


def test_criterion_06_laurent_phenomenon_contract():
    t0 = time.perf_counter()
    systems = [(mode, range(-5, 9)) for mode in GRID_MODES + [ALL_ONES[(3, 3)]]]
    systems += [(CoefficientMode.symbolic(*key), range(-5, 9))
                for key in ((1, 1), (2, 2), (0, 2), (3, 0), (2, 3))]
    assert verify.laurent_phenomenon(systems=systems) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 40.0
    _report(6, "no NotLaurent along the cluster walks to x_k, k in [-5,8]", elapsed, 40.0)


def test_criterion_07_combinatorics_lemma_suite():
    t0 = time.perf_counter()
    # shadow sizes: |sh(S2)| = min(a1,|S2|)
    assert verify.shadow_sizes(max_a=5, max_value=3) is None
    assert verify.local_shadows_nest(max_a=4, max_value=3) is None
    assert verify.remote_blocks_match_formula(max_a=4, max_value=3) is None
    assert verify.phi_pullback_negates_f(
        paths=((2, 2), (3, 2), (5, 2), (4, 3), (2, 3), (3, 3)), max_value=3, orders=(3, 4)) is None
    # exhaustive a2 <= 3, r <= 4; an S2 with over 5000 S1 on its remote shadow is skipped
    assert verify.omega_is_a_block_bijection(max_a2=3, max_r=4, max_value=3, max_s1=5000) is None
    # grading bound and support region, all three region cases exercised
    degrees = list(product(range(4), repeat=2))
    assert verify.grading_and_support(sizes=range(5), degrees=degrees) is None

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(7, "shadow/remote-shadow/Omega/support lemma suite", elapsed, 600.0)


def test_criterion_08_appendix_suite():
    t0 = time.perf_counter()
    from math import factorial

    # Pascal identity and factorial formula, n <= 8, r <= 4
    assert verify.pascal(max_n=8, max_r=4) is None
    for n in range(1, 9):
        for r in range(1, 5):
            for parts in compositions(n, r):
                fac = factorial(n)
                for p in parts:
                    fac //= factorial(p)
                assert multinomial(n, 0, parts) == fac

    # truncated inverse property, n <= 4, d <= 4, N <= 12
    polys = [(1, 1), (1, 2, 1), (1, 1, 1, 1), (1, 3, 5, 3, 1), (1, 2, 2, 2, 1)]
    assert verify.truncated_inverse(polys=polys, ns=range(5), lengths=(4, 8, 12)) is None
    elapsed = time.perf_counter() - t0
    _report(8, "multinomial Pascal/factorial and truncated inverses", elapsed)


def test_criterion_09_basis_roundtrip():
    t0 = time.perf_counter()
    mode = ALL_ONES[(2, 3)]
    ctx = AlgebraContext(mode)
    for i in range(0, 6):
        for j in range(i, 6):
            f = ctx.cluster_variable(i) * ctx.cluster_variable(j)
            expansion = greedy_expand(mode, f)
            rebuilt = LaurentPoly.zero()
            for (a1, a2), c in expansion.items():
                rebuilt = rebuilt + c * greedy_combinatorial(mode, a1, a2)
            assert rebuilt == f, (i, j)
    elapsed = time.perf_counter() - t0
    _report(9, "greedy expansion of x_i x_j round trips", elapsed)


def test_criterion_10_determinism_and_performance():
    t0 = time.perf_counter()
    # equality on the exhaustive grid; `pairs` renders by its own block walk,
    # which test_cli::test_pairs_block_templates_match_record_oracle checks
    # on the same grid (a1, a2 <= 4, d1, d2 <= 3)
    degrees = list(product(range(4), repeat=2))
    assert verify.fast_equals_brute(max_a=4, degrees=degrees) is None

    # benchmark at (8,3), d = (2,3); the 5x threshold is report-only
    tb0 = time.perf_counter()
    brute = enumerate_bruteforce(8, 3, 2, 3)
    tb1 = time.perf_counter()
    fast = enumerate_fast(8, 3, 2, 3)
    tb2 = time.perf_counter()
    assert brute == fast
    speedup = (tb1 - tb0) / (tb2 - tb1) if tb2 > tb1 else float("inf")
    elapsed = time.perf_counter() - t0
    _report(10, f"fast = brute byte-for-byte; (8,3) speedup {speedup:.1f}x "
                f"(soft threshold 5x, pairs={len(fast)})", elapsed)
