import random
from itertools import product

import pytest

from conftest import ALL_ONES, palindromic, reference_greedy_table
from gca2 import verify
from gca2.cluster import AlgebraContext
from gca2.coeffring import CoeffPoly, CoefficientMode
from gca2.compat import enumerate_bruteforce, support_region
from gca2.greedy import (NotInAlgebra, greedy_combinatorial, greedy_expand,
                         greedy_recursive, pair_weight, power_series,
                         reflect_params)
from gca2.laurent import LaurentPoly, SymbolicModeUnsupported
from gca2.multinom import poly_power_series


def test_pair_weight_examples(mode23, sym23):
    assert pair_weight(mode23, (0,) * 5, (0, 0)) == 1
    got = pair_weight(sym23, (2, 1, 0, 0, 0), (1, 3))
    assert got == CoeffPoly.rho(1, 2) * CoeffPoly.vrho(1, 3)
    assert pair_weight(mode23, (2, 1, 0, 0, 0), (1, 3)) == 1  # all-ones
    mode = CoefficientMode.numeric((1, 2, 1), (1, 3, 3, 1))
    assert pair_weight(mode, (1, 1, 0), (2,)) == 2 * 2 * 3


def test_greedy_combinatorial_examples(mode23):
    assert greedy_combinatorial(mode23, 1, 0) == \
        LaurentPoly({(-1, 0): 1, (-1, 1): 1, (-1, 2): 1})
    assert greedy_combinatorial(mode23, -2, -3) == LaurentPoly.monomial(2, 3)
    assert greedy_combinatorial(mode23, 1, 1) == LaurentPoly({
        (-1, -1): 1, (0, -1): 1, (1, -1): 1, (2, -1): 1, (-1, 0): 1, (-1, 1): 1})


def test_greedy_combinatorial_is_the_sum_over_compatible_pairs():
    # the definition: x[a1, a2] sums c_{S1,S2} x1^(|S2|-a1) x2^(|S1|-a2) over
    # the brute-force pairs on D(b1, b2), the weight one rho or vrho per
    # edge.  The modes put the outer family on either side, and d = 0 has
    # P = 1; the points reach negative parameters.
    for d1, d2 in ((2, 3), (3, 2), (1, 4), (0, 2), (3, 0)):
        mode = CoefficientMode.symbolic(d1, d2)
        for a1, a2 in product(range(-1, 4), repeat=2):
            b1, b2 = max(a1, 0), max(a2, 0)
            want = LaurentPoly.zero()
            for s1, s2 in enumerate_bruteforce(b1, b2, d1, d2):
                w = CoeffPoly.const(1)
                for t in s1:
                    w = w * CoeffPoly.rho(t, d1)
                for t in s2:
                    w = w * CoeffPoly.vrho(t, d2)
                want = want + LaurentPoly.monomial(sum(s2) - a1, sum(s1) - a2, w)
            assert greedy_combinatorial(mode, a1, a2) == want, (d1, d2, a1, a2)


def test_greedy_recursive_examples(mode23):
    table = greedy_recursive(mode23, 1, 0)
    assert table.coeffs == {(0, 0): 1, (0, 1): 1, (0, 2): 1}
    for a1, a2 in ((0, 0), (-1, -1), (-2, 0), (0, -3)):
        assert greedy_recursive(mode23, a1, a2).coeffs == {(0, 0): 1}
    # golden x5 bracket row at x1^4: (3, 4, 4, 1)
    table = greedy_recursive(mode23, 5, 2)
    assert [table.coeffs.get((4, q), 0) for q in range(4)] == [3, 4, 4, 1]
    assert table.coeffs.get((0, 0), 0) == 1


def test_power_series_matches_composition_sum():
    # every monic palindromic p of degree 0-4 with coefficients 0-4
    polys = [palindromic(d, inner) for d in range(5)
             for inner in product(range(5), repeat=d // 2)]
    for p in polys:
        for n in range(-8, 9):
            assert power_series(p, n, 12) == list(poly_power_series(p, n, 12)), (p, n)


def test_power_series_of_one_vanishes():
    # P = 1: every alternating sum of the recursion is 0
    for n in range(-8, 9):
        assert power_series((1,), n, 12) == [1] + [0] * 12
    mode = CoefficientMode.numeric((1,), (1,))
    for a1 in range(-2, 5):
        for a2 in range(-2, 5):
            assert greedy_recursive(mode, a1, a2).coeffs == {(0, 0): 1}
    with pytest.raises(ValueError):
        power_series((2, 1), 1, 3)
    with pytest.raises(ValueError):
        power_series((), 1, 3)


def _table_or_error(build, mode, a1, a2):
    try:
        table = build(mode, a1, a2)
    except AssertionError as exc:
        return "AssertionError", str(exc)
    coeffs = table[0] if isinstance(table, tuple) else table.coeffs
    return list(coeffs.items())


def test_recursive_table_matches_composition_sum_reference():
    polys = {0: (1,), 1: (1, 1), 2: (1, 3, 1), 3: (1, 2, 2, 1), 4: (1, 0, 4, 0, 1)}
    for d1, d2 in product(range(5), repeat=2):
        mode = CoefficientMode.numeric(polys[d1], polys[d2])
        for a1, a2 in product(range(-2, 9), repeat=2):
            if d1 * max(a1, 0) + d2 * max(a2, 0) > 16:
                continue
            got = _table_or_error(greedy_recursive, mode, a1, a2)
            want = _table_or_error(reference_greedy_table, mode, a1, a2)
            assert got == want, (polys[d1], polys[d2], a1, a2)
    # Outside the validated modes (negative coefficients) the closed-form and
    # guard-ring checks fire; both fills must raise at the same entry.
    errors = 0
    for p1, p2 in (((1, -1, 1), (1, 2, -1, 1)), ((1, 2), (1, -3, 1)),
                   ((1, -2, 3), (1, 1, 1, 1))):
        mode = CoefficientMode(len(p1) - 1, len(p2) - 1, p1, p2)
        for a1, a2 in product(range(-2, 5), repeat=2):
            got = _table_or_error(greedy_recursive, mode, a1, a2)
            assert got == _table_or_error(reference_greedy_table, mode, a1, a2), \
                (p1, p2, a1, a2)
            errors += got[0] == "AssertionError"
    assert errors > 0


def test_greedy_recursive_refuses_symbolic(sym23):
    with pytest.raises(SymbolicModeUnsupported):
        greedy_recursive(sym23, 1, 1)


def test_cross_method_nontrivial_coefficients():
    # beyond all-ones: P1 = 1+2z+z^2, P2 = 1+3z+3z^2+1z^3
    mode = CoefficientMode.numeric((1, 2, 1), (1, 3, 3, 1))
    assert verify.recursion_equals_combinatorial(
        modes=[mode], points=verify.square(-1, 3)) is None


def test_symbolic_greedy_specializes_to_the_numeric_recursion():
    # the count-grouped pair sum against an oracle that shares none of its
    # code: symbolic x[a1, a2] at seeded generator values (no value 1, some
    # 0) is the numeric recursion's x[a1, a2] for the specialized P1, P2.
    # The box reaches negative parameters and the square points (b, b),
    # whose outer gradings can give one value to all b edges.
    rng = random.Random(16)
    box = verify.square(-2, 5)
    assert any(a1 == a2 > 0 for a1, a2 in box)
    for d1, d2 in ((2, 2), (2, 3), (3, 3), (1, 4), (0, 2)):
        sym = CoefficientMode.symbolic(d1, d2)
        gens = set().union(*(c.generators() for p in sym.polys for c in p))
        for _ in range(2):
            values = {g: rng.choice((0, 2, 3, 5)) for g in sorted(gens)}
            num = CoefficientMode.numeric(*(tuple(c.eval(values) for c in p)
                                            for p in sym.polys))
            for a in box:
                got = {e: c.eval(values) for e, c in greedy_combinatorial(sym, *a).terms.items()}
                want = greedy_recursive(num, *a).to_laurent().terms
                assert {e: c for e, c in got.items() if c} == want, (num, a)


def test_pointedness(mode23, sym23):
    assert verify.greedy_pointed(modes=[mode23, sym23], points=verify.square(-2, 3)) is None


def test_table_respects_support_region(mode23):
    for a1 in range(-1, 5):
        for a2 in range(-1, 5):
            table = greedy_recursive(mode23, a1, a2)
            b1, b2 = max(a1, 0), max(a2, 0)
            for (p, q) in table.coeffs:
                assert support_region(2, 3, b1, b2, q, p), (a1, a2, p, q)


def test_reflect_params_examples(mode23):
    assert reflect_params(mode23, 2, 5, 2) == (1, 2)
    assert reflect_params(mode23, 2, -1, -1) == (1, -1)
    for a1 in range(-3, 4):
        for a2 in range(-3, 4):
            assert reflect_params(mode23, 1, *reflect_params(mode23, 1, a1, a2)) \
                == (a1, a2)
    with pytest.raises(ValueError):
        reflect_params(mode23, 3, 1, 1)


def test_symmetry_small(mode23, sym23):
    assert verify.reflection_symmetry(modes=[mode23, sym23], points=verify.square(-2, 2)) is None


def test_greedy_expand_examples(mode23):
    f = greedy_combinatorial(mode23, 5, 2)
    assert greedy_expand(mode23, f) == {(5, 2): 1}

    f = LaurentPoly.var(1) + LaurentPoly.var(2)
    assert greedy_expand(mode23, f) == {(-1, 0): 1, (0, -1): 1}

    ctx = AlgebraContext(mode23)
    f = ctx.cluster_variable(3) * ctx.cluster_variable(4)
    expansion = greedy_expand(mode23, f)
    rebuilt = LaurentPoly.zero()
    for (a1, a2), c in expansion.items():
        rebuilt = rebuilt + c * greedy_combinatorial(mode23, a1, a2)
    assert rebuilt == f


def test_greedy_expand_empty(mode23):
    assert greedy_expand(mode23, LaurentPoly.zero()) == {}


def test_greedy_expand_rejects_non_algebra_elements(mode23):
    # 1/(x1 x2) + anything never cancels: x[1,1] has extra support
    bad = LaurentPoly({(-1, -1): 1, (-1, 0): -1})
    msg = "pass budget 20 exhausted with the residual's lowest level at "
    with pytest.raises(NotInAlgebra, match=msg):
        greedy_expand(mode23, bad)


def test_greedy_expand_symbolic(sym23):
    ctx = AlgebraContext(sym23)
    f = ctx.cluster_variable(3) * ctx.cluster_variable(3)
    expansion = greedy_expand(sym23, f)
    rebuilt = LaurentPoly.zero()
    for (a1, a2), c in expansion.items():
        rebuilt = rebuilt + c * greedy_combinatorial(sym23, a1, a2)
    assert rebuilt == f


def test_degenerate_degree_modes():
    # d1 = 0: no horizontal weights at all; d2 = 0 is its mirror
    for key, point in (((0, 2), (2, 1)), ((3, 0), (1, 2))):
        modes = [ALL_ONES[key]]
        assert verify.greedy_pointed(modes=modes, points=[point]) is None
        assert verify.recursion_equals_combinatorial(modes=modes, points=[point]) is None
