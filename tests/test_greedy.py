from itertools import product

import pytest

from conftest import ALL_ONES, palindromic, reference_greedy_table
from gca2.cluster import AlgebraContext
from gca2.coeffring import CoeffPoly, CoefficientMode
from gca2.compat import support_region
from gca2.greedy import (NotInAlgebra, greedy_combinatorial, greedy_expand,
                         greedy_recursive, pair_weight, power_series,
                         reflect_params)
from gca2.laurent import (LaurentPoly, SymbolicModeUnsupported, lp_is_positive,
                          lp_to_pointed)
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


def test_cross_method_small_grid():
    for key in ((1, 1), (2, 3), (0, 2), (3, 0)):
        mode = ALL_ONES[key]
        for a1 in range(-2, 4):
            for a2 in range(-2, 4):
                assert greedy_recursive(mode, a1, a2).to_laurent() == \
                    greedy_combinatorial(mode, a1, a2), (key, a1, a2)


def test_cross_method_nontrivial_coefficients():
    # beyond all-ones: P1 = 1+2z+z^2, P2 = 1+3z+3z^2+1z^3
    mode = CoefficientMode.numeric((1, 2, 1), (1, 3, 3, 1))
    for a1 in range(-1, 4):
        for a2 in range(-1, 4):
            assert greedy_recursive(mode, a1, a2).to_laurent() == \
                greedy_combinatorial(mode, a1, a2), (a1, a2)


def test_pointedness(mode23, sym23):
    for mode in (mode23, sym23):
        for a1 in range(-2, 4):
            for a2 in range(-2, 4):
                pf = lp_to_pointed(greedy_combinatorial(mode, a1, a2))
                assert pf.point == (a1, a2)
                assert pf.coeffs[(0, 0)] == 1


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
    for mode in (mode23, sym23):
        ctx = AlgebraContext(mode)
        for a1 in range(-2, 3):
            for a2 in range(-2, 3):
                f = greedy_combinatorial(mode, a1, a2)
                for p in (1, 2):
                    want = greedy_combinatorial(mode, *reflect_params(mode, p, a1, a2))
                    assert ctx.apply_reflection(f, p) == want, (a1, a2, p)


def test_positivity_small(mode23):
    ctx = AlgebraContext(mode23)
    for a1 in range(-1, 3):
        for a2 in range(-1, 3):
            f = greedy_combinatorial(mode23, a1, a2)
            for k, g in ctx.iter_cluster_expansions(f, -1, 3):
                assert lp_is_positive(g), (a1, a2, k)


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
    with pytest.raises(NotInAlgebra):
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
    # d1 = 0: no horizontal weights at all
    mode = ALL_ONES[(0, 2)]
    f = greedy_combinatorial(mode, 2, 1)
    assert lp_to_pointed(f).point == (2, 1)
    table = greedy_recursive(mode, 2, 1)
    assert table.to_laurent() == f
    # d2 = 0 mirror
    mode = ALL_ONES[(3, 0)]
    assert greedy_recursive(mode, 1, 2).to_laurent() == \
        greedy_combinatorial(mode, 1, 2)
