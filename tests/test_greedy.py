import random
from itertools import product
from math import prod

import pytest

from conftest import ALL_ONES, palindromic, reference_greedy_table
from gca2 import coeffring, greedy, verify
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


def definition_sum(mode, a1, a2):
    """x[a1, a2] by the definition: c_{S1,S2} x1^(|S2|-a1) x2^(|S1|-a2) summed
    over the brute-force pairs on D(b1, b2), the weight one rho or vrho per
    edge (the integer coefficients of P1 and P2 in numeric mode)."""
    b1, b2 = max(a1, 0), max(a2, 0)
    if mode.is_numeric:
        rho, vrho, one = mode.p1.__getitem__, mode.p2.__getitem__, 1
    else:
        def rho(t):
            return CoeffPoly.rho(t, mode.d1)

        def vrho(t):
            return CoeffPoly.vrho(t, mode.d2)
        one = CoeffPoly.const(1)
    terms = {}
    for s1, s2 in enumerate_bruteforce(b1, b2, mode.d1, mode.d2):
        w = one
        for t in s1:
            w = w * rho(t)
        for t in s2:
            w = w * vrho(t)
        e = (sum(s2) - a1, sum(s1) - a2)
        terms[e] = terms.get(e, 0) + w
    return LaurentPoly(terms)


def test_greedy_combinatorial_is_the_sum_over_compatible_pairs():
    # The modes put the outer family on either side, and d = 0 has P = 1;
    # the points reach negative parameters.  (4, 4) has two generators in
    # each family and (5, 3) two against one, so a monomial of the packed
    # sum holds up to four generator slots, in GeneratorId order.
    for d1, d2 in ((2, 3), (3, 2), (1, 4), (0, 2), (3, 0), (4, 4), (5, 3)):
        mode = CoefficientMode.symbolic(d1, d2)
        for a1, a2 in product(range(-1, 4), repeat=2):
            assert greedy_combinatorial(mode, a1, a2) == definition_sum(mode, a1, a2), \
                (d1, d2, a1, a2)


def test_orbit_tally_is_the_sum_over_compatible_pairs(monkeypatch):
    # points whose walked path D(c1, c2) has g = gcd(c1, c2) >= 2, where the
    # sum tallies one outer grading per rotation orbit; with d = 0 on one
    # side the walk also meets D(0, b) and D(a, 0)
    walked = set()

    def spy(path, s_out, d):
        walked.add((path.a1, path.a2))
        return structure(path, s_out, d)

    structure = greedy.compatible_structure
    monkeypatch.setattr(greedy, "compatible_structure", spy)
    points = ((4, 2), (2, 4), (4, 4), (6, 2), (6, 3), (0, 4), (4, 0), (3, 3))
    cases = [(mode, points) for mode in (
        CoefficientMode.symbolic(2, 2), CoefficientMode.symbolic(2, 3),
        CoefficientMode.symbolic(1, 4), CoefficientMode(2, 3, (1, 2, 3), (1, 1, 0, 2)),
        # a zero and a negative inner coefficient: factors of 0 and below 0
        CoefficientMode.numeric((1, 0, 1), (1, 2, 2, 1)),
        CoefficientMode(3, 2, (1, -2, 3, 1), (1, -1, 1)))]
    cases += [(CoefficientMode.symbolic(*d), points[:3] + points[5:])
              for d in ((0, 2), (3, 0))]
    for mode, pts in cases:
        for a1, a2 in pts:
            got = greedy_combinatorial.__wrapped__(mode, a1, a2)
            assert got == definition_sum(mode, a1, a2), (mode, a1, a2)
    assert {(4, 2), (2, 4), (4, 4), (6, 2), (6, 3), (3, 6), (0, 4), (4, 0)} <= walked


def test_symbolic_coefficients_are_coeffpolys_without_generators():
    # d <= 1 gives a P with no generator; in symbolic mode every
    # coefficient is still a CoeffPoly, never a plain int
    for d1, d2 in ((1, 1), (0, 3)):
        mode = CoefficientMode.symbolic(d1, d2)
        for a1, a2 in ((3, 2), (2, 3), (0, 0), (-1, 2), (2, -2)):
            terms = greedy_combinatorial.__wrapped__(mode, a1, a2).terms
            assert terms and all(type(c) is CoeffPoly for c in terms.values()), \
                (d1, d2, a1, a2)
    numeric = greedy_combinatorial.__wrapped__(CoefficientMode.numeric((1, 1), (1, 1)), 3, 2)
    assert all(type(c) is int for c in numeric.terms.values())


def test_packed_degrees_fill_their_field_exactly():
    # The packed second pass sizes its fields at w bits, the bit length of
    # max(d1, d2, 1) * (b1 + b2).  At these points that bound is 2**w - 1
    # and one term's degree (|S1| or |S2|) reaches it, so a field one bit
    # narrower, or a carry between fields, changes the sum.
    cases = [(CoefficientMode.symbolic(1, 1), (3, 0)), (CoefficientMode.symbolic(1, 1), (0, 7)),
             (CoefficientMode.symbolic(3, 3), (5, 0)), (CoefficientMode.symbolic(3, 3), (0, 5)),
             (CoefficientMode.numeric((1, 1, 1, 1), (1, 2, 1)), (5, 0))]
    for mode, (a1, a2) in cases:
        w = (max(mode.d1, mode.d2, 1) * (max(a1, 0) + max(a2, 0))).bit_length()
        got = greedy_combinatorial.__wrapped__(mode, a1, a2)
        top = max(max(e1 + a1, e2 + a2) for e1, e2 in got.terms)
        assert top == 2 ** w - 1, (mode, a1, a2)
        assert got == definition_sum(mode, a1, a2), (mode, a1, a2)


def test_greedy_combinatorial_walks_one_outer_grading_per_orbit(monkeypatch):
    # symbolic (2, 2): 3 values per edge; D(7, 7) has 3**7 = 2187 gradings in
    # 315 rotation orbits, D(6, 6) 729 in 130 and D(6, 4), rotated by two
    # slots, 81 in 45; on the coprime D(7, 5) every orbit is one grading
    calls = []

    def spy(*args):
        calls.append(args)
        return structure(*args)

    structure = greedy.compatible_structure
    monkeypatch.setattr(greedy, "compatible_structure", spy)
    mode = CoefficientMode.symbolic(2, 2)
    for point, want in (((7, 7), 315), ((6, 6), 130), ((6, 4), 45), ((5, 7), 243)):
        del calls[:]
        greedy_combinatorial.__wrapped__(mode, *point)
        assert len(calls) == want, point


def test_greedy_combinatorial_builds_each_power_once_per_mode(monkeypatch):
    built = []

    def spy(a, b):
        a = list(a)
        built.append((tuple(a), tuple(b)))
        return uni_mul(a, b)

    uni_mul = coeffring.uni_mul
    monkeypatch.setattr(coeffring, "uni_mul", spy)
    mode = CoefficientMode.symbolic(2, 3)
    first = greedy_combinatorial.__wrapped__(mode, 4, 3)
    greedy_combinatorial.__wrapped__(mode, 5, 3)
    assert built and len(set(built)) == len(built)  # no power built twice
    n = len(built)
    assert greedy_combinatorial.__wrapped__(mode, 4, 3) == first
    assert len(built) == n  # the second call on one mode builds nothing
    # the table belongs to the instance: an equal mode starts cold
    twin = CoefficientMode.symbolic(2, 3)
    assert twin == mode and hash(twin) == hash(mode)
    assert greedy_combinatorial.__wrapped__(twin, 4, 3) == first
    assert len(built) > n


def test_non_monic_border_values_weigh_their_coefficient():
    # P = (1, 2) has top coefficient 2: an edge of value 1 weighs 2 wherever
    # it sits, free, outer or in the remote shadow, so the sum matches the
    # definition whichever family is the outer one
    for mode in (CoefficientMode(1, 1, (1, 2), (1, 1)), CoefficientMode(1, 1, (1, 1), (1, 2))):
        p1, p2 = mode.polys
        for a1, a2 in ((0, 1), (1, 0), (1, 1)):
            want = {}
            for s1, s2 in enumerate_bruteforce(a1, a2, 1, 1):
                e = (sum(s2) - a1, sum(s1) - a2)
                w = prod(p1[t] for t in s1) * prod(p2[t] for t in s2)
                want[e] = want.get(e, 0) + w
            assert greedy_combinatorial(mode, a1, a2).terms == want, (mode, a1, a2)
    assert pair_weight(CoefficientMode(1, 1, (1, 2), (1, 1)), (1,), ()) == 2
    assert pair_weight(CoefficientMode(1, 1, (1, 1), (1, 2)), (1,), (1,)) == 2


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
    msg = "^pass budget 20 exhausted with the residual's lowest level at 18$"
    with pytest.raises(NotInAlgebra, match=msg):
        greedy_expand(mode23, bad)


def test_greedy_expand_round_trips_a_box_and_leaves_its_input_alone():
    # f = sum c_p x[p] over the box [-2, 5]^2 expands back to {p: c_p}, and
    # the residual it works on is a copy: f.terms is the same dict, unchanged
    rng = random.Random(24)
    sym = CoefficientMode.symbolic(2, 2)
    rho = CoeffPoly.rho(1, 2)
    for mode, coeffs in ((sym, (1, 2, rho, rho * rho + 3, 1 - rho)),
                         (CoefficientMode.numeric((1, 2, 2, 1), (1, 1, 1, 1)), (1, 2, 5, -3))):
        box = list(product(range(-2, 6), repeat=2))
        want = {p: rng.choice(coeffs) for p in box}
        f = LaurentPoly.zero()
        for p, c in want.items():
            f = f + c * greedy_combinatorial(mode, *p)
        terms, before = f.terms, dict(f.terms)
        assert greedy_expand(mode, f) == want, mode
        assert f.terms is terms and f.terms == before


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
