import random
from fractions import Fraction
from math import prod

import pytest

from conftest import ALL_ONES, expected_x3, expected_x4, expected_x5
from gca2 import verify
from gca2.cluster import AlgebraContext
from gca2.coeffring import CoefficientMode
from gca2.greedy import greedy_combinatorial, reflect_params
from gca2.laurent import LaurentPoly, NotLaurent, lp_to_pointed


def test_cluster_variable_golden(mode23):
    ctx = AlgebraContext(mode23)
    assert ctx.cluster_variable(1) == LaurentPoly.var(1)
    assert ctx.cluster_variable(2) == LaurentPoly.var(2)
    assert ctx.cluster_variable(3).terms == expected_x3()
    assert ctx.cluster_variable(4).terms == expected_x4()
    assert ctx.cluster_variable(5).terms == expected_x5()


def test_exchange_relation_holds_both_directions(mode23):
    ctx = AlgebraContext(mode23)
    for k in range(-3, 6):
        lhs = ctx.cluster_variable(k + 1) * ctx.cluster_variable(k - 1)
        p = mode23.polys[k % 2]  # P1 on even k, P2 on odd k
        rhs = LaurentPoly.zero()
        for t, c in enumerate(p):
            rhs = rhs + c * ctx.cluster_variable(k) ** t
        assert lhs == rhs, k


def _evaluate(f, point, gens):
    """f at (x1, x2) = point, each CoeffPoly coefficient taken at gens,
    a map (family, index) -> value."""
    a, b = point
    total = Fraction(0)
    for (e1, e2), c in f.terms.items():
        if not isinstance(c, int):
            c = sum(n * prod(gens[gid] ** e for gid, e in mono) for mono, n in c.terms.items())
        total += c * a ** e1 * b ** e2
    return total


def _recursion_values(p1, p2, point, ks):
    """v_k for k in ks from (v_1, v_2) = point by v_{k+1} v_{k-1} = P(v_k),
    P = p1 on even k and p2 on odd k, coefficients low degree first."""
    def p_at(k, v):
        return sum(c * v ** t for t, c in enumerate(p1 if k % 2 == 0 else p2))
    v = {1: point[0], 2: point[1]}
    for k in range(2, max(ks)):
        v[k + 1] = p_at(k, v[k]) / v[k - 1]
    for k in range(1, min(ks), -1):
        v[k - 1] = p_at(k, v[k]) / v[k + 1]
    return v


def test_cluster_variables_match_the_value_recursion():
    # an oracle that shares no code with gca2: x_k evaluated at a rational
    # point equals the exchange recursion run on the values themselves
    rng = random.Random(1309)
    r, v = rng.sample(range(2, 10), 2)
    gens = {("rho", 1): r, ("vrho", 1): v}
    numeric = CoefficientMode.numeric
    systems = [(numeric((1, 2, 1), (1, 3, 3, 1)), range(-5, 9)),
               (numeric((1, 1), (1, 2, 3, 2, 1)), range(-5, 9)),
               (CoefficientMode.symbolic(2, 3), range(-3, 7))]
    for mode, ks in systems:
        # the symbolic mode specialized at gens: P1 = 1 + r z + z^2, P2 palindromic
        p1, p2 = (mode.p1, mode.p2) if mode.is_numeric else ((1, r, 1), (1, v, v, 1))
        ctx = AlgebraContext(mode)
        n1, d1, n2, d2 = rng.sample((2, 3, 5, 7, 11, 13), 4)  # x1 != x2, neither is 1
        point = (Fraction(n1, d1), Fraction(n2, d2))
        want = _recursion_values(p1, p2, point, ks)
        for k in ks:
            assert _evaluate(ctx.cluster_variable(k), point, gens) == want[k], (mode, k)


def test_laurent_contract_all_systems():
    systems = [(mode, range(-4, 8)) for mode in ALL_ONES.values()]
    assert verify.laurent_phenomenon(systems=systems) is None


def test_standard_monomial_examples(mode23):
    ctx = AlgebraContext(mode23)
    assert ctx.standard_monomial(1, -1, -2) == LaurentPoly.monomial(1, 2)
    want = ctx.cluster_variable(0) * ctx.cluster_variable(3)
    assert ctx.standard_monomial(1, 1, 1) == want
    assert ctx.standard_monomial(1, 0, 0) == LaurentPoly.monomial(0, 0)
    assert ctx.standard_monomial(2, -2, 1) == \
        ctx.cluster_variable(1) * ctx.cluster_variable(2) ** 2


def test_standard_monomial_is_pointed(mode23):
    ctx = AlgebraContext(mode23)
    for a1 in range(-2, 3):
        for a2 in range(-2, 3):
            pf = lp_to_pointed(ctx.standard_monomial(1, a1, a2))
            assert pf.point == (a1, a2), (a1, a2)


def test_chebyshev_values(mode23):
    ctx = AlgebraContext(mode23)
    for j in range(-3, 4):
        assert ctx.chebyshev_u(0, j) == 1
        assert ctx.chebyshev_u(-1, j) == 0
    assert ctx.chebyshev_u(1, 1) == 3
    assert ctx.chebyshev_u(1, 2) == 2
    assert ctx.chebyshev_u(2, 1) == 5
    assert ctx.chebyshev_u(-2, 1) == -1
    # recursion holds on a window in both directions
    for k in range(-3, 5):
        for j in range(-4, 5):
            d = mode23.d1 if j % 2 else mode23.d2
            assert ctx.chebyshev_u(k + 1, j + 1) == \
                d * ctx.chebyshev_u(k, j) - ctx.chebyshev_u(k - 1, j - 1)


def test_cluster_variables_are_greedy_elements():
    # validates the parity convention for d_j before larger k is trusted
    modes = [ALL_ONES[key] for key in ((2, 3), (2, 2), (1, 1))]
    assert verify.cluster_variables_are_greedy(modes=modes, ks=range(-2, 6)) is None


def test_greedy_params_of_cluster_variable(mode23):
    ctx = AlgebraContext(mode23)
    assert ctx.greedy_params_of_cluster_variable(1) == (-1, 0)
    assert ctx.greedy_params_of_cluster_variable(2) == (0, -1)
    assert ctx.greedy_params_of_cluster_variable(3) == (1, 0)
    assert ctx.greedy_params_of_cluster_variable(4) == (3, 1)
    assert ctx.greedy_params_of_cluster_variable(5) == (5, 2)


def test_greedy_params_of_cluster_monomial(mode23):
    ctx = AlgebraContext(mode23)
    assert ctx.greedy_params_of_cluster_monomial(1, -2, -3) == (-2, -3)
    assert ctx.greedy_params_of_cluster_monomial(4, -1, 0) == (3, 1)
    assert ctx.greedy_params_of_cluster_monomial(5, -1, 0) == (5, 2)
    with pytest.raises(ValueError):
        ctx.greedy_params_of_cluster_monomial(2, 1, 0)
    # z_k[a1,a2] = x_k^-a1 x_{k+1}^-a2 equals the greedy element it names
    for k in range(-1, 5):
        for a1 in range(-2, 1):
            for a2 in range(-2, 1):
                b1, b2 = ctx.greedy_params_of_cluster_monomial(k, a1, a2)
                want = (ctx.cluster_variable(k) ** -a1
                        * ctx.cluster_variable(k + 1) ** -a2)
                assert greedy_combinatorial(mode23, b1, b2) == want, (k, a1, a2)


def test_factorization_of_cluster_monomials(mode23):
    # x[a1 u_{k-3,1} + a2 u_{k-2,1}, a1 u_{k-4,2} + a2 u_{k-3,2}]
    #   = x[u_{k-3,1}, u_{k-4,2}]^a1 * x[u_{k-2,1}, u_{k-3,2}]^a2
    ctx = AlgebraContext(mode23)
    u = ctx.chebyshev_u
    for k in (2, 3):
        for a1 in range(3):
            for a2 in range(3):
                point = (a1 * u(k - 3, 1) + a2 * u(k - 2, 1),
                         a1 * u(k - 4, 2) + a2 * u(k - 3, 2))
                lhs = greedy_combinatorial(mode23, *point)
                rhs = (greedy_combinatorial(mode23, u(k - 3, 1), u(k - 4, 2)) ** a1
                       * greedy_combinatorial(mode23, u(k - 2, 1), u(k - 3, 2)) ** a2)
                assert lhs == rhs, (k, a1, a2)


def test_expand_in_cluster_examples(mode23):
    ctx = AlgebraContext(mode23)
    x3 = ctx.cluster_variable(3)
    assert ctx.expand_in_cluster(x3, 2) == LaurentPoly.monomial(0, 1)
    got = ctx.expand_in_cluster(LaurentPoly.var(1), 2)
    assert got == LaurentPoly({(0, -1): 1, (1, -1): 1, (2, -1): 1})
    assert ctx.expand_in_cluster(x3, 1) == x3


def test_cluster_expansions_reach_any_range(mode23):
    ctx = AlgebraContext(mode23)
    ks = [k for k, _ in ctx.iter_cluster_expansions(LaurentPoly.var(1), -8, 9)]
    assert sorted(ks) == list(range(-8, 10))
    with pytest.raises(ValueError):
        next(ctx.iter_cluster_expansions(LaurentPoly.var(1), 2, 1))


def test_expand_in_cluster_is_consistent_with_variables(mode23):
    # x_m expanded in cluster k is a monomial when m is k or k+1
    ctx = AlgebraContext(mode23)
    for k in range(-2, 4):
        assert ctx.expand_in_cluster(ctx.cluster_variable(k), k) == \
            LaurentPoly.monomial(1, 0)
        assert ctx.expand_in_cluster(ctx.cluster_variable(k + 1), k) == \
            LaurentPoly.monomial(0, 1)


def test_not_laurent_names_the_failing_step(mode23):
    ctx = AlgebraContext(mode23)
    f = LaurentPoly({(1, 0): 1, (-1, 0): 1})  # x1 + x1^-1
    # x1^-1 = x3 / P(x2) is not Laurent in (x2, x3)
    step = "cluster step 1 -> 2: substituting x1, slice e=-1"
    with pytest.raises(NotLaurent, match=step):
        ctx.expand_in_cluster(f, 2)
    assert ctx.expand_in_cluster(f, 0) == LaurentPoly({(0, 1): 1, (0, -1): 1})
    g = LaurentPoly({(0, 1): 1, (0, -1): 1})  # x2 + x2^-1
    step = "cluster step 1 -> 0: substituting x2, slice e=-1"
    with pytest.raises(NotLaurent, match=step):
        ctx.expand_in_cluster(g, -1)
    with pytest.raises(NotLaurent, match="reflection p=2: substituting x1, slice e=-1"):
        ctx.apply_reflection(LaurentPoly.monomial(-1, 0), 2)
    with pytest.raises(NotLaurent, match="reflection p=1: substituting x2, slice e=-2"):
        ctx.apply_reflection(LaurentPoly.monomial(0, -2), 1)


def test_cluster_variable_names_the_failing_cluster_step():
    # P1 = 1 + 2z is not palindromic, and the Laurent phenomenon fails:
    # x5 = P1(x4) / x3 = (x1 (x2 + 2) + 2 (1 + 2 x2)) / (x2 (1 + 2 x2))
    ctx = AlgebraContext(CoefficientMode(1, 1, (1, 2), (1, 1)))
    assert ctx.cluster_variable(4) == LaurentPoly({(0, -1): 1, (-1, 0): 2, (-1, -1): 1})
    step = r"cluster step 2 -> 1: substituting x2, slice e=-1: "
    with pytest.raises(NotLaurent, match=step):
        ctx.cluster_variable(5)


def test_apply_reflection_examples(mode23):
    ctx = AlgebraContext(mode23)
    x1 = LaurentPoly.var(1)
    assert ctx.apply_reflection(x1, 2) == ctx.cluster_variable(3)
    assert verify.reflection_involution(mode=mode23, ks=range(1, 6)) is None
    got = ctx.apply_reflection(greedy_combinatorial(mode23, 5, 2), 2)
    assert got == greedy_combinatorial(mode23, 1, 2)
    with pytest.raises(ValueError):
        ctx.apply_reflection(x1, 3)


def test_reflection_on_variables_shifts_the_index(mode23):
    # sigma_p(x_k) = x_{2p-k}
    ctx = AlgebraContext(mode23)
    for p in (1, 2):
        for k in range(-1, 5):
            got = ctx.apply_reflection(ctx.cluster_variable(k), p)
            assert got == ctx.cluster_variable(2 * p - k), (p, k)


def test_dihedral_consistency_with_reflect_params(mode23):
    ctx = AlgebraContext(mode23)
    for a1 in range(-2, 3):
        for a2 in range(-2, 3):
            f = greedy_combinatorial(mode23, a1, a2)
            for p in (1, 2):
                img = ctx.apply_reflection(f, p)
                assert lp_to_pointed(img).point == \
                    reflect_params(mode23, p, a1, a2), (a1, a2, p)


def test_symbolic_cluster_variables(sym23):
    assert verify.laurent_phenomenon(systems=[(sym23, range(-2, 6))]) is None
    ctx = AlgebraContext(sym23)
    assert ctx.cluster_variable(5) == greedy_combinatorial(sym23, 5, 2)
    # specializing the symbolic variable at all-ones gives the numeric one
    num = AlgebraContext(ALL_ONES[(2, 3)])
    sym_x5 = ctx.cluster_variable(5)
    ones = {g: 1 for c in sym_x5.terms.values() for g in c.generators()}
    specialized = LaurentPoly({e: c.eval(ones) for e, c in sym_x5.terms.items()})
    assert specialized == num.cluster_variable(5)
