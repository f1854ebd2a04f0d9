import random
import subprocess
import sys

import pytest

from conftest import expected_x3, pmul
from gca2.cluster import AlgebraContext
from gca2.coeffring import CoeffPoly, CoefficientMode, NotDivisible
from gca2.laurent import (LaurentPoly, NotLaurent, NotPointed,
                          SymbolicModeUnsupported, from_json, lp_add,
                          lp_eval_univariate, lp_exact_div, lp_is_positive,
                          lp_mul, lp_pow, lp_substitute_ratio, lp_to_pointed,
                          render, to_json)

X1 = LaurentPoly.var(1)
X2 = LaurentPoly.var(2)
P1 = lp_add(lp_add(LaurentPoly.monomial(0, 0), X2), lp_pow(X2, 2))  # 1+x2+x2^2


def rand_laurent(rng, symbolic=False, n=None, e1=(-4, 4), e2=(-4, 4), base=(0, 0)):
    terms = {}
    for _ in range(rng.randint(1, 6) if n is None else n):
        e = (base[0] + rng.randint(*e1), base[1] + rng.randint(*e2))
        if symbolic:
            c = CoeffPoly.const(rng.randint(-5, 5))
            if rng.random() < 0.5:
                c = c + rng.randint(0, 2) * CoeffPoly.rho(1, 3)
            if rng.random() < 0.3:
                c = c * CoeffPoly.vrho(1, 2)
        else:
            c = rng.randint(-9, 9)
        terms[e] = c
    return LaurentPoly(terms)


def test_ring_examples():
    assert lp_mul(X1, LaurentPoly.monomial(-1, 0)) == LaurentPoly.monomial(0, 0)
    assert lp_pow(LaurentPoly.monomial(0, 0) + X2, 2) == \
        LaurentPoly({(0, 0): 1, (0, 1): 2, (0, 2): 1})
    f = rand_laurent(random.Random(1))
    assert lp_add(f, lp_mul(-1, f)) == LaurentPoly.zero()
    with pytest.raises(ValueError):
        lp_pow(X1, -1)


def test_exact_div_examples():
    f = LaurentPoly({(1, 1): 1, (0, 2): 1})  # x1 x2 + x2^2
    assert lp_exact_div(f, X2) == X1 + X2
    with pytest.raises(NotDivisible):
        lp_exact_div(X1 + X2, X1 - X2)
    with pytest.raises(ZeroDivisionError):
        lp_exact_div(X1, LaurentPoly.zero())


def test_exact_div_roundtrip_random():
    for symbolic in (False, True):
        rng = random.Random(42 + symbolic)
        done = 0
        while done < 500:
            f = rand_laurent(rng, symbolic)
            g = rand_laurent(rng, symbolic)
            if not g:
                continue
            assert lp_exact_div(lp_mul(f, g), g) == f
            done += 1


def test_mul_matches_independent_oracle():
    """Packed-key products equal conftest.pmul, which shares no library code."""
    rng = random.Random(2024)
    big = 2 ** 40
    shapes = [
        # (terms, e1 range, e2 range, base) for each operand
        ((6, (-4, 4), (-4, 4), (0, 0)), (6, (-4, 4), (-4, 4), (0, 0))),
        ((8, (-6, -1), (0, 1), (0, 0)), (3, (-2, 2), (-9, 9), (0, 0))),
        ((1, (-5, 5), (-5, 5), (0, 0)), (7, (-5, 5), (-5, 5), (0, 0))),
        ((5, (0, 3), (0, 3), (big, -big)), (5, (-3, 0), (-3, 0), (-big, big))),
        ((4, (-2, 2), (0, big), (0, 0)), (4, (-big, big), (-2, 2), (big, 0))),
    ]
    for symbolic in (False, True):
        for sa, sb in shapes:
            for _ in range(40):
                a = rand_laurent(rng, symbolic, *sa)
                b = rand_laurent(rng, symbolic, *sb)
                expect = pmul(a.terms, b.terms)
                assert (a * b).terms == expect
                assert (b * a).terms == expect
    # empty operands, constants, and coefficients that cancel to zero
    f = rand_laurent(rng)
    assert (f * LaurentPoly.zero()).terms == {}
    assert (LaurentPoly.zero() * f).terms == {}
    assert (f * 0).terms == {}
    assert (3 * f).terms == pmul({(0, 0): 3}, f.terms)
    assert (X1 - X2) * (X1 + X2) == LaurentPoly({(2, 0): 1, (0, 2): -1})
    g = LaurentPoly({(-1, 0): 1, (0, -1): -1, (1, 1): 2})
    h = LaurentPoly({(1, 0): 1, (0, 1): 1, (-1, -1): 2})
    assert (g * h).terms == pmul(g.terms, h.terms)
    assert all(c for c in (g * h).terms.values())


def test_exact_div_of_oracle_products():
    rng = random.Random(99)
    big = 2 ** 40
    for symbolic in (False, True):
        for base in ((0, 0), (-7, 3), (big, -big)):
            for _ in range(120):
                f = rand_laurent(rng, symbolic, base=base)
                g = rand_laurent(rng, symbolic, e1=(-3, 3), e2=(-5, 2))
                if g:
                    prod = LaurentPoly(pmul(f.terms, g.terms))
                    assert prod.exact_div(g) == f


def test_exact_div_rejects_non_divisible_without_hanging():
    """A pointed divisor once let the lowest remainder term grow forever."""
    code = (
        "from gca2.coeffring import NotDivisible\n"
        "from gca2.laurent import LaurentPoly\n"
        "x1, x2 = LaurentPoly.var(1), LaurentPoly.var(2)\n"
        "try:\n"
        "    (x1 * x1 + x1 + 1 + x2).exact_div(x1 + 1)\n"
        "except NotDivisible:\n"
        "    print('NotDivisible')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=20)
    assert proc.stdout.strip() == "NotDivisible", proc.stderr
    with pytest.raises(NotDivisible):
        lp_exact_div(X1 * X1 + X2 * X2, X1 + X2)  # remainder 2*x2^2
    with pytest.raises(NotDivisible):
        lp_exact_div(X1 + X2, X1 * X1 + X2)  # divisor of higher degree
    with pytest.raises(NotDivisible):
        lp_exact_div(3 * X1, 2 * X1)  # non-unit lowest coefficient


def test_eval_univariate():
    assert lp_eval_univariate((1, 1, 1), X2) == P1
    assert lp_eval_univariate((1,), X1 + X2) == LaurentPoly.monomial(0, 0)
    assert lp_eval_univariate((1, 1, 1, 1), X1) == \
        LaurentPoly({(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1})
    with pytest.raises(ValueError):
        lp_eval_univariate((), X1)


def test_substitute_ratio_examples():
    # x1 -> (1+x2+x2^2)/y
    got = lp_substitute_ratio(X1, 1, P1)
    assert got == LaurentPoly({(-1, 0): 1, (-1, 1): 1, (-1, 2): 1})
    # the generalized variable maps back to the old one
    x3 = LaurentPoly({(-1, 0): 1, (-1, 1): 1, (-1, 2): 1})
    assert lp_substitute_ratio(x3, 1, P1) == X1
    # a genuine denominator is detected
    with pytest.raises(NotLaurent):
        lp_substitute_ratio(X1 + LaurentPoly.monomial(-1, 0), 1,
                            LaurentPoly.monomial(0, 0) + X2)
    with pytest.raises(ValueError):
        lp_substitute_ratio(X1, 1, X1)  # numerator in the wrong variable


def test_substitute_ratio_double_inverts_cluster_variables(mode23):
    ctx = AlgebraContext(mode23)
    num = lp_eval_univariate(mode23.p1_coeffs(), X2)
    for k in range(1, 6):
        f = ctx.cluster_variable(k)
        assert lp_substitute_ratio(lp_substitute_ratio(f, 1, num), 1, num) == f


def test_to_pointed_examples():
    x3 = LaurentPoly({(-1, 0): 1, (-1, 1): 1, (-1, 2): 1})
    pf = lp_to_pointed(x3)
    assert pf.point == (1, 0)
    assert pf.coeffs == {(0, 0): 1, (0, 1): 1, (0, 2): 1}
    assert pf.to_laurent() == x3

    one = LaurentPoly.monomial(0, 0)
    assert lp_to_pointed(one).point == (0, 0)
    assert lp_to_pointed(one).coeffs == {(0, 0): 1}

    with pytest.raises(NotPointed):
        lp_to_pointed(X1 + X2)  # two minimal corners
    with pytest.raises(NotPointed):
        lp_to_pointed(LaurentPoly.zero())
    with pytest.raises(NotPointed):
        lp_to_pointed(2 * one)


def test_pointed_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        c1, c2 = rng.randint(-5, 5), rng.randint(-5, 5)
        terms = {(c1, c2): 1}
        for _ in range(rng.randint(0, 6)):
            p, q = rng.randint(0, 4), rng.randint(0, 4)
            if (p, q) != (0, 0):
                terms[(c1 + p, c2 + q)] = rng.randint(-9, 9) or 1
        f = LaurentPoly(terms)
        pf = lp_to_pointed(f)
        assert pf.point == (-c1, -c2)
        assert pf.to_laurent() == f


def test_is_positive():
    assert lp_is_positive(P1)
    assert not lp_is_positive(X1 - X2)
    assert not lp_is_positive(LaurentPoly.zero())
    with pytest.raises(SymbolicModeUnsupported):
        lp_is_positive(LaurentPoly.const(CoeffPoly.rho(1, 2)))


def test_json_roundtrip_and_term_order(mode23, sym23):
    ctx = AlgebraContext(mode23)
    f = ctx.cluster_variable(5)
    data = to_json(f, mode23)
    assert from_json(data, mode23) == f
    keys = [tuple(rec["e"]) for rec in data["terms"]]
    assert keys == sorted(keys)

    sctx = AlgebraContext(sym23)
    g = sctx.cluster_variable(4)
    assert from_json(to_json(g, sym23), sym23) == g


def test_golden_x3_terms(mode23):
    ctx = AlgebraContext(mode23)
    assert ctx.cluster_variable(3).terms == expected_x3()


def test_render_deterministic():
    f = LaurentPoly({(-1, 0): 1, (2, 3): -4, (0, 0): 7})
    assert render(f) == "x1^-1 + 7 + -4*x1^2*x2^3"
    assert render(LaurentPoly.zero()) == "0"
