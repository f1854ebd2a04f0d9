import json
import random
import subprocess
import sys
from math import comb, isqrt

import pytest

from conftest import expected_x3, padd, pmul, ppow
from gca2 import coeffring, laurent, verify
from gca2.cluster import AlgebraContext
from gca2.coeffring import CoeffPoly
from gca2.laurent import (LaurentPoly, NotDivisible, NotLaurent, NotPointed,
                          SymbolicModeUnsupported, from_json,
                          lp_eval_univariate, lp_is_positive,
                          lp_substitute_ratio, lp_to_pointed, render, to_json)

X1 = LaurentPoly.var(1)
X2 = LaurentPoly.var(2)
P1 = (LaurentPoly.monomial(0, 0) + X2) + X2 ** 2  # 1+x2+x2^2


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


def test_oracle_toolkit_drops_zero_terms():
    # a term whose first contribution is 0 is never stored, nor deleted
    assert pmul({(0, 0): 1, (0, 1): 0}, {(0, 0): 1}) == {(0, 0): 1}
    assert padd({(0, 0): 1, (0, 1): 0}) == {(0, 0): 1}
    assert ppow({(0, 0): 1, (0, 1): 0, (0, 2): 1}, 2) == {(0, 0): 1, (0, 2): 2, (0, 4): 1}


def test_ring_examples():
    assert X1 * LaurentPoly.monomial(-1, 0) == LaurentPoly.monomial(0, 0)
    assert (LaurentPoly.monomial(0, 0) + X2) ** 2 == \
        LaurentPoly({(0, 0): 1, (0, 1): 2, (0, 2): 1})
    f = rand_laurent(random.Random(1))
    assert f + (-1) * f == LaurentPoly.zero()
    with pytest.raises(ValueError):
        X1 ** -1


def test_exact_div_examples():
    f = LaurentPoly({(1, 1): 1, (0, 2): 1})  # x1 x2 + x2^2
    assert f.exact_div(X2) == X1 + X2
    with pytest.raises(NotDivisible):
        (X1 + X2).exact_div(X1 - X2)
    with pytest.raises(ZeroDivisionError):
        X1.exact_div(LaurentPoly.zero())
    # the divisor's minimal coefficient must be 1 or -1: the quotient's
    # coefficients are then the remainder's, up to sign
    assert (X1 * X1).exact_div(-X1) == -X1
    assert (X1 * X1 - X1 * X2).exact_div(X1 - X2) == X1  # corner -x2
    with pytest.raises(NotDivisible):
        (2 * X1).exact_div(2 * X1)


def test_exact_div_roundtrip_random():
    # up to 6 terms, exponents in [-4, 4], numeric coefficients in [-9, 9]
    for seed, ring in ((42, "numeric"), (43, "symbolic")):
        assert verify.division_roundtrip(ring=ring, seed=seed, cases=500, shape=(6, 4, 9)) is None


def dense(rng, s1, s2, bits, base=(0, 0), triangle=False):
    """Terms on every monomial of an s1 x s2 box (or its lower-left triangle)."""
    terms = {}
    for i in range(s1):
        for j in range(s2):
            if not triangle or i * s2 + j * s1 < s1 * s2:
                c = rng.randint(-(2 ** bits), 2 ** bits) or 1
                terms[(base[0] + i, base[1] + j)] = c
    return terms


def test_mul_matches_independent_oracle():
    """Products equal conftest.pmul, which shares no library code."""
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


# The five tests below keep the dense, wide-coefficient inputs that once
# stressed a Kronecker-substitution multiply; they now pin the plain
# product loop on the same shapes.

def test_kronecker_mul_matches_oracle_on_dense_supports():
    rng = random.Random(4046)
    cases = [  # dense boxes and triangles with 3- to 300-bit signed coefficients
        (dense(rng, 7, 7, 3, triangle=True), dense(rng, 6, 6, 3, (-3, 2), True)),
        (dense(rng, 12, 9, 20, (-7, -2), True), dense(rng, 10, 10, 40, triangle=True)),
        (dense(rng, 16, 16, 8, triangle=True), dense(rng, 3, 20, 8, (4, -9))),
        (dense(rng, 14, 14, 300), dense(rng, 15, 13, 300, (-20, 20))),
        (dense(rng, 40, 30, 1, triangle=True), dense(rng, 3, 3, 1, (-1, -1))),
    ]
    cases = [(LaurentPoly(a), LaurentPoly(b)) for a, b in cases]
    for a, b in cases:
        expect = pmul(a.terms, b.terms)
        assert (a * b).terms == expect
        assert (b * a).terms == expect
    big = max(abs(c) for c in cases[3][0].terms.values())
    assert big.bit_length() > 290


def test_kronecker_mul_cancellation():
    # (box of ones) * (1 - x1)(1 - x2) = (1 - x1^s)(1 - x2^s): every term
    # but four cancels (over Z a product of nonzero factors is never empty)
    s = 12
    ones = LaurentPoly({(i, j): 1 for i in range(s) for j in range(s)})
    corners = LaurentPoly({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    assert (ones * corners).terms == {(0, 0): 1, (s, 0): -1, (0, s): -1, (s, s): 1}
    # and with signs: (sum of (-x)^i, i < s) * (1 + x) = 1 - x^s for even s
    signs = LaurentPoly({(i, j): (-1) ** (i + j) for i in range(s) for j in range(s)})
    plus = LaurentPoly({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert (signs * plus).terms == {(0, 0): 1, (s, 0): -1, (0, s): -1, (s, s): 1}


def test_kronecker_mul_tight_slot_bound():
    # aligned n-term boxes with every coefficient +-m: the middle coefficient
    # of the product is +-n*m*m, at 7 to 24 bits
    s = 4
    n = s * s
    for bits in (7, 8, 15, 16, 23, 24):
        m = isqrt((2 ** bits - 1) // n)
        assert (n * m * m).bit_length() == bits
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            a = LaurentPoly({(i, j): sa * m for i in range(s) for j in range(s)})
            b = LaurentPoly({(i, j): sb * m for i in range(s) for j in range(s)})
            got = (a * b).terms
            assert got == pmul(a.terms, b.terms)
            assert got[(s - 1, s - 1)] == sa * sb * n * m * m


def test_kronecker_mul_falls_back_on_coeffpoly_coefficients():
    rng = random.Random(5)
    a = LaurentPoly(dense(rng, 8, 8, 4))
    b = dense(rng, 8, 8, 4)
    b[(3, 3)] = CoeffPoly.rho(1, 3) + 2  # one symbolic coefficient
    b = LaurentPoly(b)
    for x, y in ((a, b), (b, a)):
        assert (x * y).terms == pmul(x.terms, y.terms)


def test_exact_div_of_kronecker_products():
    rng = random.Random(77)
    for side, bits in ((9, 2), (16, 64), (24, 200)):
        f = LaurentPoly(dense(rng, side, side, bits, (-4, 3), triangle=True))
        g = dense(rng, side, side, bits, (2, -5), triangle=True)
        g[(2, -5)] = 1  # pointed, like every divisor in gca2
        g = LaurentPoly(g)
        h = f * g
        assert h.terms == pmul(f.terms, g.terms)
        assert h.exact_div(g) == f


def test_mul_of_widely_spread_operands_is_fast():
    """64-term operands spread over 2**40 multiply fast: the product loop's
    cost follows the term counts, not the exponent spread."""
    code = (
        "import random, time\n"
        "from gca2.laurent import LaurentPoly\n"
        "rng = random.Random(1)\n"
        "def spread(d1, d2):\n"
        "    return LaurentPoly({(rng.randrange(d1), rng.randrange(d2)):"
        " rng.randint(1, 9) for _ in range(64)})\n"
        "worst = 0.0\n"
        "for d1, d2 in ((2**40, 2**40), (2**40, 4), (4, 2**40)):\n"
        "    a, b = spread(d1, d2), spread(d1, d2)\n"
        "    assert len(a.terms) >= 64 and len(b.terms) >= 64\n"
        "    t = time.perf_counter()\n"
        "    a * b\n"
        "    worst = max(worst, time.perf_counter() - t)\n"
        "print(worst)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.5


def test_exact_div_of_oracle_products():
    rng = random.Random(99)
    big = 2 ** 40
    for symbolic in (False, True):
        for base in ((0, 0), (-7, 3), (big, -big)):
            for _ in range(120):
                f = rand_laurent(rng, symbolic, base=base)
                g = rand_laurent(rng, symbolic, e1=(-3, 3), e2=(-5, 2))
                if g:
                    m1, m2 = g.min_exponents()
                    g = g + LaurentPoly.monomial(m1 - 1, m2 - 1)  # unit corner
                    prod = LaurentPoly(pmul(f.terms, g.terms))
                    assert prod.exact_div(g) == f


def test_exact_div_rejects_non_divisible_without_hanging():
    """A pointed divisor once let the lowest remainder term grow forever."""
    code = (
        "from gca2.laurent import LaurentPoly, NotDivisible\n"
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
        (X1 * X1 + X2 * X2).exact_div(X1 + X2)  # remainder 2*x2^2
    with pytest.raises(NotDivisible):
        (X1 + X2).exact_div(X1 * X1 + X2)  # divisor of higher degree
    with pytest.raises(NotDivisible):
        (3 * X1).exact_div(2 * X1)  # non-unit lowest coefficient


def test_eval_univariate():
    assert lp_eval_univariate((1, 1, 1), X2) == P1
    assert lp_eval_univariate((1,), X1 + X2) == LaurentPoly.monomial(0, 0)
    assert lp_eval_univariate((1, 1, 1, 1), X1) == \
        LaurentPoly({(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1})
    with pytest.raises(ValueError):
        lp_eval_univariate((), X1)


def test_substitute_ratio_examples():
    # x1 -> (1+x2+x2^2)/y, in cluster order: x2 in slot 1, y in slot 2
    got = lp_substitute_ratio(X1, 1, (1, 1, 1))
    assert got == LaurentPoly({(0, -1): 1, (1, -1): 1, (2, -1): 1})
    # the generalized variable maps back to the old one, now in slot 2
    x3 = LaurentPoly({(-1, 0): 1, (-1, 1): 1, (-1, 2): 1})
    assert lp_substitute_ratio(x3, 1, (1, 1, 1)) == X2
    # a genuine denominator is detected
    with pytest.raises(NotLaurent):
        lp_substitute_ratio(X1 + LaurentPoly.monomial(-1, 0), 1, (1, 1))
    # constant term not 1, or no leading coefficient
    for p in ((), (0, 1), (2, 1), (1, 1, 0)):
        with pytest.raises(ValueError):
            lp_substitute_ratio(X1, 1, p)


def test_substitute_ratio_double_inverts_cluster_variables(mode23):
    ctx = AlgebraContext(mode23)
    p = mode23.polys[0]
    for k in range(1, 6):
        f = ctx.cluster_variable(k)
        # the first call leaves x2 in slot 1 and the new variable in slot 2
        assert lp_substitute_ratio(lp_substitute_ratio(f, 1, p), 2, p) == f


@pytest.fixture
def slice_paths(monkeypatch):
    """Record, per slice with e >= 0 of an all-int substitution, if it was packed."""
    calls = []
    real = laurent._packing_pays

    def spy(*args):
        out = real(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(laurent, "_packing_pays", spy)
    return calls


def rows(terms: dict, sel: int) -> dict:
    """Exponent in slot sel -> the terms with that exponent, slot sel set to 0."""
    out: dict = {}
    for e, c in terms.items():
        out.setdefault(e[sel], {})[(0, e[1]) if sel == 0 else (e[0], 0)] = c
    return out


def assert_substitution(f, var, p, got):
    """got == f(x_var -> p(x_other) / y), row by row with conftest.pmul and
    ppow only.

    got is in cluster order, x_other in slot var and y in the other slot, so
    swapped back y sits in slot var.  Row -e of that must be slice_e *
    num**e for e >= 0, num = p(x_other); for e < 0 it must give slice_e back
    when multiplied by num**-e.
    """
    got = got.swap_vars()
    num = LaurentPoly(in_var(var, dict(enumerate(p))))
    sel = var - 1
    f_rows, got_rows = rows(f.terms, sel), rows(got.terms, sel)
    assert sorted(got_rows) == sorted(-e for e in f_rows)
    for e, sl in f_rows.items():
        if e >= 0:
            assert got_rows[-e] == pmul(sl, ppow(num.terms, e)), e
        else:
            assert pmul(got_rows[-e], ppow(num.terms, -e)) == sl, e


def in_var(var: int, coeffs: dict) -> dict:
    """{j: c} as terms in the variable other than x_var."""
    return {((0, j) if var == 1 else (j, 0)): c for j, c in coeffs.items()}


def sliced(var: int, slices: dict) -> LaurentPoly:
    """The polynomial with x_var-exponent e slice slices[e] (a term dict)."""
    sel = var - 1
    return LaurentPoly({((e, k[1]) if sel == 0 else (k[0], e)): c
                        for e, sl in slices.items() for k, c in sl.items()})


def random_substitution(rng, var, p, es, n, bits):
    """f with a dense n-term signed slice at each e in es; slices with e < 0
    are multiples of p(x_other)**-e, so f stays Laurent under
    x_var -> p(x_other) / y."""
    num = LaurentPoly(in_var(var, dict(enumerate(p))))
    slices = {}
    for e in es:
        lo = rng.randint(-5, 5)
        q = in_var(var, {lo + i: rng.randint(-(2 ** bits), 2 ** bits) or 1
                         for i in range(n)})
        slices[e] = q if e >= 0 else pmul(q, ppow(num.terms, -e))
    return sliced(var, slices)


POLYS = {  # coefficients of p, low degree first
    "ones": (1, 1, 1),
    "zero inner coefficient": (1, 0, 1),
    "signed": (1, -2, 0, 3),
}


def test_substitute_ratio_packed_matches_oracle(slice_paths):
    rng = random.Random(812)
    for name, p in POLYS.items():
        for var in (1, 2):
            for n, bits in ((12, 3), (20, 64), (6, 200)):
                f = random_substitution(rng, var, p, range(-3, 15), n, bits)
                del slice_paths[:]
                assert_substitution(f, var, p, lp_substitute_ratio(f, var, p))
                # one decision per slice with e >= 0, and the dense
                # high-e slices are packed
                assert len(slice_paths) == 15, name
                assert slice_paths[-1], (name, var, n, bits)


def test_substitute_ratio_packed_cancellation(slice_paths):
    # (1 - x)^12 * (1 + x)^12 = (1 - x^2)^12: every odd slot cancels
    for var in (1, 2):
        plus = in_var(var, {0: 1, 1: 1})
        minus = in_var(var, {0: 1, 1: -1})
        f = sliced(var, {12: ppow(minus, 12), -2: pmul(minus, ppow(plus, 2))})
        got = lp_substitute_ratio(f, var, (1, 1))
        assert_substitution(f, var, (1, 1), got)
        assert len(rows(got.terms, 2 - var)[-12]) == 13  # x^0, x^2, ..., x^24
        assert all(c for c in got.terms.values())
    assert slice_paths == [True, True]


def test_substitute_ratio_tight_slot_bound(slice_paths):
    # slice 1 + x + ... + x^8 + M x^9 and p = 1 + x + K x^2 with K = 2**k, at
    # e = 16: the largest output coefficient, M*K**16 at x^41, has as many
    # bits as the bound |slice|_1 * |p|_1**16 that sizes the slots.  At
    # 8*t - 1 bits the sign bit is the last free bit of a t-byte slot; at
    # 8*t bits it needs t + 1.
    e = 16
    for bits in (135, 136, 191, 192, 255, 256):
        k = (bits - 8) // 16
        m = 3 << (bits - 16 * k - 2)  # bits - 16*k bits
        for sign in (1, -1):
            sl = {**{i: 1 for i in range(9)}, 9: sign * m}
            p = (1, 1, 2 ** k)
            bound = sum(map(abs, sl.values())) * (2 ** k + 2) ** e
            assert bound.bit_length() == bits
            f = sliced(1, {e: in_var(1, sl)})
            got = lp_substitute_ratio(f, 1, p)
            assert_substitution(f, 1, p, got)
            assert got.terms[(9 + 2 * e, -e)] == sign * m * 2 ** (k * e)
            assert max(abs(c) for c in got.terms.values()).bit_length() == bits
    assert slice_paths == [True] * 12


def test_substitute_ratio_coeffpoly_keeps_dict_path(slice_paths):
    rng = random.Random(3)
    p = POLYS["ones"]
    f = random_substitution(rng, 1, p, range(-2, 10), 10, 30)
    want = lp_substitute_ratio(f, 1, p)
    assert any(slice_paths)
    del slice_paths[:]
    key, c = max(f.terms.items())
    g = LaurentPoly({**f.terms, key: CoeffPoly.const(c)})  # same value
    assert lp_substitute_ratio(g, 1, p) == want
    # a symbolic p too, against the oracle
    sym = (1, CoeffPoly.rho(1, 3), 1)
    f = random_substitution(rng, 1, sym, range(-2, 6), 6, 5)
    assert_substitution(f, 1, sym, lp_substitute_ratio(f, 1, sym))
    assert slice_paths == []


def test_substitute_ratio_wide_slice_stays_on_dict_loop(slice_paths):
    # a two-term slice spread over 2**40 would need 2**40 packed slots
    far = 2 ** 40
    rng = random.Random(9)
    p = POLYS["ones"]
    for var in (1, 2):
        dense = {i: rng.randint(-99, 99) or 1 for i in range(12)}
        f = sliced(var, {3: in_var(var, {0: 1, far: -2}), 12: in_var(var, dense)})
        del slice_paths[:]
        assert_substitution(f, var, p, lp_substitute_ratio(f, var, p))
        assert slice_paths == [False, True]


def test_substitute_ratio_short_slice_fails_before_building_the_power(monkeypatch):
    def refuse(*args):
        raise AssertionError("p**1100 built for a slice shorter than it")

    monkeypatch.setattr(coeffring, "uni_mul", refuse)
    msg = "substituting x1, slice e=-1100: slice shorter than the divisor"
    with pytest.raises(NotLaurent, match=msg):
        lp_substitute_ratio(LaurentPoly.monomial(-1100, 0), 1, (1, 1))


def test_substitute_ratio_exponents_beyond_the_recursion_limit():
    # |e| above the interpreter's default recursion limit of 1000
    with pytest.raises(NotLaurent, match="slice e=-1100"):
        lp_substitute_ratio(LaurentPoly.monomial(-1100, 0), 1, (1, 1))
    got = lp_substitute_ratio(LaurentPoly.monomial(0, 1100), 2, (1, 1))
    assert got.terms == {(-1100, j): comb(1100, j) for j in range(1101)}


def verdict_or_error(fn, *args):
    """fn(*args), or the type and message of the NotLaurent it raises."""
    try:
        return fn(*args)
    except NotLaurent as exc:
        return NotLaurent, str(exc)


def random_verdict_case(rng):
    """(f, var, p): p of degree 1-4 and f with up to three slices at e in
    [-2, 3], each all-nonnegative or signed, coefficients up to 10**30.  A
    slice with e < 0 is a multiple of p(x_other)**-e two times in three, and
    one in four slices is spread out with gaps of 40, so all three slice
    paths (packed, dict loop, division) and NotLaurent are reached."""
    top = rng.choice((2, 10 ** 3, 10 ** 30))
    var, deg = rng.choice((1, 2)), rng.randint(1, 4)
    low = -top if rng.random() < 0.5 else 0
    p = (1, *(rng.randint(low, top) for _ in range(deg - 1)), rng.randint(1, top))
    num = LaurentPoly(in_var(var, dict(enumerate(p)))).terms
    low = -top if rng.random() < 0.4 else 0
    slices = {}
    for e in rng.sample(range(-2, 4), rng.randint(0, 3)):
        gap = 40 if rng.random() < 0.25 else 1
        lo = rng.randint(-3, 3)
        q = in_var(var, {lo + gap * i: rng.randint(low, top) or 1
                         for i in range(rng.randint(1, 5))})
        slices[e] = pmul(q, ppow(num, -e)) if e < 0 and rng.random() < 2 / 3 else q
    return sliced(var, slices), var, p


def test_substitute_ratio_verdict_matches_the_built_result(monkeypatch):
    # the verdict must equal lp_is_positive of the built result, NotLaurent
    # message included; the spies and the counts show that the verdict
    # reaches every slice path (packed, dict loop, division) and every outcome
    inside, reached = [False], set()

    def spy(real):
        def wrapped(*args):
            if inside[0]:
                reached.add(real.__name__)
            return real(*args)
        return wrapped

    def is_positive(*args):
        inside[0] = True
        try:
            return laurent.lp_substitute_ratio_is_positive(*args)
        finally:
            inside[0] = False

    for name in ("_pack", "uni_mul", "_uni_exact_div"):
        monkeypatch.setattr(laurent, name, spy(getattr(laurent, name)))
    rng = random.Random(2020)
    outcomes = {True: 0, False: 0, NotLaurent: 0}
    for _ in range(20_000):
        f, var, p = random_verdict_case(rng)
        want = verdict_or_error(lambda: lp_is_positive(lp_substitute_ratio(f, var, p)))
        got = verdict_or_error(is_positive, f, var, p)
        assert got == want, (f, var, p)
        outcomes[want if type(want) is bool else NotLaurent] += 1
    assert reached == {"_pack", "uni_mul", "_uni_exact_div"}
    assert min(outcomes.values()) > 1_000, outcomes


def test_substitute_ratio_verdict_edge_cases():
    is_positive = laurent.lp_substitute_ratio_is_positive
    assert not is_positive(LaurentPoly.zero(), 1, (1, 1))  # zero is not positive
    assert is_positive(X1, 1, (1, 1)) and not is_positive(-X1, 2, (1, 1))
    for var, p in ((3, (1, 1)), (1, ()), (1, (2, 1)), (2, (1, 1, 0))):
        with pytest.raises(ValueError):
            is_positive(X1, var, p)
    with pytest.raises(NotLaurent, match="substituting x1, slice e=-1100: slice shorter"):
        is_positive(LaurentPoly.monomial(-1100, 0), 1, (1, 1))
    # CoeffPoly coefficients: decided on the built result, as lp_is_positive does
    sym = (1, CoeffPoly.rho(1, 3), 1)
    with pytest.raises(SymbolicModeUnsupported):
        is_positive(X1, 1, sym)
    assert is_positive(X2, 1, sym) and not is_positive(LaurentPoly.zero(), 1, sym)
    for var in (1, 2):
        cases = (  # (slices, p, verdict)
            # a signed slice with a nonnegative product: (1 - x + x^2)(1 + x) = 1 + x^3
            ({1: {0: 1, 1: -1, 2: 1}, 0: {0: 2}}, (1, 1), True),
            # a signed slice that stays signed: (1 - x)(1 + x) = 1 - x^2
            ({1: {0: 1, 1: -1}, 0: {0: 2}}, (1, 1), False),
            # a nonnegative slice times a signed p: 1 * (1 - x + x^2)
            ({1: {0: 1}, 2: {0: 1, 1: 3}}, (1, -1, 1), False),
            ({1: {0: 1, 1: 1}}, (1, -1, 1), True),  # (1 + x)(1 - x + x^2) = 1 + x^3
        )
        for slices, p, verdict in cases:
            f = sliced(var, {e: in_var(var, sl) for e, sl in slices.items()})
            assert lp_is_positive(lp_substitute_ratio(f, var, p)) == verdict
            assert is_positive(f, var, p) == verdict, (var, slices, p)
        # nonnegative slices with e >= 0 around one e < 0 slice that does not
        # divide: the verdict raises the built result's NotLaurent
        f = sliced(var, {0: in_var(var, {0: 1}), -1: in_var(var, {0: 1, 1: 2}),
                         3: in_var(var, {0: 4, 2: 1})})
        want = verdict_or_error(lambda: lp_substitute_ratio(f, var, (1, 1)))
        assert want == (NotLaurent, f"substituting x{var}, slice e=-1: "
                                    "univariate division leaves a remainder")
        assert verdict_or_error(is_positive, f, var, (1, 1)) == want


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
    with pytest.raises(SymbolicModeUnsupported):  # after a negative int
        lp_is_positive(LaurentPoly({(0, 0): -1, (1, 0): CoeffPoly.rho(1, 2)}))


def test_json_roundtrip_and_term_order(mode23, sym23):
    ctx = AlgebraContext(mode23)
    f = ctx.cluster_variable(5)
    data = json.loads(to_json(f, mode23))
    assert from_json(data, mode23) == f
    keys = [tuple(rec["e"]) for rec in data["terms"]]
    assert keys == sorted(keys)
    zero = json.loads(to_json(LaurentPoly.zero(), mode23))
    assert from_json(zero, mode23) == LaurentPoly.zero()

    sctx = AlgebraContext(sym23)
    g = sctx.cluster_variable(4)
    assert from_json(json.loads(to_json(g, sym23)), sym23) == g


def test_golden_x3_terms(mode23):
    ctx = AlgebraContext(mode23)
    assert ctx.cluster_variable(3).terms == expected_x3()


def test_render_deterministic():
    f = LaurentPoly({(-1, 0): 1, (2, 3): -4, (0, 0): 7})
    assert render(f) == "x1^-1 + 7 + -4*x1^2*x2^3"
    assert render(LaurentPoly.zero()) == "0"
