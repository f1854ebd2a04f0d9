import json
import pickle
import random
import sys
import threading
from itertools import product

import pytest

from gca2 import verify
from gca2.coeffring import (CoeffPoly, CoefficientMode, GeneratorId,
                            MissingGenerator, SparsePoly, coeff_from_json,
                            coeff_to_json)
from gca2.laurent import LaurentPoly

R1 = CoeffPoly.rho(1, 3)
V1 = CoeffPoly.vrho(1, 4)
V2 = CoeffPoly.vrho(2, 4)


def test_add_examples():
    assert R1 + R1 == 2 * R1
    assert R1 + (-R1) == 0
    got = (CoeffPoly.const(2) + V2) + (CoeffPoly.const(3) + R1)
    assert got == CoeffPoly.const(5) + R1 + V2


def test_mul_examples():
    assert (R1 * V2).terms == {((GeneratorId("rho", 1), 1), (GeneratorId("vrho", 2), 1)): 1}
    one = CoeffPoly.const(1)
    assert (one + R1) * (one - R1) == one - R1 * R1
    assert CoeffPoly() * (R1 + V1) == 0


def test_eval_examples():
    g_r1 = GeneratorId.canonical("rho", 1, 3)
    g_v2 = GeneratorId.canonical("vrho", 2, 5)
    assert (CoeffPoly.rho(1, 3) + CoeffPoly.vrho(2, 5)).eval(
        {g_r1: 1, g_v2: 1}) == 2
    assert CoeffPoly.const(7).eval({}) == 7
    g_v1 = GeneratorId.canonical("vrho", 1, 5)
    poly = CoeffPoly.rho(1, 3) * CoeffPoly.vrho(1, 5) ** 2
    assert poly.eval({g_r1: 2, g_v1: 3}) == 18
    with pytest.raises(MissingGenerator):
        poly.eval({g_r1: 2})


def test_palindromic_canonicalization():
    assert verify.palindromic_canonical(max_d=7) is None
    assert GeneratorId.canonical("rho", 3, 4) == GeneratorId.canonical("rho", 1, 4)
    assert CoeffPoly.rho(0, 5) == 1
    assert CoeffPoly.rho(5, 5) == 1


# random polynomials: up to 5 monomials, coefficients in [-9, 9], exponents <= 3
SHAPE = (5, 9, 3)


def test_ring_axioms_random():
    assert verify.ring_axioms(seed=101, cases=1000, shape=SHAPE) is None


def test_eval_homomorphism_random():
    assert verify.eval_homomorphism(seed=303, cases=1000, shape=SHAPE, values=4) is None


def test_mode_validation():
    CoefficientMode.numeric((1, 5, 1), (1, 1))
    with pytest.raises(ValueError):
        CoefficientMode.numeric((1, 2, 3), (1, 1))  # not palindromic
    with pytest.raises(ValueError):
        CoefficientMode.numeric((2, 2), (1, 1))  # not monic
    with pytest.raises(ValueError):
        CoefficientMode.numeric((1, -1, 1), (1, 1))  # negative
    with pytest.raises(ValueError, match="degrees must be nonnegative"):
        CoefficientMode.symbolic(-1, 2)
    # the constructor checks the structure itself: d_i is the degree of P_i,
    # the mode is numeric or symbolic, never half of each, and every exchange
    # polynomial has constant term 1 and a nonzero leading coefficient
    for d1, d2, p1, p2 in ((5, 1, (1, 1), (1, 1)), (1, 2, (1, 1), (1, 1)),
                           (1, 1, (1, 1), None), (1, 1, None, (1, 1)),
                           (1, 1, [1, 1], [1, 1]), (0, -1, None, None),
                           (1, 1, (2, 1), (1, 1)), (1, 1, (1, 1), (3, 1)),
                           (1, 1, (1, 0), (1, 1))):
        with pytest.raises(ValueError):
            CoefficientMode(d1, d2, p1, p2)
    # non-monic and signed modes with constant term 1 still build; numeric()
    # is what refuses them
    assert CoefficientMode(1, 1, (1, 2), (1, 1)).polys == ((1, 2), (1, 1))
    mode = CoefficientMode.numeric((1, 4, 1), (1, 1, 1, 1))
    assert mode.d1 == 2 and mode.d2 == 3
    assert mode.polys == ((1, 4, 1), (1, 1, 1, 1))


def as_laurent(coeffs) -> LaurentPoly:
    return LaurentPoly({(t, 0): c for t, c in enumerate(coeffs)})


def test_poly_power_is_the_power_of_p():
    # against SparsePoly powers, built by LaurentPoly products; k out of
    # order, so the table is grown and then read back
    for mode in (CoefficientMode.symbolic(2, 3), CoefficientMode(2, 3, (1, 2, 3), (1, 1, 0, 2))):
        for i, p in enumerate(mode.polys):
            for k in (0, 1, 2, 7, 3, 12):
                assert as_laurent(p.power(k)) == as_laurent(p) ** k, (mode, i, k)
        # a mode whose tables are built still pickles
        copy = pickle.loads(pickle.dumps(mode))
        assert copy == mode and copy.polys[1].power(9) == mode.polys[1].power(9)


def test_poly_power_table_is_safe_to_share_between_threads():
    # four threads grow one fresh mode's tables at once, with a short switch
    # interval: every power read must be whole and right, whichever table wins
    p1, p2 = (1, 2, 1), (1, 1, 1, 1)
    want = {(i, k): tuple(c for _, c in sorted((as_laurent(p) ** k).terms.items()))
            for i, p in enumerate((p1, p2)) for k in range(41)}
    errors = []

    def work(mode, seed):
        rng = random.Random(seed)
        for _ in range(200):
            i, k = rng.randrange(2), rng.randrange(41)
            try:
                got = mode.polys[i].power(k)
            except Exception as exc:  # a thread's exception would go unseen
                got = exc
            if got != want[i, k]:
                errors.append((i, k, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):
            mode = CoefficientMode.numeric(p1, p2)
            threads = [threading.Thread(target=work, args=(mode, 4 * round_ + t))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors


def test_symbolic_mode_coefficients():
    mode = CoefficientMode.symbolic(2, 3)
    p1, p2 = mode.polys
    assert p1 == (1, CoeffPoly.rho(1, 2), 1)
    assert p2[1] == p2[2] == CoeffPoly.vrho(1, 3)  # palindromic identification
    assert len(p2) == 4
    # the table is derived: equality, hashing and repr ignore it
    assert mode == CoefficientMode.symbolic(2, 3) and "polys" not in repr(mode)
    assert hash(mode) == hash(CoefficientMode.symbolic(2, 3))


def test_json_roundtrip():
    mode = CoefficientMode.symbolic(3, 4)
    poly = (2 * CoeffPoly.rho(1, 3) ** 2 * CoeffPoly.vrho(2, 4)
            - CoeffPoly.const(5) + CoeffPoly.vrho(1, 4))
    data = json.loads(coeff_to_json(poly, 3, 4, {}))
    assert coeff_from_json(data, mode) == poly
    # numeric round trip
    num_mode = CoefficientMode.numeric((1, 1), (1, 1))
    assert coeff_from_json(json.loads(coeff_to_json(42, 1, 1, {})), num_mode) == 42
    # omitted arrays mean all-zero exponents
    assert coeff_from_json([{"n": "3"}], mode) == 3


def test_json_roundtrip_of_a_coefficient_with_thousands_of_records():
    # 13**3 = 2,197 monomials in rho1, vrho1 and vrho2 of D(3, 4), one record each
    mode = CoefficientMode.symbolic(3, 4)
    gens = (GeneratorId("rho", 1), GeneratorId("vrho", 1), GeneratorId("vrho", 2))
    poly = CoeffPoly({tuple((g, e) for g, e in zip(gens, exps) if e): (-1) ** sum(exps) * (1 + i)
                      for i, exps in enumerate(product(range(13), repeat=3))})
    data = json.loads(coeff_to_json(poly, 3, 4, {}))
    assert len(data) == len(poly.terms) == 2197
    assert coeff_from_json(data, mode) == poly
    # rho_2 is rho_1 when d1 = 3: a record may write its exponent in either slot
    data[-1]["rho"] = data[-1]["rho"][::-1]
    assert coeff_from_json(data, mode) == poly


# -- the core shared by CoeffPoly and LaurentPoly -----------------------------

SHARED = ("__init__", "_wrap", "const", "_coerce", "__eq__", "__add__", "__radd__",
          "__neg__", "__sub__", "__rsub__", "__pow__", "__bool__")


def _sample(cls):
    if cls is CoeffPoly:
        return 2 * R1 * V1 - V2 + 3
    return LaurentPoly({(1, 0): R1 + 1, (0, -1): -2, (0, 0): 5})


@pytest.mark.parametrize("cls", [CoeffPoly, LaurentPoly])
def test_shared_sparse_core(cls):
    x = _sample(cls)
    # one definition of each shared method; the tracer-patched kernels stay
    # in the subclass body
    for name in SHARED:
        assert name in SparsePoly.__dict__ and name not in cls.__dict__, name
    for name in ("__mul__", "__rmul__") + (("exact_div",) if cls is LaurentPoly else ()):
        assert name in cls.__dict__, name

    # zero filtering at construction
    one = next(iter(x.terms))
    assert cls({one: 0}).terms == {}
    assert cls({one: 0, **x.terms}).terms == x.terms
    if cls is LaurentPoly:
        lp = LaurentPoly({(0, 0): CoeffPoly(), (1, 1): CoeffPoly({(): 0}), (2, 0): 4})
        assert lp.terms == {(2, 0): 4}

    # additive structure and scalars
    assert x + 0 == x and 0 + x == x
    assert 0 - x == -x and (-x).terms == {k: -c for k, c in x.terms.items()}
    assert (x - x).terms == {} and not (x - x)
    assert x - 3 == x + (-3) and 3 - x == -(x - 3)

    # powers
    assert x ** 0 == 1 and x ** 1 == x
    assert x ** 3 == x * x * x
    with pytest.raises(ValueError):
        x ** -1

    # equality with ints: a polynomial equals 0 iff it is empty
    assert cls() == 0 and not cls() != 0
    assert cls.const(7) == 7 and cls.const(7) != 6 and cls.const(7) != 0
    assert x != 5 and x != 0

    # mixed CoeffPoly/LaurentPoly operands resolve through LaurentPoly, in
    # both operand orders
    c = 2 * R1 + 1
    f = LaurentPoly({(1, 0): 1, (0, 0): 4})
    y = c if cls is CoeffPoly else f
    other = f if cls is CoeffPoly else c
    assert y + other == other + y == LaurentPoly({(1, 0): 1, (0, 0): c + 4})
    assert y - other == -(other - y)
    assert f - c == LaurentPoly({(1, 0): 1, (0, 0): 4 - c})
    for res in (y + other, other + y, y - other, other - y):
        assert type(res) is LaurentPoly
    assert y != other and other != y
    assert LaurentPoly.const(c) == c and c == LaurentPoly.const(c)

    # CoeffPoly hashes by value; LaurentPoly is unhashable
    if cls is CoeffPoly:
        assert hash(x) == hash((x + R1) - R1) and len({x, (x + 1) - 1, -(-x)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(x)

    # results keep the operand's class and its slots
    for res in (x + 1, 1 + x, x - 1, 1 - x, -x, x + x, x - x, x ** 2, x ** 0):
        assert type(res) is cls
        assert not hasattr(res, "__dict__")
