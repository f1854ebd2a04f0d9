import random

import pytest

from gca2.coeffring import (CoeffPoly, CoefficientMode, GeneratorId,
                            MissingGenerator, NotDivisible, cf_exact_div,
                            coeff_from_json, coeff_to_json)

R1 = CoeffPoly.rho(1, 3)
V1 = CoeffPoly.vrho(1, 4)
V2 = CoeffPoly.vrho(2, 4)


def rand_poly(rng):
    gens = [GeneratorId("rho", 1), GeneratorId("rho", 2), GeneratorId("vrho", 1)]
    poly = CoeffPoly()
    for _ in range(rng.randint(0, 5)):
        mono = CoeffPoly.const(rng.randint(-9, 9))
        for g in gens:
            e = rng.randint(0, 3)
            if e:
                mono = mono * CoeffPoly.generator(g) ** e
        poly = poly + mono
    return poly


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


def test_exact_div_examples():
    one = CoeffPoly.const(1)
    assert cf_exact_div(R1 * R1 - one, R1 - one) == R1 + one
    assert cf_exact_div(6 * V1, CoeffPoly.const(3)) == 2 * V1
    with pytest.raises(NotDivisible):
        cf_exact_div(R1 + one, CoeffPoly.const(2))
    with pytest.raises(ZeroDivisionError):
        cf_exact_div(R1, CoeffPoly())


def test_exact_div_int_path():
    assert cf_exact_div(6, 3) == 2
    with pytest.raises(NotDivisible):
        cf_exact_div(7, 3)


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
    for d in range(1, 8):
        for t in range(d + 1):
            assert CoeffPoly.rho(t, d) == CoeffPoly.rho(d - t, d)
            assert CoeffPoly.vrho(t, d) == CoeffPoly.vrho(d - t, d)
    assert GeneratorId.canonical("rho", 3, 4) == GeneratorId.canonical("rho", 1, 4)
    assert CoeffPoly.rho(0, 5) == 1
    assert CoeffPoly.rho(5, 5) == 1


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(1000):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * CoeffPoly.const(1) == a
        assert a + CoeffPoly() == a


def test_div_roundtrip_random():
    rng = random.Random(202)
    done = 0
    while done < 1000:
        a, b = rand_poly(rng), rand_poly(rng)
        if not b:
            continue
        assert cf_exact_div(a * b, b) == a
        done += 1


def test_eval_homomorphism_random():
    rng = random.Random(303)
    for _ in range(1000):
        a, b = rand_poly(rng), rand_poly(rng)
        gens = a.generators() | b.generators()
        asg = {g: rng.randint(-4, 4) for g in gens}
        assert (a * b).eval(asg) == a.eval(asg) * b.eval(asg)
        assert (a + b).eval(asg) == a.eval(asg) + b.eval(asg)


def test_mode_validation():
    CoefficientMode.numeric((1, 5, 1), (1, 1))
    with pytest.raises(ValueError):
        CoefficientMode.numeric((1, 2, 3), (1, 1))  # not palindromic
    with pytest.raises(ValueError):
        CoefficientMode.numeric((2, 2), (1, 1))  # not monic
    with pytest.raises(ValueError):
        CoefficientMode.numeric((1, -1, 1), (1, 1))  # negative
    with pytest.raises(ValueError):
        CoefficientMode.symbolic(-1, 2)
    mode = CoefficientMode.numeric((1, 4, 1), (1, 1, 1, 1))
    assert mode.d1 == 2 and mode.d2 == 3
    assert mode.rho(1) == 4 and mode.vrho(2) == 1


def test_symbolic_mode_coefficients():
    mode = CoefficientMode.symbolic(2, 3)
    assert mode.rho(0) == 1 and mode.rho(2) == 1
    assert mode.rho(1) == CoeffPoly.rho(1, 2)
    assert mode.vrho(1) == mode.vrho(2)  # palindromic identification
    assert len(mode.p1_coeffs()) == 3 and len(mode.p2_coeffs()) == 4


def test_json_roundtrip():
    mode = CoefficientMode.symbolic(3, 4)
    poly = (2 * CoeffPoly.rho(1, 3) ** 2 * CoeffPoly.vrho(2, 4)
            - CoeffPoly.const(5) + CoeffPoly.vrho(1, 4))
    data = coeff_to_json(poly, 3, 4)
    assert coeff_from_json(data, mode) == poly
    # numeric round trip
    num_mode = CoefficientMode.numeric((1, 1), (1, 1))
    assert coeff_from_json(coeff_to_json(42, 1, 1), num_mode) == 42
    # omitted arrays mean all-zero exponents
    assert coeff_from_json([{"n": "3"}], mode) == 3
