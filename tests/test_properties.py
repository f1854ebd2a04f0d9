"""Hypothesis properties over random monic palindromic P1, P2.

Degrees 0-4 and inner coefficients 0-4, greedy parameters in [-2,4]^2.
Runs are derandomized and keep no example database, so every run tries the
same examples.  Besides recursive == combinatorial, the greedy element is
positive in every cluster of [-2,4], each reflection maps it to the greedy
element of the reflected parameters, and x_k, x_{k+1} expand in cluster k to
its two coordinates.

The JSON writer is checked against a dict-tree oracle on random Laurent
polynomials in numeric and symbolic modes of degrees 0-5.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import oracle_laurent_json, palindromic  # noqa: E402
from gca2 import verify  # noqa: E402
from gca2.cluster import AlgebraContext  # noqa: E402
from gca2.coeffring import CoeffPoly, CoefficientMode  # noqa: E402
from gca2.laurent import LaurentPoly, from_json, to_json  # noqa: E402


@st.composite
def palindromic_polys(draw):
    d = draw(st.integers(0, 4))
    inner = draw(st.lists(st.integers(0, 4), min_size=d // 2, max_size=d // 2))
    return palindromic(d, inner)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p1=palindromic_polys(), p2=palindromic_polys(),
       a1=st.integers(-2, 4), a2=st.integers(-2, 4))
def test_recursive_equals_combinatorial(p1, p2, a1, a2):
    mode = CoefficientMode.numeric(p1, p2)
    assert verify.recursion_equals_combinatorial(modes=[mode], points=[(a1, a2)]) is None


MODES = st.builds(CoefficientMode.numeric, palindromic_polys(), palindromic_polys())
POINTS = st.tuples(st.integers(-2, 4), st.integers(-2, 4))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mode=MODES, a=POINTS)
def test_greedy_element_positive_in_every_cluster(mode, a):
    assert verify.positivity(modes=[mode], points=[a], clusters=range(-2, 5)) is None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mode=MODES, a=POINTS)
def test_reflection_maps_greedy_to_reflected_parameters(mode, a):
    # both reflections, sigma_1 and sigma_2, on each example
    assert verify.reflection_symmetry(modes=[mode], points=[a]) is None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mode=MODES, k=st.integers(-2, 4))
def test_cluster_variables_expand_to_the_cluster_coordinates(mode, k):
    ctx = AlgebraContext(mode)
    assert dict(ctx.iter_cluster_expansions(ctx.cluster_variable(k), k, k)) == \
        {k: LaurentPoly.var(1)}
    assert dict(ctx.iter_cluster_expansions(ctx.cluster_variable(k + 1), k, k)) == \
        {k: LaurentPoly.var(2)}


# small integers, and ones past 2**64 of either sign
INTEGERS = st.integers(-3, 3) | st.integers(2 ** 64, 2 ** 70) | st.integers(-2 ** 70, -2 ** 64)


@st.composite
def coefficients(draw, d1, d2):
    """An int, or a CoeffPoly over the generators of degrees d1 and d2."""
    if draw(st.booleans()):
        return draw(INTEGERS)
    c = CoeffPoly()
    for _ in range(draw(st.integers(0, 4))):
        mono = CoeffPoly.const(draw(INTEGERS))
        for family, d in ((CoeffPoly.rho, d1), (CoeffPoly.vrho, d2)):
            for _ in range(draw(st.integers(0, 2)) if d >= 2 else 0):
                mono = mono * family(draw(st.integers(1, d - 1)), d)  # t or d - t
        c = c + mono
    return c


@st.composite
def json_cases(draw):
    d1, d2 = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        inner = st.lists(st.integers(0, 4), min_size=2, max_size=2)  # d // 2 <= 2
        mode = CoefficientMode.numeric(palindromic(d1, draw(inner)), palindromic(d2, draw(inner)))
        coeffs = INTEGERS
    else:
        mode = CoefficientMode.symbolic(d1, d2)
        coeffs = coefficients(d1, d2)
    exps = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    return mode, LaurentPoly(draw(st.dictionaries(exps, coeffs, max_size=8)))


R1, R2, V1 = CoeffPoly.rho(1, 5), CoeffPoly.rho(2, 5), CoeffPoly.vrho(1, 4)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=json_cases())
# int and CoeffPoly coefficients in one polynomial, one coefficient's records
# in an order that the degree-first _mono_sort_key would write otherwise
@example(case=(CoefficientMode.symbolic(5, 4),
               LaurentPoly({(0, 0): 2 ** 65, (1, -1): 3 - R1 * V1 + R2 ** 2 * V1,
                            (2, 0): -7, (-1, 2): R1 ** 3 - R2})))
@example(case=(CoefficientMode.symbolic(3, 3), LaurentPoly.zero()))
def test_to_json_is_the_compact_dump_of_the_oracle(case):
    mode, f = case
    text = to_json(f, mode)
    assert text == json.dumps(oracle_laurent_json(f, mode), separators=(",", ":"))
    assert from_json(json.loads(text), mode) == f
