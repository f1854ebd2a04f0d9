"""Hypothesis properties over random monic palindromic P1, P2.

Degrees 0-4 and inner coefficients 0-4, greedy parameters in [-2,4]^2.
Runs are derandomized and keep no example database, so every run tries the
same examples.  Besides recursive == combinatorial, the greedy element is
positive in every cluster of [-2,4], each reflection maps it to the greedy
element of the reflected parameters, and x_k, x_{k+1} expand in cluster k to
its two coordinates.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import palindromic  # noqa: E402
from gca2 import verify  # noqa: E402
from gca2.cluster import AlgebraContext  # noqa: E402
from gca2.coeffring import CoefficientMode  # noqa: E402
from gca2.laurent import LaurentPoly  # noqa: E402


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
