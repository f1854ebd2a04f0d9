"""Hypothesis properties over random monic palindromic P1, P2.

Degrees 0-4 and inner coefficients 0-4.  Runs are derandomized and keep no
example database, so every run tries the same examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import palindromic  # noqa: E402
from gca2.coeffring import CoefficientMode  # noqa: E402
from gca2.greedy import greedy_combinatorial, greedy_recursive  # noqa: E402


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
    assert greedy_recursive(mode, a1, a2).to_laurent() == \
        greedy_combinatorial(mode, a1, a2)
