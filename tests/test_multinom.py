from math import comb, factorial

import pytest

from gca2.laurent import LaurentPoly, lp_eval_univariate
from gca2.multinom import (InconsistentArguments, compositions,
                           compositions_weighted, gen_binomial, multinomial,
                           poly_power_series)


def test_compositions_frozen_order():
    assert list(compositions(2, 3)) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert list(compositions(0, 4)) == [(0, 0, 0, 0)]
    assert list(compositions(3, 1)) == [(3,)]


def test_compositions_counts_and_uniqueness():
    for k in range(7):
        for r in range(1, 5):
            seen = list(compositions(k, r))
            assert len(seen) == comb(k + r - 1, r - 1)
            assert len(set(seen)) == len(seen)
            assert all(sum(c) == k and min(c) >= 0 for c in seen)
    with pytest.raises(ValueError):
        list(compositions(-1, 2))
    with pytest.raises(ValueError):
        list(compositions(2, 0))


def test_compositions_weighted_prunes():
    for k in range(6):
        for r in range(4):
            for cap in range(12):
                got = list(compositions_weighted(k, r, cap))
                if r == 0:
                    want = [()] if k == 0 else []
                else:
                    want = [c for c in compositions(k, r)
                            if sum((i + 1) * e for i, e in enumerate(c)) <= cap]
                assert got == want


def test_gen_binomial_examples():
    assert gen_binomial(-2, 3) == -4
    assert gen_binomial(5, 2) == 10
    assert gen_binomial(3, 5) == 0
    assert gen_binomial(4, -1) == 0
    for n in range(1, 6):
        for k in range(6):
            assert gen_binomial(-n, k) == (-1) ** k * comb(n + k - 1, k)


def test_multinomial_examples():
    assert multinomial(3, 0, (1, 1, 1)) == 6
    assert multinomial(-1, -3, (1, 1)) == 2
    assert multinomial(2, 5, (1, 2)) == 0  # zero whenever n < k0
    with pytest.raises(InconsistentArguments):
        multinomial(4, 1, (1, 1))  # parts sum to 2, n-k0 = 3
    assert multinomial(4, 1, (-1, 4)) == 0  # negative part


def test_multinomial_nonneg_agrees_with_factorials():
    for n in range(7):
        for k0 in range(n + 1):
            for parts in compositions(n - k0, 3):
                want = factorial(n) // (factorial(k0) * factorial(parts[0])
                                        * factorial(parts[1]) * factorial(parts[2]))
                assert multinomial(n, k0, parts) == want


def test_pascal_identity():
    # n <= 8, r <= 4, every composition
    for n in range(1, 9):
        for r in range(1, 5):
            for parts in compositions(n, r):
                rhs = 0
                for t in range(r):
                    if parts[t] > 0:
                        dec = tuple(p - (i == t) for i, p in enumerate(parts))
                        rhs += multinomial(n - 1, 0, dec)
                assert multinomial(n, 0, parts) == rhs


def test_row_sums_are_powers():
    for n in range(9):
        for r in range(1, 5):
            assert sum(multinomial(n, 0, p) for p in compositions(n, r)) == r ** n


def test_poly_power_series_examples():
    assert poly_power_series((1, 1, 1), -1, 4) == (1, -1, 0, 1, -1)
    assert poly_power_series((1, 1), 2, 2) == (1, 2, 1)
    for p in ((1, 1, 1), (1, 3, 1), (1, 2, 2, 1)):
        assert poly_power_series(p, 0, 4) == (1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        poly_power_series((2, 1), 1, 3)


def test_poly_power_series_inverse_property():
    # convolving p^n with p^-n gives 1, for n <= 4, d <= 4, N <= 12
    cases = [(1, 1), (1, 2, 1), (1, 5, 1), (1, 1, 1, 1), (1, 2, 3, 2, 1)]
    for p in cases:
        for n in range(5):
            for num_terms in (5, 12):
                pos = poly_power_series(p, n, num_terms)
                neg = poly_power_series(p, -n, num_terms)
                conv = [sum(pos[i] * neg[k - i] for i in range(k + 1))
                        for k in range(num_terms + 1)]
                assert conv == [1] + [0] * num_terms


def test_poly_power_series_matches_direct_expansion():
    for p in ((1, 1), (1, 1, 1), (1, 4, 1), (1, 2, 2, 1)):
        for n in range(5):
            direct = lp_eval_univariate(p, LaurentPoly.var(1)) ** n
            num_terms = (len(p) - 1) * n + 2
            series = poly_power_series(p, n, num_terms)
            want = {(i, 0): c for i, c in enumerate(series) if c}
            assert direct.terms == want
