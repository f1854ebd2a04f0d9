"""Compositions and generalized binomial/multinomial coefficients.

Conventions:

* ``compositions(k, r)`` yields every vector of r nonnegative integers
  summing to k, largest first part first: (2,0,0), (1,1,0), (1,0,1), ...
* ``gen_binomial(n, m)`` extends C(n, m) to negative n via
  C(-n, m) = (-1)^m C(n+m-1, m); it is 0 for m < 0.
* ``multinomial(n, k0, parts)`` is C(n, n-k0) * (n-k0)! / (k1! ... kr!),
  defined for any integers n, k0.  It is 0 whenever n < k0.  For
  n, k0 >= 0 it equals n!/(k0! k1! ... kr!).
* ``poly_power_series(p, n, num_terms)`` expands p(z)**n as a truncated
  power series for any integer n, using the composition sum; p must have
  constant term 1.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterator, Sequence


class InconsistentArguments(ValueError):
    """multinomial() called with parts not summing to n - k0."""


def compositions(k: int, r: int) -> Iterator[tuple[int, ...]]:
    """All C(k+r-1, r-1) weak compositions of k into r parts, largest first."""
    if k < 0 or r < 1:
        raise ValueError("need k >= 0 and r >= 1")
    # every composition weighs at most r * k, so the bound prunes nothing
    yield from compositions_weighted(k, r, k * r)


def compositions_weighted(k: int, r: int, max_weight: int) -> Iterator[tuple[int, ...]]:
    """Compositions of k into r parts with 1*k1 + 2*k2 + ... + r*kr <= max_weight.

    Same order as compositions(); branches that cannot stay under the weight
    bound are pruned early.  r = 0 is allowed and yields () exactly when k = 0.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    if r == 0:
        if k == 0 and max_weight >= 0:
            yield ()
        return
    yield from _compose_weighted(k, r, max_weight, 1)


def _compose_weighted(k: int, r: int, budget: int, pos: int) -> Iterator[tuple[int, ...]]:
    # cheapest way to place the remaining sum is all at the current position
    if pos * k > budget:
        return
    if r == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        rest_budget = budget - pos * first
        for rest in _compose_weighted(k - first, r - 1, rest_budget, pos + 1):
            yield (first,) + rest


def gen_binomial(n: int, m: int):
    """Binomial coefficient C(n, m) for any integer n, zero for m < 0."""
    if m < 0:
        return 0
    if n >= 0:
        return comb(n, m)
    return (-1) ** m * comb(-n + m - 1, m)


def multinomial(n: int, k0: int, parts: Sequence[int]):
    """Generalized multinomial coefficient with top n and first entry k0."""
    if any(p < 0 for p in parts):
        return 0
    k = n - k0
    if k < 0:
        return 0
    if sum(parts) != k:
        raise InconsistentArguments(
            f"parts {tuple(parts)} do not sum to n - k0 = {k}")
    num = gen_binomial(n, k) * factorial(k)
    for p in parts:
        num //= factorial(p)
    return num


def poly_power_series(p: Sequence, n: int, num_terms: int) -> tuple:
    """Coefficients of z^0 .. z^num_terms of p(z)**n, p = (1, p1, ..., pd).

    Entries of p may be integers or CoeffPoly; the constant term must be 1.
    """
    if len(p) < 1 or p[0] != 1:
        raise ValueError("p must have constant term 1")
    d = len(p) - 1
    out = [p[0] - p[0]] * (num_terms + 1)  # zeros of the right type
    out[0] = out[0] + 1
    if d == 0 or n == 0:
        return tuple(out)
    for k in range(1, num_terms + 1):
        sign = -1 if k % 2 else 1
        for parts in compositions_weighted(k, d, num_terms):
            w = sum((i + 1) * e for i, e in enumerate(parts))
            m = multinomial(-n + k - 1, -n - 1, parts)
            if m == 0:
                continue
            coef = sign * m
            for i, e in enumerate(parts):
                if e:
                    coef = coef * p[i + 1] ** e
            out[w] = out[w] + coef
    return tuple(out)
