"""Shared fixtures and independent oracle helpers.

The golden expectations (reference cluster variables, the sixteen diagram
groups for D(5,2)) are rebuilt here with a self-contained dict-based
polynomial toolkit so they do not depend on the library under test.
"""

from __future__ import annotations

import pytest

from gca2.coeffring import CoefficientMode
from gca2.multinom import compositions_weighted, multinomial


# -- tiny independent polynomial toolkit: dict[(e1, e2)] -> int --------------

def pconst(n: int) -> dict:
    return {(0, 0): n} if n else {}


def pmono(e1: int, e2: int, c: int = 1) -> dict:
    return {(e1, e2): c} if c else {}


def padd(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for e, c in p.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (a1, a2), ca in a.items():
        for (b1, b2), cb in b.items():
            e = (a1 + b1, a2 + b2)
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def ppow(a: dict, n: int) -> dict:
    out = pconst(1)
    for _ in range(n):
        out = pmul(out, a)
    return out


def pscale(a: dict, n: int) -> dict:
    return {e: n * c for e, c in a.items()} if n else {}


# P = 1 + x2 + x2^2, the bracket building block of the golden variables
_P = padd(pconst(1), pmono(0, 1), pmono(0, 2))


def expected_x3() -> dict:
    """x1^-1 (1 + x2 + x2^2)."""
    return pmul(pmono(-1, 0), _P)


def expected_x4() -> dict:
    """x1^-3 x2^-1 [x1^3 + x1^2 P + x1 P^2 + P^3]."""
    bracket = padd(pmono(3, 0), pmul(pmono(2, 0), _P),
                   pmul(pmono(1, 0), ppow(_P, 2)), ppow(_P, 3))
    return pmul(pmono(-3, -1), bracket)


def expected_x5() -> dict:
    """x1^-5 x2^-2 [x1^6 + x1^5 (2+x2) + x1^4 (3+4x2+4x2^2+x2^3)
    + x1^3 (4+9x2+14x2^2+11x2^3+6x2^4+x2^5) + 3 x1^2 P^3 + 2 x1 P^4 + P^5]."""
    row4 = padd(pconst(3), pmono(0, 1, 4), pmono(0, 2, 4), pmono(0, 3))
    row3 = padd(pconst(4), pmono(0, 1, 9), pmono(0, 2, 14), pmono(0, 3, 11),
                pmono(0, 4, 6), pmono(0, 5))
    bracket = padd(
        pmono(6, 0),
        pmul(pmono(5, 0), padd(pconst(2), pmono(0, 1))),
        pmul(pmono(4, 0), row4),
        pmul(pmono(3, 0), row3),
        pscale(pmul(pmono(2, 0), ppow(_P, 3)), 3),
        pscale(pmul(pmono(1, 0), ppow(_P, 4)), 2),
        ppow(_P, 5),
    )
    return pmul(pmono(-5, -2), bracket)


# -- the sixteen golden diagram groups for D(5,2), d = (2,3) -----------------
# Keyed by (S2(v1), S2(v2)); values are the per-edge sets of admissible
# S1 values for h1..h5.
DIAGRAMS_5_2 = {
    (0, 0): ({0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}),
    (1, 0): ({0, 1, 2}, {0, 1, 2}, {0}, {0, 1, 2}, {0, 1, 2}),
    (2, 0): ({0, 1, 2}, {0}, {0}, {0, 1, 2}, {0, 1, 2}),
    (3, 0): ({0}, {0}, {0}, {0, 1, 2}, {0, 1, 2}),
    (0, 1): ({0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0}),
    (1, 1): ({0, 1, 2}, {0, 1, 2}, {0}, {0, 1, 2}, {0}),
    (2, 1): ({0, 1, 2}, {0}, {0}, {0, 1, 2}, {0}),
    (3, 1): ({0}, {0}, {0}, {0, 1, 2}, {0}),
    (0, 2): ({0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0}, {0}),
    (1, 2): ({0, 1, 2}, {0, 1, 2}, {0}, {0}, {0}),
    (2, 2): ({0, 1, 2}, {0}, {0}, {0}, {0}),
    (3, 2): ({0}, {0}, {0}, {0}, {0}),
    (0, 3): ({0, 1, 2}, {0, 1, 2}, {0, 1}, {0}, {0}),
    (1, 3): ({0, 1, 2}, {0, 1}, {0}, {0}, {0}),
    (2, 3): ({0, 1}, {0}, {0}, {0}, {0}),
    (3, 3): ({0}, {0}, {0}, {0}, {0}),
}


# -- reference greedy table: Lee-Li-Zelevinsky sums over weak compositions ---

def reference_greedy_table(mode: CoefficientMode, a1: int, a2: int):
    """(coeffs, pmax, qmax) of the pointed table of x[a1, a2], numeric mode.

    The same fill as ``greedy_recursive`` (increasing p+q, the closed-form
    branch check, one guard ring), but each entry is the max of two truncated
    alternating sums over weak compositions with generalized multinomial
    weights, evaluated term by term.  Raises AssertionError where the fill's
    checks fail.
    """
    d1, d2 = mode.d1, mode.d2
    p1, p2 = mode.p1, mode.p2
    pmax = d2 * max(a2, 0)
    qmax = d1 * max(a1, 0)
    c = {(0, 0): 1}

    def alt_sum(p, q, along_p):
        n, d, coeffs, a = (p, d2, p2, a2 - q) if along_p else (q, d1, p1, a1 - p)
        if d == 0:
            return 0
        total = 0
        for k in range(1, n + 1):
            sign = 1 if (k - 1) % 2 == 0 else -1
            for parts in compositions_weighted(k, d, n):
                w = sum((i + 1) * e for i, e in enumerate(parts))
                prev = c.get((p - w, q) if along_p else (p, q - w), 0)
                if prev == 0:
                    continue
                m = multinomial(a + k - 1, a - 1, parts)
                if m == 0:
                    continue
                coef = 1
                for i, e in enumerate(parts):
                    if e:
                        coef *= coeffs[i + 1] ** e
                total += sign * prev * coef * m
        return total

    top_p, top_q = pmax + 1, qmax + 1
    for s in range(1, top_p + top_q + 1):
        for p in range(min(s, top_p), -1, -1):
            q = s - p
            if q > top_q:
                continue
            t1 = max(alt_sum(p, q, True), 0)
            t2 = max(alt_sum(p, q, False), 0)
            val = t1 if t1 >= t2 else t2
            if a1 >= 0 and a2 >= 0:
                if a1 * q <= a2 * p and t1 != val:
                    raise AssertionError(
                        f"closed form disagrees with max at (p,q)=({p},{q})")
                if a1 * q >= a2 * p and t2 != val:
                    raise AssertionError(
                        f"closed form disagrees with max at (p,q)=({p},{q})")
            if val:
                if p > pmax or q > qmax:
                    raise AssertionError(
                        f"nonzero entry {val} in the guard ring at ({p},{q})")
                c[(p, q)] = val
    return c, pmax, qmax


def palindromic(d: int, inner) -> tuple:
    """Monic palindromic degree-d coefficients; inner[t-1] is the z^t one, t <= d/2."""
    p = [1] * (d + 1)
    for t in range(1, d // 2 + 1):
        p[t] = p[d - t] = inner[t - 1]
    return tuple(p)


ALL_ONES = {
    (1, 1): CoefficientMode.numeric((1, 1), (1, 1)),
    (2, 2): CoefficientMode.numeric((1, 1, 1), (1, 1, 1)),
    (2, 3): CoefficientMode.numeric((1, 1, 1), (1, 1, 1, 1)),
    (3, 3): CoefficientMode.numeric((1, 1, 1, 1), (1, 1, 1, 1)),
    (1, 2): CoefficientMode.numeric((1, 1), (1, 1, 1)),
    (0, 2): CoefficientMode.numeric((1,), (1, 1, 1)),
    (3, 0): CoefficientMode.numeric((1, 1, 1, 1), (1,)),
}


@pytest.fixture
def mode23() -> CoefficientMode:
    return ALL_ONES[(2, 3)]


@pytest.fixture
def sym23() -> CoefficientMode:
    return CoefficientMode.symbolic(2, 3)
