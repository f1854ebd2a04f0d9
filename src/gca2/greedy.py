"""Greedy elements x[a1, a2]: combinatorial and recursive constructions.

The combinatorial construction sums, over all compatible pairs (S1, S2) on
the maximal Dyck path D([a1]+, [a2]+), the weight

    c_{S1,S2} * x1^(|S2| - a1) * x2^(|S1| - a2),

where c_{S1,S2} multiplies one exchange-polynomial coefficient per edge
(rho_{S1(h)} for horizontal, vrho_{S2(v)} for vertical).  It works in both
coefficient modes and is the symbolic-mode definition of x[a1, a2].

Neither factor of a pair's term depends on which edge carries which value,
only on the multiset of values, kept as the grading's sorted tuple: the
weight is the product of P[v] over its values and the degree their sum.  So
the sum first counts the pairs per sorted tuple, in integers, and then does
the coefficient arithmetic once per distinct tuple, not once per pair.  The
horizontal family is the vertical family of the transposed path D(a2, a1),
so the sum only ever enumerates vertical gradings on one of the two paths.

The recursive construction (numeric mode only) fills the pointed coefficient
table c(p, q) in order of increasing p+q from c(0,0)=1: each entry is the
max of two truncated convolutions with power series,

    -sum_{w=1..p} c(p-w, q) [z^w] P2(z)^(q-a2),
    -sum_{w=1..q} c(p, q-w) [z^w] P1(z)^(p-a1),

and for a1, a2 >= 0 the branch selected by the sign of a1*q - a2*p must
reproduce that max, which is asserted during the fill.  These are the
Lee-Li-Zelevinsky alternating sums over weak compositions in closed form:
by the generalized binomial theorem, for every integer a and w >= 1,

    sum_k (-1)^(k-1) sum_{parts of k, weight w} multinomial(a+k-1, a-1, parts)
        * prod_i rho_i^(k_i)  =  -[z^w] P(z)^(-a).

One series per column and one per row is computed before the fill.  One
extra guard ring outside the table bounds is computed and must be
identically zero.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import mul

from .coeffring import CoefficientMode
from .compat import compatible_structure
from .dyckpath import DyckPath
from .laurent import LaurentPoly, PointedForm, SymbolicModeUnsupported, dense_powers
# Unused here; perfbench/tracer.py patches these three names on this module.
from .compat import compatible_structure_h  # noqa: F401
from .multinom import compositions_weighted, multinomial  # noqa: F401


class NotInAlgebra(ValueError):
    """greedy_expand exceeded its pass budget; input is not in the algebra."""


def pair_weight(mode: CoefficientMode, s1, s2):
    """Monomial coefficient attached to one compatible pair."""
    p1, p2 = mode.polys
    return _weight(p1, s1) * _weight(p2, s2)


def reflect_params(mode: CoefficientMode, axis: int, a1: int, a2: int) -> tuple[int, int]:
    """Parameter image of the reflection fixing x1 (axis 1) or x2 (axis 2)."""
    if axis == 1:
        return (a1, mode.d1 * max(a1, 0) - a2)
    if axis == 2:
        return (mode.d2 * max(a2, 0) - a1, a2)
    raise ValueError("axis must be 1 or 2")


@lru_cache(maxsize=None)
def greedy_combinatorial(mode: CoefficientMode, a1: int, a2: int) -> LaurentPoly:
    """The greedy element as a Laurent polynomial, built from compatible pairs.

    Pairs are summed per grading on the cheaper edge family, the outer one:
    the partner edges outside its shadow are free and contribute a full
    exchange-polynomial factor each, and the finitely many remote-shadow
    assignments are enumerated explicitly.  The outer family is always the
    vertical one of the path walked: when the horizontal family is cheaper,
    the path is the transpose D(b2, b1), on which S1 is vertical and S2
    horizontal.

    Equal value multisets mean equal weight and equal degree (see the module
    docstring), so the first pass only counts: it tallies the pairs by
    (outer values, free edges, remote-shadow values), each values entry a
    sorted tuple.  The second pass multiplies once per distinct tally key:
    the remote weights are summed per (outer values, free edges) and
    multiplied by the free edges' power of P, and the outer weight
    multiplies once per outer values.
    """
    b1, b2 = max(a1, 0), max(a2, 0)
    p1, p2 = mode.polys
    transposed = (mode.d2 + 1) ** b2 > (mode.d1 + 1) ** b1
    if transposed:
        path, outer_vals, inner_vals = DyckPath.build(b2, b1), p1, p2
    else:
        path, outer_vals, inner_vals = DyckPath.build(b1, b2), p2, p1

    # (outer values, free edges) -> {remote-shadow values: number of pairs}
    tally: dict[tuple[tuple, int], dict[tuple, int]] = {}
    for s_out in product(range(len(outer_vals)), repeat=path.a2):
        free, _, valid = compatible_structure(path, s_out, len(inner_vals) - 1)
        inner = tally.setdefault((tuple(sorted(s_out)), len(free)), {})
        for vals in valid:
            key = tuple(sorted(vals))
            inner[key] = inner.get(key, 0) + 1

    free_pow = dense_powers(inner_vals)  # k -> (inner polynomial in z) ** k
    by_out: dict[tuple, dict[int, object]] = {}  # outer values -> {|inner|: coefficient}
    for (out_key, n_free), inner in tally.items():
        rpoly: dict[int, object] = {}
        for key, mult in inner.items():
            k, w = sum(key), _weight(inner_vals, key)
            rpoly[k] = rpoly.get(k, 0) + (w * mult if mult > 1 else w)
        poly = by_out.setdefault(out_key, {})
        for q1, c1 in enumerate(free_pow(n_free)):
            if not c1:
                continue
            for q2, c2 in rpoly.items():
                poly[q1 + q2] = poly.get(q1 + q2, 0) + c1 * c2
    acc: dict[tuple[int, int], object] = {}
    for out_key, poly in by_out.items():
        m_out, c_out = sum(out_key), _weight(outer_vals, out_key)
        unit = c_out is outer_vals[0]  # no factor other than 1: skip the products
        for m_in, c in poly.items():
            # x1 carries |S2|, x2 carries |S1|
            key = (m_in - a1, m_out - a2) if transposed else (m_out - a1, m_in - a2)
            acc[key] = acc.get(key, 0) + (c if unit else c_out * c)
    return LaurentPoly(acc)


def _weight(vals, values):
    """Product of vals[v] over the values v of a grading.

    vals[0] and vals[-1] are the constant 1, so they add no factor, and the
    weight is vals[0] itself when no other value occurs.
    """
    top = len(vals) - 1
    w = vals[0]
    for v in values:
        if 0 < v < top:
            w = w * vals[v]
    return w


def power_series(p, n: int, num_terms: int) -> list[int]:
    """Coefficients of z^0 .. z^num_terms of p(z)**n, for any integer n.

    p = (1, p1, ..., pd) has integer entries and constant term 1, so every
    coefficient is an integer.  J.C.P. Miller's recurrence for powers of a
    series (Knuth, TAOCP vol. 2, 4.7):
    w*f_w = sum_{i=1..min(d,w)} (n*i - (w-i)) * p_i * f_{w-i}.
    """
    if not p or p[0] != 1:
        raise ValueError("p must have constant term 1")
    d = len(p) - 1
    f = [1] + [0] * num_terms
    for w in range(1, num_terms + 1):
        acc = 0
        for i in range(1, min(d, w) + 1):
            acc += (n * i - w + i) * p[i] * f[w - i]
        f[w], rem = divmod(acc, w)
        if rem:
            raise ArithmeticError(f"inexact step {w} in the series of p**{n}")
    return f


@lru_cache(maxsize=None)
def greedy_recursive(mode: CoefficientMode, a1: int, a2: int) -> PointedForm:
    """Pointed coefficient table {(p, q): positive int} of x[a1, a2] (numeric mode)."""
    if not mode.is_numeric:
        raise SymbolicModeUnsupported("the greedy recursion needs an ordered "
                                      "coefficient ring; use the combinatorial "
                                      "construction in symbolic mode")
    pmax = mode.d2 * max(a2, 0)
    qmax = mode.d1 * max(a1, 0)
    guard = 1
    top_p = pmax + guard
    top_q = qmax + guard
    # col_series[q][w-1] = [z^w] P2^(q-a2), row_series[p][w-1] = [z^w] P1^(p-a1)
    col_series = [power_series(mode.p2, q - a2, top_p)[1:] for q in range(top_q + 1)]
    row_series = [power_series(mode.p1, p - a1, top_q)[1:] for p in range(top_p + 1)]
    # cols[q] = [c(0,q), c(1,q), ...] and rows[p] = [c(p,0), c(p,1), ...] so
    # far, zeros included; the fill order appends to each in index order
    cols: list[list[int]] = [[1]] + [[] for _ in range(top_q)]
    rows: list[list[int]] = [[1]] + [[] for _ in range(top_p)]
    c: dict[tuple[int, int], int] = {(0, 0): 1}
    for s in range(1, top_p + top_q + 1):
        for p in range(min(s, top_p), -1, -1):
            q = s - p
            if q > top_q:
                continue
            t1 = max(-sum(map(mul, reversed(cols[q]), col_series[q])), 0)
            t2 = max(-sum(map(mul, reversed(rows[p]), row_series[p])), 0)
            val = t1 if t1 >= t2 else t2
            cols[q].append(val)
            rows[p].append(val)
            if a1 >= 0 and a2 >= 0:
                lhs = a1 * q
                rhs = a2 * p
                if lhs <= rhs and t1 != val:
                    raise AssertionError(
                        f"closed form disagrees with max at (p,q)=({p},{q})")
                if lhs >= rhs and t2 != val:
                    raise AssertionError(
                        f"closed form disagrees with max at (p,q)=({p},{q})")
            if val:
                if p > pmax or q > qmax:
                    raise AssertionError(
                        f"nonzero entry {val} in the guard ring at ({p},{q})")
                c[(p, q)] = val
    return PointedForm((a1, a2), c)


def greedy_expand(mode: CoefficientMode, f: LaurentPoly) -> dict:
    """Expansion coefficients of f over the greedy elements.

    Repeatedly subtracts coeff * x[-e1, -e2] for every monomial on the lowest
    e1+e2 antidiagonal; each pass raises that level by at least one.  The
    pass budget is 10 * (antidiagonal span of f); running past it means f is
    not in the algebra, and NotInAlgebra names the budget and the lowest level
    the residual still has.
    """
    if not f.terms:
        return {}
    levels = [e1 + e2 for e1, e2 in f.terms]
    budget = 10 * (max(levels) - min(levels) + 1)
    residual = f
    out: dict[tuple[int, int], object] = {}
    for _ in range(budget):
        lvl = min(e1 + e2 for e1, e2 in residual.terms)
        corners = sorted(e for e in residual.terms if e[0] + e[1] == lvl)
        for e1, e2 in corners:
            coef = residual.terms[(e1, e2)]
            out[(-e1, -e2)] = coef
            residual = residual - coef * greedy_combinatorial(mode, -e1, -e2)
        if not residual.terms:
            return out
    lvl = min(e1 + e2 for e1, e2 in residual.terms)
    raise NotInAlgebra(f"pass budget {budget} exhausted with the residual's "
                       f"lowest level at {lvl}")
