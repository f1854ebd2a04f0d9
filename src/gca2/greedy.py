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

Nor does the count change under rotation.  With g = gcd(c1, c2), the path
D(c1, c2) walked is g copies of D(c1/g, c2/g): the maximal path touches
each lattice point of the diagonal.  Compatibility is defined on the loop,
so rotating the path by one copy, c2/g vertical and c1/g horizontal slots,
maps compatible pairs to compatible pairs, and keeps every value multiset
and the number of free edges.  So the sum visits one outer grading per
rotation orbit, the one no rotation by a multiple of c2/g slots makes
smaller, and weights what it counts by the orbit's size.  The free edges'
factor P**k comes from P's own table of powers
(coeffring.ExchangePoly.power), built once per mode instance, not once per
element.

Every pair's weight is one monomial in the generators (Lee-Li-Zelevinsky,
arXiv:1208.2391), so the pass after the tally sums ints on packed keys
(Monagan-Pearce, "packed exponent vectors", CASC 2007): w-bit fields for
the inner degree, the outer degree, then one per generator in GeneratorId
order.  A value v is an atom: factor P[v] (numeric) or 1 (symbolic), key
increment v in its degree field plus its generator's slot; P**k is a list of
atoms, one per monomial.  No field carries: no degree or exponent exceeds
max(d1, d2, 1) * (b1 + b2), each edge adding at most d and one generator,
and w is its bit length.  CoeffPoly arithmetic costs several times the int
kind, so a CoeffPoly (always one in symbolic mode) is built only at the
end, once per (e1, e2), sharing one tuple per distinct monomial.

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
from math import gcd, prod
from operator import mul

from .coeffring import CoeffPoly, CoefficientMode
from .compat import compatible_structure
from .dyckpath import DyckPath
from .laurent import LaurentPoly, PointedForm, SymbolicModeUnsupported
# Unused here; perfbench/tracer.py patches these three names on this module.
from .compat import compatible_structure_h  # noqa: F401
from .multinom import compositions_weighted, multinomial  # noqa: F401


class NotInAlgebra(ValueError):
    """greedy_expand exceeded its pass budget; input is not in the algebra."""


def pair_weight(mode: CoefficientMode, s1, s2):
    """Monomial coefficient attached to one compatible pair."""
    p1, p2 = mode.polys
    return prod((p1[v] for v in s1), start=p1[0]) * prod(p2[v] for v in s2)


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
    sorted tuple, from one outer grading per rotation orbit.  The second
    pass works on packed keys (see the module docstring): the outer and
    remote weights are summed per (outer values, free edges) and multiplied
    by the free edges' power of P, all in ints.
    """
    b1, b2 = max(a1, 0), max(a2, 0)
    transposed = (mode.d2 + 1) ** b2 > (mode.d1 + 1) ** b1
    path = DyckPath.build(b2, b1) if transposed else DyckPath.build(b1, b2)
    inner = 1 if transposed else 0  # index in mode.polys of the inner family's P
    outer_vals, inner_vals = mode.polys[1 - inner], mode.polys[inner]

    # (outer values, free edges) -> {remote-shadow values: number of pairs}
    tally: dict[tuple[tuple, int], dict[tuple, int]] = {}
    # one outer grading per rotation orbit, the smallest, its tally entries
    # weighted by the orbit's size: a grading is g blocks, rotated block-wise
    g = gcd(path.a1, path.a2) if path.a2 else 1
    for s_out in product(range(len(outer_vals)), repeat=path.a2):
        size = _orbit_size(s_out, g)
        if not size:
            continue
        free, _, valid = compatible_structure(path, s_out, len(inner_vals) - 1)
        entry = tally.setdefault((tuple(sorted(s_out)), len(free)), {})
        for vals in valid:
            key = tuple(sorted(vals))
            entry[key] = entry.get(key, 0) + size

    # the second pass, on packed keys of w-bit fields (see the module docstring)
    w = (max(mode.d1, mode.d2, 1) * (b1 + b2)).bit_length()
    gens = [] if mode.is_numeric else sorted(  # P[v], 0 < v < d, is one generator
        {mono[0][0] for p in mode.polys for c in p[1:-1] for mono in c.terms})
    slots = None if mode.is_numeric else {gid: (2 + i) * w for i, gid in enumerate(gens)}
    (in_f, in_k), (out_f, out_k) = (zip(*_atoms(inner_vals, 0, slots)),
                                    zip(*_atoms(outer_vals, w, slots)))
    pow_atoms: dict[int, list] = {}  # free edges -> the nonzero atoms of P**free
    acc: dict[int, int] = {}
    for (out_key, n_free), entry in tally.items():
        f_out = prod(map(out_f.__getitem__, out_key))
        if not f_out:
            continue
        base = sum(map(out_k.__getitem__, out_key))
        rpoly: dict[int, int] = {}
        for key, mult in entry.items():
            k = base + sum(map(in_k.__getitem__, key))
            rpoly[k] = rpoly.get(k, 0) + f_out * mult * prod(map(in_f.__getitem__, key))
        if n_free not in pow_atoms:
            pow_atoms[n_free] = [a for a in _atoms(inner_vals.power(n_free), 0, slots) if a[0]]
        for c1, k1 in pow_atoms[n_free]:
            for k2, c2 in rpoly.items():
                acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
    # x1 carries |S2|, x2 carries |S1|: the outer degree when not transposed
    mask, (s1, s2) = (1 << w) - 1, (0, w) if transposed else (w, 0)
    if mode.is_numeric:
        return LaurentPoly({((k >> s1 & mask) - a1, (k >> s2 & mask) - a2): c
                            for k, c in acc.items()})
    by_deg: dict[int, dict] = {}  # both degree fields -> {monomial: count}
    monos: dict[int, tuple] = {}  # generator slots -> their monomial, built once
    for k, c in acc.items():
        if k >> 2 * w not in monos:
            monos[k >> 2 * w] = tuple((gid, k >> slot & mask) for gid, slot in slots.items()
                                      if k >> slot & mask)
        by_deg.setdefault(k & (1 << 2 * w) - 1, {})[monos[k >> 2 * w]] = c  # positive
    return LaurentPoly._wrap({((k >> s1 & mask) - a1, (k >> s2 & mask) - a2):
                              CoeffPoly._wrap(t) for k, t in by_deg.items()})


def _orbit_size(s: tuple, g: int) -> int:
    """Number of distinct rotations of s by multiples of len(s)/g slots, or 0
    when one of them is smaller than s."""
    n = len(s)
    step, ss = n // g, s + s
    for t in range(1, g):
        r = ss[t * step:t * step + n]
        if r < s:
            return 0
        if r == s:  # the rotations repeat from here on
            return t
    return g


def _atoms(coeffs, shift: int, slots) -> list[tuple[int, int]]:
    """(integer factor, key increment) of each term of coeffs, low degree first.
    Degree q adds q << shift; in symbolic mode each generator's exponent also
    adds to its slot, at bit offset slots[generator] (slots is None if numeric)."""
    if slots is None:
        return [(c, q << shift) for q, c in enumerate(coeffs)]
    atoms = []
    for q, c in enumerate(coeffs):
        for mono, n in c.terms.items():
            k = q << shift
            for g, e in mono:
                k += e << slots[g]
            atoms.append((n, k))
    return atoms


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
    residual = dict(f.terms)  # a private copy, updated in place
    out: dict[tuple[int, int], object] = {}
    for _ in range(budget):
        lvl = min(e1 + e2 for e1, e2 in residual)
        corners = sorted(e for e in residual if e[0] + e[1] == lvl)
        for e1, e2 in corners:
            coef = residual[(e1, e2)]
            out[(-e1, -e2)] = coef
            neg = -coef  # negated once per corner: each term adds neg * c
            for e, c in greedy_combinatorial(mode, -e1, -e2).terms.items():
                if e not in residual:
                    residual[e] = neg * c
                elif s := residual[e] + neg * c:
                    residual[e] = s
                else:
                    del residual[e]
        if not residual:
            return out
    lvl = min(e1 + e2 for e1, e2 in residual)
    raise NotInAlgebra(f"pass budget {budget} exhausted with the residual's "
                       f"lowest level at {lvl}")
