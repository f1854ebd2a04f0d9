"""Sparse bivariate Laurent polynomials over the exchange-coefficient ring.

A LaurentPoly maps exponent pairs (e1, e2) to nonzero coefficients; the
coefficients are plain integers in numeric mode and CoeffPoly in symbolic
mode.  Two polynomials are equal iff their term dictionaries are equal.
Instances are never mutated after construction.  Construction, coercion of
int and CoeffPoly scalars, equality, +, -, negation and powers come from
coeffring.SparsePoly, shared with CoeffPoly.  Multiplication and exact_div
are defined here, in the class body, where the benchmark's tracer finds
them.

Multiplication scales by a one-term operand, and otherwise runs one plain
loop over pairs of terms on (e1, e2) keys.  No faster product is kept: every
cluster route steps between clusters by lp_substitute_ratio, so no route
multiplies two many-term Laurent polynomials, and a big-int or packed-key
product would be code that nothing runs.

lp_substitute_ratio substitutes x_var -> p(x_other) / y, where p is a
coefficient tuple, low degree first, with constant term 1: an exchange
polynomial's.  The slice of f with x_var-exponent e >= 0 is multiplied by
p**e, and one with e < 0 divided by p**-e.  When every coefficient of f and
p is a plain int, that product is one big-int multiply (Kronecker
substitution; Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", arXiv:0712.4046).  p is packed once into
nb-byte slots as the int P, and the powers P**e are built by repeated int
multiplies, never unpacked.  Each slice is then one product
pack(slice_e) * P**e, unpacked once: slot k holds coefficient k.  One nb
serves the whole call, sized from the bound max over e >= 0 of
|slice_e|_1 * |p|_1**e plus a sign bit, since no coefficient of a product
exceeds the product of its factors' 1-norms; so no slot carries into the
next.  _pack and _unpack shift signed coefficients by half a slot, an offset
of repeated bytes, so every slot reads nonnegative with no division.

A slice is packed when slots * (2 + nb/2) <= |slice| * |p**e|: one nb-byte
slot costs about as much as 2 + nb/2 dict-loop term products (a fit over
dense and sparse products with 3- to 250-bit coefficients).  Here slots is
the slice's exponent span and |p**e| = e*deg(p) + 1 is the length of the
dense power that the dict loop walks; the product's other e*deg(p) slots
stand for p**e, which the dict loop holds too.  So slices spread over a wide
exponent range, and sparse ones, stay on the dict loop, and no huge buffer
is allocated.  Slices with e < 0 stay on exact univariate division, which
the constant term 1 keeps free of coefficient division, and CoeffPoly
coefficients stay on the dict loop: they do not fit in slots.
Exact division stays on the int heap below: a Kronecker division would need
big-int division, which is quadratic on CPython 3.11 (one exchange-step
division took 364 s that way).

Exact division shifts f and g into the polynomial cone and eliminates the
*minimal* monomial of the remainder under the graded-lex order (degree
first, then e1), keyed as (e1+e2)*width + e1 in an int heap (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  Over an integral domain, Z[generators]
included, an exact quotient of the shifted f by the shifted g has total
degree at most deg(f) - deg(g) and no negative exponent; a quotient term
that breaks either bound raises NotDivisible, so the elimination stops on
every input.  The divisor's minimal monomial must have coefficient 1 or -1,
as a pointed divisor's has (a cluster variable or a greedy element, up to
sign): each quotient term is then the remainder's minimal coefficient or
its negative, and no coefficient is ever divided.  Any other divisor raises
NotDivisible.  The cluster routes do not divide here: their only divisions
are lp_substitute_ratio's univariate ones by powers of an exchange
polynomial.

JSON form: {"terms": [{"e": [e1, e2], "c": <coefficient JSON>}, ...]} with
terms sorted by (e1, e2) ascending; see coeffring for the coefficient JSON.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from typing import Sequence

from .coeffring import (CoeffPoly, CoefficientMode, SparsePoly, coeff_from_json,
                        coeff_to_json, format_term)


class NotDivisible(ArithmeticError):
    """No Laurent quotient, or the divisor's minimal coefficient is not 1 or -1."""


class NotLaurent(ArithmeticError):
    """A substitution or division left a genuine denominator."""


class NotPointed(ValueError):
    """Support has no unique corner, or the corner coefficient is not 1."""


class SymbolicModeUnsupported(TypeError):
    """Operation defined only for concrete integer coefficients."""


class LaurentPoly(SparsePoly):
    __slots__ = ()
    ONE_KEY = (0, 0)
    SCALARS = (int, CoeffPoly)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def monomial(cls, e1: int, e2: int, c=1) -> "LaurentPoly":
        return cls({(e1, e2): c})

    @classmethod
    def var(cls, which: int) -> "LaurentPoly":
        if which not in (1, 2):
            raise ValueError("variable must be 1 or 2")
        return cls.monomial(1, 0) if which == 1 else cls.monomial(0, 1)

    # -- ring structure ------------------------------------------------------

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if len(self.terms) < len(other.terms):
            small, big = self.terms, other.terms
        else:
            small, big = other.terms, self.terms
        if not small:
            return LaurentPoly()
        if len(small) == 1:
            ((a1, a2), c1), = small.items()
            return LaurentPoly._wrap({(a1 + b1, a2 + b2): c1 * c2
                                      for (b1, b2), c2 in big.items()})
        acc: dict[tuple[int, int], object] = {}
        get = acc.get
        for (a1, a2), c1 in small.items():
            for (b1, b2), c2 in big.items():
                k = (a1 + b1, a2 + b2)
                acc[k] = get(k, 0) + c1 * c2
        return LaurentPoly._wrap({k: c for k, c in acc.items() if c})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"LaurentPoly({render(self)})"

    # -- queries -------------------------------------------------------------

    def min_exponents(self) -> tuple[int, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no support")
        return (min(e1 for e1, _ in self.terms), min(e2 for _, e2 in self.terms))

    def swap_vars(self) -> "LaurentPoly":
        return LaurentPoly._wrap({(e2, e1): c for (e1, e2), c in self.terms.items()})

    # -- exact division --------------------------------------------------------

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        other = self._coerce(other)
        if other is None or not other.terms:
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if not self.terms:
            return LaurentPoly.zero()
        fm1, fm2 = self.min_exponents()
        gm1, gm2 = other.min_exponents()
        deg_f = max(e1 + e2 for e1, e2 in self.terms) - fm1 - fm2
        deg_g = max(e1 + e2 for e1, e2 in other.terms) - gm1 - gm2
        deg_q = deg_f - deg_g
        # Every exponent below is shifted to the polynomial cone, and the
        # quotient-degree bound keeps each e1 in [0, deg_f], so width > e1
        # and key = (e1+e2)*width + e1 orders monomials graded-lex.
        width = deg_f + 1
        rem = {(e1 - fm1 + e2 - fm2) * width + e1 - fm1: c
               for (e1, e2), c in self.terms.items()}
        g = {(e1 - gm1 + e2 - gm2) * width + e1 - gm1: c
             for (e1, e2), c in other.terms.items()}
        g_low = min(g)
        corner = g.pop(g_low)
        if corner != 1 and corner != -1:
            raise NotDivisible(f"the divisor's minimal coefficient {corner!r} "
                               f"is not 1 or -1")
        negate = corner != 1
        g_rest = [(k - g_low, -c) for k, c in g.items()]
        gd, gl1 = divmod(g_low, width)
        gl2 = gd - gl1
        s1, s2 = fm1 - gm1, fm2 - gm2
        quot: dict = {}
        heap = list(rem)
        heapq.heapify(heap)
        pop, push, get = heapq.heappop, heapq.heappush, rem.get
        while heap:
            k = pop(heap)
            c = rem.pop(k)
            if not c:
                continue
            d, e1 = divmod(k, width)
            q1, q2 = e1 - gl1, d - e1 - gl2
            if q1 < 0 or q2 < 0:
                raise NotDivisible("quotient support escapes the polynomial cone")
            if q1 + q2 > deg_q:
                raise NotDivisible("quotient degree exceeds deg(f) - deg(g)")
            qc = -c if negate else c
            quot[(q1 + s1, q2 + s2)] = qc
            for kb, gc in g_rest:
                kk = k + kb
                r = get(kk)
                if r is None:
                    push(heap, kk)
                    rem[kk] = qc * gc
                else:
                    rem[kk] = r + qc * gc
        return LaurentPoly._wrap(quot)


# One nb-byte Kronecker slot costs about as much as _KRONECKER_SLOT_COST + nb/2
# term products of the dict loop; see the module docstring.
_KRONECKER_SLOT_COST = 2


def _packing_pays(slots: int, nb: int, work: int) -> bool:
    """True iff slots nb-byte slots cost no more than work dict-loop products."""
    return slots * (2 * _KRONECKER_SLOT_COST + nb) <= 2 * work


def _slot_offset(m: int, nb: int) -> int:
    """Half a slot in each of m nb-byte slots: only the top bit of each is set."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * m, "little")


def _pack(slots, m: int, nb: int) -> int:
    """sum(c * 2**(8*nb*i)) over the (i, c) in slots, 0 <= i < m.

    Every |c| must be below 2**(8*nb - 1).  Each c goes into its slot in two's
    complement; flipping each slot's top bit turns that into c + 2**(8*nb - 1)
    >= 0, so subtracting the offset borrows nothing between slots.
    """
    buf = bytearray(m * nb)
    for i, c in slots:
        i *= nb
        buf[i:i + nb] = c.to_bytes(nb, "little", signed=True)
    offset = _slot_offset(m, nb)
    return (int.from_bytes(buf, "little") ^ offset) - offset


def _unpack(v: int, m: int, nb: int) -> list:
    """The m digits c of v = sum(c * 2**(8*nb*i)), each |c| < 2**(8*nb - 1).

    Adding the offset makes every slot nonnegative; flipping the top bits
    back leaves each digit in two's complement in its slot.
    """
    offset = _slot_offset(m, nb)
    raw = ((v + offset) ^ offset).to_bytes(m * nb, "little")
    from_bytes = int.from_bytes
    return [from_bytes(raw[i:i + nb], "little", signed=True)
            for i in range(0, m * nb, nb)]


def lp_eval_univariate(p: Sequence, arg: LaurentPoly) -> LaurentPoly:
    """p[0] + p[1]*arg + ... evaluated by Horner's rule; p must be nonempty."""
    if len(p) == 0:
        raise ValueError("empty coefficient list")
    acc = LaurentPoly.const(p[-1])
    for c in reversed(p[:-1]):
        acc = acc * arg + LaurentPoly.const(c)
    return acc


def lp_substitute_ratio(f: LaurentPoly, var: int, p: Sequence) -> LaurentPoly:
    """Substitute x_var -> p(x_other) / y and return the result with y in slot var.

    p is the coefficient tuple of a univariate polynomial, low degree first,
    with constant term 1 and a nonzero leading coefficient, as an exchange
    polynomial has; anything else raises ValueError.  Each slice of f with
    x_var-exponent e picks up p**e; negative e means an exact univariate
    division, and a failed division raises NotLaurent naming x_var and e.
    With plain int coefficients, a slice with e >= 0 is one big-int product
    with the packed power (see the module docstring).
    """
    if var not in (1, 2):
        raise ValueError("variable must be 1 or 2")
    if not p or p[0] != 1 or not p[-1]:
        raise ValueError("p needs constant term 1 and a nonzero leading coefficient")
    sel = 0 if var == 1 else 1
    oth = 1 - sel

    slices: dict[int, dict[int, object]] = {}
    for e, c in f.terms.items():
        slices.setdefault(e[sel], {})[e[oth]] = c

    deg = len(p) - 1
    p_pow = dense_powers(p)

    all_int = all(type(c) is int for c in chain(p, f.terms.values()))
    if all_int:
        # |coefficient of slice_e * p**e| <= |slice_e|_1 * |p|_1**e, and p
        # itself goes into the same slots
        norm = sum(map(abs, p))
        bound = max([norm] + [sum(map(abs, sl.values())) * norm ** e
                              for e, sl in slices.items() if e >= 0])
        nb = bound.bit_length() // 8 + 1  # bytes per slot, sign bit included
        big_p = _pack(enumerate(p), deg + 1, nb)
        pw, pw_e = 1, 0  # pw == big_p ** pw_e

    out: dict[tuple[int, int], object] = {}
    for e, sl in sorted(slices.items()):
        lo = min(sl)
        m = max(sl) - lo + 1
        exps = count(lo)  # coeffs[i] is the coefficient of x^(lo + i)
        if e < 0:
            try:
                if m - 1 < -e * deg:  # checked before p**-e is built
                    raise NotLaurent("slice shorter than the divisor")
                coeffs = _uni_exact_div(sl, p_pow(-e))
            except NotLaurent as exc:
                raise NotLaurent(f"substituting x{var}, slice e={e}: {exc}") from exc
        elif all_int and _packing_pays(m, nb, len(sl) * (e * deg + 1)):
            pw *= big_p ** (e - pw_e)
            pw_e = e
            packed_sl = _pack(((i - lo, c) for i, c in sl.items()), m, nb)
            coeffs = _unpack(packed_sl * pw, m + e * deg, nb)
        else:
            res = _uni_mul_sparse(sl, p_pow(e))
            exps, coeffs = res.keys(), res.values()
        row = repeat(-e)
        keys = zip(row, exps) if var == 1 else zip(exps, row)
        out.update(compress(zip(keys, coeffs), coeffs))
    return LaurentPoly._wrap(out)


def dense_powers(p: Sequence):
    """k -> p**k as a dense list, low degree first, built on demand from
    [p[0]], the 1 of p's coefficient type, and kept for later calls."""
    pows = [[p[0]]]

    def p_pow(k: int) -> list:
        while len(pows) <= k:  # a loop, not recursion: k may exceed 1000
            pows.append(_uni_mul(pows[-1], p))
        return pows[k]

    return p_pow


def _uni_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if not cb:
                continue
            out[i + j] = out[i + j] + ca * cb
    return out


def _uni_mul_sparse(sl: dict[int, object], b: list) -> dict[int, object]:
    out: dict[int, object] = {}
    for e, c in sl.items():
        for j, cb in enumerate(b):
            if not cb:
                continue
            k = e + j
            s = out.get(k, 0) + c * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _uni_exact_div(sl: dict[int, object], b: list) -> list:
    """Exact quotient of a sparse univariate slice by b with b[0] == 1.

    Entry i of the returned list is the quotient coefficient of exponent
    min(sl) + i; some entries may be 0.
    """
    lo = min(sl)
    hi = max(sl)
    deg_b = len(b) - 1
    deg_q = hi - lo - deg_b
    work = [sl.get(lo + i, 0) for i in range(hi - lo + 1)]
    quot = [0] * (deg_q + 1)
    for i in range(deg_q + 1):
        c = work[i]
        if not c:
            continue
        quot[i] = c
        for j in range(1, deg_b + 1):
            work[i + j] = work[i + j] - c * b[j]
        work[i] = 0
    if any(work):
        raise NotLaurent("univariate division leaves a remainder")
    return quot


@dataclass(frozen=True)
class PointedForm:
    point: tuple[int, int]
    coeffs: dict  # (p, q) -> coefficient, with coeffs[(0,0)] == 1

    def to_laurent(self) -> LaurentPoly:
        a1, a2 = self.point
        return LaurentPoly({(p - a1, q - a2): c for (p, q), c in self.coeffs.items()})


def lp_to_pointed(f: LaurentPoly) -> PointedForm:
    if not f.terms:
        raise NotPointed("zero polynomial is not pointed")
    m1, m2 = f.min_exponents()
    corner = f.terms.get((m1, m2))
    if corner is None:
        raise NotPointed("support has no unique minimal corner")
    if not corner == 1:
        raise NotPointed(f"corner coefficient is {corner!r}, not 1")
    coeffs = {(e1 - m1, e2 - m2): c for (e1, e2), c in f.terms.items()}
    return PointedForm(point=(-m1, -m2), coeffs=coeffs)


def lp_is_positive(f: LaurentPoly) -> bool:
    """True iff f is nonzero with all integer coefficients >= 0 (numeric mode)."""
    positive = bool(f.terms)
    for c in f.terms.values():
        if isinstance(c, CoeffPoly):
            raise SymbolicModeUnsupported("positivity is decided in numeric mode only")
        if c < 0:
            positive = False
    return positive


# -- serialization and rendering ----------------------------------------------

def to_json(f: LaurentPoly, mode: CoefficientMode) -> dict:
    return {"terms": [{"e": [e1, e2], "c": coeff_to_json(c, mode.d1, mode.d2)}
                      for (e1, e2), c in sorted(f.terms.items())]}


def from_json(data: dict, mode: CoefficientMode) -> LaurentPoly:
    records = data["terms"]
    if not isinstance(records, list):
        raise ValueError(f"terms {records!r} is not a list")
    terms = {}
    for rec in records:
        e = rec["e"]
        # type(...) is int: JSON true/false load as bool, which int() accepts
        if len(e) != 2 or not all(type(x) is int for x in e):
            raise ValueError(f"exponent {e!r} is not two integers")
        if tuple(e) in terms:
            raise ValueError(f"exponent {e!r} appears twice")
        terms[tuple(e)] = coeff_from_json(rec["c"], mode)
    return LaurentPoly(terms)


def render(f: LaurentPoly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for (e1, e2), c in sorted(f.terms.items()):
        mono = "*".join(s for s in (_var_str("x1", e1), _var_str("x2", e2)) if s)
        parts.append(format_term(c, mono))
    return " + ".join(parts)


def _var_str(name: str, e: int) -> str:
    if e == 0:
        return ""
    return name if e == 1 else f"{name}^{e}"
