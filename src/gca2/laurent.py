"""Sparse bivariate Laurent polynomials over the exchange-coefficient ring.

A LaurentPoly maps exponent pairs (e1, e2) to nonzero coefficients; the
coefficients are plain integers in numeric mode and CoeffPoly in symbolic
mode.  Two polynomials are equal iff their term dictionaries are equal.
Instances are never mutated after construction.  Construction, coercion of
int and CoeffPoly scalars, equality, +, -, negation and powers come from
coeffring.SparsePoly, shared with CoeffPoly.  Multiplication and exact_div
are defined here, in the class body, where the benchmark's tracer finds
them.

Multiplication packs each monomial into one int, key = e1*width + (e2 - lo2),
where width is one more than the e2 span of the product, worked out from the
two operands on every call; keys then add like exponent vectors, and divmod
unpacks them (floor division keeps negative e1 exact).  Keys are Python ints
with no fixed field width, so packing never wraps, whatever the exponents.

When every coefficient is a plain int and the product's dense box (rows x
width slots) is full enough, the product is one big-int multiply instead
(Kronecker substitution; Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", arXiv:0712.4046).  Each operand's
coefficients go into nb-byte slots of one int, and the two ints are
multiplied by CPython's C routine.  Slot k of the result holds coefficient k
of the product, and nb is sized from a proven bound.  Each product
coefficient is a sum of at most min(|A|, |B|) products, so its absolute value
is at most min(|A|, |B|) * max|a| * max|b|.  That bound plus a sign bit fits
in nb bytes, so no slot carries into the next.  Signed coefficients are
shifted by half a slot, an offset of repeated bytes, so every slot reads
nonnegative with no division.  The path is taken when slots * (2 + nb/2) <=
|A| * |B|: about 2 + nb/2 dict-loop term products cost as much as one
nb-byte slot (a fit over dense and sparse products with 3- to 250-bit
coefficients).  The same rule keeps sparse operands spread over a wide
exponent range, and small ones, on the dict loop, so no huge buffer is ever
allocated.

Exact division stays on the int heap below.  A Kronecker division would need
big-int division, which is quadratic on CPython 3.11: one exchange-step
division took 364 s that way.

Exact division shifts f and g into the polynomial cone and eliminates the
*minimal* monomial of the remainder under the graded-lex order (degree
first, then e1), keyed as (e1+e2)*width + e1 in an int heap (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  Over an integral domain, Z[generators]
included, an exact quotient of the shifted f by the shifted g has total
degree at most deg(f) - deg(g) and no negative exponent; a quotient term
that breaks either bound raises NotDivisible, so the elimination stops on
every input.  Every divisor that appears in this artifact (cluster
variables, greedy elements, powers of an exchange polynomial) is pointed,
i.e. has a unique minimal monomial with coefficient 1, which makes each
step division-free; any other nonzero divisor costs one exact coefficient
division per quotient term.

JSON form: {"terms": [{"e": [e1, e2], "c": <coefficient JSON>}, ...]} with
terms sorted by (e1, e2) ascending; see coeffring for the coefficient JSON.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, product
from typing import Sequence

from .coeffring import (CoeffPoly, CoefficientMode, NotDivisible, SparsePoly,
                        cf_exact_div, coeff_from_json, coeff_to_json, format_term)


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
        lo_s = min(e2 for _, e2 in small)
        lo_b = min(e2 for _, e2 in big)
        lo2 = lo_s + lo_b
        width = max(e2 for _, e2 in small) + max(e2 for _, e2 in big) - lo2 + 1
        # a cheap necessary condition for the rule _kronecker_mul applies
        if _KRONECKER_SLOT_COST * width <= len(small) * len(big):
            out = _kronecker_mul(small, big, lo_s, lo_b, width)
            if out is not None:
                return out
        packed = [(b1 * width + b2 - lo_b, c2) for (b1, b2), c2 in big.items()]
        acc: dict[int, object] = {}
        get = acc.get
        for (a1, a2), c1 in small.items():
            ka = a1 * width + a2 - lo_s
            for kb, c2 in packed:
                k = ka + kb
                acc[k] = get(k, 0) + c1 * c2
        out = {}
        for k, c in acc.items():
            if c:
                e1, r = divmod(k, width)
                out[(e1, r + lo2)] = c
        return LaurentPoly._wrap(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"LaurentPoly({render(self)})"

    # -- queries -------------------------------------------------------------

    def min_exponents(self) -> tuple[int, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no support")
        return (min(e1 for e1, _ in self.terms), min(e2 for _, e2 in self.terms))

    def swap_vars(self) -> "LaurentPoly":
        return LaurentPoly({(e2, e1): c for (e1, e2), c in self.terms.items()})

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
        g_low_c = g.pop(g_low)
        unit = g_low_c == 1
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
            qc = c if unit else cf_exact_div(c, g_low_c)
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


def _kronecker_mul(a: dict, b: dict, lo2_a: int, lo2_b: int,
                   width: int) -> LaurentPoly | None:
    """Product of two term dicts by one big-int multiply, or None.

    None means a coefficient is not a plain int, or the product's box is too
    sparse for its slot width to beat the dict loop.  Monomial (e1, e2) of an
    operand goes to slot (e1 - lo1)*width + (e2 - lo2) of that operand, so
    slots add like exponents and the product fills rows x width slots.
    """
    lo1_a, lo1_b = min(a)[0], min(b)[0]
    rows = max(a)[0] + max(b)[0] - lo1_a - lo1_b + 1
    n = rows * width
    # the rule below with nb = 0 first: it needs no scan of the coefficients
    if (_KRONECKER_SLOT_COST * n > len(a) * len(b)
            or not all(type(c) is int for c in chain(a.values(), b.values()))):
        return None
    # |coefficient of the product| <= bound: each is a sum of at most
    # min(|A|, |B|) products, so a slot of nb bytes never overflows.
    bound = (min(len(a), len(b)) * max(map(abs, a.values()))
             * max(map(abs, b.values())))
    nb = bound.bit_length() // 8 + 1  # bytes per slot, sign bit included
    if n * (2 * _KRONECKER_SLOT_COST + nb) > 2 * len(a) * len(b):
        return None
    top = bytes(nb - 1) + b"\x80"  # one slot with only its top bit set

    def pack(terms: dict, lo1: int, lo2: int) -> int:
        m = (max(terms)[0] - lo1 + 1) * width
        buf = bytearray(m * nb)
        for (e1, e2), c in terms.items():
            i = ((e1 - lo1) * width + e2 - lo2) * nb
            buf[i:i + nb] = c.to_bytes(nb, "little", signed=True)
        # Flipping each slot's top bit turns two's complement c into
        # c + 2**(8*nb - 1) >= 0, so subtracting the offset borrows nothing
        # between slots and leaves sum(c * 2**(8*nb*slot)).
        offset = int.from_bytes(top * m, "little")
        return (int.from_bytes(buf, "little") ^ offset) - offset

    # The same offset makes every product slot nonnegative; flipping the top
    # bits back leaves each coefficient in two's complement in its slot.
    offset = int.from_bytes(top * n, "little")
    raw = ((pack(a, lo1_a, lo2_a) * pack(b, lo1_b, lo2_b) + offset)
           ^ offset).to_bytes(n * nb, "little")
    from_bytes = int.from_bytes
    coeffs = [from_bytes(raw[i:i + nb], "little", signed=True)
              for i in range(0, n * nb, nb)]
    lo1, lo2 = lo1_a + lo1_b, lo2_a + lo2_b
    keys = product(range(lo1, lo1 + rows), range(lo2, lo2 + width))
    return LaurentPoly._wrap({k: c for k, c in zip(keys, coeffs) if c})


def lp_eval_univariate(p: Sequence, arg: LaurentPoly) -> LaurentPoly:
    """p[0] + p[1]*arg + ... evaluated by Horner's rule; p must be nonempty."""
    if len(p) == 0:
        raise ValueError("empty coefficient list")
    acc = LaurentPoly.const(p[-1])
    for c in reversed(p[:-1]):
        acc = acc * arg + LaurentPoly.const(c)
    return acc


def lp_substitute_ratio(f: LaurentPoly, var: int, numerator: LaurentPoly) -> LaurentPoly:
    """Substitute x_var -> numerator / y and return the result with y in slot var.

    numerator must involve only the other variable and have a nonzero
    constant term (exchange polynomials do: their constant term is 1).
    Each slice of f with x_var-exponent e picks up numerator**e; negative e
    means an exact univariate division, and a failed division raises
    NotLaurent.
    """
    if var not in (1, 2):
        raise ValueError("variable must be 1 or 2")
    sel = 0 if var == 1 else 1
    oth = 1 - sel
    num: dict[int, object] = {}
    for e, c in numerator.terms.items():
        if e[sel] != 0:
            raise ValueError("numerator must involve only the other variable")
        num[e[oth]] = c
    if not num:
        raise ZeroDivisionError("numerator is zero")
    m0 = min(num)  # pure monomial factor of the numerator

    slices: dict[int, dict[int, object]] = {}
    for e, c in f.terms.items():
        slices.setdefault(e[sel], {})[e[oth]] = c

    num_list = [num.get(i, 0) for i in range(m0, max(num) + 1)]
    pow_cache: dict[int, list] = {0: [1]}

    def num_pow(k: int) -> list:
        if k not in pow_cache:
            pow_cache[k] = _uni_mul(num_pow(k - 1), num_list)
        return pow_cache[k]

    out: dict[tuple[int, int], object] = {}
    for e, sl in sorted(slices.items()):
        if e >= 0:
            res = _uni_mul_sparse(sl, num_pow(e))
        else:
            res = _uni_exact_div(sl, num_pow(-e))
        for eo, c in res.items():
            key = (-e, eo + e * m0) if var == 1 else (eo + e * m0, -e)
            out[key] = c
    return LaurentPoly(out)


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


def _uni_exact_div(sl: dict[int, object], b: list) -> dict[int, object]:
    """Exact quotient of a sparse univariate slice by b with b[0] != 0."""
    lo = min(sl)
    hi = max(sl)
    deg_b = len(b) - 1
    deg_q = hi - lo - deg_b
    if deg_q < 0:
        raise NotLaurent("slice shorter than the divisor")
    b0 = b[0]
    work = [sl.get(lo + i, 0) for i in range(hi - lo + 1)]
    quot = [0] * (deg_q + 1)
    for i in range(deg_q + 1):
        c = work[i]
        if not c:
            continue
        if not b0 == 1:
            try:
                c = cf_exact_div(c, b0)
            except NotDivisible as exc:
                raise NotLaurent("univariate division leaves a remainder") from exc
        quot[i] = c
        for j in range(1, deg_b + 1):
            work[i + j] = work[i + j] - c * b[j]
        work[i] = 0
    if any(work):
        raise NotLaurent("univariate division leaves a remainder")
    return {lo + i: c for i, c in enumerate(quot) if c}


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
    if any(isinstance(c, CoeffPoly) for c in f.terms.values()):
        raise SymbolicModeUnsupported("positivity is decided in numeric mode only")
    return bool(f.terms) and all(c >= 0 for c in f.terms.values())


# -- serialization and rendering ----------------------------------------------

def to_json(f: LaurentPoly, mode: CoefficientMode) -> dict:
    return {"terms": [{"e": [e1, e2], "c": coeff_to_json(c, mode.d1, mode.d2)}
                      for (e1, e2), c in sorted(f.terms.items())]}


def from_json(data: dict, mode: CoefficientMode) -> LaurentPoly:
    terms = {}
    for rec in data["terms"]:
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
