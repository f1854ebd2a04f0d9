"""Sparse bivariate Laurent polynomials over the exchange-coefficient ring.

A LaurentPoly maps exponent pairs (e1, e2) to nonzero coefficients; the
coefficients are plain integers in numeric mode and CoeffPoly in symbolic
mode.  Two polynomials are equal iff their term dictionaries are equal.
Instances are never mutated after construction.  Construction, coercion of
int and CoeffPoly scalars, equality, +, -, negation and powers come from
coeffring.SparsePoly, shared with CoeffPoly.  Multiplication and exact_div
are defined here, in the class body, where the benchmark's tracer finds
them.

Multiplication is one plain loop over pairs of terms on (e1, e2) keys.  No
faster product is kept: every cluster route steps between clusters by
lp_substitute_ratio, so no route multiplies two many-term Laurent
polynomials, and a big-int or packed-key product would be code that nothing
runs.

lp_substitute_ratio substitutes x_var -> p(x_other) / y, where p is an
exchange polynomial, low degree first.  It returns the result in cluster
order, x_other in slot var and y in the other, so a step of the cluster
walk needs no swap.  The slice of f with x_var-exponent e >= 0 is
multiplied by p**e, and one with e < 0 divided by p**-e, each dense power
read from p.power: the walk passes the mode's coeffring.ExchangePolys, so
all its steps read one table per P, and a plain tuple becomes an
ExchangePoly once per call.  The dict loop that multiplies a slice by p**e
is coeffring.uni_mul, the engine's one univariate product, which also
builds the powers.  When every coefficient of f and p is a plain int, a
slice's product can instead be one big-int multiply (Kronecker
substitution; Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", arXiv:0712.4046).  p is packed once into nb-byte
slots as the int P, and the powers P**e are built by repeated int
multiplies, never unpacked.  Each slice is then one product pack(slice_e) *
P**e, unpacked once: slot k holds coefficient k.  One nb serves the whole
call, sized from the bound max over e >= 0 of |slice_e|_1 * |p|_1**e plus a
sign bit, since no coefficient of a product exceeds the product of its
factors' 1-norms; so no slot carries into the next.  _pack and _unpack
shift signed coefficients by half a slot, an offset of repeated bytes, so
every slot reads nonnegative with no division.

lp_substitute_ratio_is_positive is lp_is_positive of the substitution.
When every coefficient of f and p is a plain int and p >= 0, as in every
numeric mode, a slice with e >= 0 and no negative coefficient is decided by
sign alone: its product with p**e is nonzero with no negative coefficient,
and slices with different e fill disjoint rows.  Such slices are dropped
before lp_substitute_ratio sees f, so they are never multiplied, packed or
counted in nb; the verdict is min() over the substitution of the rest,
whose division slices raise NotLaurent as the whole substitution would.

A slice is packed when slots * (2 + nb/2) <= |slice| * |p**e|: one nb-byte
slot costs about as much as 2 + nb/2 dict-loop term products (a fit over
dense and sparse products with 3- to 250-bit coefficients).  Here slots is
the slice's exponent span and |p**e| = e*deg(p) + 1 is the length of the
dense power that the dict loop walks; the product's other e*deg(p) slots
stand for p**e, which the dict loop holds too.  So slices spread over a wide
exponent range, and sparse ones, stay on the dict loop, and no huge buffer
is allocated.  Slices with e < 0 stay on exact univariate division, which
the constant term 1 keeps free of coefficient division, and CoeffPoly
coefficients stay on the dict loop: they do not fit in slots.  Nothing is
divided packed: a Kronecker division would need big-int division, which is
quadratic on CPython 3.11 (one exchange-step division took 364 s that way).

Exact division eliminates the remainder's *minimal* monomial under the
graded-lex order (degree first, then e1), found by min(): only `verify`
divides, for the cluster routes' only divisions are lp_substitute_ratio's.
Over an integral domain, Z[generators] included, an exact quotient of f by
g has no term below min(f) - min(g) in either variable and no term of total
degree above max deg(f) - max deg(g), the degrees of their top homogeneous
parts; a quotient term that breaks either bound raises NotDivisible, so the
elimination stops on every input.  The divisor's minimal monomial must have
coefficient 1 or -1, as a pointed divisor's has (a cluster variable or a
greedy element, up to sign): each quotient term is then the remainder's
minimal coefficient or its negative, and no coefficient is ever divided.
Any other divisor raises NotDivisible.

JSON form: {"terms": [{"e": [e1, e2], "c": <coefficient JSON>}, ...]} with
terms sorted by (e1, e2) ascending; see coeffring for the coefficient JSON.
to_json returns the compact text, written in one pass with no dict tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from typing import Sequence

from .coeffring import (CoeffPoly, CoefficientMode, ExchangePoly, SparsePoly,
                        coeff_from_json, coeff_to_json, format_term, uni_mul)


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
        acc: dict[tuple[int, int], object] = {}
        get = acc.get
        for (a1, a2), c1 in self.terms.items():
            for (b1, b2), c2 in other.terms.items():
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
        # an exact quotient lies in the cone from (lo1, lo2) with degree <= hi
        fm1, fm2 = self.min_exponents()
        gm1, gm2 = other.min_exponents()
        lo1, lo2 = fm1 - gm1, fm2 - gm2
        hi = (max(e1 + e2 for e1, e2 in self.terms)
              - max(e1 + e2 for e1, e2 in other.terms))
        _, g1, g2 = min((e1 + e2, e1, e2) for e1, e2 in other.terms)
        corner = other.terms[g1, g2]
        if corner != 1 and corner != -1:
            raise NotDivisible(f"the divisor's minimal coefficient {corner!r} "
                               f"is not 1 or -1")
        negate = corner != 1
        g_rest = [(b1 - g1, b2 - g2, -c)
                  for (b1, b2), c in other.terms.items() if (b1, b2) != (g1, g2)]
        quot: dict = {}
        rem = dict(self.terms)
        while rem:
            _, e1, e2 = min((e1 + e2, e1, e2) for e1, e2 in rem)
            c = rem.pop((e1, e2))
            if not c:
                continue
            q1, q2 = e1 - g1, e2 - g2
            if q1 < lo1 or q2 < lo2:
                raise NotDivisible("quotient support escapes the polynomial cone")
            if q1 + q2 > hi:
                raise NotDivisible("quotient degree exceeds deg(f) - deg(g)")
            qc = -c if negate else c
            quot[q1, q2] = qc
            for b1, b2, gc in g_rest:
                k = e1 + b1, e2 + b2
                rem[k] = rem.get(k, 0) + qc * gc
        return LaurentPoly._wrap(quot)


def _packing_pays(slots: int, nb: int, work: int) -> bool:
    """True iff slots nb-byte slots cost no more than work dict-loop products,
    one slot costing about 2 + nb/2 of them (see the module docstring)."""
    return slots * (4 + nb) <= 2 * work


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
    """Substitute x_var -> p(x_other) / y and return the result in cluster
    order: x_other in slot var, y in the other slot.

    p is the coefficient tuple of a univariate polynomial, low degree first,
    with constant term 1 and a nonzero leading coefficient, as an exchange
    polynomial has; anything else raises ValueError.  Each slice of f with
    x_var-exponent e picks up p**e, e ascending: a packed big-int product or
    the dict loop for e >= 0 (see the module docstring), an exact univariate
    division for e < 0, which raises NotLaurent naming x_var and e if it fails.
    """
    if var not in (1, 2):
        raise ValueError("variable must be 1 or 2")
    p = p if isinstance(p, ExchangePoly) else ExchangePoly(p)  # checks p
    sel, oth = var - 1, 2 - var
    slices: dict[int, dict[int, object]] = {}
    for e, c in f.terms.items():
        slices.setdefault(e[sel], {})[e[oth]] = c
    deg = len(p) - 1
    nb = None
    if all(type(c) is int for c in chain(p, f.terms.values())):
        # |coefficient of slice_e * p**e| <= |slice_e|_1 * |p|_1**e, and p
        # itself goes into the same slots
        norm = sum(map(abs, p))
        bound = max([norm] + [sum(map(abs, sl.values())) * norm ** e
                              for e, sl in slices.items() if e >= 0])
        nb = bound.bit_length() // 8 + 1  # bytes per slot, sign bit included
        big_p, pw, pw_e = 0, 1, 0  # p packed on first use; pw == big_p ** pw_e

    out: dict[tuple[int, int], object] = {}
    for e, sl in sorted(slices.items()):
        lo = min(sl)
        m = max(sl) - lo + 1
        if e < 0:
            try:
                if m - 1 < -e * deg:  # checked before p**-e is built
                    raise NotLaurent("slice shorter than the divisor")
                exps, coeffs = count(lo), _uni_exact_div(sl, p.power(-e))
            except NotLaurent as exc:
                raise NotLaurent(f"substituting x{var}, slice e={e}: {exc}") from exc
        elif nb and _packing_pays(m, nb, len(sl) * (e * deg + 1)):
            if e != pw_e:
                big_p = big_p or _pack(enumerate(p), deg + 1, nb)
                pw *= big_p ** (e - pw_e)
                pw_e = e
            q = _pack(((i - lo, c) for i, c in sl.items()), m, nb) * pw
            exps, coeffs = count(lo), _unpack(q, m + e * deg, nb)
        else:
            q = uni_mul(sl.items(), p.power(e))
            exps, coeffs = q.keys(), q.values()
        row = repeat(-e)
        keys = zip(exps, row) if var == 1 else zip(row, exps)
        out.update(compress(zip(keys, coeffs), coeffs))
    return LaurentPoly._wrap(out)


# the probe's substitutions are its own work, not lp_substitute_ratio's calls
_substitute = lp_substitute_ratio


def lp_substitute_ratio_is_positive(f: LaurentPoly, var: int, p: Sequence) -> bool:
    """lp_is_positive(lp_substitute_ratio(f, var, p)).  With plain int
    coefficients and p >= 0, only the slices with e < 0 or a negative
    coefficient are substituted (see the module docstring)."""
    terms = f.terms
    if not (terms and all(type(c) is int and c >= 0 for c in p)
            and all(type(c) is int for c in terms.values())):
        return lp_is_positive(_substitute(f, var, p))
    sel = 0 if var == 1 else 1
    signed = {k[sel] for k, c in terms.items() if c < 0}
    rest = _substitute(LaurentPoly._wrap({k: c for k, c in terms.items()
                                          if k[sel] < 0 or k[sel] in signed}), var, p)
    return not rest.terms or min(rest.terms.values()) >= 0


def _uni_exact_div(sl: dict[int, object], b: list) -> list:
    """Exact quotient of a sparse univariate slice by b with b[0] == 1.

    Entry i of the returned list is the quotient coefficient of exponent
    min(sl) + i; some entries may be 0.
    """
    lo, hi = min(sl), max(sl)
    deg_b = len(b) - 1
    deg_q = hi - lo - deg_b
    work = [sl.get(lo + i, 0) for i in range(hi - lo + 1)]
    for i in range(deg_q + 1):  # work[i] is now quotient coefficient i
        c = work[i]
        for j in range(1, deg_b + 1):
            work[i + j] = work[i + j] - c * b[j]
    if any(work[deg_q + 1:]):
        raise NotLaurent("univariate division leaves a remainder")
    return work[:deg_q + 1]


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
    try:
        return bool(f.terms) and min(f.terms.values()) >= 0
    except TypeError:  # CoeffPoly coefficients have no order
        raise SymbolicModeUnsupported("positivity is decided in numeric mode only") from None


# -- serialization and rendering ----------------------------------------------

def to_json(f: LaurentPoly, mode: CoefficientMode) -> str:
    d1, d2, heads = mode.d1, mode.d2, {}
    return '{"terms":[' + ",".join([f'{{"e":[{e1},{e2}],"c":{coeff_to_json(c, d1, d2, heads)}}}'
                                    for (e1, e2), c in sorted(f.terms.items())]) + "]}"


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
