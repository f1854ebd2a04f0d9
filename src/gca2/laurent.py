"""Sparse bivariate Laurent polynomials over the exchange-coefficient ring.

A LaurentPoly maps exponent pairs (e1, e2) to nonzero coefficients; the
coefficients are plain integers in numeric mode and CoeffPoly in symbolic
mode.  Two polynomials are equal iff their term dictionaries are equal.
Instances are never mutated after construction.

Multiplication packs each monomial into one int, key = e1*width + (e2 - lo2),
where width is one more than the e2 span of the product, worked out from the
two operands on every call; keys then add like exponent vectors, and divmod
unpacks them (floor division keeps negative e1 exact).  Keys are Python ints
with no fixed field width, so packing never wraps, whatever the exponents.

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
from typing import Mapping, Sequence

from .coeffring import (CoeffPoly, CoefficientMode, NotDivisible,
                        cf_exact_div, coeff_from_json, coeff_to_json)


class NotLaurent(ArithmeticError):
    """A substitution or division left a genuine denominator."""


class NotPointed(ValueError):
    """Support has no unique corner, or the corner coefficient is not 1."""


class SymbolicModeUnsupported(TypeError):
    """Operation defined only for concrete integer coefficients."""


class LaurentPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], object] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def monomial(cls, e1: int, e2: int, c=1) -> "LaurentPoly":
        return cls({(e1, e2): c})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({(0, 0): c})

    @classmethod
    def var(cls, which: int) -> "LaurentPoly":
        if which not in (1, 2):
            raise ValueError("variable must be 1 or 2")
        return cls.monomial(1, 0) if which == 1 else cls.monomial(0, 1)

    # -- ring structure ------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _from_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        other = _coerce(other)
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
            return _from_terms({(a1 + b1, a2 + b2): c1 * c2
                                for (b1, b2), c2 in big.items()})
        lo_s = min(e2 for _, e2 in small)
        lo_b = min(e2 for _, e2 in big)
        lo2 = lo_s + lo_b
        width = max(e2 for _, e2 in small) + max(e2 for _, e2 in big) - lo2 + 1
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
        return _from_terms(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("LaurentPoly power requires n >= 0")
        result = LaurentPoly.monomial(0, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        other = _coerce(other)
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
        return _from_terms(quot)


def _from_terms(terms: dict) -> LaurentPoly:
    """Wrap a term dict already free of zero coefficients, without copying."""
    f = LaurentPoly.__new__(LaurentPoly)
    f.terms = terms
    return f


def _coerce(x) -> LaurentPoly | None:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, CoeffPoly)):
        return LaurentPoly.const(x)
    return None


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

    num_list = _dense(num, m0)
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


def _dense(d: dict[int, object], lo: int = 0) -> list:
    top = max(d)
    return [d.get(i, 0) for i in range(lo, top + 1)]


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
    if not f.terms:
        return False
    return all(c >= 0 for c in f.terms.values())


# -- serialization and rendering ----------------------------------------------

def to_json(f: LaurentPoly, mode: CoefficientMode) -> dict:
    return {"terms": [{"e": [e1, e2], "c": coeff_to_json(c, mode.d1, mode.d2)}
                      for (e1, e2), c in sorted(f.terms.items())]}


def from_json(data: dict, mode: CoefficientMode) -> LaurentPoly:
    terms = {}
    for rec in data["terms"]:
        if len(rec["e"]) != 2:
            raise ValueError(f"exponent {rec['e']!r} needs two entries")
        e1, e2 = rec["e"]
        terms[(int(e1), int(e2))] = coeff_from_json(rec["c"], mode)
    return LaurentPoly(terms)


def render(f: LaurentPoly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for (e1, e2), c in sorted(f.terms.items()):
        mono = "*".join(s for s in (_var_str("x1", e1), _var_str("x2", e2)) if s)
        parts.append(_term_str(c, mono))
    return " + ".join(parts)


def _var_str(name: str, e: int) -> str:
    if e == 0:
        return ""
    return name if e == 1 else f"{name}^{e}"


def _term_str(c, mono: str) -> str:
    if isinstance(c, CoeffPoly):
        if c.is_constant():
            return _term_str(c.const_value(), mono)
        cs = c.render()
        if len(c.terms) > 1:
            cs = f"({cs})"
        return f"{cs}*{mono}" if mono else cs
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}"
