"""Exact coefficient arithmetic for exchange-polynomial coefficients.

A rank-2 context fixes two monic palindromic polynomials

    P1(z) = 1 + rho_1 z + ... + rho_{d1-1} z^{d1-1} + z^{d1}
    P2(z) = 1 + vrho_1 z + ... + vrho_{d2-1} z^{d2-1} + z^{d2}

whose inner coefficients are either concrete nonnegative integers (numeric
mode) or formal generators (symbolic mode).  Palindromy identifies rho_t with
rho_{d1-t}, so a generator index is always stored as min(t, d-t); indices 0
and d never create a symbol, they are the integer 1.

CoeffPoly is a multivariate polynomial in the generators over arbitrary
precision integers, stored as {monomial: int} with no zero entries.  A
monomial is a sorted tuple of (GeneratorId, exponent) pairs with positive
exponents; the empty tuple is the constant monomial.  Instances are never
mutated after construction and may be shared freely between threads.

SparsePoly is the core CoeffPoly shares with laurent.LaurentPoly: the
zero-filtering constructor, a no-copy wrapper for term dicts that are
already clean, constants and scalar coercion, equality, addition,
subtraction, negation and powers.  Each subclass names the key of its
constant term and the scalar types it absorbs.  Multiplication stays in the
subclasses' own bodies: each is a different kernel, and the benchmark's
tracer wraps it by reading the class __dict__.  CoeffPoly has no division:
every exchange polynomial has constant term 1, so nothing needs one.

An ExchangePoly is an exchange polynomial's coefficient tuple, low degree
first, checked once when built: constant term 1, nonzero leading term.  Its
power(k) returns P**k as a dense tuple, built on demand by repeated products
with P by uni_mul, the engine's one univariate product, which
laurent.lp_substitute_ratio calls too, and kept in its table of powers.
CoefficientMode.polys holds one per P, read by every greedy element and
cluster-walk step of the mode.  A table grows by replacing an immutable
tuple whole, so a thread reads the old table or the grown one and never a
half-built one; two threads that grow it at once each build a correct
table, one of them kept.

JSON form of a coefficient: a list of monomial records
    {"rho": [e1..e_{d1-1}], "vrho": [e1..e_{d2-1}], "n": "<decimal integer>"}
ascending by (rho array, vrho array); an omitted array means all-zero
exponents, and a plain int, in either mode, is the one record {"n": "..."}.
coeff_to_json writes the text in one pass; heads maps each monomial to its
sort key and record text up to "n", and one document passes one dict to all
its calls, so each monomial is formatted once.  Read back, exponents must be
JSON integers and n a JSON integer or a string of decimal digits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence, Union


class MissingGenerator(KeyError):
    """An evaluation assignment does not cover every generator present."""


RHO = "rho"
VRHO = "vrho"
_FAMILIES = (RHO, VRHO)


class GeneratorId(NamedTuple):
    family: str  # "rho" or "vrho"
    index: int   # canonical, 1 <= index <= d//2

    @staticmethod
    def canonical(family: str, t: int, d: int) -> "GeneratorId":
        """Canonical id of the degree-t coefficient of a degree-d polynomial.

        Requires 1 <= t <= d-1 (the border coefficients are the constant 1
        and have no GeneratorId).
        """
        if family not in _FAMILIES:
            raise ValueError(f"unknown generator family {family!r}")
        if not 1 <= t <= d - 1:
            raise ValueError(f"index {t} out of range for degree {d}")
        return GeneratorId(family, min(t, d - t))


# A monomial: sorted tuple of (GeneratorId, positive exponent) pairs.
Mono = tuple

Coeff = Union[int, "CoeffPoly"]


class SparsePoly:
    """Immutable sparse polynomial {key: coefficient} with no zero entries.

    Subclasses set ONE_KEY, the key of the constant term, and SCALARS, the
    scalar types that coerce to a constant.  Operands of any other type get
    NotImplemented, so mixed operations resolve through the other operand.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def _wrap(cls, terms: dict):
        """Wrap a term dict already free of zero coefficients, without copying."""
        f = object.__new__(cls)
        f.terms = terms
        return f

    @classmethod
    def const(cls, c):
        return cls({cls.ONE_KEY: c})

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, cls):
            return other
        if isinstance(other, cls.SCALARS):
            return cls.const(other)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        result = self.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result


def format_term(c: Coeff, factors: str) -> str:
    """c times the monomial string factors, with an integer 1 or -1 left implicit."""
    if isinstance(c, CoeffPoly):
        if not c.is_constant():
            cs = c.render() if len(c.terms) == 1 else f"({c.render()})"
            return f"{cs}*{factors}" if factors else cs
        c = c.const_value()
    if not factors:
        return str(c)
    if c == 1:
        return factors
    if c == -1:
        return f"-{factors}"
    return f"{c}*{factors}"


class CoeffPoly(SparsePoly):
    """Polynomial in the rho/vrho generators with integer coefficients."""

    __slots__ = ()
    ONE_KEY = ()
    SCALARS = (int,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def generator(cls, gid: GeneratorId) -> "CoeffPoly":
        return cls({((gid, 1),): 1})

    @classmethod
    def rho(cls, t: int, d: int) -> "CoeffPoly":
        """Coefficient of z^t in a degree-d monic palindromic P1, as a CoeffPoly."""
        return cls._coefficient(RHO, t, d)

    @classmethod
    def vrho(cls, t: int, d: int) -> "CoeffPoly":
        """Coefficient of z^t in a degree-d monic palindromic P2, as a CoeffPoly."""
        return cls._coefficient(VRHO, t, d)

    @classmethod
    def _coefficient(cls, family: str, t: int, d: int) -> "CoeffPoly":
        if not 0 <= t <= d:
            raise ValueError(f"coefficient index {t} out of range for degree {d}")
        if t == 0 or t == d:
            return cls.const(1)
        return cls.generator(GeneratorId.canonical(family, t, d))

    # -- ring structure ----------------------------------------------------

    def __mul__(self, other) -> "CoeffPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Mono, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return self._wrap(out)

    __rmul__ = __mul__

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {()}

    def const_value(self) -> int:
        if not self.is_constant():
            raise ValueError("not a constant CoeffPoly")
        return self.terms.get((), 0)

    def generators(self) -> set[GeneratorId]:
        out: set[GeneratorId] = set()
        for m in self.terms:
            out.update(g for g, _ in m)
        return out

    # -- evaluation --------------------------------------------------------

    def eval(self, assignment: Mapping[GeneratorId, int]) -> int:
        total = 0
        for m, c in self.terms.items():
            v = c
            for g, e in m:
                if g not in assignment:
                    raise MissingGenerator(g)
                v *= assignment[g] ** e
            total += v
        return total

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"CoeffPoly({self.render()})"

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_mono_sort_key, reverse=True):
            factors = "*".join(f"{g.family}{g.index}" + (f"^{e}" if e > 1 else "")
                               for g, e in m)
            parts.append(format_term(self.terms[m], factors))
        return " + ".join(parts)


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for g, e in m2:
        d[g] = d.get(g, 0) + e
    return tuple(sorted(d.items()))


def _mono_sort_key(m: Mono):
    return (sum(e for _, e in m), tuple((g, e) for g, e in m))


# -- exchange polynomials and the coefficient mode -------------------------

def uni_mul(terms: Iterable[tuple[int, Coeff]], b: Sequence) -> dict[int, Coeff]:
    """{exponent: coefficient} of terms, (exponent, coefficient) pairs, times
    the dense b, low degree first; zero sums are kept, and keys ascend if terms do."""
    out: dict[int, Coeff] = {}
    get = out.get
    for e, c in terms:
        for k, cb in enumerate(b, e):
            out[k] = get(k, 0) + c * cb
    return out


class ExchangePoly(tuple):
    """Coefficients of an exchange polynomial, low degree first, and the table
    of its powers (see the module docstring)."""

    def __new__(cls, coeffs: Iterable):
        self = super().__new__(cls, coeffs)
        if not self or self[0] != 1 or not self[-1]:
            raise ValueError("an exchange polynomial needs constant term 1 and a "
                             "nonzero leading coefficient")
        self._pows = ((self[0],),)  # P**0, the 1 of P's coefficient type
        return self

    def power(self, k: int) -> tuple:
        """P**k as a dense coefficient tuple, low degree first."""
        table = self._pows
        if k >= len(table):
            grown = list(table)
            while len(grown) <= k:  # a loop, not recursion: k may exceed 1000
                grown.append(tuple(uni_mul(enumerate(grown[-1]), self).values()))
            self._pows = table = tuple(grown)
        return table[k]


@dataclass(frozen=True)
class CoefficientMode:
    """Numeric (concrete integer coefficients) or symbolic (formal generators).

    p1/p2 are the full low-to-high coefficient tuples in numeric mode and
    None in symbolic mode.  polys is the pair (P1, P2) of ExchangePolys: p1
    and p2 in numeric mode, the constant 1 and the canonical generators as
    CoeffPoly in symbolic mode.  It is derived from the other fields, so
    equality, hashing and repr leave it out, and two equal modes build their
    own tables of powers.  ExchangePoly refuses a p1 or p2 whose constant
    term is not 1, which division by powers of P relies on; numeric() also
    refuses signed, non-monic and non-palindromic ones.
    """

    d1: int
    d2: int
    p1: tuple[int, ...] | None
    p2: tuple[int, ...] | None
    polys: tuple[ExchangePoly, ExchangePoly] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        if {type(self.p1), type(self.p2)} not in ({tuple}, {type(None)}):
            raise ValueError("p1 and p2 must both be tuples or both be None")
        if self.is_numeric and (self.d1, self.d2) != (len(self.p1) - 1, len(self.p2) - 1):
            raise ValueError("degrees must be len(p1) - 1 and len(p2) - 1")
        if self.d1 < 0 or self.d2 < 0:
            raise ValueError("degrees must be nonnegative")
        if self.is_numeric:
            polys = (self.p1, self.p2)
        else:
            polys = ((CoeffPoly.rho(t, self.d1) for t in range(self.d1 + 1)),
                     (CoeffPoly.vrho(t, self.d2) for t in range(self.d2 + 1)))
        object.__setattr__(self, "polys", tuple(map(ExchangePoly, polys)))

    @staticmethod
    def numeric(p1: Iterable[int], p2: Iterable[int]) -> "CoefficientMode":
        p1 = tuple(p1)
        p2 = tuple(p2)
        for name, p in (("p1", p1), ("p2", p2)):
            if any(not isinstance(c, int) or c < 0 for c in p):
                raise ValueError(f"{name} coefficients must be nonnegative integers")
            if not p or p[0] != 1 or p[-1] != 1:
                raise ValueError(f"{name} must be monic with constant term 1")
            d = len(p) - 1
            if any(p[t] != p[d - t] for t in range(d + 1)):
                raise ValueError(f"{name} must be palindromic")
        return CoefficientMode(len(p1) - 1, len(p2) - 1, p1, p2)

    @staticmethod
    def symbolic(d1: int, d2: int) -> "CoefficientMode":
        return CoefficientMode(d1, d2, None, None)

    @property
    def is_numeric(self) -> bool:
        return self.p1 is not None


# -- JSON ------------------------------------------------------------------

def coeff_to_json(c: Coeff, d1: int, d2: int, heads: dict) -> str:
    if isinstance(c, int):
        return f'[{{"n":"{c}"}}]'
    for m in c.terms:
        if m not in heads:
            heads[m] = _mono_head(m, d1, d2)
    records = sorted((*heads[m], n) for m, n in c.terms.items())  # distinct keys
    return "[" + ",".join([f'{head}"n":"{n}"}}' for _, head, n in records]) + "]"


def _mono_head(m: Mono, d1: int, d2: int) -> tuple[tuple, str]:
    """(sort key, record text up to "n") of m: key = (rho array, vrho array)."""
    arrs = [0] * max(d1 - 1, 0), [0] * max(d2 - 1, 0)
    for g, e in m:
        arrs[g.family == VRHO][g.index - 1] += e
    return tuple(map(tuple, arrs)), "{" + "".join(
        f'"{family}":[{",".join(map(str, arr))}],' for family, arr in zip(_FAMILIES, arrs)
        if any(arr))


_DECIMAL = re.compile(r"[-+]?[0-9]+")


def coeff_from_json(records: list, mode: CoefficientMode) -> Coeff:
    if not isinstance(records, list):
        raise ValueError(f"coefficient {records!r} is not a list of records")
    terms: dict[Mono, int] = {}  # one record per monomial
    for rec in records:
        n = rec["n"]
        # type(...) is int: JSON true/false load as bool, which int() accepts
        if not (type(n) is int or isinstance(n, str) and _DECIMAL.fullmatch(n)):
            raise ValueError(f"coefficient {n!r} is not a decimal integer")
        n = int(n)
        families = ((RHO, rec.get("rho", []), mode.d1),
                    (VRHO, rec.get("vrho", []), mode.d2))
        for family, arr, d in families:
            if not isinstance(arr, list):
                raise ValueError(f"{family} exponent array {arr!r} is not a list")
            if len(arr) > max(d - 1, 0):
                raise ValueError(f"{family} exponent array {arr!r} has more than "
                                 f"{max(d - 1, 0)} entries (degree {d})")
            if not all(type(e) is int for e in arr):
                raise ValueError(f"{family} exponent array {arr!r} holds a non-integer")
        if mode.is_numeric and any(any(arr) for _, arr, _ in families):
            raise ValueError("symbolic coefficient in numeric mode")
        # rho_t and rho_{d-t} are one generator: merge their exponents
        exps: dict[GeneratorId, int] = {}
        for family, arr, d in families:
            for t, e in enumerate(arr, start=1):
                if e < 0:
                    raise ValueError("negative power of a CoeffPoly")
                if e:
                    g = GeneratorId.canonical(family, t, d)
                    exps[g] = exps.get(g, 0) + e
        key = tuple(sorted(exps.items()))
        if key in terms:
            raise ValueError(f"two records of one coefficient give the monomial "
                             f"{CoeffPoly._wrap({key: 1}).render()}")
        terms[key] = n
    return sum(terms.values()) if mode.is_numeric else CoeffPoly(terms)
