"""Maximal Dyck paths in a lattice rectangle, with wrap-around subpaths.

D(a1, a2) runs (0,0) -> (a1,a2) by East/North steps, staying weakly below
the main diagonal and as close to it as possible: any lattice point strictly
above the path is strictly above the diagonal.  Horizontal edges h_1..h_{a1}
and vertical edges v_1..v_{a2} are numbered by distance from the axes; the
height of h_j is floor((j-1)a2/a1) and the depth of v_j is ceil(j*a1/a2).

The two endpoints are identified, so the path is a closed loop and edge
subscripts are read modulo a1 (resp. a2).  A Subpath records a start edge,
an end edge and whether the start is included; it wraps through the
identified corner whenever the start lies North-East of the end, covers each
edge at most once, and can represent the full loop (end = predecessor of
start).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple


class IndexOutOfRange(IndexError):
    """Edge index outside the closed range allowed by the operation."""


HORIZONTAL = "h"
VERTICAL = "v"


class EdgeRef(NamedTuple):
    kind: str   # "h" or "v"
    index: int  # canonical, in [1, a1] or [1, a2]


@dataclass(frozen=True)
class Subpath:
    start: EdgeRef
    end: EdgeRef
    include_start: bool = True


class DyckPath:
    """Immutable maximal Dyck path; build once via DyckPath.build(a1, a2)."""

    # prefix_h[p] counts the h-edges before position p; _walks holds compat's
    # walk tables for this path, built on first use
    __slots__ = ("a1", "a2", "n", "kinds", "indices", "pos_h", "pos_v",
                 "prefix_h", "_walks")

    def __init__(self, a1: int, a2: int):
        if a1 < 0 or a2 < 0:
            raise ValueError("edge counts must be nonnegative")
        self.a1 = a1
        self.a2 = a2
        self.n = a1 + a2
        kinds = [""] * self.n
        indices = [0] * self.n
        pos_h = [0] * a1
        pos_v = [0] * a2
        for j in range(1, a1 + 1):
            p = (j - 1) + self.height(j)
            kinds[p] = HORIZONTAL
            indices[p] = j
            pos_h[j - 1] = p
        for j in range(1, a2 + 1):
            p = (j - 1) + self.depth(j)
            kinds[p] = VERTICAL
            indices[p] = j
            pos_v[j - 1] = p
        self.kinds = tuple(kinds)
        self.indices = tuple(indices)
        self.pos_h = tuple(pos_h)
        self.pos_v = tuple(pos_v)
        ph = [0]
        for k in kinds:
            ph.append(ph[-1] + (k == HORIZONTAL))
        self.prefix_h = tuple(ph)

    @classmethod
    def build(cls, a1: int, a2: int) -> "DyckPath":
        return cls(a1, a2)

    # -- edge geometry -------------------------------------------------

    def height(self, j: int) -> int:
        """Height of h_j (1 <= j <= a1)."""
        if not 1 <= j <= self.a1:
            raise IndexOutOfRange(f"h_{j} on a path with a1={self.a1}")
        return (j - 1) * self.a2 // self.a1

    def depth(self, j: int) -> int:
        """Depth of v_j (1 <= j <= a2)."""
        if not 1 <= j <= self.a2:
            raise IndexOutOfRange(f"v_{j} on a path with a2={self.a2}")
        return -(-j * self.a1 // self.a2)

    # -- edges and positions --------------------------------------------

    def h(self, j: int) -> EdgeRef:
        """h_j with the subscript reduced modulo a1 into [1, a1]."""
        if self.a1 == 0:
            raise IndexOutOfRange("path has no horizontal edges")
        return EdgeRef(HORIZONTAL, (j - 1) % self.a1 + 1)

    def v(self, j: int) -> EdgeRef:
        if self.a2 == 0:
            raise IndexOutOfRange("path has no vertical edges")
        return EdgeRef(VERTICAL, (j - 1) % self.a2 + 1)

    def pos(self, e: EdgeRef) -> int:
        """Position of e on the path; its index is not reduced, as h and v do."""
        if e.kind not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"edge kind {e.kind!r} is neither 'h' nor 'v'")
        table = self.pos_h if e.kind == HORIZONTAL else self.pos_v
        if not 1 <= e.index <= len(table):
            raise IndexOutOfRange(f"{e.kind}_{e.index} on a path with a1={self.a1}, "
                                  f"a2={self.a2}")
        return table[e.index - 1]

    def edge_at(self, p: int) -> EdgeRef:
        p %= self.n
        return EdgeRef(self.kinds[p], self.indices[p])

    # -- subpaths ---------------------------------------------------------

    def _bounds(self, sub: Subpath) -> tuple[int, int] | None:
        """(first position, length) of sub, or None when empty."""
        p = self.pos(sub.start)
        q = self.pos(sub.end)
        length = (q - p) % self.n + 1
        if not sub.include_start:
            p = (p + 1) % self.n
            length -= 1
        if length <= 0:
            return None
        return p, length

    def positions(self, sub: Subpath) -> Iterator[int]:
        b = self._bounds(sub)
        if b is None:
            return
        p, length = b
        for t in range(length):
            yield (p + t) % self.n

    def subpath_edges(self, sub: Subpath) -> list[EdgeRef]:
        return [self.edge_at(p) for p in self.positions(sub)]

    def count_h(self, sub: Subpath) -> int:
        """Number of horizontal edges in sub, wrap included."""
        return sum(self.kinds[p] == HORIZONTAL for p in self.positions(sub))

    def count_v(self, sub: Subpath) -> int:
        return sum(self.kinds[p] == VERTICAL for p in self.positions(sub))

    def full_loop(self, start: EdgeRef) -> Subpath:
        """The whole loop starting at start and ending just before it."""
        p = self.pos(start)
        return Subpath(start, self.edge_at((p - 1) % self.n))

    def __repr__(self) -> str:
        return f"DyckPath({self.a1},{self.a2})"

    def __eq__(self, other) -> bool:
        return isinstance(other, DyckPath) and (self.a1, self.a2) == (other.a1, other.a2)

    def __hash__(self):
        return hash((self.a1, self.a2))
