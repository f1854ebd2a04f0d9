"""Graded compatible pairs on a maximal Dyck path.

A horizontal grading S1 assigns an integer in [0, d1] to every horizontal
edge, a vertical grading S2 likewise on vertical edges; gradings are plain
tuples indexed by edge number minus one.  The pair (S1, S2) is compatible
when for every horizontal edge h and vertical edge v some edge e on the
(possibly wrapping) path from h to v witnesses one of

  HGC: the subpath he is a proper prefix of hv and its vertical-edge count
       equals the sum of S1 over its horizontal edges;
  VGC: the subpath ev is a proper suffix of hv and its horizontal-edge count
       equals the sum of S2 over its vertical edges.

The shadow machinery gives an equivalent local criterion: the shadow of S2
is the union over vertical edges v of the minimal suffix paths realizing
VGC; the remote shadow drops, for each v, up to S2(v) of the same-height
horizontal edges just before v.  A grading S1 is compatible with S2 iff it
vanishes on shadow minus remote shadow, and the pair conditions hold for
edges of the remote shadow against the support of S2.  Everything here is
exhaustively cross-checked against the raw definition in the test suite.

compatible_structure checks those pair conditions by a deadline.  A pair
(h, v) with a VGC witness needs nothing from S1; the others need the walk
of f_{S1}(h e) forward from h to reach 0 before v.  So each remote-shadow
edge h has one deadline, the distance to the nearest support edge v with
no VGC witness inside hv, and none when there is no such v.  The first zero
comes before the deadline iff some zero does.  f starts at S1(h) >= 0, a
horizontal edge adds its value and a vertical edge subtracts 1, so a walk
from S1(h) > 0 can only reach 0 inside a run of vertical edges, and does so
in a run of r of them iff f <= r at its start.

The horizontal side is the vertical side run on the transpose.  Reading
D(a1, a2) backwards with East and North swapped gives D(a2, a1)
(DyckPath.transpose): h_j becomes v_{a1+1-j} and v_k becomes h_{a2+1-k},
so HGC for S1 on the path is VGC for S1 reversed on the transpose.  Each
_h routine calls its _v twin there and maps the answer back; a remote-shadow
block key (k, ell) of the transpose becomes (a1+1-k, a1-ell), the owner h_j
and the depth d of its edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .dyckpath import HORIZONTAL, VERTICAL, DyckPath, EdgeRef, Subpath


class CriterionFails(ValueError):
    """The remote-shadow block nonemptiness criterion does not hold."""


class RTooSmall(ValueError):
    """Reflection order r below max grading value or ceil(a1/a2)."""


class NotInRemoteSupport(ValueError):
    """omega's transport applied to a grading not supported inside rsh(S2)."""


class _WholeLoop:
    """Sentinel: a local shadow that needs more than one full loop."""

    def __repr__(self) -> str:
        return "WHOLE_LOOP"


WHOLE_LOOP = _WholeLoop()

Grading = tuple


@dataclass(frozen=True)
class ShadowReport:
    shadow: frozenset
    remote_shadow: frozenset
    rsh_partition: dict      # (j, depth) or (k, height) -> tuple of EdgeRef


# -- the transpose -------------------------------------------------------------

def _tr(path: DyckPath, e: EdgeRef) -> EdgeRef:
    """Image of the edge e of path on path.transpose()."""
    if e.kind == HORIZONTAL:
        return EdgeRef(VERTICAL, path.a1 + 1 - e.index)
    return EdgeRef(HORIZONTAL, path.a2 + 1 - e.index)


def _tr_sub(path: DyckPath, sub: Subpath) -> Subpath:
    """Image of a subpath of path on path.transpose(): the ends swap."""
    return Subpath(_tr(path, sub.end), _tr(path, sub.start),
                   sub.include_end, sub.include_start)


# -- shadow statistics ------------------------------------------------------

def fstat_v(path: DyckPath, s2: Grading, sub: Subpath) -> int:
    """f_{S2}(sub) = sum of S2 over vertical edges minus horizontal count."""
    total = 0
    for p in path.positions(sub):
        if path.kinds[p] == VERTICAL:
            total += s2[path.indices[p] - 1]
        else:
            total -= 1
    return total


def fstat_h(path: DyckPath, s1: Grading, sub: Subpath) -> int:
    """f_{S1}(sub) = sum of S1 over horizontal edges minus vertical count."""
    return fstat_v(path.transpose(), s1[::-1], _tr_sub(path, sub))


# -- first-zero walk (shared by compatibility and local shadows) -------------

def _first_zero(path: DyckPath, s: Grading, kind: str, i: int) -> int | None:
    """Steps to the nearest zero of f_{S1}(h_i e) walking forward from h_i, or of
    f_{S2}(e v_i) walking backward from v_i, as kind says; None if there is none."""
    n = path.n
    if kind == HORIZONTAL:
        p, step = path.pos_h[i - 1], 1
    else:
        p, step = path.pos_v[i - 1], -1
    f = 0
    kinds = path.kinds
    indices = path.indices
    for t in range(n):
        if kinds[p] == kind:
            f += s[indices[p] - 1]
        else:
            f -= 1
        if f == 0:
            return t
        p += step
        if p == n:  # a backward walk wraps by going negative, indexing from the end
            p = 0
    return None


# -- compatibility -----------------------------------------------------------

def is_compatible(path: DyckPath, s1: Grading, s2: Grading) -> bool:
    if len(s1) != path.a1 or len(s2) != path.a2:
        raise ValueError("grading length does not match the path")
    if path.a1 == 0 or path.a2 == 0:
        return True
    fz1 = [_first_zero(path, s1, HORIZONTAL, j) for j in range(1, path.a1 + 1)]
    fz2 = [_first_zero(path, s2, VERTICAL, k) for k in range(1, path.a2 + 1)]
    return _pairs_ok(path, fz1, fz2, range(1, path.a1 + 1), range(1, path.a2 + 1))


def _pairs_ok(path, fz1, fz2, hs, vs) -> bool:
    """True when every (h_j, v_k) with j in hs and k in vs has a witness.

    It serves is_compatible and the brute-force oracle enumerate_bruteforce
    only; compatible_structure checks the same pairs by deadline walks.
    """
    n = path.n
    for j in hs:
        zh = fz1[j - 1]
        ph = path.pos_h[j - 1]
        for k in vs:
            dist = (path.pos_v[k - 1] - ph) % n
            zv = fz2[k - 1]
            if (zh is None or zh >= dist) and (zv is None or zv >= dist):
                return False
    return True


# -- local shadows and shadow reports ----------------------------------------

def _shadow_masks(path: DyckPath, s2: Grading, fz2: list) -> tuple[int, int]:
    """(shadow, remote) of S2 as bit masks, bit j standing for h_j.

    The shadow is the union of the local shadows, the h-edges on the minimal
    paths e..v_k (all of them if there is none): each is one run of bits, or
    two when it wraps.  The h-edges at positions p..q are ph[p]+1..ph[q+1].
    The remote shadow drops the last S2(v_{ell+1}) h-edges of height
    ell.  Those come just before v_{ell+1}, so they end at h_last with last =
    ph[pos(v_{ell+1})] and start no earlier than the first of that height.
    """
    a1, n, ph = path.a1, path.n, path.prefix_h
    whole = (2 << a1) - 2  # bits 1..a1
    shadow = 0
    for end, t in zip(path.pos_v, fz2):
        if t is None:
            shadow = whole
            break
        head = (2 << ph[end]) - 2  # bits 1..ph[end]
        if t <= end:
            shadow |= head & -(2 << ph[end - t])  # from bit ph[end - t] + 1 on
        else:  # wraps: the tail of the loop, then its head
            shadow |= head | whole & -(2 << ph[end - t + n])
    remote, first = shadow, 1
    for end, cut in zip(path.pos_v, s2):
        last = ph[end]
        if cut:
            remote &= ~((2 << last) - (1 << max(first, last + 1 - cut)))
        first = last + 1
    return shadow, remote


def _bits(mask: int, a1: int) -> list:
    """Indices j in 1..a1 whose bit is set in mask, in increasing order."""
    return [j for j in range(1, a1 + 1) if mask >> j & 1]


def local_shadow_v(path: DyckPath, s2: Grading, k: int):
    """Minimal path e..v_k with zero statistic, or WHOLE_LOOP."""
    t = _first_zero(path, s2, VERTICAL, k)
    if t is None:
        return WHOLE_LOOP
    end = path.pos_v[k - 1]
    return Subpath(path.edge_at(end - t), path.edge_at(end))


def local_shadow_h(path: DyckPath, s1: Grading, j: int):
    """Minimal path h_j..e with zero statistic, or WHOLE_LOOP."""
    tp = path.transpose()
    sub = local_shadow_v(tp, s1[::-1], path.a1 + 1 - j)
    return sub if sub is WHOLE_LOOP else _tr_sub(tp, sub)


def shadow_report_v(path: DyckPath, s2: Grading) -> ShadowReport:
    fz2 = [_first_zero(path, s2, VERTICAL, k) for k in range(1, path.a2 + 1)]
    shadow, remote = (_bits(mask, path.a1) for mask in _shadow_masks(path, s2, fz2))
    return ShadowReport(frozenset(EdgeRef(HORIZONTAL, j) for j in shadow),
                        frozenset(EdgeRef(HORIZONTAL, j) for j in remote),
                        _partition(path, remote, fz2))


def shadow_report_h(path: DyckPath, s1: Grading) -> ShadowReport:
    """Report of S1 reversed on the transpose, mapped back; keys become (j, d)."""
    tp = path.transpose()
    rep = shadow_report_v(tp, s1[::-1])
    a1 = path.a1
    blocks = [((a1 + 1 - k, a1 - ell), tuple(_tr(tp, e) for e in reversed(edges)))
              for (k, ell), edges in rep.rsh_partition.items()]
    blocks.sort(key=lambda block: path.pos(block[1][0]))
    return ShadowReport(frozenset(_tr(tp, e) for e in rep.shadow),
                        frozenset(_tr(tp, e) for e in rep.remote_shadow),
                        dict(blocks))


def _partition(path, remote, fz2) -> dict:
    """Group the remote shadow of a vertical grading by (owner index, height).

    remote is a list of h-edge indices and fz2[k-1] is _first_zero(path, s2,
    VERTICAL, k).  h_j lies in the local shadow of v_k iff fz2[k-1] is None
    or v_k is at most fz2[k-1] steps after h_j; its owner is the nearest such
    v_k.  Blocks and their edges come in path order, which is index order.
    """
    n = path.n
    blocks: dict = {}
    for j in sorted(remote):
        pe = path.pos_h[j - 1]
        _, owner = min(((pv - pe) % n, k)
                       for k, (pv, t) in enumerate(zip(path.pos_v, fz2), start=1)
                       if t is None or (pv - pe) % n <= t)
        blocks.setdefault((owner, path.height(j)), []).append(EdgeRef(HORIZONTAL, j))
    return {key: tuple(edges) for key, edges in blocks.items()}


# -- remote shadow block sizes (closed formula) -------------------------------

def _between(a: int, lo: int, hi: int) -> list[int]:
    """Canonical indices strictly between lo and hi walking forward mod a.

    When lo and hi name the same edge the walk spans the whole loop, which
    is how the wrapped paths of the block criteria are read on the torus.
    """
    out = []
    t = lo
    for _ in range(a - 1):
        t += 1
        if (t - hi) % a == 0:
            break
        out.append((t - 1) % a + 1)
    return out


def rsh_block_size_v(path: DyckPath, s2: Grading, k: int, ell: int) -> int:
    """|rsh(S2)_{k;ell}| for 0 <= ell < a2, 0 < k <= a2, k != ell + 1."""
    a2 = path.a2
    if not (0 <= ell < a2 and 1 <= k <= a2) or k == ell + 1:
        raise CriterionFails(f"no block at (k={k}, ell={ell})")
    vl = path.v(ell if ell >= 1 else a2)
    vk = path.v(k)
    between = [EdgeRef(VERTICAL, t) for t in _between(a2, ell, k)]
    vals = []
    for v in between:
        neg_f_from_l = -fstat_v(path, s2, Subpath(vl, v, include_start=False))
        f_to_k = fstat_v(path, s2, Subpath(v, vk, include_start=False))
        if not (neg_f_from_l > 0 and f_to_k > 0):
            raise CriterionFails(
                f"criterion fails at {v} for (k={k}, ell={ell})")
        vals.append(min(neg_f_from_l, f_to_k))
    if not vals:
        raise CriterionFails(f"no vertical edges strictly between (k={k}, ell={ell})")
    return min(vals)


def rsh_block_size_h(path: DyckPath, s1: Grading, j: int, d: int) -> int:
    """|rsh(S1)_{j;d}| by the min-of-min formula; CriterionFails otherwise."""
    try:
        return rsh_block_size_v(path.transpose(), s1[::-1], path.a1 + 1 - j, path.a1 - d)
    except CriterionFails as exc:
        raise CriterionFails(f"(j={j}, d={d}) read on the transpose: {exc}") from None


# -- enumeration --------------------------------------------------------------

def enumerate_bruteforce(a1: int, a2: int, d1: int, d2: int) -> list:
    """All compatible pairs, ordered lexicographically by (S2, S1)."""
    path = DyckPath.build(a1, a2)
    s2_list = list(product(range(d2 + 1), repeat=a2))
    fz2 = {s2: [_first_zero(path, s2, VERTICAL, k) for k in range(1, a2 + 1)]
           for s2 in s2_list}
    hs = range(1, a1 + 1)
    vs = range(1, a2 + 1)
    out = []
    for s1 in product(range(d1 + 1), repeat=a1):
        fz1 = [_first_zero(path, s1, HORIZONTAL, j) for j in hs]
        for s2 in s2_list:
            if _pairs_ok(path, fz1, fz2[s2], hs, vs):
                out.append((s1, s2))
    out.sort(key=lambda pair: (pair[1], pair[0]))
    return out


def compatible_structure(path: DyckPath, s2: Grading, d1: int):
    """Structure of {S1 : (S1, S2) compatible} for one vertical grading.

    Returns (free, rsh, valid) where free is the list of horizontal indices
    outside the shadow of S2 (their values are unconstrained), rsh the sorted
    indices of the remote shadow, and valid the list, in product order, of
    value assignments on rsh that complete to a compatible pair.  Edges in
    shadow minus remote shadow are forced to zero.

    An assignment is valid iff every remote edge with a deadline (see the
    module docstring) has value 0 or its walk reaches 0 before the deadline.
    The walks are planned once per S2 by _walk_plans, in three steps:
    deadline, since only the nearest unwitnessed support edge binds; first
    zero versus any zero, since the first zero is before the deadline iff
    some zero is; zeros only inside vertical runs, since f > 0 cannot fall
    below 0 and reaches it in a run of r vertical edges iff f <= r there.
    """
    a1 = path.a1
    fz2 = [_first_zero(path, s2, VERTICAL, k) for k in range(1, path.a2 + 1)]
    shadow, remote = _shadow_masks(path, s2, fz2)
    rsh_idx = _bits(remote, a1)
    free = _bits(~shadow, a1)
    plans = _walk_plans(path, s2, fz2, rsh_idx)
    valid = []
    for vals in product(range(d1 + 1), repeat=len(rsh_idx)):
        for s, steps in plans:
            f = vals[s]
            if f:  # a zero value is its own witness
                for adds, run in steps:
                    for t in adds:
                        f += vals[t]
                    if f <= run:  # f > 0 reaches 0 inside this run
                        break
                    f -= run
                else:  # no zero before the deadline
                    break
        else:
            valid.append(vals)
    return free, rsh_idx, valid


def _walk_plans(path: DyckPath, s2: Grading, fz2: list, rsh_idx: list) -> list:
    """(s, steps) for each remote edge h_{rsh_idx[s]} that has a deadline.

    The walk from the edge runs forward to its deadline: the first support
    edge v_k at a distance t with no VGC witness, fz2[k-1] None or >= t.  It
    is kept as steps (adds, run): add the values of the slots in adds, then
    cross run vertical edges.  Horizontal edges outside the remote shadow
    add 0 and drop out, and so does whatever follows the last vertical run.
    """
    n, kinds = path.n, path.kinds
    slot_at = {path.pos_h[j - 1]: s for s, j in enumerate(rsh_idx)}
    reach_at = {p: n if z is None else z  # farthest t at which v_k is a deadline
                for p, z, val in zip(path.pos_v, fz2, s2) if val}
    plans = []
    for s, j in enumerate(rsh_idx):
        ph = path.pos_h[j - 1]
        steps, adds, run = [], [], 0
        for t in range(1, n):
            p = (ph + t) % n
            if kinds[p] == VERTICAL:
                if t <= reach_at.get(p, -1):
                    if run:
                        steps.append((tuple(adds), run))
                    plans.append((s, steps))
                    break
                run += 1
            elif p in slot_at:
                if run:
                    steps.append((tuple(adds), run))
                    adds, run = [], 0
                adds.append(slot_at[p])
    return plans


# compatible_structure_h calls the body by this name, so that a wrapper put on
# the public name (perfbench/tracer.py) counts each structure once.
_structure_v = compatible_structure


def compatible_structure_h(path: DyckPath, s1: Grading, d2: int):
    """Mirror of compatible_structure: {S2 : (S1, S2) compatible} for one S1.

    Returns (free, rsh, valid) over vertical edge indices, computed on the
    transpose; valid keeps product order, and edges in sh(S1) - rsh(S1) are 0.
    """
    a2 = path.a2
    free, rsh_idx, valid = _structure_v(path.transpose(), s1[::-1], d2)
    return ([a2 + 1 - i for i in reversed(free)],
            [a2 + 1 - i for i in reversed(rsh_idx)],
            sorted(vals[::-1] for vals in valid))


def s2_structures(a1: int, a2: int, d1: int, d2: int):
    """Yield (S2, free, rsh, valid) of compatible_structure for every S2 on
    D(a1, a2), S2 in product order."""
    path = DyckPath.build(a1, a2)
    for s2 in product(range(d2 + 1), repeat=a2):
        yield (s2, *compatible_structure(path, s2, d1))


def enumerate_fast(a1: int, a2: int, d1: int, d2: int) -> list:
    """Same pairs as enumerate_bruteforce, via the shadow pruning.

    The S1 compatible with one S2 are, per valid remote-shadow assignment,
    the product of per-edge value lists: 0 on shadow minus remote shadow,
    the assigned value on the remote shadow and every value in [0, d1] off
    the shadow.  Each S2 block is sorted before it is appended.
    """
    values = range(d1 + 1)
    out = []
    for s2, free, rsh_idx, valid in s2_structures(a1, a2, d1, d2):
        lists = [(0,)] * a1
        for j in free:
            lists[j - 1] = values
        block = []
        for vals in valid:
            for j, val in zip(rsh_idx, vals):
                lists[j - 1] = (val,)
            block.extend(product(*lists))
        block.sort()
        out.extend((s1, s2) for s1 in block)
    return out


# -- reflection of vertical gradings and the induced horizontal map -----------

def phi_pullback(path: DyckPath, s2: Grading, r: int) -> tuple[DyckPath, Grading]:
    """Complemented grading r - S2 read backwards, on the reflected path."""
    a1, a2 = path.a1, path.a2
    if a2 < 1:
        raise ValueError("phi_pullback needs at least one vertical edge")
    need = max(max(s2, default=0), -(-a1 // a2))
    if r < need:
        raise RTooSmall(f"r={r} below required {need}")
    new_path = DyckPath.build(r * a2 - a1, a2)
    new_s2 = tuple(r - s2[a2 - j] for j in range(1, a2 + 1))
    return new_path, new_s2


def omega(path: DyckPath, s2: Grading, r: int):
    """(new_path, phi*(S2), transport) for one vertical grading S2 and order r.

    transport(S1) carries S1 through the order-preserving block bijections
    onto new_path.  It requires supp(S1) inside rsh(S2), raising
    NotInRemoteSupport otherwise, and accepts compatible and incompatible
    gradings alike so the compatibility equivalence can be probed.  Both
    shadow reports are built once here, for every S1 of the block.
    """
    a1, a2 = path.a1, path.a2
    report = shadow_report_v(path, s2)
    new_path, new_s2 = phi_pullback(path, s2, r)
    new_report = shadow_report_v(new_path, new_s2)
    moves = []  # (index in S1, index in the image), 0-based
    for (k, ell), edges in report.rsh_partition.items():
        target = new_report.rsh_partition.get((a2 - ell, a2 - k), ())
        if len(target) != len(edges):
            raise AssertionError(
                f"block size mismatch at (k={k}, ell={ell}): "
                f"{len(edges)} vs {len(target)}")
        moves.extend((h.index - 1, h2.index - 1) for h, h2 in zip(edges, target))
    outside = [j for j in range(1, a1 + 1)
               if EdgeRef(HORIZONTAL, j) not in report.remote_shadow]

    def transport(s1: Grading) -> Grading:
        for j in outside:
            if s1[j - 1] > 0:
                raise NotInRemoteSupport(f"h_{j} carries weight outside rsh(S2)")
        new_s1 = [0] * new_path.a1
        for i, i2 in moves:
            new_s1[i2] = s1[i]
        return tuple(new_s1)

    return new_path, new_s2, transport


# -- magnitude support region --------------------------------------------------

def support_region(d1: int, d2: int, a1: int, a2: int, m1: int, m2: int) -> bool:
    """Can (|S1|, |S2|) = (m1, m2) occur for a compatible pair on D(a1,a2)?

    Trapezoid cases include their boundaries; in the remaining case the two
    slanted boundary segments are excluded except for their axis endpoints.
    """
    if a1 < 0 or a2 < 0:
        raise ValueError("path dimensions must be nonnegative")
    if m1 < 0 or m2 < 0:
        return False
    if d2 * a2 <= a1:
        return m2 <= d2 * a2 and m1 + d1 * m2 <= d1 * a1
    if d1 * a1 <= a2:
        return m1 <= d1 * a1 and m2 + d2 * m1 <= d2 * a2
    # 0 < a1 < d2*a2 and 0 < a2 < d1*a1
    if m2 == 0:
        return m1 <= d1 * a1
    if m1 == 0:
        return m2 <= d2 * a2
    if a1 * m1 >= a2 * m2:
        return a1 * m1 + (d1 * a1 - a2) * m2 < d1 * a1 * a1
    return a2 * m2 + (d2 * a2 - a1) * m1 < d2 * a2 * a2
