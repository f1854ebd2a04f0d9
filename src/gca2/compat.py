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
    """omega() applied to a grading not supported inside the remote shadow."""


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
    local_paths: dict        # EdgeRef -> Subpath or WHOLE_LOOP
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
    """True when every (h_j, v_k) with j in hs and k in vs has a witness."""
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
    local_paths: dict = {}
    local_sets: dict = {}
    shadow: set[EdgeRef] = set()
    all_h = frozenset(EdgeRef(HORIZONTAL, j) for j in range(1, path.a1 + 1))
    for k in range(1, path.a2 + 1):
        v = EdgeRef(VERTICAL, k)
        sub = local_shadow_v(path, s2, k)
        local_paths[v] = sub
        if sub is WHOLE_LOOP:
            local_sets[v] = all_h
        else:
            local_sets[v] = frozenset(e for e in path.subpath_edges(sub)
                                      if e.kind == HORIZONTAL)
        shadow |= local_sets[v]
    remote = set(shadow)
    for ell in range(1, path.a2 + 1):
        cut = s2[ell - 1]
        if cut:
            # horizontal edges of height ell - 1 before v_ell, in path order
            before = [EdgeRef(HORIZONTAL, j) for j in range(1, path.a1 + 1)
                      if path.height(j) == ell - 1 and path.pos_h[j - 1] < path.pos_v[ell - 1]]
            remote.difference_update(before[-cut:])
    partition = _partition(path, remote, local_sets)
    return ShadowReport(frozenset(shadow), frozenset(remote), local_paths, partition)


def shadow_report_h(path: DyckPath, s1: Grading) -> ShadowReport:
    """Report of S1 reversed on the transpose, mapped back; keys become (j, d)."""
    tp = path.transpose()
    rep = shadow_report_v(tp, s1[::-1])
    a1 = path.a1
    local_paths = {_tr(tp, e): sub if sub is WHOLE_LOOP else _tr_sub(tp, sub)
                   for e, sub in reversed(rep.local_paths.items())}
    blocks = [((a1 + 1 - k, a1 - ell), tuple(_tr(tp, e) for e in reversed(edges)))
              for (k, ell), edges in rep.rsh_partition.items()]
    blocks.sort(key=lambda block: path.pos(block[1][0]))
    return ShadowReport(frozenset(_tr(tp, e) for e in rep.shadow),
                        frozenset(_tr(tp, e) for e in rep.remote_shadow),
                        local_paths, dict(blocks))


def _partition(path, remote, local_sets) -> dict:
    """Group remote-shadow edges of a vertical grading by (owner index, height).

    The owner of an edge e is the vertical edge whose local shadow contains e
    at the shortest backward path distance.  Blocks and their edges come in
    path order.
    """
    n = path.n
    blocks: dict = {}
    for e in sorted(remote, key=lambda e: path.pos(e)):
        pe = path.pos(e)
        best = None
        best_dist = None
        for owner, members in local_sets.items():
            if e not in members:
                continue
            po = path.pos(owner)
            dist = (po - pe) % n
            if best_dist is None or dist < best_dist:
                best_dist = dist
                best = owner
        blocks.setdefault((best.index, path.height(e.index)), []).append(e)
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
    indices of the remote shadow, and valid the list of value assignments on
    rsh that complete to a compatible pair.  Edges in shadow minus remote
    shadow are forced to zero.
    """
    report = shadow_report_v(path, s2)
    shadow_idx = {e.index for e in report.shadow}
    rsh_idx = sorted(e.index for e in report.remote_shadow)
    free = [j for j in range(1, path.a1 + 1) if j not in shadow_idx]
    supp = [k for k in range(1, path.a2 + 1) if s2[k - 1] > 0]
    fz2 = [_first_zero(path, s2, VERTICAL, k) for k in range(1, path.a2 + 1)]
    valid = []
    base = [0] * path.a1
    for vals in product(range(d1 + 1), repeat=len(rsh_idx)):
        for j, val in zip(rsh_idx, vals):
            base[j - 1] = val
        s1 = tuple(base)
        fz1 = {j - 1: _first_zero(path, s1, HORIZONTAL, j) for j in rsh_idx}
        if _pairs_ok(path, fz1, fz2, rsh_idx, supp):
            valid.append(vals)
        for j in rsh_idx:
            base[j - 1] = 0
    return free, rsh_idx, valid


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


def enumerate_fast(a1: int, a2: int, d1: int, d2: int) -> list:
    """Same pairs as enumerate_bruteforce, via the shadow pruning."""
    path = DyckPath.build(a1, a2)
    out = []
    for s2 in product(range(d2 + 1), repeat=a2):
        free, rsh_idx, valid = compatible_structure(path, s2, d1)
        block = []
        base = [0] * a1
        for vals in valid:
            for j, val in zip(rsh_idx, vals):
                base[j - 1] = val
            for fvals in product(range(d1 + 1), repeat=len(free)):
                for j, val in zip(free, fvals):
                    base[j - 1] = val
                block.append(tuple(base))
            for j in free:
                base[j - 1] = 0
            for j in rsh_idx:
                base[j - 1] = 0
        block.sort()
        out.extend((s1, s2) for s1 in block)
    return out


def pair_record(s1: Grading, s2: Grading) -> dict:
    """JSON record for one compatible pair."""
    return {"s1": list(s1), "s2": list(s2), "m1": sum(s1), "m2": sum(s2)}


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


def omega(path: DyckPath, s1: Grading, s2: Grading, r: int) -> tuple[DyckPath, Grading]:
    """Transport S1 through the order-preserving block bijections.

    Requires supp(S1) inside rsh(S2); accepts compatible and incompatible
    gradings alike so the compatibility equivalence can be probed.
    """
    a2 = path.a2
    report = shadow_report_v(path, s2)
    rsh_idx = {e.index for e in report.remote_shadow}
    for j in range(1, path.a1 + 1):
        if s1[j - 1] > 0 and j not in rsh_idx:
            raise NotInRemoteSupport(f"h_{j} carries weight outside rsh(S2)")
    new_path, new_s2 = phi_pullback(path, s2, r)
    new_report = shadow_report_v(new_path, new_s2)
    new_s1 = [0] * new_path.a1
    for (k, ell), edges in report.rsh_partition.items():
        target = new_report.rsh_partition.get((a2 - ell, a2 - k), ())
        if len(target) != len(edges):
            raise AssertionError(
                f"block size mismatch at (k={k}, ell={ell}): "
                f"{len(edges)} vs {len(target)}")
        for h, h2 in zip(edges, target):
            new_s1[h2.index - 1] = s1[h.index - 1]
    return new_path, tuple(new_s1)


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


# -- wrap-convention diagnostic -------------------------------------------------

def _is_compatible_nowrap(path: DyckPath, s1: Grading, s2: Grading) -> bool:
    """Variant predicate that skips (h, v) pairs whose path hv wraps."""
    if path.a1 == 0 or path.a2 == 0:
        return True
    fz1 = [_first_zero(path, s1, HORIZONTAL, j) for j in range(1, path.a1 + 1)]
    fz2 = [_first_zero(path, s2, VERTICAL, k) for k in range(1, path.a2 + 1)]
    # a pair whose path hv wraps (v before h) is vacuous under this reading
    return all(_pairs_ok(path, fz1, fz2, [j], [k for k in range(1, path.a2 + 1)
                                                if path.pos_v[k - 1] > path.pos_h[j - 1]])
               for j in range(1, path.a1 + 1))


def wrap_convention_report(a1: int, a2: int, d1: int, d2: int) -> list:
    """Gradings whose compatibility differs with and without wrapping.

    Diagnostic only: the torus convention is the one used everywhere else.
    """
    path = DyckPath.build(a1, a2)
    diffs = []
    for s1 in product(range(d1 + 1), repeat=a1):
        for s2 in product(range(d2 + 1), repeat=a2):
            a = is_compatible(path, s1, s2)
            b = _is_compatible_nowrap(path, s1, s2)
            if a != b:
                diffs.append((s1, s2, a, b))
    return diffs
