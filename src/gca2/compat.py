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

The backward walk of f_{S2}(e v) from v, which finds the local shadow of v
and the VGC witnesses, is the mirror image: f > 0 reaches 0 inside a run
of r horizontal edges iff f <= r at the run's start, and at its f-th edge.
So it is read one run at a time, from tables that depend on the path alone
(_walks): per v_k the walk's runs, the local-shadow mask for each first-zero
distance and the remote-shadow cut for each value of S2(v_k); per h_j the
edges after it.  They are kept on the path, built on its first use; as
DyckPath.build makes a new path on every call, they last for one greedy
element or one s2_structures loop.  shadow_report_v reads its shadow from
the same tables and states the rest as the paper defines it, in h-edge
indices as compatible_structure's lists are: the block of a remote edge is
owned by the nearest v_k whose local shadow holds it.  local_shadow_v
returns a Subpath, the whole loop ending at v_k when its walk has no zero.

The horizontal side is the vertical side run on the transposed path.
Reading D(a1, a2) backwards with East and North swapped gives D(a2, a1):
h_j becomes v_{a1+1-j} and v_k becomes h_{a2+1-k}, so HGC for S1 on the
path is VGC for S1 reversed on D(a2, a1).  The statistic, local shadows,
shadow report and block sizes of S1 are those _v functions on D(a2, a1),
and compatible_structure_h maps an answer back.  The greedy sum builds the
transposed path itself, so only the benchmark's tracer wraps
compatible_structure_h.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .dyckpath import HORIZONTAL, VERTICAL, DyckPath, IndexOutOfRange, Subpath


class CriterionFails(ValueError):
    """The remote-shadow block nonemptiness criterion does not hold."""


class RTooSmall(ValueError):
    """Reflection order r below max grading value or ceil(a1/a2)."""


class NotInRemoteSupport(ValueError):
    """omega's transport applied to a grading not supported inside rsh(S2)."""


Grading = tuple


@dataclass(frozen=True)
class ShadowReport:
    shadow: frozenset
    remote_shadow: frozenset
    rsh_partition: dict      # (k, height) -> tuple of h-edge indices


# -- shadow statistics ------------------------------------------------------

def fstat_v(path: DyckPath, s2: Grading, sub: Subpath) -> int:
    """f_{S2}(sub) = sum of S2 over vertical edges minus horizontal count."""
    _check_length(s2, path.a2)
    total = 0
    for p in path.positions(sub):
        if path.kinds[p] == VERTICAL:
            total += s2[path.indices[p] - 1]
        else:
            total -= 1
    return total


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

def _check_length(s: Grading, size: int) -> None:
    """Refuse a grading that is not one value per edge; compatible_structure skips it."""
    if len(s) != size:
        raise ValueError("grading length does not match the path")


def is_compatible(path: DyckPath, s1: Grading, s2: Grading) -> bool:
    _check_length(s1, path.a1)
    _check_length(s2, path.a2)
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

def _walks(path: DyckPath) -> tuple:
    """(per_v, fwd, bits) of path, built on first use and kept on the path.

    per_v[k-1] = (segs, masks, cuts) for v_k, with bit j standing for h_j:
      segs   the backward walk from v_k over the whole loop, one (slot, run,
             at) per vertical edge v_{slot+1} it meets, at distance at and
             followed by run horizontal edges;
      masks  the local shadow, the h-edges on the minimal path e..v_k, for
             each first-zero distance t < n: one run of bits, or when the
             path wraps the tail of the loop and its head; masks[n] is the
             whole loop, the local shadow when there is no zero;
      cuts   what S2(v_k) = c drops from the remote shadow: the last c
             h-edges of height k-1, which end at h_last just before v_k and
             start no earlier than the first of that height; c runs up to the
             count of that height, beyond which the cut is the same.
    The h-edges at positions p..q are prefix_h[p]+1..prefix_h[q+1].
    fwd[j-1] lists the edges after h_j in forward order, v_k as k-1 and h_i
    as -i, and bits pairs each j with its bit.
    """
    walks = getattr(path, "_walks", None)
    if walks is not None:
        return walks
    a1, n, kinds, ph = path.a1, path.n, path.kinds, path.prefix_h
    whole = (2 << a1) - 2  # bits 1..a1
    per_v, first = [], 1
    for end in path.pos_v:
        segs = []
        for t in range(n):
            p = end - t  # wraps by going negative, indexing from the end
            if kinds[p] == VERTICAL:
                segs.append([path.indices[p] - 1, 0, t])
            else:
                segs[-1][1] += 1
        head, last = (2 << ph[end]) - 2, ph[end]  # head: bits 1..ph[end]
        masks = [head & -(2 << ph[end - t]) if t <= end  # from bit ph[end - t] + 1
                 else head | whole & -(2 << ph[end - t + n]) for t in range(n)]
        cuts = tuple((2 << last) - (1 << max(first, last + 1 - c))
                     for c in range(last - first + 2))
        per_v.append((tuple(map(tuple, segs)), (*masks, whole), cuts))
        first = last + 1
    fwd = tuple(tuple(path.indices[q] - 1 if kinds[q] == VERTICAL else -path.indices[q]
                      for q in ((p + t) % n for t in range(1, n)))
                for p in path.pos_h)
    path._walks = walks = (tuple(per_v), fwd, tuple((j, 1 << j) for j in range(1, a1 + 1)))
    return walks


def _shadow(per_v: tuple, s2: Grading, n: int) -> tuple[list, int, int]:
    """(fz, shadow, remote) of S2 from the tables per_v of _walks.

    fz[k-1] is the first-zero distance of the backward walk from v_k, n when
    there is none; the shadow is the union of the local shadows and the
    remote shadow is the shadow less the cuts.
    """
    fz, shadow, cut = [], 0, 0
    for (segs, masks, cuts), val in zip(per_v, s2):
        if not val:  # the zero is at v_k itself, a local shadow with no h-edge
            fz.append(0)
            continue
        f = 0
        for slot, run, at in segs:
            f += s2[slot]
            if f <= run:
                t = at + f
                break
            f -= run
        else:
            t = n
        fz.append(t)
        shadow |= masks[t]
        cut |= cuts[val] if val < len(cuts) else cuts[-1]
    return fz, shadow, shadow & ~cut


def local_shadow_v(path: DyckPath, s2: Grading, k: int):
    """Minimal path e..v_k with zero statistic, or the whole loop ending at v_k,
    which is also a zero's path at t = n - 1: `fstat_v(...) == 0` tells them apart."""
    _check_length(s2, path.a2)
    if not 1 <= k <= path.a2:
        raise IndexOutOfRange(f"v_{k} on a path with a2={path.a2}")
    t = _first_zero(path, s2, VERTICAL, k)
    end = path.pos_v[k - 1]
    if t is None:
        return path.full_loop(path.edge_at(end + 1))
    return Subpath(path.edge_at(end - t), path.edge_at(end))


def shadow_report_v(path: DyckPath, s2: Grading) -> ShadowReport:
    _check_length(s2, path.a2)
    per_v, _, bits = _walks(path)
    fz, shadow, remote = _shadow(per_v, s2, path.n)
    rsh = [j for j, bit in bits if remote & bit]
    return ShadowReport(frozenset([j for j, bit in bits if shadow & bit]), frozenset(rsh),
                        _partition(path, rsh, fz))


def _partition(path, remote, fz) -> dict:
    """Group the remote shadow of a vertical grading by (owner index, height).

    remote is a sorted list of h-edge indices and fz[k-1] the first-zero
    distance from v_k, n when there is none (_shadow).  h_j lies in the
    local shadow of v_k iff v_k is at most fz[k-1] steps after h_j; its
    owner is the nearest such v_k.  Blocks and their edges come in path
    order, which is index order.
    """
    n = path.n
    blocks: dict = {}
    for j in remote:
        ph = path.pos_h[j - 1]
        _, owner = min((d, k) for k, d in enumerate([(pv - ph) % n for pv in path.pos_v], 1)
                       if d <= fz[k - 1])
        blocks.setdefault((owner, path.height(j)), []).append(j)
    return {key: tuple(edges) for key, edges in blocks.items()}


# -- remote shadow block sizes (closed formula) -------------------------------

def rsh_block_size_v(path: DyckPath, s2: Grading, k: int, ell: int) -> int:
    """|rsh(S2)_{k;ell}| for 0 <= ell < a2, 0 < k <= a2, k != ell + 1."""
    a2 = path.a2
    _check_length(s2, a2)
    if not (0 <= ell < a2 and 1 <= k <= a2) or k == ell + 1:
        raise CriterionFails(f"no block at (k={k}, ell={ell})")
    vl, vk = path.v(ell), path.v(k)  # v_0 is v_{a2}
    vals = []
    # v_{ell+1}..v_{k-1} forward, the whole loop round when k == ell
    for v in map(path.v, range(ell + 1, ell + (k - ell - 1) % a2 + 1)):
        neg_f_from_l = -fstat_v(path, s2, Subpath(vl, v, include_start=False))
        f_to_k = fstat_v(path, s2, Subpath(v, vk, include_start=False))
        if not (neg_f_from_l > 0 and f_to_k > 0):
            raise CriterionFails(
                f"criterion fails at {v} for (k={k}, ell={ell})")
        vals.append(min(neg_f_from_l, f_to_k))
    if not vals:
        raise CriterionFails(f"no vertical edges strictly between (k={k}, ell={ell})")
    return min(vals)


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

    The shadow comes from the path's tables (_walks, see the module
    docstring).  An assignment is valid iff every remote edge with a
    deadline has value 0 or its walk reaches 0 before the deadline.  Each
    such walk is planned once per S2 as steps (adds, run): add the values
    of the slots in adds, then cross run vertical edges.  Only the nearest
    unwitnessed support edge binds, the first zero is before it iff some
    zero is, and f > 0 reaches 0 in a run of r vertical edges iff f <= r at
    its start.  Horizontal edges outside the remote shadow add 0 and drop
    out, and so does whatever follows the last vertical run.
    """
    per_v, fwd, bits = _walks(path)
    fz, shadow, remote = _shadow(per_v, s2, path.n)
    rsh_idx = [j for j, bit in bits if remote & bit]
    free = [j for j, bit in bits if not shadow & bit]
    slot_at = {-j: s for s, j in enumerate(rsh_idx)}
    plans = []
    for s, j in enumerate(rsh_idx):
        steps, adds, run = [], [], 0
        for t, e in enumerate(fwd[j - 1], 1):
            if e >= 0:  # v_{e+1}, a deadline if in the support and unwitnessed
                if s2[e] and t <= fz[e]:
                    if run:
                        steps.append((tuple(adds), run))
                    plans.append((s, steps))
                    break
                run += 1
            elif e in slot_at:
                if run:
                    steps.append((tuple(adds), run))
                    adds, run = [], 0
                adds.append(slot_at[e])
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


def compatible_structure_h(path: DyckPath, s1: Grading, d2: int):
    """Mirror of compatible_structure: {S2 : (S1, S2) compatible} for one S1.

    Returns (free, rsh, valid) over vertical edge indices, computed on the
    transposed path D(a2, a1); valid keeps product order, and edges in
    sh(S1) - rsh(S1) are 0.
    """
    _check_length(s1, path.a1)
    a2 = path.a2
    free, rsh_idx, valid = compatible_structure(DyckPath(a2, path.a1), s1[::-1], d2)
    return ([a2 + 1 - i for i in reversed(free)],
            [a2 + 1 - i for i in reversed(rsh_idx)],
            sorted(vals[::-1] for vals in valid))


def s2_structures(a1: int, a2: int, d1: int, d2: int):
    """Yield (S2, free, rsh, valid) of compatible_structure for every S2 on
    D(a1, a2), S2 in product order; one path serves them all, and its walk
    tables with it."""
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
    _check_length(s2, a2)
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
        moves.extend((j - 1, j2 - 1) for j, j2 in zip(edges, target))
    outside = [j for j in range(1, a1 + 1) if j not in report.remote_shadow]

    def transport(s1: Grading) -> Grading:
        _check_length(s1, a1)
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
