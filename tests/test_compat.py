import random
from itertools import product

import pytest

from gca2 import compat, verify
from gca2.coeffring import CoefficientMode
from gca2.compat import (CriterionFails, NotInRemoteSupport, RTooSmall, compatible_structure,
                         compatible_structure_h, enumerate_bruteforce,
                         enumerate_fast, fstat_v, is_compatible, local_shadow_v,
                         omega, phi_pullback, rsh_block_size_v,
                         shadow_report_v, support_region)
from gca2.dyckpath import DyckPath, IndexOutOfRange, Subpath
from gca2.greedy import greedy_recursive

D52 = DyckPath.build(5, 2)
# D(2,5): D(5,2) read backwards with East and North swapped, h_j becoming
# v_{6-j} and v_k becoming h_{3-k}.  A statement about S1 on D(5,2) is one
# about S1 reversed, as S2, on T52, and the paper's S1 examples live here.
T52 = DyckPath.build(2, 5)


def brute_compatible(path, s1, s2):
    """Straight transcription of the defining condition, as an oracle.

    For each (h, v), e moves away from h (HGC) or back from v (VGC) one
    edge at a time over the proper part of hv, and the two statistics of
    the subpath he (resp. ev) are kept as running sums.
    """
    if path.a1 == 0 or path.a2 == 0:
        return True
    n = path.n

    def witness(start, step, length, kind, s):
        # is there t < length where, on the t + 1 edges from start, the
        # edges not of kind count as many as s sums to over those of kind?
        other = total = 0
        for t in range(length):
            p = (start + step * t) % n
            if path.kinds[p] == kind:
                total += s[path.indices[p] - 1]
            else:
                other += 1
            if other == total:
                return True
        return False

    for ph in path.pos_h:
        for pv in path.pos_v:
            length = (pv - ph) % n  # edges in hv, minus one
            if not (witness(ph, 1, length, "h", s1) or witness(pv, -1, length, "v", s2)):
                return False
    return True


def test_fstat_examples():
    # S1 = (2, 1, 0, 0, 0) on h_1 h_2 of D(5,2)
    assert fstat_v(T52, (0, 0, 0, 1, 2), Subpath(T52.v(4), T52.v(5))) == 3
    assert fstat_v(T52, (0,) * 5, T52.full_loop(T52.h(1))) == -2
    assert fstat_v(D52, (0, 0), Subpath(D52.v(1), D52.v(2))) == -2
    # any full loop with |S1| = a2 scores zero: S1 = (1, 1, 0, 0, 0) from h_3
    assert fstat_v(T52, (0, 0, 0, 1, 1), T52.full_loop(T52.v(4))) == 0


def test_fstat_additive_under_concatenation():
    for path, s in ((D52, (3, 1)), (T52, (2, 0, 1, 0, 2))):
        for cut in range(1, path.n):
            left = Subpath(path.edge_at(0), path.edge_at(cut - 1))
            right = Subpath(path.edge_at(cut), path.edge_at(path.n - 1))
            whole = Subpath(path.edge_at(0), path.edge_at(path.n - 1))
            assert fstat_v(path, s, left) + fstat_v(path, s, right) == \
                fstat_v(path, s, whole)


def test_is_compatible_examples():
    assert is_compatible(D52, (2, 1, 0, 0, 0), (1, 3))
    for s2 in product(range(4), repeat=2):
        assert is_compatible(D52, (0,) * 5, s2)
    assert not is_compatible(D52, (1, 0, 0, 0, 0), (3, 3))


def test_is_compatible_matches_definition_oracle():
    for a1, a2 in ((1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (5, 2)):
        path = DyckPath.build(a1, a2)
        for s1 in product(range(3), repeat=a1):
            for s2 in product(range(3), repeat=a2):
                assert is_compatible(path, s1, s2) == \
                    brute_compatible(path, s1, s2), (a1, a2, s1, s2)


def test_is_compatible_transpose_symmetry():
    # (S1, S2) on D(a1,a2) is (S2 reversed, S1 reversed) on D(a2,a1)
    for a1 in range(5):
        for a2 in range(5):
            path = DyckPath.build(a1, a2)
            tp = DyckPath.build(a2, a1)
            for s1 in product(range(3), repeat=a1):
                for s2 in product(range(3), repeat=a2):
                    assert is_compatible(path, s1, s2) == \
                        is_compatible(tp, s2[::-1], s1[::-1]), (a1, a2, s1, s2)


def expand_structure(free, rsh, valid, d, length):
    """Every grading that (free, rsh, valid) describes, values up to d."""
    got = []
    for vals in valid:
        for fvals in product(range(d + 1), repeat=len(free)):
            s = [0] * length
            for i, val in zip(rsh + free, vals + fvals):
                s[i - 1] = val
            got.append(tuple(s))
    return got


def test_compatible_structure_h_matches_definition_oracle():
    # expanding (free, rsh, valid) gives exactly {S2 : (S1, S2) compatible}
    for a1 in range(5):
        for a2 in range(5):
            path = DyckPath.build(a1, a2)
            for s1 in product(range(3), repeat=a1):
                oracle = [s2 for s2 in product(range(4), repeat=a2)
                          if brute_compatible(path, s1, s2)]
                for d2 in range(4):
                    free, rsh, valid = compatible_structure_h(path, s1, d2)
                    got = expand_structure(free, rsh, valid, d2, a2)
                    want = [s2 for s2 in oracle if max(s2, default=0) <= d2]
                    assert valid == sorted(set(valid)), (a1, a2, s1, d2)  # product order
                    assert len(got) == len(set(got)), (a1, a2, s1, d2)
                    assert set(got) == set(want), (a1, a2, s1, d2)


def test_compatible_structure_matches_definition_oracle():
    # expanding (free, rsh, valid) gives exactly {S1 : (S1, S2) compatible}
    for a1 in range(5):
        for a2 in range(5):
            path = DyckPath.build(a1, a2)
            for s2 in product(range(3), repeat=a2):
                oracle = [s1 for s1 in product(range(4), repeat=a1)
                          if brute_compatible(path, s1, s2)]
                for d1 in range(4):
                    free, rsh, valid = compatible_structure(path, s2, d1)
                    got = expand_structure(free, rsh, valid, d1, a1)
                    want = [s1 for s1 in oracle if max(s1, default=0) <= d1]
                    assert valid == sorted(set(valid)), (a1, a2, s2, d1)  # product order
                    assert len(got) == len(set(got)), (a1, a2, s2, d1)
                    assert set(got) == set(want), (a1, a2, s2, d1)


def local_h_edges(path, s2):
    """local[k-1] is the set of h-edge indices on the local subpath of
    local_shadow_v at v_k."""
    return [{e.index for e in path.subpath_edges(local_shadow_v(path, s2, k)) if e.kind == "h"}
            for k in range(1, path.a2 + 1)]


def set_shadow(path, s2, local=None):
    """(shadow, remote) of S2 as sets: the union of local (local_h_edges by
    default), and that union less the last S2(v_k) h-edges of height k-1."""
    shadow = set().union(*(local or local_h_edges(path, s2)))
    remote = set(shadow)
    for k, val in enumerate(s2, 1):
        if val:
            level = [j for j in range(1, path.a1 + 1) if path.height(j) == k - 1]
            remote.difference_update(level[-val:])
    return shadow, remote


def all_pairs_structure(path, s2, d1, fz2, shadow, remote):
    """(free, rsh, valid) by a full _first_zero walk from every remote edge
    and _pairs_ok against the support of S2, for each assignment; fz2 and
    set_shadow's (shadow, remote) are computed once per S2 by the caller."""
    rsh = sorted(remote)
    supp = [k for k in range(1, path.a2 + 1) if s2[k - 1] > 0]
    valid = []
    for vals in product(range(d1 + 1), repeat=len(rsh)):
        s1 = [0] * path.a1
        for j, val in zip(rsh, vals):
            s1[j - 1] = val
        fz1 = {j - 1: compat._first_zero(path, tuple(s1), "h", j) for j in rsh}
        if compat._pairs_ok(path, fz1, fz2, rsh, supp):
            valid.append(vals)
    return [j for j in range(1, path.a1 + 1) if j not in shadow], rsh, valid


def deadline_walk(path, s2, fz2, remote, j):
    """(wrapped, chained) of the forward walk from the remote edge h_j to its
    deadline, or None when it has none: the nearest v_k in the support of S2
    at a distance t with no VGC witness, fz2[k-1] None or >= t.  wrapped
    when the deadline lies past the path's end; chained when a vertical edge
    before the deadline comes after another remote edge, whose value the
    walk then carries."""
    n, ph = path.n, path.pos_h[j - 1]
    seen_remote = chained = False
    for t in range(1, n):
        e = path.edge_at(ph + t)
        if e.kind == "h":
            seen_remote |= e.index in remote
        elif s2[e.index - 1] and (fz2[e.index - 1] is None or fz2[e.index - 1] >= t):
            return ph + t >= n, chained
        else:
            chained |= seen_remote
    return None


def test_compatible_structure_matches_all_pairs_check():
    # paths past criterion 10's max_a=4, each S2 with values up to the
    # largest d2 <= 3 that keeps (d2+1)^a2 <= 729; a1 = 0, a2 = 0 and d1 = 0
    # included.  The grid must reach walks that wrap past the path's end and
    # walks that add the values of other remote edges.
    wrapped = chained = 0
    for a1 in range(10):
        for a2 in range(7):
            path = DyckPath.build(a1, a2)
            d2 = max(d for d in (1, 2, 3) if (d + 1) ** a2 <= 729)
            for s2 in product(range(d2 + 1), repeat=a2):
                fz2 = [compat._first_zero(path, s2, "v", k) for k in range(1, a2 + 1)]
                shadow, remote = set_shadow(path, s2)
                for d1 in range(3):
                    assert compatible_structure(path, s2, d1) == \
                        all_pairs_structure(path, s2, d1, fz2, shadow, remote), \
                        (a1, a2, s2, d1)
                for j in remote:
                    walk = deadline_walk(path, s2, fz2, remote, j)
                    if walk:
                        wrapped += walk[0]
                        chained += walk[1]
    assert wrapped > 0 and chained > 0


def test_compatible_structure_reuses_one_path():
    # one path object serves S2 in shuffled order with interleaved d1, and
    # compatible_structure_h's transposed path serves in between: every answer
    # equals the one from a fresh path.  a1 = 0, a2 = 0, and a2 > a1, where
    # vertical runs are longer than one, are included.
    rng = random.Random(5)
    for a1, a2 in ((0, 3), (3, 0), (2, 5), (3, 6), (4, 4), (6, 3), (5, 2)):
        path = DyckPath.build(a1, a2)
        calls = [("v", s2, d1) for s2 in product(range(3), repeat=a2) for d1 in range(3)]
        calls += [("h", s1, d2) for s1 in product(range(3), repeat=a1) for d2 in range(3)]
        rng.shuffle(calls)
        for kind, s, d in calls:
            fresh = DyckPath.build(a1, a2)
            if kind == "v":
                got, want = (compatible_structure(p, s, d) for p in (path, fresh))
            else:
                got, want = (compatible_structure_h(p, s, d) for p in (path, fresh))
            assert got == want, (a1, a2, kind, s, d)


def test_local_shadow_examples():
    # S1 = (2, 1, 0, 0, 0) at h_1 of D(5,2)
    # has no zero: the whole loop ending at v_5, from h_1
    assert local_shadow_v(T52, (0, 0, 0, 1, 2), 5) == T52.full_loop(T52.h(1))
    # S1 = (0, 1, 0, 0, 0) at h_2, the path h_2..v_1 of D(5,2)
    sub = local_shadow_v(T52, (0, 0, 0, 1, 0), 4)
    # S(e) = 0 gives the single-edge path ee: S1 = (0, 1, 0, 0, 0) at h_3
    ee = local_shadow_v(T52, (0, 0, 0, 1, 0), 3)
    assert ee == Subpath(T52.v(3), T52.v(3))
    assert sub == Subpath(T52.h(2), T52.v(4))
    got = local_shadow_v(D52, (1, 0), 1)
    assert got == Subpath(D52.h(3), D52.v(1))


def test_shadow_report_examples():
    rep = shadow_report_v(T52, (0,) * 5)
    assert rep.shadow == frozenset() and rep.remote_shadow == frozenset()

    # S1 = (2, 1, 0, 0, 0) on D(5,2) shadows v_1 and v_2 there
    rep = shadow_report_v(T52, (0, 0, 0, 1, 2))
    assert rep.shadow == frozenset({2, 1})
    assert len(rep.shadow) == min(2, 3)

    rep = shadow_report_v(D52, (1, 0))
    assert rep.shadow == frozenset({3})
    assert rep.remote_shadow == frozenset()

    rep = shadow_report_v(D52, (0, 3))
    assert rep.shadow == frozenset({3, 4, 5})
    assert rep.remote_shadow == frozenset({3})


def test_shadow_core_is_the_report_shadow():
    # the shadow that compatible_structure and shadow_report_v share holds
    # exactly the union of the local subpaths' h-edges and its remote part.
    # Its run-wise walks find the edge-by-edge walks' first zeros (n for
    # none); a zero missed at the end of a run hides in the union, since
    # the walk then goes on as if it started at the next vertical edge.
    # Each remote edge h_j's block is (owner, height(j)), the owner being
    # the nearest v_k after h_j whose local subpath holds h_j, read from
    # local_shadow_v's edges and not from the first-zero distances.
    for a1 in range(7):
        for a2 in range(7):
            path = DyckPath.build(a1, a2)
            per_v = compat._walks(path)[0]
            for s2 in product(range(4), repeat=a2):
                rep = shadow_report_v(path, s2)
                got = [set(rep.shadow), set(rep.remote_shadow)]
                local = local_h_edges(path, s2)
                shadow, remote = set_shadow(path, s2, local)
                assert got == [shadow, remote], (a1, a2, s2)
                fz = [compat._first_zero(path, s2, "v", k) for k in range(1, a2 + 1)]
                fz = [path.n if t is None else t for t in fz]
                assert compat._shadow(per_v, s2, path.n)[0] == fz, (a1, a2, s2)
                want = {}
                for j in sorted(remote):
                    owner = min((k for k in range(1, a2 + 1) if j in local[k - 1]),
                                key=lambda k: (path.pos_v[k - 1] - path.pos_h[j - 1]) % path.n)
                    want.setdefault((owner, path.height(j)), []).append(j)
                assert list(rep.rsh_partition.items()) == \
                    [(key, tuple(edges)) for key, edges in want.items()], (a1, a2, s2)


def test_remote_shadow_partition_properties():
    def check(path, rep):
        assert rep.remote_shadow <= rep.shadow
        seen = [e for edges in rep.rsh_partition.values() for e in edges]
        assert len(seen) == len(set(seen))
        assert set(seen) == set(rep.remote_shadow)
        # blocks come in order of their first edge, and edges in path order
        blocks = list(rep.rsh_partition.values())
        assert all(list(edges) == sorted(edges, key=lambda j: path.pos_h[j - 1])
                   for edges in blocks)
        firsts = [path.pos_h[edges[0] - 1] for edges in blocks]
        assert firsts == sorted(firsts)

    # the grid is symmetric in (a1, a2), so it holds the S1 side: the reports
    # of S1 reversed on the transposes
    for a1 in range(1, 5):
        for a2 in range(1, 5):
            path = DyckPath.build(a1, a2)
            for s2 in product(range(3), repeat=a2):
                check(path, shadow_report_v(path, s2))


def test_rsh_block_size_errors():
    # the blocks (j, d) = (1, 2) and (3, 3) of S1 on D(5,2) are (k, ell) =
    # (6 - j, 5 - d) here
    with pytest.raises(CriterionFails):
        rsh_block_size_v(T52, (0,) * 5, 5, 3)
    with pytest.raises(CriterionFails):
        rsh_block_size_v(T52, (0, 0, 0, 1, 2), 3, 2)  # k == ell + 1, j == d there


def test_shadow_entry_points_refuse_a_grading_of_the_wrong_length():
    # one value short and one too many on D(5,2), whose a2 is 2; before the
    # check, local_shadow_v read pos_v[-1] and shadow_report_v zipped the
    # grading against the path's tables, answering for a different grading,
    # phi_pullback dropped an extra value and omega's transport an extra S1
    # value, and both raised a bare IndexError on a short one; so did fstat_v,
    # and compatible_structure_h answered for another S1 either way
    _, _, transport = omega(D52, (0, 3), 3)
    assert transport((0, 0, 1, 0, 0)) == (1,)
    assert compatible_structure_h(D52, (0, 0, 1, 0, 0), 2) == ([2], [], [()])
    calls = [lambda: transport((0, 0, 1, 0, 0, 7)), lambda: transport((0, 0, 1))]
    calls += [lambda s1=s1: compatible_structure_h(D52, s1, 2)
              for s1 in ((0, 0, 1, 0, 0, 9), (0, 0, 1))]
    calls += [lambda s2=s2: fstat_v(D52, s2, Subpath(D52.v(1), D52.v(2)))
              for s2 in ((1, 2, 7), (1,))]
    for s2 in ((3,), (0, 3, 1)):
        calls += [lambda s2=s2: shadow_report_v(D52, s2),
                  lambda s2=s2: local_shadow_v(D52, s2, 1),
                  lambda s2=s2: rsh_block_size_v(D52, s2, 2, 0),
                  lambda s2=s2: omega(D52, s2, 4), lambda s2=s2: phi_pullback(D52, s2, 3)]
    for call in calls:
        with pytest.raises(ValueError, match="grading length does not match the path"):
            call()
    for k in (0, 3):
        with pytest.raises(IndexOutOfRange):
            local_shadow_v(D52, (1, 2), k)


def test_enumerate_examples():
    pairs = enumerate_bruteforce(1, 1, 2, 3)
    assert len(pairs) == 6
    assert pairs == [((0,), (0,)), ((1,), (0,)), ((2,), (0,)),
                     ((0,), (1,)), ((0,), (2,)), ((0,), (3,))]
    # a2 = 0: every horizontal grading, trivial vertical
    pairs = enumerate_bruteforce(3, 0, 2, 3)
    assert len(pairs) == 27
    assert all(s2 == () for _, s2 in pairs)
    assert enumerate_bruteforce(0, 0, 2, 3) == [((), ())]
    assert len(enumerate_fast(5, 2, 2, 3)) == 547


def test_enumeration_order_lexicographic():
    pairs = enumerate_fast(3, 2, 2, 2)
    keys = [(s2, s1) for s1, s2 in pairs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_phi_pullback_examples():
    new_path, new_s2 = phi_pullback(D52, (1, 3), 3)
    assert (new_path.a1, new_path.a2) == (1, 2)
    assert new_s2 == (0, 2)
    path = DyckPath.build(3, 2)
    _, img = phi_pullback(path, (2, 2), 2)
    assert img == (0, 0)
    # involution
    for s2 in product(range(3), repeat=2):
        p2, t = phi_pullback(path, s2, 3)
        p3, back = phi_pullback(p2, t, 3)
        assert back == s2 and (p3.a1, p3.a2) == (3, 2)
    with pytest.raises(RTooSmall):
        phi_pullback(D52, (1, 3), 2)
    with pytest.raises(RTooSmall):
        phi_pullback(D52, (0, 0), 2)  # ceil(5/2) = 3 > 2


def test_omega_requires_remote_support():
    s2 = (1, 0)  # rsh empty on D(5,2)
    with pytest.raises(NotInRemoteSupport):
        omega(D52, s2, 3)[2]((0, 0, 1, 0, 0))


def test_support_region_examples():
    assert support_region(2, 3, 5, 2, 0, 6)
    assert support_region(2, 3, 5, 2, 10, 0)
    assert not support_region(2, 3, 5, 2, 10, 1)
    assert support_region(0, 0, 0, 0, 0, 0)
    assert not support_region(0, 0, 0, 0, 1, 0)
    assert not support_region(2, 3, 5, 2, -1, 0)


def test_support_region_contains_all_magnitudes():
    degrees = list(product(range(4), repeat=2))
    assert verify.grading_and_support(sizes=range(5), degrees=degrees) is None


def magnitude_region(d1, d2, a1, a2):
    """The (m1, m2) that support_region admits, searched one past each bound."""
    return {(m1, m2) for m1 in range(d1 * a1 + 2) for m2 in range(d2 * a2 + 2)
            if support_region(d1, d2, a1, a2, m1, m2)}


def test_support_region_is_sharp_on_the_magnitude_lattice():
    # every admissible magnitude pair is realized for a representative case
    for (d1, d2, a1, a2) in ((2, 3, 3, 2), (2, 2, 2, 3), (1, 1, 2, 2)):
        seen = {(sum(s1), sum(s2))
                for s1, s2 in enumerate_bruteforce(a1, a2, d1, d2)}
        assert seen == magnitude_region(d1, d2, a1, a2), (d1, d2, a1, a2)
    # and on every case with d1, d2 <= 3, a1, a2 <= 4 and at most 20,000
    # gradings but two, where the region admits (m1, m2) = (3, 3) and
    # neither the enumeration nor the all-ones greedy table realizes it
    cases, misses = 0, {}
    for d1, d2, a1, a2 in product(range(4), range(4), range(5), range(5)):
        if (d1 + 1) ** a1 * (d2 + 1) ** a2 > 20000:
            continue
        cases += 1
        seen = {(sum(s1), sum(s2)) for s1, s2 in enumerate_fast(a1, a2, d1, d2)}
        region = magnitude_region(d1, d2, a1, a2)
        assert seen <= region, (d1, d2, a1, a2)
        if seen != region:
            misses[d1, d2, a1, a2] = region - seen
    assert cases == 397
    assert misses == {(1, 2, 4, 3): {(3, 3)}, (2, 1, 3, 4): {(3, 3)}}
    for d1, d2, a1, a2 in misses:
        mode = CoefficientMode.numeric((1,) * (d1 + 1), (1,) * (d2 + 1))
        table = greedy_recursive(mode, a1, a2)
        assert {(q, p) for p, q in table.coeffs} == \
            magnitude_region(d1, d2, a1, a2) - {(3, 3)}, (d1, d2, a1, a2)
