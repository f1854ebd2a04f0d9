from itertools import product

import pytest

from gca2 import compat, verify
from gca2.coeffring import CoefficientMode
from gca2.compat import (WHOLE_LOOP, CriterionFails, NotInRemoteSupport,
                         RTooSmall, compatible_structure,
                         compatible_structure_h, enumerate_bruteforce,
                         enumerate_fast, fstat_h, fstat_v, is_compatible,
                         local_shadow_h, local_shadow_v, omega,
                         phi_pullback, rsh_block_size_h, shadow_report_h,
                         shadow_report_v, support_region)
from gca2.dyckpath import DyckPath, EdgeRef, Subpath
from gca2.greedy import greedy_recursive

D52 = DyckPath.build(5, 2)


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
    s1 = (2, 1, 0, 0, 0)
    assert fstat_h(D52, s1, Subpath(D52.h(1), D52.h(2))) == 3
    assert fstat_h(D52, (0,) * 5, D52.full_loop(D52.h(1))) == -2
    assert fstat_v(D52, (0, 0), Subpath(D52.v(1), D52.v(2))) == -2
    # any full loop with |S1| = a2 scores zero
    assert fstat_h(D52, (1, 1, 0, 0, 0), D52.full_loop(D52.h(3))) == 0


def test_fstat_additive_under_concatenation():
    s1 = (2, 0, 1, 0, 2)
    s2 = (3, 1)
    for cut in range(1, D52.n):
        left = Subpath(D52.edge_at(0), D52.edge_at(cut - 1))
        right = Subpath(D52.edge_at(cut), D52.edge_at(D52.n - 1))
        whole = Subpath(D52.edge_at(0), D52.edge_at(D52.n - 1))
        assert fstat_h(D52, s1, left) + fstat_h(D52, s1, right) == \
            fstat_h(D52, s1, whole)
        assert fstat_v(D52, s2, left) + fstat_v(D52, s2, right) == \
            fstat_v(D52, s2, whole)


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
            tp = path.transpose()
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


def set_shadow(path, s2):
    """(shadow, remote) of S2 as sets: the union of the h-edges of the local
    subpaths of local_shadow_v, and that union less the last S2(v_{ell+1})
    h-edges of height ell."""
    shadow = set()
    for k in range(1, path.a2 + 1):
        sub = local_shadow_v(path, s2, k)
        shadow.update(range(1, path.a1 + 1) if sub is WHOLE_LOOP else
                      [e.index for e in path.subpath_edges(sub) if e.kind == "h"])
    remote = set(shadow)
    for ell, before in enumerate(path.h_by_height()):
        if s2[ell]:
            remote.difference_update(e.index for e in before[-s2[ell]:])
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
                rsh = sorted(remote)
                for s, steps in compat._walk_plans(path, s2, fz2, rsh):
                    length = sum(len(adds) + run for adds, run in steps)
                    wrapped += path.pos_h[rsh[s] - 1] + length >= path.n
                    chained += any(adds for adds, _ in steps)
    assert wrapped > 0 and chained > 0


def test_local_shadow_examples():
    assert local_shadow_h(D52, (2, 1, 0, 0, 0), 1) is WHOLE_LOOP
    sub = local_shadow_h(D52, (0, 1, 0, 0, 0), 2)
    # S1(h) = 0 gives the single-edge path hh
    hh = local_shadow_h(D52, (0, 1, 0, 0, 0), 3)
    assert hh == Subpath(D52.h(3), D52.h(3))
    assert sub == Subpath(D52.h(2), D52.v(1))
    got = local_shadow_v(D52, (1, 0), 1)
    assert got == Subpath(D52.h(3), D52.v(1))


def test_shadow_report_examples():
    rep = shadow_report_h(D52, (0,) * 5)
    assert rep.shadow == frozenset() and rep.remote_shadow == frozenset()

    rep = shadow_report_h(D52, (2, 1, 0, 0, 0))
    assert rep.shadow == frozenset({EdgeRef("v", 1), EdgeRef("v", 2)})
    assert len(rep.shadow) == min(2, 3)

    rep = shadow_report_v(D52, (1, 0))
    assert rep.shadow == frozenset({EdgeRef("h", 3)})
    assert rep.remote_shadow == frozenset()

    rep = shadow_report_v(D52, (0, 3))
    assert rep.shadow == frozenset({EdgeRef("h", 3), EdgeRef("h", 4), EdgeRef("h", 5)})
    assert rep.remote_shadow == frozenset({EdgeRef("h", 3)})


def test_shadow_core_is_the_report_shadow():
    # the bit masks behind compatible_structure and shadow_report_v hold
    # exactly the union of the local subpaths' h-edges and its remote part
    for a1 in range(7):
        for a2 in range(7):
            path = DyckPath.build(a1, a2)
            for s2 in product(range(4), repeat=a2):
                fz2 = [compat._first_zero(path, s2, "v", k) for k in range(1, a2 + 1)]
                masks = compat._shadow_masks(path, s2, fz2)
                for mask, want in zip(masks, set_shadow(path, s2)):
                    assert mask == sum(1 << j for j in want), (a1, a2, s2)


def test_remote_shadow_partition_properties():
    def check(path, rep):
        assert rep.remote_shadow <= rep.shadow
        seen = [e for edges in rep.rsh_partition.values() for e in edges]
        assert len(seen) == len(set(seen))
        assert set(seen) == set(rep.remote_shadow)
        # blocks come in order of their first edge, and edges in path order
        blocks = list(rep.rsh_partition.values())
        assert all(list(edges) == sorted(edges, key=path.pos) for edges in blocks)
        firsts = [path.pos(edges[0]) for edges in blocks]
        assert firsts == sorted(firsts)

    for a1 in range(1, 5):
        for a2 in range(1, 5):
            path = DyckPath.build(a1, a2)
            for s1 in product(range(3), repeat=a1):
                check(path, shadow_report_h(path, s1))
            for s2 in product(range(3), repeat=a2):
                check(path, shadow_report_v(path, s2))


def test_rsh_block_size_errors():
    with pytest.raises(CriterionFails):
        rsh_block_size_h(D52, (0,) * 5, 1, 2)
    with pytest.raises(CriterionFails):
        rsh_block_size_h(D52, (2, 1, 0, 0, 0), 3, 3)  # j == d


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
