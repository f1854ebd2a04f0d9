from itertools import product

import pytest

from gca2 import compat
from gca2.compat import (WHOLE_LOOP, CriterionFails, NotInRemoteSupport,
                         RTooSmall, compatible_structure_h,
                         enumerate_bruteforce, enumerate_fast,
                         fstat_h, fstat_v, is_compatible, local_shadow_h,
                         local_shadow_v, omega, pair_record, phi_pullback,
                         rsh_block_size_h, rsh_block_size_v, shadow_report_h,
                         shadow_report_v, support_region)
from gca2.dyckpath import DyckPath, EdgeRef, Subpath

D52 = DyckPath.build(5, 2)


def brute_compatible(path, s1, s2):
    """Straight transcription of the defining condition, as an oracle."""
    n = path.n
    if path.a1 == 0 or path.a2 == 0:
        return True
    for j in range(1, path.a1 + 1):
        for k in range(1, path.a2 + 1):
            ph, pv = path.pos_h[j - 1], path.pos_v[k - 1]
            length = (pv - ph) % n  # edges in hv, minus one
            found = False
            for t in range(length):  # e = edge at distance t from h, t < length
                sub = Subpath(path.edge_at(ph), path.edge_at(ph + t))
                if path.count_v(sub) == sum(
                        s1[path.indices[p] - 1] for p in path.positions(sub)
                        if path.kinds[p] == "h"):
                    found = True
                    break
            if not found:
                for t in range(length):  # e at distance t back from v, t < length
                    sub = Subpath(path.edge_at(pv - t), path.edge_at(pv))
                    if path.count_h(sub) == sum(
                            s2[path.indices[p] - 1] for p in path.positions(sub)
                            if path.kinds[p] == "v"):
                        found = True
                        break
            if not found:
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
                    got = []
                    for vals in valid:
                        for fvals in product(range(d2 + 1), repeat=len(free)):
                            s2 = [0] * a2
                            for k, val in zip(rsh + free, vals + fvals):
                                s2[k - 1] = val
                            got.append(tuple(s2))
                    want = [s2 for s2 in oracle if max(s2, default=0) <= d2]
                    assert valid == sorted(set(valid)), (a1, a2, s1, d2)  # product order
                    assert len(got) == len(set(got)), (a1, a2, s1, d2)
                    assert set(got) == set(want), (a1, a2, s1, d2)


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
    assert rep.local_paths[EdgeRef("h", 1)] is WHOLE_LOOP

    rep = shadow_report_v(D52, (1, 0))
    assert rep.shadow == frozenset({EdgeRef("h", 3)})
    assert rep.remote_shadow == frozenset()

    rep = shadow_report_v(D52, (0, 3))
    assert rep.shadow == frozenset({EdgeRef("h", 3), EdgeRef("h", 4), EdgeRef("h", 5)})
    assert rep.remote_shadow == frozenset({EdgeRef("h", 3)})


def test_shadow_sizes_exhaustive():
    # |sh(S1)| = min(a2, |S1|) and |sh(S2)| = min(a1, |S2|)
    for a1 in range(1, 6):
        for a2 in range(1, 6):
            path = DyckPath.build(a1, a2)
            for s1 in product(range(4), repeat=a1):
                assert len(shadow_report_h(path, s1).shadow) == min(a2, sum(s1))
            for s2 in product(range(4), repeat=a2):
                assert len(shadow_report_v(path, s2).shadow) == min(a1, sum(s2))


def test_local_shadows_nest_or_are_disjoint():
    for a1 in range(1, 5):
        for a2 in range(1, 5):
            path = DyckPath.build(a1, a2)
            all_v = frozenset(EdgeRef("v", k) for k in range(1, a2 + 1))
            all_h = frozenset(EdgeRef("h", j) for j in range(1, a1 + 1))
            for s1 in product(range(4), repeat=a1):
                sets = []
                for j in range(1, a1 + 1):
                    sub = local_shadow_h(path, s1, j)
                    sets.append(all_v if sub is WHOLE_LOOP else frozenset(
                        e for e in path.subpath_edges(sub) if e.kind == "v"))
                for x in sets:
                    for y in sets:
                        assert not (x & y) or x <= y or y <= x, (a1, a2, s1)
            for s2 in product(range(4), repeat=a2):
                sets = []
                for k in range(1, a2 + 1):
                    sub = local_shadow_v(path, s2, k)
                    sets.append(all_h if sub is WHOLE_LOOP else frozenset(
                        e for e in path.subpath_edges(sub) if e.kind == "h"))
                for x in sets:
                    for y in sets:
                        assert not (x & y) or x <= y or y <= x, (a1, a2, s2)


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


def test_rsh_block_criterion_iff_and_sizes():
    # the closed formula agrees with the constructed blocks, and the
    # criterion holds exactly when the block is nonempty
    for a1 in range(1, 5):
        for a2 in range(1, 5):
            path = DyckPath.build(a1, a2)
            for s1 in product(range(3), repeat=a1):
                rep = shadow_report_h(path, s1)
                depths = {path.depth(k) for k in range(1, a2 + 1)}
                for j in range(1, a1 + 1):
                    for d in range(1, a1 + 1):
                        if j == d or d not in depths:
                            continue
                        block = rep.rsh_partition.get((j, d), ())
                        try:
                            size = rsh_block_size_h(path, s1, j, d)
                        except CriterionFails:
                            assert block == (), (a1, a2, s1, j, d)
                        else:
                            assert size == len(block) > 0, (a1, a2, s1, j, d)
            for s2 in product(range(3), repeat=a2):
                rep = shadow_report_v(path, s2)
                heights = {path.height(j) for j in range(1, a1 + 1)}
                for k in range(1, a2 + 1):
                    for ell in range(a2):
                        if k == ell + 1 or ell not in heights:
                            continue
                        block = rep.rsh_partition.get((k, ell), ())
                        try:
                            size = rsh_block_size_v(path, s2, k, ell)
                        except CriterionFails:
                            assert block == (), (a1, a2, s2, k, ell)
                        else:
                            assert size == len(block) > 0, (a1, a2, s2, k, ell)


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


def test_enumeration_oracle_equivalence():
    for a1 in range(5):
        for a2 in range(5):
            for d1 in range(4):
                for d2 in range(4):
                    assert enumerate_fast(a1, a2, d1, d2) == \
                        enumerate_bruteforce(a1, a2, d1, d2), (a1, a2, d1, d2)


def test_enumeration_order_lexicographic():
    pairs = enumerate_fast(3, 2, 2, 2)
    keys = [(s2, s1) for s1, s2 in pairs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_grading_bound():
    for a1 in range(1, 5):
        for a2 in range(1, 5):
            for s1, s2 in enumerate_bruteforce(a1, a2, 3, 3):
                assert sum(s1) < a2 or sum(s2) < a1


def test_pair_record():
    assert pair_record((2, 1, 0, 0, 0), (1, 3)) == \
        {"s1": [2, 1, 0, 0, 0], "s2": [1, 3], "m1": 3, "m2": 4}


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


def test_omega_trivial_and_magnitude():
    for a1, a2 in ((2, 2), (3, 2), (4, 3)):
        path = DyckPath.build(a1, a2)
        for s2 in product(range(3), repeat=a2):
            r = 4
            rep = shadow_report_v(path, s2)
            rsh_idx = sorted(e.index for e in rep.remote_shadow)
            _, img0 = omega(path, (0,) * a1, s2, r)
            assert sum(img0) == 0
            for vals in product(range(3), repeat=len(rsh_idx)):
                s1 = [0] * a1
                for j, val in zip(rsh_idx, vals):
                    s1[j - 1] = val
                s1 = tuple(s1)
                _, img = omega(path, s1, s2, r)
                assert sum(img) == sum(s1)


def test_omega_requires_remote_support():
    s2 = (1, 0)  # rsh empty on D(5,2)
    with pytest.raises(NotInRemoteSupport):
        omega(D52, (0, 0, 1, 0, 0), s2, 3)


def test_omega_involution_and_compatibility_iff():
    # exhaustive for a2 <= 3, r <= 4: S1 in C_rs(S2) iff Omega(S1) in C_rs(phi S2)
    for a2 in range(1, 4):
        for r in range(1, 5):
            for a1 in range(0, r * a2 + 1):
                if -(-a1 // a2) > r:
                    continue
                path = DyckPath.build(a1, a2)
                for s2 in product(range(min(r, 3) + 1), repeat=a2):
                    rep = shadow_report_v(path, s2)
                    rsh_idx = sorted(e.index for e in rep.remote_shadow)
                    if 3 ** len(rsh_idx) > 2000:
                        continue
                    new_path, new_s2 = phi_pullback(path, s2, r)
                    for vals in product(range(3), repeat=len(rsh_idx)):
                        s1 = [0] * a1
                        for j, val in zip(rsh_idx, vals):
                            s1[j - 1] = val
                        s1 = tuple(s1)
                        _, img = omega(path, s1, s2, r)
                        assert is_compatible(path, s1, s2) == \
                            is_compatible(new_path, img, new_s2), \
                            (a1, a2, r, s1, s2, img)
                        back_path, back = omega(new_path, img, new_s2, r)
                        assert back == s1
                        assert (back_path.a1, back_path.a2) == (a1, a2)


def test_f_and_phi_identity():
    # f_{phi* S2}(v'_i-bar v'_j) = -f_{S2}(v_{a2-j}-bar v_{a2-i}), all pairs
    for a1, a2 in ((2, 2), (3, 2), (5, 2), (4, 3), (2, 3)):
        path = DyckPath.build(a1, a2)
        for s2 in product(range(3), repeat=a2):
            for r in (3, 4):
                if -(-a1 // a2) > r:
                    continue
                new_path, new_s2 = phi_pullback(path, s2, r)
                for i in range(1, a2 + 1):
                    for j in range(1, a2 + 1):
                        lhs = fstat_v(new_path, new_s2,
                                      Subpath(new_path.v(i), new_path.v(j),
                                              include_start=False))
                        rhs = fstat_v(path, s2,
                                      Subpath(path.v(a2 - j), path.v(a2 - i),
                                              include_start=False))
                        assert lhs == -rhs, (a1, a2, s2, r, i, j)


def test_support_region_examples():
    assert support_region(2, 3, 5, 2, 0, 6)
    assert support_region(2, 3, 5, 2, 10, 0)
    assert not support_region(2, 3, 5, 2, 10, 1)
    assert support_region(0, 0, 0, 0, 0, 0)
    assert not support_region(0, 0, 0, 0, 1, 0)
    assert not support_region(2, 3, 5, 2, -1, 0)


def test_support_region_contains_all_magnitudes():
    # all three cases exercised: (a) d2 a2 <= a1, (b) d1 a1 <= a2, (c) else
    cases = set()
    for a1 in range(5):
        for a2 in range(5):
            for d1 in range(4):
                for d2 in range(4):
                    if d2 * a2 <= a1:
                        cases.add("a")
                    elif d1 * a1 <= a2:
                        cases.add("b")
                    else:
                        cases.add("c")
                    for s1, s2 in enumerate_bruteforce(a1, a2, d1, d2):
                        assert support_region(d1, d2, a1, a2, sum(s1), sum(s2)), \
                            (a1, a2, d1, d2, s1, s2)
    assert cases == {"a", "b", "c"}


def test_support_region_is_sharp_on_the_magnitude_lattice():
    # every admissible magnitude pair is realized for a representative case
    for (d1, d2, a1, a2) in ((2, 3, 3, 2), (2, 2, 2, 3), (1, 1, 2, 2)):
        seen = {(sum(s1), sum(s2))
                for s1, s2 in enumerate_bruteforce(a1, a2, d1, d2)}
        region = {(m1, m2) for m1 in range(d1 * a1 + 2)
                  for m2 in range(d2 * a2 + 2)
                  if support_region(d1, d2, a1, a2, m1, m2)}
        assert seen <= region


def test_wrap_convention_diagnostic_runs():
    report = compat.wrap_convention_report(2, 2, 1, 1)
    assert isinstance(report, list)
    for s1, s2, torus, nowrap in report:
        assert torus != nowrap
