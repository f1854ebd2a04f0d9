from itertools import product
from math import gcd

import pytest

from gca2 import verify
from gca2.dyckpath import DyckPath, EdgeRef, IndexOutOfRange, Subpath


def test_build_5_2():
    path = DyckPath.build(5, 2)
    assert [path.height(j) for j in range(1, 6)] == [0, 0, 0, 1, 1]
    assert [path.depth(j) for j in range(1, 3)] == [3, 5]
    assert [path.kinds[p] for p in range(7)] == ["h", "h", "h", "v", "h", "h", "v"]


def test_path_is_g_copies_of_its_primitive_path():
    # the lemma behind greedy_combinatorial's rotation orbits: the line from
    # (0,0) to (a1,a2) meets g = gcd(a1, a2) - 1 lattice points inside, and
    # the maximal path touches each, so rotating by one copy maps it to itself
    for a1, a2 in product(range(13), repeat=2):
        g = gcd(a1, a2)
        if g:
            assert DyckPath.build(a1, a2).kinds == \
                DyckPath.build(a1 // g, a2 // g).kinds * g, (a1, a2)


def test_build_degenerate():
    path = DyckPath.build(4, 0)
    assert path.n == 4 and all(k == "h" for k in path.kinds)
    empty = DyckPath.build(0, 0)
    assert empty.n == 0 and empty.kinds == ()
    with pytest.raises(ValueError):
        DyckPath.build(-1, 2)


def test_build_returns_a_new_path_every_call():
    # what a path keeps (its transpose, compat's walk tables) lasts as long
    # as the caller's path and is never shared with a later build
    assert DyckPath.build(5, 2) is not DyckPath.build(5, 2)
    assert DyckPath.build(5, 2).transpose() is not DyckPath.build(5, 2).transpose()


def test_closed_form_matches_staircase_oracle():
    assert verify.closed_form(max_a=30) is None


def test_maximality_invariant():
    # every lattice point on the path is weakly below the diagonal and
    # every lattice point strictly above the path is strictly above it
    for a1 in range(1, 13):
        for a2 in range(1, 13):
            path = DyckPath.build(a1, a2)
            x = y = 0
            heights_at_x = {}
            for p in range(path.n):
                if path.kinds[p] == "h":
                    x += 1
                else:
                    y += 1
                assert a1 * y <= a2 * x
                heights_at_x[x] = y
            for xx in range(a1 + 1):
                yy = heights_at_x.get(xx, 0) + 1
                if yy <= a2:
                    assert a1 * yy > a2 * xx


def test_subpath_counts_example_3_1():
    path = DyckPath.build(5, 2)
    sub = Subpath(path.h(3), path.v(2))
    assert path.count_h(sub) == 3 and path.count_v(sub) == 2
    wrap = Subpath(path.v(2), path.h(3))
    assert path.count_h(wrap) == 3 and path.count_v(wrap) == 1
    single = Subpath(path.h(3), path.h(3))
    assert path.count_h(single) == 1 and path.count_v(single) == 0
    full = path.full_loop(path.v(1))
    assert path.count_h(full) == 5 and path.count_v(full) == 2


def test_subpath_exclusions():
    path = DyckPath.build(5, 2)
    sub = Subpath(path.h(3), path.v(2), include_start=False)
    assert path.subpath_edges(sub)[0] == EdgeRef("v", 1)
    sub = Subpath(path.h(3), path.v(2), include_end=False)
    assert path.subpath_edges(sub)[-1] == EdgeRef("h", 5)
    empty = Subpath(path.h(3), path.h(3), include_start=False)
    assert path.subpath_edges(empty) == []
    both = Subpath(path.h(1), path.h(2), include_start=False, include_end=False)
    assert path.subpath_edges(both) == []


def test_subpath_additivity_and_total():
    for a1, a2 in ((5, 2), (3, 4), (7, 3)):
        path = DyckPath.build(a1, a2)
        full = path.full_loop(path.edge_at(0))
        assert path.count_h(full) == a1 and path.count_v(full) == a2
        # split the loop at every position: counts add up
        for cut in range(1, path.n):
            left = Subpath(path.edge_at(0), path.edge_at(cut - 1))
            right = Subpath(path.edge_at(cut), path.edge_at(path.n - 1))
            assert path.count_h(left) + path.count_h(right) == a1
            assert path.count_v(left) + path.count_v(right) == a2


def test_distance_formulas():
    # |(h_i h_j)_2| = height(j) - height(i) and |(v_i v_j)_1| = depth(j) - depth(i)
    path = DyckPath.build(5, 2)
    assert path.height(4) - path.height(1) == 1
    assert path.depth(2) - path.depth(1) == 2
    with pytest.raises(IndexOutOfRange):
        path.height(0)
    with pytest.raises(IndexOutOfRange):
        path.depth(3)


def test_distances_match_counts():
    for a1, a2 in ((5, 2), (4, 7), (6, 6)):
        path = DyckPath.build(a1, a2)
        for i in range(1, a1 + 1):
            for j in range(i, a1 + 1):
                sub = Subpath(path.h(i), path.h(j))
                assert path.height(j) - path.height(i) == path.count_v(sub)
        for i in range(1, a2 + 1):
            for j in range(i, a2 + 1):
                sub = Subpath(path.v(i), path.v(j))
                assert path.depth(j) - path.depth(i) == path.count_h(sub)


def test_slopes_corollary():
    assert verify.slope_bound(max_a=12) is None


def test_transpose_reverses_and_swaps_edges():
    # h_j at position p becomes v_{a1+1-j} at n-1-p; v_k becomes h_{a2+1-k}
    for a1 in range(25):
        for a2 in range(25):
            path = DyckPath.build(a1, a2)
            tp = path.transpose()
            assert (tp.a1, tp.a2) == (a2, a1)
            for p in range(path.n):
                e = path.edge_at(p)
                want = (EdgeRef("v", a1 + 1 - e.index) if e.kind == "h"
                        else EdgeRef("h", a2 + 1 - e.index))
                assert tp.edge_at(path.n - 1 - p) == want, (a1, a2, p)
            assert tp.transpose() == path


def test_h_by_height_matches_walk_oracle():
    # entry k-1: the h-edges met with k-1 v-edges behind them, all before v_k
    for a1 in range(15):
        for a2 in range(15):
            path = DyckPath.build(a1, a2)
            want = []
            for k in range(1, a2 + 1):
                seen_v, group = 0, []
                for p in range(path.n):
                    e = path.edge_at(p)
                    if e == EdgeRef("v", k):
                        break
                    if e.kind == "v":
                        seen_v += 1
                    elif seen_v == k - 1:
                        group.append(e)
                want.append(tuple(group))
            got = [tuple(EdgeRef("h", j) for j in range(1, a1 + 1) if path.height(j) == k - 1)
                   for k in range(1, a2 + 1)]
            assert got == want, (a1, a2)


def test_wraparound_indexing():
    path = DyckPath.build(5, 2)
    assert path.h(6) == path.h(1)
    assert path.h(0) == path.h(5)
    assert path.v(3) == path.v(1)
    assert path.v(0) == path.v(2)
