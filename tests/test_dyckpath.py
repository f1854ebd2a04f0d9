import pytest

from gca2.dyckpath import DyckPath, EdgeRef, IndexOutOfRange, Subpath


def staircase(a1, a2):
    """Independent construction: prefer North whenever it stays weakly below."""
    steps = []
    x = y = 0
    while x < a1 or y < a2:
        if y < a2 and a1 * (y + 1) <= a2 * x:
            steps.append("v")
            y += 1
        else:
            steps.append("h")
            x += 1
    return steps


def test_build_5_2():
    path = DyckPath.build(5, 2)
    assert [path.height(j) for j in range(1, 6)] == [0, 0, 0, 1, 1]
    assert [path.depth(j) for j in range(1, 3)] == [3, 5]
    assert [path.kinds[p] for p in range(7)] == ["h", "h", "h", "v", "h", "h", "v"]


def test_build_degenerate():
    path = DyckPath.build(4, 0)
    assert path.n == 4 and all(k == "h" for k in path.kinds)
    empty = DyckPath.build(0, 0)
    assert empty.n == 0 and empty.edges() == ()
    with pytest.raises(ValueError):
        DyckPath.build(-1, 2)


def test_closed_form_matches_staircase_oracle():
    for a1 in range(31):
        for a2 in range(31):
            path = DyckPath.build(a1, a2)
            assert list(path.kinds) == staircase(a1, a2), (a1, a2)


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
    path = DyckPath.build(5, 2)
    assert path.vertical_distance(1, 4) == 1
    assert path.horizontal_distance(1, 2) == 2
    assert path.vertical_distance(2, 2) == 0
    with pytest.raises(IndexOutOfRange):
        path.vertical_distance(0, 3)
    with pytest.raises(IndexOutOfRange):
        path.horizontal_distance(1, 3)


def test_distances_match_counts():
    for a1, a2 in ((5, 2), (4, 7), (6, 6)):
        path = DyckPath.build(a1, a2)
        for i in range(1, a1 + 1):
            for j in range(i, a1 + 1):
                sub = Subpath(path.h(i), path.h(j))
                assert path.vertical_distance(i, j) == path.count_v(sub)
        for i in range(1, a2 + 1):
            for j in range(i, a2 + 1):
                sub = Subpath(path.v(i), path.v(j))
                assert path.horizontal_distance(i, j) == path.count_h(sub)


def test_slopes_corollary():
    # a1 (|(h v_j)_2| - 1) < a2 |(h v_j)_1| for h left of v_j
    for a1 in range(1, 13):
        for a2 in range(1, 13):
            path = DyckPath.build(a1, a2)
            for j in range(1, a1 + 1):
                for k in range(1, a2 + 1):
                    if path.pos_h[j - 1] < path.pos_v[k - 1]:
                        sub = Subpath(path.h(j), path.v(k))
                        nv = path.count_v(sub)
                        nh = path.count_h(sub)
                        assert a1 * (nv - 1) < a2 * nh


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


def test_wraparound_indexing():
    path = DyckPath.build(5, 2)
    assert path.h(6) == path.h(1)
    assert path.h(0) == path.h(5)
    assert path.v(3) == path.v(1)
    assert path.v(0) == path.v(2)


def test_ascii_smoke():
    art = DyckPath.build(5, 2).ascii()
    assert art.count("_") == 5 and art.count("|") == 2
