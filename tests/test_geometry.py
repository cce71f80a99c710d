"""Geometry oracles: independent edge enumeration and reflection algebra."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from manhattan_pinball.geometry import (
    UNIT,
    Direction,
    Orientation,
    edge_for_site,
    edge_ends,
    in_region,
    long_sides,
    mirror_orientation,
    q_radius,
    reflect,
    site_edges,
)

W = 6  # window half-width for brute enumeration


def brute_edges(w):
    """All tilted edges in a window, from first principles.

    Vertices are (x + 1/2, y + 1/2) with x - y even; edges join vertices at
    offset (+-1, +-1).
    """
    verts = {
        (x + 0.5, y + 0.5)
        for x in range(-w, w + 1)
        for y in range(-w, w + 1)
        if (x - y) % 2 == 0
    }
    edges = set()
    for v in verts:
        for dx, dy in ((1, 1), (1, -1)):
            u = (v[0] + dx, v[1] + dy)
            if u in verts:
                edges.add(frozenset((v, u)))
    return edges


def test_every_site_is_midpoint_of_exactly_one_edge():
    edges = brute_edges(W)
    midpoints = {}
    for e in edges:
        (x1, y1), (x2, y2) = sorted(e)
        mid = ((x1 + x2) / 2, (y1 + y2) / 2)
        assert mid == (int(mid[0]), int(mid[1]))  # integer midpoint
        assert mid not in midpoints
        midpoints[mid] = e
    # every interior integer point appears
    for a in range(-W + 1, W):
        for b in range(-W + 1, W):
            assert (a, b) in midpoints


def test_edge_for_site_matches_brute_enumeration():
    edges = brute_edges(W)
    by_mid = {}
    for e in edges:
        (x1, y1), (x2, y2) = sorted(e)
        by_mid[((x1 + x2) / 2, (y1 + y2) / 2)] = e
    for a in range(-W + 1, W):
        for b in range(-W + 1, W):
            got = edge_for_site((a, b))
            assert frozenset(got) == by_mid[(a, b)]
            # west endpoint first
            assert got[0][0] < got[1][0]
            for x, y in got:  # a tilted vertex: half-integer, x - y even
                assert (x - 0.5).is_integer() and (y - 0.5).is_integer()
                assert (x - y) % 2 == 0


def test_orientation_matches_edge_slope():
    for a in range(-5, 6):
        for b in range(-5, 6):
            (x1, y1), (x2, y2) = edge_for_site((a, b))
            slope = (y2 - y1) / (x2 - x1)
            expected = Orientation.NE if slope > 0 else Orientation.NW
            assert mirror_orientation((a, b)) == expected
            assert mirror_orientation((a, b)) == ((a - b) % 2)


def _reflect_by_vectors(d, m):
    # independent oracle: reflect the unit vector across the mirror line,
    # y = x for NE and y = -x for NW
    dx, dy = UNIT[d]
    rx, ry = (dy, dx) if m == Orientation.NE else (-dy, -dx)
    return Direction(UNIT.index((rx, ry)))


def test_reflect_table_against_vector_oracle():
    for d in Direction:
        for m in Orientation:
            assert reflect(d, m) == _reflect_by_vectors(d, m)
            assert reflect(reflect(d, m), m) == d  # involution


def contains(kind, n, point):
    """``in_region`` at the real point (x, y), through (u, v) = (x + y - 1, x - y)."""
    x, y = point
    return bool(in_region(kind, n, x + y - 1, x - y))


def test_region_membership_examples():
    # Q_n is the tilted box centered at (1/2, 1/2)
    assert contains("Q", 3, (0.5, 0.5))
    assert contains("Q", 3, (2, 2))  # u = 3, v = 0
    assert not contains("Q", 3, (3, 3))  # u = 5
    assert not contains("Q", 3, (2.5, -1.5))  # v = 4
    # T_n: 1 <= u <= n, |v| <= 2n
    assert contains("T", 4, (1, 1)) and contains("T", 4, (2.5, 2.5))
    assert not contains("T", 4, (0.5, 0.5))  # u = 0
    assert not contains("T", 4, (5, -4.5))  # v = 9.5
    # the four ring rectangles at n = 4
    assert contains("T1", 4, (4, 2))  # u = 5, v = 2
    assert not contains("T1", 4, (2, 2))
    assert contains("T2", 4, (-3, -1))  # u = -5
    assert contains("T3", 4, (5, -2))  # v = 7, u = 2
    assert contains("T4", 4, (-2, 5))  # v = -7, u = 2


def test_t2_inequalities():
    # u = x + y - 1 must lie in [-8, -5] for T2 at n = 4
    assert not contains("T2", 4, (-3, 0))  # u = -4, too shallow
    assert contains("T2", 4, (-3, -1))  # u = -5, boundary
    assert not contains("T2", 4, (-4, -4))  # u = -9, too deep
    assert not contains("T2", 4, (-5, -4))  # u = -10


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 15))
def test_q_radius_consistent_with_membership(a, b, n):
    r = q_radius((a, b))
    assert contains("Q", n, (a, b)) == (r <= n)
    if r >= 1:
        assert contains("Q", r, (a, b))
        if r >= 2:
            assert not contains("Q", r - 1, (a, b))


@given(st.integers(1, 12), st.floats(-30, 30), st.floats(-30, 30))
def test_region_nesting(n, x, y):
    if contains("Q", n, (x, y)):
        assert contains("Q", n + 1, (x, y))


def paper_region(kind, n, x, y):
    """The paper's regions, written out in the real coordinates of (x, y)."""
    if kind == "Q":
        return abs(x + y - 1) <= n and abs(x - y) <= n
    if kind == "T":
        return 1 <= x + y - 1 <= n and abs(x - y) <= 2 * n
    if kind == "T1":
        return n + 1 <= x + y - 1 <= 2 * n and abs(x - y) <= 2 * n
    if kind == "T2":
        return -2 * n <= x + y - 1 <= -n - 1 and abs(x - y) <= 2 * n
    if kind == "T3":
        return n + 1 <= x - y <= 2 * n and abs(x + y - 1) <= 2 * n
    return -2 * n <= x - y <= -n - 1 and abs(x + y - 1) <= 2 * n


KINDS = ("Q", "T", "T1", "T2", "T3", "T4")


def test_shared_predicate_matches_paper_regions():
    # real points on the half-integer grid: vertices, sites and face centers
    pts = [(x / 2, y / 2) for x in range(-30, 31) for y in range(-30, 31)]
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    for kind in KINDS:
        for n in (1, 2, 3, 5):
            want = [paper_region(kind, n, x, y) for x, y in pts]
            got = in_region(kind, n, xs + ys - 1, xs - ys)  # arrays
            assert got.tolist() == want, (kind, n)
            for (x, y), w in zip(pts[::7], want[::7]):  # scalars
                assert contains(kind, n, (x, y)) == w


def test_long_sides_are_the_rectangle_ends():
    # the short sides of a T rectangle lie at distance 2n along its long side
    n = 3
    for kind in KINDS[1:]:
        for i in range(-8, 9):
            for j in range(-8, 9):
                x, y = i + 0.5, j + 0.5
                long_coord = x - y if kind in ("T", "T1", "T2") else x + y - 1
                side_a, side_b = long_sides(kind, n, i + j, i - j)
                assert side_a == (long_coord == -2 * n)
                assert side_b == (long_coord == 2 * n)


def test_site_edges_match_edge_for_site():
    M = 4
    side = 2 * M + 1
    i1, j1, i2, j2 = (np.broadcast_to(x, (side, side)).ravel() for x in site_edges(M))
    assert all(x.dtype == np.int32 for x in (i1, j1, i2, j2))
    for k in range(side * side):
        a, b = k // side - M, k % side - M  # field order
        (x1, y1), (x2, y2) = edge_for_site((a, b))
        assert (i1[k], j1[k], i2[k], j2[k]) == (x1 - 0.5, y1 - 0.5, x2 - 0.5, y2 - 0.5)
        assert edge_ends(a, b) == (i1[k], j1[k], i2[k], j2[k])
