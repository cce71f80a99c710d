"""Lattice geometry for the Manhattan pinball model.

The percolation substrate is the tilted lattice: points (x + 1/2, y + 1/2)
with x, y integers and x - y even, joined by edges of length sqrt(2).  Every
such edge has an integer midpoint, and every integer point is the midpoint of
exactly one edge, so a "site" (integer pair) is the canonical key for an
edge.  Light moves on the integer grid along one-way streets: row b carries
direction E when b is even and W when b is odd; column a carries N when a is
even and S when a is odd.  A mirror on a closed edge swaps the horizontal and
vertical transit of its site.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np


class Direction(IntEnum):
    E = 0
    N = 1
    W = 2
    S = 3


class Orientation(IntEnum):
    NE = 0  # "/" mirror, edge of slope +1
    NW = 1  # "\" mirror, edge of slope -1


# Unit displacement per direction, indexed by Direction value.
UNIT = ((1, 0), (0, 1), (-1, 0), (0, -1))

# reflect tables: REFLECT[orientation][direction] -> direction.
# NE swaps E<->N and W<->S; NW swaps E<->S and W<->N.
_REFLECT = (
    (Direction.N, Direction.E, Direction.S, Direction.W),
    (Direction.S, Direction.W, Direction.N, Direction.E),
)


def mirror_orientation(site) -> Orientation:
    """Orientation of the unique tilted edge whose midpoint is ``site``."""
    a, b = site
    return Orientation.NE if (a - b) % 2 == 0 else Orientation.NW


def edge_ends(a, b):
    """Vertex indices (i1, j1, i2, j2) of the edge at site (a, b), west end
    first; elementwise on arrays."""
    ne = (a - b) % 2 == 0
    return a - 1, b - ne, a, b - 1 + ne


def edge_for_site(site):
    """The tilted edge with midpoint ``site``, as an ordered pair of vertices:
    its ``edge_ends`` (i, j), each standing for (i + 1/2, j + 1/2)."""
    i1, j1, i2, j2 = edge_ends(*site)
    return ((i1 + 0.5, j1 + 0.5), (i2 + 0.5, j2 + 0.5))


def reflect(d: Direction, m: Orientation) -> Direction:
    """Direction after a right-angle deflection by a mirror of orientation ``m``."""
    return _REFLECT[m][d]


# Tilted regions at scale n, by their bounds in the tilted coordinates
# u = x + y - 1, v = x - y of a real point (x, y): the region is
# u_lo <= u <= u_hi and v_lo <= v <= v_hi.  A vertex index (i, j), standing for
# (i + 1/2, j + 1/2), has (u, v) = (i + j, i - j); a site (a, b) has
# (a + b - 1, a - b).  Q is the tilted box centered at (1/2, 1/2), T the
# rectangle of A'_n, and T1..T4 the four rectangles ringing Q_n, each of long
# side 4n.
_BOUNDS = {
    "Q": lambda n: (-n, n, -n, n),
    "T": lambda n: (1, n, -2 * n, 2 * n),
    "T1": lambda n: (n + 1, 2 * n, -2 * n, 2 * n),
    "T2": lambda n: (-2 * n, -n - 1, -2 * n, 2 * n),
    "T3": lambda n: (-2 * n, 2 * n, n + 1, 2 * n),
    "T4": lambda n: (-2 * n, 2 * n, -2 * n, -n - 1),
}


def in_region(kind: str, n: int, u, v):
    """Membership of tilted coordinates (u, v) in a region; scalars or arrays."""
    u_lo, u_hi, v_lo, v_hi = _BOUNDS[kind](n)
    return (u_lo <= u) & (u <= u_hi) & (v_lo <= v) & (v <= v_hi)


def edge_in_region(kind: str, n: int, i1, j1, i2, j2):
    """Both ends of the edge between vertex indices (i1, j1) and (i2, j2) lie
    in the region; scalars or arrays."""
    return in_region(kind, n, i1 + j1, i1 - j1) & in_region(kind, n, i2 + j2, i2 - j2)


def long_sides(kind: str, n: int, u, v):
    """Masks of the two short sides of a T rectangle: the ends of its long side."""
    u_lo, u_hi, v_lo, v_hi = _BOUNDS[kind](n)
    if kind in ("T3", "T4"):
        return u == u_lo, u == u_hi
    return v == v_lo, v == v_hi


def tilted_radius(u, v):
    """Smallest m with (u, v) in Q_m, for integer coordinates; scalars or arrays."""
    return np.maximum(np.abs(u), np.abs(v))


def site_radius(M: int):
    """(2M+1, 2M+1) int16 tilted radius of every site of extent M, in field
    order; int16 holds the largest radius, 2M + 1, of any extent the field
    budget allows."""
    a = np.arange(-M, M + 1, dtype=np.int16)
    return tilted_radius(a[:, np.newaxis] + a - 1, a[:, np.newaxis] - a)


def q_radius(point) -> int:
    """Smallest m such that Q_m contains ``point`` (an integer site)."""
    a, b = point
    return int(tilted_radius(a + b - 1, a - b))


# Steps from a vertex (or face) index to its four tilted neighbours, in
# lexicographic order.
DIAGONAL = ((-1, -1), (-1, 1), (1, -1), (1, 1))


def site_between(v, w):
    """The site whose edge joins (or, between faces, separates) neighbouring
    vertex or face indices ``v`` and ``w``."""
    return (v[0] + w[0] + 1) // 2, (v[1] + w[1] + 1) // 2


def site_edges(M: int):
    """``edge_ends`` of every site of extent M, as int32 arrays that broadcast
    to the (2M+1, 2M+1) field: i1 and i2 are columns, j1 and j2 full grids."""
    a = np.arange(-M, M + 1, dtype=np.int32)
    return edge_ends(a[:, np.newaxis], a)
