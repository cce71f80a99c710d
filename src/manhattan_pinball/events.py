"""Detectors for the events on the tilted lattice, and ``EVENTS``, the one
table of them by name.

The closure event is the light ray's: the origin ray closes before it reaches
a site outside Q_n.  It is walked on one ``tracer.TableWalks`` per stack, whose
sites beyond Q_n read as the abort, so it reads the sites of Q_n alone.  The
percolation events, from local to global:
  * radial closed path: (1/2, 1/2) joined by closed edges to a vertex
    outside Q_n.
  * rectangle crossing: a closed path inside a tilted rectangle joining its
    two short sides (the long-direction crossing).
  * surrounding circuit, exact: a closed circuit inside Q_2n with Q_n in its
    interior, detected by planar duality: the closed edges a circuit may use
    cut the center face off from the faces outside Q_2n.
  * surrounding circuit, four-rectangle: the sufficient construction from
    four long crossings.
  * dual crosscheck: the exact event decided on the primal graph instead,
    by the parity of crossings of a fixed cut ray; the two must agree.

Vertices are indexed by integer pairs (i, j) with i - j even, standing for
the tilted vertex (i + 1/2, j + 1/2).  Faces of the tilted lattice are
indexed by (k, l) with k - l odd, standing for the face centered at
(k + 1/2, l + 1/2).  The cut ray is {(x, 1) : x > 1/2}: a tilted edge with
midpoint site (a, b) crosses it iff b == 1 and a >= 1.  No vertex lies on
the line y = 1, and winding parity about any point of the central block is
the parity of the ray crossings.

Detection labels images.  In tilted coordinates (u, v) = (i + j, i - j)
vertices sit at (even, even), faces at (odd, odd) and the site (a, b) at
(a + b - 1, a - b), between its edge's two ends and the two faces the edge
separates.  So, 4-connected, vertex pixels plus closed site pixels have the
components of the closed graph, and face pixels plus open site pixels
those of its dual.  Each event builds a ``Raster`` once per (extent, n) on
the box of its region.  A ``*_holds`` function gathers a (K, W, W) stack of
closed fields into a (K, H, W') image and labels it with one call of
scipy's labelling kernel, the C routine behind ``scipy.ndimage.label``, that
links nothing across the stack; one configuration is a stack of one.
``holds_closing`` decides an event before and after closing open sites it
reads (``read_mask``).  An event decided by one ``sides_joined`` names its
raster and sides in ``EVENTS``, and ``joined_closing`` labels the stack
once and merges the labels along the closed edges, whose end pixels
``Raster.ends`` gives; any other event is detected again on the fields
with a site to close.  Witnesses come from ``breadth_first``, one
deterministic FIFO search that the enhancement module shares; the circuit
witness searches the parity-doubled cover of the closed graph.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .configuration import Configuration, header_lines, read_header
from .errors import ConfigParseError
from .geometry import (
    DIAGONAL,
    edge_ends,
    edge_in_region,
    in_region,
    long_sides,
    site_between,
    site_edges,
    site_radius,
)
from .tracer import CLOSED, TableWalks

__all__ = [
    "EVENTS",
    "EventResult",
    "Raster",
    "breadth_first",
    "circuit4_holds",
    "circuit_holds",
    "closed_orbit",
    "closure_holds",
    "first_path",
    "holds_closing",
    "joined_closing",
    "radial_closed_path",
    "radial_holds",
    "read_mask",
    "rect_crossing",
    "rect_holds",
    "sides_joined",
    "surrounding_circuit_exact",
    "surrounding_circuit_4rect",
    "dual_crosscheck",
    "edge_raster",
]


@dataclass(frozen=True)
class EventResult:
    holds: bool
    # When holds: list of tilted vertices (real pairs) forming the path or
    # circuit.  When not (exact detector only): list of face centers forming
    # the blocking dual path, or None if no witness was requested.
    witness: list | None = None
    event: str = ""


# ---------------------------------------------------------------------------
# event images
# ---------------------------------------------------------------------------


def _in_ring(n, i, j):
    """Vertex (i, j) lies in Q_2n but not in Q_n; scalars or arrays."""
    u, v = i + j, i - j
    return in_region("Q", 2 * n, u, v) & np.logical_not(in_region("Q", n, u, v))


def _usable(n, i1, j1, i2, j2):
    """A circuit inside Q_2n around Q_n may use the edge (i1, j1)-(i2, j2):
    both ends lie in Q_2n and neither lies in Q_n."""
    return _in_ring(n, i1, j1) & _in_ring(n, i2, j2)


def _crosses_cut(a, b):
    """The edge of site (a, b) crosses the cut ray; scalars or arrays."""
    return (b == 1) & (a >= 1)


class Raster(NamedTuple):
    """An event's graph as a binary image: tilted coordinates (u, v) sit at
    row u - origin[0], column v - origin[1].  A field's image is ``base``
    with pixel ``pixels[k]`` set to the bit of the site with flat field index
    ``sites[k]``."""

    base: np.ndarray
    pixels: np.ndarray
    sites: np.ndarray
    origin: tuple

    def pixel(self, u, v):
        """Flat image index of tilted coordinates (u, v); scalars or arrays."""
        return (u - self.origin[0]) * self.base.shape[1] + (v - self.origin[1])

    def where(self, mask):
        """Flat indices of the base pixels where ``mask(U, V)`` holds, for
        open grids U, V of the rows' and columns' coordinates."""
        (H, W), (u0, v0) = self.base.shape, self.origin
        return np.flatnonzero(self.base & mask(*np.ogrid[u0 : u0 + H, v0 : v0 + W]))

    def ends(self, M, sites):
        """Flat image indices of the two ends of the edges at the flat field
        indices ``sites`` of extent M, west end first."""
        row, col = np.divmod(sites, 2 * M + 1)
        i1, j1, i2, j2 = edge_ends(row - M, col - M)
        return self.pixel(i1 + j1, i1 - j1), self.pixel(i2 + j2, i2 - j2)


def _coords(M, keep):
    """(a, b), int32, of the sites of extent M in the flat mask ``keep``, in field order."""
    a = np.arange(-M, M + 1, dtype=np.int32)
    return tuple(g[keep.reshape(len(a), -1)] for g in np.broadcast_arrays(a[:, np.newaxis], a))


def _raster(M, keep, base, origin):
    """The ``Raster`` on ``base`` that gathers the sites of extent M in the
    flat mask ``keep``."""
    A, B = _coords(M, keep)
    box = Raster(base, None, np.flatnonzero(keep), origin)
    return box._replace(pixels=box.pixel(A + B - 1, A - B).astype(np.intp))


def edge_raster(M, keep):
    """The edges of the sites of extent M in the flat mask ``keep`` as a
    ``Raster`` on the box of their ends: the base is the vertices they
    touch, and a closed site joins its two ends."""
    if not keep.any():  # as in T_1, which holds no vertex
        none = np.empty(0, dtype=np.intp)
        return Raster(np.zeros((1, 1), dtype=bool), none, none, (0, 0))
    i1, j1, i2, j2 = edge_ends(*_coords(M, keep))
    u, v = np.concatenate([i1 + j1, i2 + j2]), np.concatenate([i1 - j1, i2 - j2])
    base = np.zeros((u.max() - u.min() + 1, v.max() - v.min() + 1), dtype=bool)
    base[u - u.min(), v - v.min()] = True
    return _raster(M, keep, base, (int(u.min()), int(v.min())))


# Links the four neighbours of a pixel within its field, none across the stack.
_PLANE = np.zeros((3, 3, 3), dtype=bool)
_PLANE[1, 1, :] = _PLANE[1, :, 1] = True


# Held while the labelling kernel loads: its module is in ``sys.modules``
# before it has run, and ``lru_cache`` does not keep a second thread out.
_KERNEL_LOCK = threading.Lock()


@lru_cache(maxsize=1)
def _label_kernel():
    """``scipy.ndimage._ni_label._label(image, structure, labels)``, which
    writes the labels and returns their count.  ``import scipy.ndimage`` would
    run the package's ``__init__``, whose array-API imports are most of a
    graph run's set-up, so the extension is loaded from its own file.  It is
    registered under its name first: a later ``import scipy.ndimage`` then
    takes this module and does not load the extension again.  One thread
    loads it; another that asks meanwhile waits for the loaded module."""
    name = "scipy.ndimage._ni_label"
    with _KERNEL_LOCK:
        module = sys.modules.get(name)
        if module is None:
            import scipy  # imported on first use: closure runs need no scipy

            spec = importlib.machinery.PathFinder.find_spec(
                name, [os.path.join(scipy.__path__[0], "ndimage")])
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[name]
                raise
    return module._label


def _label(bits, raster):
    """Component labels of the images of the fields of the (K, W, W) stack
    ``bits``: (K, H * W) labels from one call of scipy's labelling kernel,
    unique across the stack, and their count."""
    K = len(bits)
    image = np.empty((K,) + raster.base.shape, dtype=bool)
    image[:] = raster.base
    for pixels, field in zip(image.reshape(K, -1), bits):
        pixels[raster.pixels] = np.take(field, raster.sites)
    # An event's image is no larger than its field, and a stack of K > 1
    # fields is smaller than one field at the budget, so the field budget
    # (``_check_extent``, W² <= 2**29) keeps an image under 2**31 pixels and
    # int32 holds its labels: the int64 retry of ``ndimage.label``
    # (NeedMoreBits) cannot be reached.
    labels = np.empty(image.shape, dtype=np.int32)
    count = _label_kernel()(image, _PLANE, labels)
    return labels.reshape(K, -1), count


def _joins(x, y, on_a, on_b):
    """For the edges x[i] - y[i] between labels: does the component of x[i]
    in their graph hold a label of ``on_a`` and one of ``on_b``?"""
    parent = {}

    def root(v):
        while v in parent:
            v = parent[v]
        return v

    for u, v in zip(x, y):
        if root(u) != root(v):
            parent[root(u)] = root(v)
    sides = {}
    for v, side in zip(x + y, (on_a[x + y] + 2 * on_b[x + y]).tolist()):
        sides[root(v)] = sides.get(root(v), 0) | side
    return [sides[root(v)] == 3 for v in x]


def joined_closing(closed, raster, side_a, side_b, k, site):
    """``sides_joined`` on the (K, W, W) stack ``closed`` before and after
    closing the open sites, read by ``raster``, at the flat index pairs
    (k, site): (before, after), from one labelling.  A closed site joins its
    edge's two ends, so the labels merged along a field's sites decide it."""
    labels, count = _label(closed, raster)
    on_a = np.zeros(count + 1, dtype=bool)
    on_a[labels[:, side_a]] = True
    before = on_a[labels[:, side_b]].any(axis=1)
    after = before.copy()
    unmet = ~before[k]
    k, site = k[unmet], site[unmet]
    if k.size:
        x, y = (labels[k, end] for end in raster.ends(_extent(closed), site))
        on_b = np.zeros_like(on_a)
        on_b[labels[:, side_b]] = True
        after[k[_joins(x.tolist(), y.tolist(), on_a, on_b)]] = True
    return before, after


def sides_joined(closed, raster, side_a, side_b):
    """For each field of the (K, W, W) stack ``closed``: does its image of
    ``raster`` join a pixel of ``side_a`` to one of ``side_b``?  A bool array
    of length K; the sides are flat indices of base pixels."""
    return joined_closing(closed, raster, side_a, side_b, *np.empty((2, 0), dtype=np.intp))[0]


_RECT_KINDS = ("T", "T1", "T2", "T3", "T4")


def rect_min_extent(n, which):
    return (3 * n) // 2 + 2 if which == "T" else 2 * n + 1


@lru_cache(maxsize=64)
def _radial_static(M, n):
    """The raster of the edges inside Q_{n+2}, its center vertex and its
    vertices outside Q_n.  A closed path from the center first leaves Q_n
    at a vertex of Q_{n+2}, so no other edge matters."""
    raster = edge_raster(M, edge_in_region("Q", n + 2, *site_edges(M)).ravel())
    return raster, [raster.pixel(0, 0)], raster.where(lambda u, v: ~in_region("Q", n, u, v))


@lru_cache(maxsize=64)
def _rect_static(M, n, kind):
    """The rectangle's raster and the vertices of its two short sides."""
    raster = edge_raster(M, edge_in_region(kind, n, *site_edges(M)).ravel())
    return (raster, *(raster.where(lambda u, v, end=end: long_sides(kind, n, u, v)[end])
                      for end in (0, 1)))


@lru_cache(maxsize=64)
def _circuit_static(M, n):
    """The dual image of the circuit detector on the box |u|, |v| <= 2n + 1,
    its center face and its faces at tilted radius 2n + 1.

    Faces and sites are on and vertices off, except that a usable site takes
    its open bit: a dual step across an edge is blocked iff the edge is
    closed and a circuit may use it.  A usable site has tilted radius at
    least n, so the pixels of radius below n - 3 never change, and those on
    all join the face (-1, 1).  They are left off, which spares the labelling
    about a quarter of the image, and the center is the face (-1, c) on the
    frame of always-on pixels around them: c is the least odd number that is
    at least n - 3 and at least 1.
    """
    r = 2 * n + 1
    U, V = np.ogrid[-r : r + 1, -r : r + 1]
    interior = (abs(U) < n - 3) & (abs(V) < n - 3)
    raster = _raster(M, _usable(n, *site_edges(M)).ravel(),
                     ((U % 2 == 1) | (V % 2 == 1)) & ~interior, (-r, -r))
    ring = (U % 2 == 1) & (V % 2 == 1) & ((abs(U) == r) | (abs(V) == r))
    return raster, raster.pixel(-1, max(1, (n - 3) | 1)), np.flatnonzero(ring)


@lru_cache(maxsize=64)
def _cycle_static(M, n):
    """The primal image of the crosscheck, the usable edges that do not cross
    the cut ray; the sites of the usable edges that do and their ends' pixels."""
    keep = _usable(n, *site_edges(M)).ravel()
    raster = edge_raster(M, keep)
    cut = _crosses_cut(*_coords(M, keep))
    bridges = raster.sites[cut]
    return (raster._replace(pixels=raster.pixels[~cut], sites=raster.sites[~cut]), bridges,
            raster.ends(M, bridges))


# ---------------------------------------------------------------------------
# witness search (desk scale, deterministic)
# ---------------------------------------------------------------------------


def breadth_first(sources, neighbours, parent):
    """Deterministic FIFO breadth-first search.

    Yields every node reachable from ``sources`` in discovery order, sources
    first.  Before a node is yielded, ``parent`` (a dict, also the visited
    set) maps it to the node it was discovered from, or to None for a source,
    so a caller that stops at its own goal can read its path back.
    """
    queue = deque()
    for s in sources:
        if s not in parent:
            parent[s] = None
            queue.append(s)
            yield s
    while queue:
        v = queue.popleft()
        for w in neighbours(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
                yield w


def _path_to(parent, v):
    path = []
    while v is not None:
        path.append(v)
        v = parent[v]
    path.reverse()
    return path


def first_path(sources, neighbours, goal):
    """Path of ``breadth_first`` from a source to the first node found that
    satisfies ``goal``, source first; None when no node does."""
    parent = {}
    for v in breadth_first(sources, neighbours, parent):
        if goal(v):
            return _path_to(parent, v)
    return None


def _closed_neighbors(c, v):
    """Closed-edge neighbors of vertex ``v``, in lexicographic order."""
    out = []
    for di, dj in DIAGONAL:
        w = (v[0] + di, v[1] + dj)
        site = site_between(v, w)
        if c.in_extent(site) and c.closed_at(site):
            out.append(w)
    return out


def _vertex_real(v):
    """The real point of a vertex or face index."""
    return (v[0] + 0.5, v[1] + 0.5)


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


def _require_extent(M, event, n):
    """Raise ValueError unless n is a scale of ``event`` (at least 1 and at
    least its ``least_n``) and the extent M covers the event at n."""
    for least in (1, EVENTS[event].least_n):
        if n < least:
            raise ValueError(f"{event} needs n >= {least}, got {n}")
    need = EVENTS[event].min_extent(n)
    if M < need:
        raise ValueError(f"extent {M} is below {need}, the least that covers {event} at n={n}")


def _extent(closed):
    """The extent M of a stack of (2M+1, 2M+1) closed fields."""
    return closed.shape[-1] // 2


def closure_holds(closed, n: int):
    """``closed_orbit`` on each field of a (K, W, W) stack: bool array.  One
    walk table serves the stack, refilled for each field."""
    M = _extent(closed)
    _require_extent(M, "closure", n)
    walks = TableWalks(M, n)
    holds = np.empty(len(closed), dtype=bool)
    for k, field in enumerate(closed):
        walks.fill(field)
        holds[k] = walks.walk()[0] == CLOSED
    return holds


def closed_orbit(c: Configuration, n: int, witness: bool = False) -> EventResult:
    """Event closure_n: the origin ray closes before it reaches a site
    outside Q_n."""
    return EventResult(holds=bool(closure_holds(c.closed[np.newaxis], n)[0]),
                       event=f"closure_{n}")


def radial_holds(closed, n: int):
    """``radial_closed_path`` on each field of a (K, W, W) stack: bool array."""
    M = _extent(closed)
    _require_extent(M, "A", n)
    return sides_joined(closed, *_radial_static(M, n))


def radial_closed_path(c: Configuration, n: int, witness: bool = False) -> EventResult:
    """Event A_n: closed path from (1/2, 1/2) to some vertex outside Q_n."""
    holds = bool(radial_holds(c.closed[np.newaxis], n)[0])
    w = None
    if witness and holds:
        path = first_path([(0, 0)], lambda v: _closed_neighbors(c, v),
                          lambda v: not in_region("Q", n, v[0] + v[1], v[0] - v[1]))
        w = [_vertex_real(v) for v in path]
    return EventResult(holds=holds, witness=w, event=f"A_{n}")


def rect_holds(closed, n: int, which: str = "T"):
    """``rect_crossing`` on each field of a (K, W, W) stack: bool array."""
    if which not in _RECT_KINDS:
        raise ValueError(f"unknown rectangle {which!r}")
    M = _extent(closed)
    if n < 1 or M < rect_min_extent(n, which):
        raise ValueError(f"{which} needs n >= 1 and extent >= {rect_min_extent(n, which)}, "
                         f"got n={n} and extent {M}")
    return sides_joined(closed, *_rect_static(M, n, which))


def rect_crossing(c: Configuration, n: int, which: str = "T",
                  witness: bool = False) -> EventResult:
    """Event A'_n (which='T') or one of the four rectangle crossings."""
    holds = bool(rect_holds(c.closed[np.newaxis], n, which)[0])
    w = None
    if witness and holds:
        raster, side_a, _ = _rect_static(c.extent, n, which)
        u, v = np.divmod(side_a, raster.base.shape[1]) + np.reshape(raster.origin, (2, 1))

        def inside(v):
            return in_region(which, n, v[0] + v[1], v[0] - v[1])

        path = first_path(
            sorted(zip(((u + v) // 2).tolist(), ((u - v) // 2).tolist())),
            lambda v: [x for x in _closed_neighbors(c, v) if inside(x)],
            lambda v: long_sides(which, n, v[0] + v[1], v[0] - v[1])[1],
        )
        w = [_vertex_real(v) for v in path]
    return EventResult(holds=holds, witness=w, event=f"A'_{n}[{which}]")


def _reduce_to_simple_cycle(walk, parity_of):
    """Reduce a closed walk of odd cut parity to a simple cycle of odd parity."""
    walk = list(walk)
    assert walk[0] == walk[-1]
    while True:
        seen = {}
        split = None
        for idx, v in enumerate(walk[:-1]):
            if v in seen:
                split = (seen[v], idx)
                break
            seen[v] = idx
        if split is None:
            return walk
        lo, hi = split
        inner = walk[lo : hi + 1]
        outer = walk[: lo + 1] + walk[hi + 1 :]
        walk = inner if parity_of(inner) % 2 == 1 else outer


def walk_winding(walk):
    """Signed crossings of the cut ray; +-1 for a surrounding simple cycle.
    Its parity is the parity of the number of crossings."""
    w = 0
    for v, x in zip(walk, walk[1:]):
        if _crosses_cut(*site_between(v, x)):
            w += 1 if x[1] > v[1] else -1
    return w


def _circuit_witness(c, n):
    """BFS on (vertex, parity) over usable edges; returns a simple cycle."""

    def neighbours(node):
        v, p = node
        for w in _closed_neighbors(c, v):
            if _usable(n, *v, *w):
                yield w, p ^ int(_crosses_cut(*site_between(v, w)))

    I, J = (g.ravel() for g in np.mgrid[-2 * n : 2 * n + 1, -2 * n : 2 * n + 1])
    for k in np.flatnonzero(_in_ring(n, I, J) & ((I - J) % 2 == 0)):
        root = (int(I[k]), int(J[k]))
        parent = {}
        for w, q in breadth_first([(root, 0)], neighbours, parent):
            if (w, 1 - q) in parent:
                break
        else:
            continue
        # both paths run root -> w; the first reversed, then the second,
        # close the walk at w
        walk = [v for v, _ in reversed(_path_to(parent, (w, 0)))]
        walk += [v for v, _ in _path_to(parent, (w, 1))[1:]]
        assert walk[0] == w and walk[-1] == w
        assert walk_winding(walk) % 2 == 1  # odd cut parity
        cycle = _reduce_to_simple_cycle(walk, walk_winding)
        assert abs(walk_winding(cycle)) == 1
        return [_vertex_real(v) for v in cycle]
    return None


def circuit_holds(closed, n: int):
    """``surrounding_circuit_exact`` on each field of a (K, W, W) stack: bool
    array.

    By planar duality a usable closed circuit surrounds Q_n iff the usable
    closed edges cut the center face off from the faces outside Q_2n.
    """
    M = _extent(closed)
    _require_extent(M, "Acirc", n)
    raster, center, ring = _circuit_static(M, n)
    return ~sides_joined(~closed, raster, [center], ring)


def surrounding_circuit_exact(c: Configuration, n: int,
                              witness: bool = False) -> EventResult:
    """Event A''_n: a closed circuit in Q_2n with Q_n in its interior."""
    holds = bool(circuit_holds(c.closed[np.newaxis], n)[0])
    w = None
    if witness:
        w = _circuit_witness(c, n) if holds else _dual_path(c, n)
    return EventResult(holds=holds, witness=w, event=f"A''_{n}")


def circuit4_holds(closed, n: int):
    """``surrounding_circuit_4rect`` on each field of a (K, W, W) stack: bool
    array.  Each rectangle is tried only on the fields that crossed the ones
    before it."""
    _require_extent(_extent(closed), "Acirc4", n)
    holds = np.ones(len(closed), dtype=bool)
    for kind in ("T1", "T2", "T3", "T4"):
        if holds.any():
            holds[holds] = rect_holds(closed[holds], n, kind)
    return holds


def surrounding_circuit_4rect(c: Configuration, n: int, witness: bool = False) -> EventResult:
    """Sufficient condition: all four rectangles crossed in the long direction (no witness)."""
    holds = bool(circuit4_holds(c.closed[np.newaxis], n)[0])
    return EventResult(holds=holds, event=f"A''_{n}[4rect]")


def _dual_path(c, n):
    """Open dual path from the center face to outside Q_2n, or None."""

    def blocked(site):
        # a dual step is blocked by a closed edge a circuit may use
        return c.in_extent(site) and c.closed_at(site) and _usable(n, *edge_ends(*site))

    def neighbours(f):
        steps = ((f[0] + dk, f[1] + dl) for dk, dl in DIAGONAL)
        return [g for g in steps if not blocked(site_between(f, g))]

    path = first_path([(0, -1)], neighbours,
                      lambda f: not in_region("Q", 2 * n, f[0] + f[1], f[0] - f[1]))
    return None if path is None else [_vertex_real(f) for f in path]


def _odd_cycle(edges):
    """Does the multigraph of ``edges``, a list of node pairs, have a cycle
    of odd length (a loop counts)?  It does iff some edge joins two nodes
    of equal depth parity in a breadth-first forest."""
    adjacent = defaultdict(list)
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    parent, odd = {}, {}
    for root in adjacent:
        for v in breadth_first([root], adjacent.__getitem__, parent):
            odd[v] = parent[v] is not None and not odd[parent[v]]
    return any(odd[a] == odd[b] for a, b in edges)


def dual_crosscheck(c: Configuration, n: int) -> bool:
    """True iff a usable closed circuit surrounds Q_n, decided on the primal
    graph as a check on the dual image of ``circuit_holds``: a cycle crossing
    the cut ray an odd number of times exists iff the components of the
    usable closed edges off the ray, joined by those across it, have one."""
    _require_extent(c.extent, "Acirc", n)
    raster, bridges, (e1, e2) = _cycle_static(c.extent, n)
    labels = _label(c.closed[np.newaxis], raster)[0][0]
    closed = c.closed.ravel()[bridges]
    return _odd_cycle(list(zip(labels[e1[closed]].tolist(), labels[e2[closed]].tolist())))


class Event(NamedTuple):
    min_extent: Callable  # scale n -> least extent that covers the event
    detect: Callable  # (configuration, n, *, witness=False) -> EventResult
    holds: Callable  # ((K, W, W) closed stack, n) -> bool array of length K
    reads: Callable  # (extent, n) -> flat field indices of every site holds reads
    # (extent, n) -> (raster, side_a, side_b) when holds is ``sides_joined`` of
    # the closed bits on them, an image in which a closed site joins its edge's
    # two ends, so that ``holds_closing`` merges one labelling; None otherwise
    sides: Callable | None = None
    least_n: int = 1  # the least scale at which the event is defined


# The events by name, for the CLI and the Monte Carlo harness alike.  Closure's
# walk reads every site beyond Q_n as the abort, whatever its bit.
EVENTS = {
    "closure": Event(lambda n: n + 2, closed_orbit, closure_holds,
                     lambda M, n: np.flatnonzero(site_radius(M) <= n)),
    "A": Event(lambda n: n + 2, radial_closed_path, radial_holds,
               lambda M, n: _radial_static(M, n)[0].sites, _radial_static),
    "Aprime": Event(lambda n: rect_min_extent(n, "T"), rect_crossing, rect_holds,
                    lambda M, n: _rect_static(M, n, "T")[0].sites,
                    lambda M, n: _rect_static(M, n, "T")),
    "Acirc": Event(lambda n: 2 * n + 2, surrounding_circuit_exact, circuit_holds,
                   lambda M, n: _circuit_static(M, n)[0].sites, least_n=2),
    "Acirc4": Event(lambda n: 2 * n + 2, surrounding_circuit_4rect, circuit4_holds,
                    lambda M, n: np.unique(np.concatenate(
                        [_rect_static(M, n, f"T{i}")[0].sites for i in range(1, 5)]))),
}


@lru_cache(maxsize=16)
def read_mask(M, n, event):
    """(W, W) bool mask of the sites the event reads.  Cached, read-only."""
    W = 2 * M + 1
    reads = np.zeros((W, W), dtype=bool)
    reads.ravel()[EVENTS[event].reads(M, n)] = True
    reads.flags.writeable = False
    return reads


def holds_closing(event, closed, n, k, site):
    """The event's bits on the (K, W, W) stack ``closed`` before and after
    closing the open sites it reads at the flat index pairs (k, site):
    (before, after).  An event with ``sides`` takes both from one labelling;
    any other is detected again on the fields k, on a copy with their sites
    closed, so a monotonicity violation stays visible."""
    sides, holds = EVENTS[event].sides, EVENTS[event].holds
    if sides is not None:
        return joined_closing(closed, *sides(_extent(closed), n), k, site)
    before = holds(closed, n)
    after = before.copy()
    if k.size:
        changed, k = np.unique(k, return_inverse=True)
        closing = closed[changed]
        closing.reshape(len(changed), -1)[k, site] = True
        after[changed] = holds(closing, n)
    return before, after


WITNESS_FORMAT_VERSION = 1


def dump_witness(result: EventResult) -> str:
    """Witness file: the preamble naming the event, then 'u v' vertex lines."""
    lines = header_lines("witness", WITNESS_FORMAT_VERSION,
                         {"event": result.event, "holds": int(result.holds)})
    lines += (f"{u} {v}" for u, v in result.witness or [])
    return "\n".join(lines) + "\n"


def loads_witness(text: str) -> EventResult:
    lines = text.splitlines()
    event, holds = read_header(lines, "witness", WITNESS_FORMAT_VERSION, ("event", "holds"))
    if holds not in ("0", "1"):
        raise ConfigParseError("expected 'holds 0' or 'holds 1'", line=3)
    pts = []
    for lineno, line in enumerate(lines[3:], start=4):
        parts = line.split()
        if len(parts) != 2:
            raise ConfigParseError("expected 'x y'", line=lineno)
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigParseError(f"non-numeric coordinate in {line!r}", line=lineno) from None
        if not np.isfinite([x, y]).all():
            raise ConfigParseError(f"non-finite coordinate in {line!r}", line=lineno)
        pts.append((x, y))
    return EventResult(holds=holds == "1", witness=pts or None, event=event)
