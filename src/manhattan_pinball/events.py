"""Detectors for the percolation events on the tilted lattice.

Events, from local to global:
  * radial closed path: (1/2, 1/2) joined by closed edges to a vertex
    outside Q_n.
  * rectangle crossing: a closed path inside a tilted rectangle joining its
    two short sides (the long-direction crossing).
  * surrounding circuit, exact: a closed circuit inside Q_2n with Q_n in its
    interior, detected by parity of crossings of a fixed cut ray on a doubled
    cover of the closed graph.
  * surrounding circuit, four-rectangle: the sufficient construction from
    four long crossings.
  * dual crosscheck: the planar-dual reformulation (no open face path from
    the center to outside Q_2n); must agree with the exact detector.

Vertices are indexed by integer pairs (i, j) with i - j even, standing for
the tilted vertex (i + 1/2, j + 1/2).  Faces of the tilted lattice are
indexed by (k, l) with k - l odd, standing for the face centered at
(k + 1/2, l + 1/2).  The cut ray is {(x, 1) : x > 1/2}: a tilted edge with
midpoint site (a, b) crosses it iff b == 1 and a >= 1.  No vertex lies on
the line y = 1, and winding parity about any point of the central block is
the parity of the ray crossings.

Region membership (Q_n, the annulus Q_2n minus Q_n, the rectangles) is
decided by ``geometry.in_region`` on tilted coordinates.  Bulk detection
builds a static edge catalogue per (extent, n) once, on just the vertices
the region's edges touch.  Each ``*_holds`` function decides a (K, W, W)
stack of closed fields: it masks the catalogue with every field, numbers
node x of field k as km + x, and runs one scipy connected-components call
on the union of the K graphs, so labels never mix fields.  The detector of
a single configuration is the call with K = 1.  Witnesses come from
``breadth_first``, one deterministic FIFO search that the enhancement
module shares: each caller passes its own neighbours and stops at its own
goal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .configuration import Configuration
from .errors import ConfigParseError
from .geometry import (
    DIAGONAL,
    edge_ends,
    edge_in_region,
    in_region,
    long_sides,
    site_between,
    site_endpoints,
)

__all__ = [
    "EVENTS",
    "EventResult",
    "Graph",
    "breadth_first",
    "circuit4_holds",
    "circuit_holds",
    "first_path",
    "radial_closed_path",
    "radial_holds",
    "rect_crossing",
    "rect_holds",
    "sides_joined",
    "surrounding_circuit_exact",
    "surrounding_circuit_4rect",
    "dual_crosscheck",
    "edge_graph",
    "node_grid",
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
# static catalogues
# ---------------------------------------------------------------------------


def _vid(i, j, L):
    return (i + L) * (2 * L + 1) + (j + L)


def _in_ring(n, i, j):
    """Vertex (i, j) lies in Q_2n but not in Q_n; scalars or arrays."""
    u, v = i + j, i - j
    return in_region("Q", 2 * n, u, v) & np.logical_not(in_region("Q", n, u, v))


def _usable(n, i1, j1, i2, j2):
    """A circuit inside Q_2n around Q_n may use the edge (i1, j1)-(i2, j2):
    both ends lie in Q_2n and neither lies in Q_n."""
    return _in_ring(n, i1, j1) & _in_ring(n, i2, j2)


@lru_cache(maxsize=64)
def node_grid(M):
    """(I, J): the index pair of every node of the graphs at extent M.

    The nodes are the pairs |i|, |j| <= M + 1 in row-major order; those with
    i - j even are vertices, the others faces.
    """
    rng = np.arange(-M - 1, M + 2, dtype=np.int32)
    return tuple(g.ravel() for g in np.meshgrid(rng, rng, indexing="ij"))


class Graph(NamedTuple):
    """Edge k is the edge of the site with flat field index ``sites[k]`` and
    joins nodes ``e1[k]`` and ``e2[k]`` of ``nodes``."""

    sites: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    nodes: int


def _subgraph(M, keep):
    """The edges of the sites in mask ``keep`` as a ``Graph`` on the
    vertices they touch, and the index pairs (I, J) of those vertices.

    The nodes are numbered in row-major order of their vertex.  A vertex no
    edge touches is left out: it can never join anything.
    """
    _, _, i1, j1, i2, j2 = site_endpoints(M)
    L = M + 1
    v1, v2 = _vid(i1[keep], j1[keep], L), _vid(i2[keep], j2[keep], L)
    I, J = node_grid(M)
    touched = np.zeros(len(I), dtype=bool)
    touched[v1] = touched[v2] = True
    ids = np.flatnonzero(touched)
    node = np.zeros(len(I), dtype=np.int32)
    node[ids] = np.arange(len(ids), dtype=np.int32)
    graph = Graph(np.flatnonzero(keep).astype(np.int32), node[v1], node[v2], len(ids))
    return graph, I[ids], J[ids]


@lru_cache(maxsize=64)
def edge_graph(M):
    """Every edge of extent M as a ``Graph``, with the index pairs (I, J)
    of its nodes."""
    return _subgraph(M, np.ones((2 * M + 1) ** 2, dtype=bool))


_RECT_KINDS = ("T", "T1", "T2", "T3", "T4")


def rect_min_extent(n, which):
    return (3 * n) // 2 + 2 if which == "T" else 2 * n + 1


@lru_cache(maxsize=64)
def _radial_static(M, n):
    """The full edge graph with its center node and the nodes outside Q_n."""
    graph, I, J = edge_graph(M)
    return (graph, np.flatnonzero((I == 0) & (J == 0)),
            np.flatnonzero(np.logical_not(in_region("Q", n, I + J, I - J))))


@lru_cache(maxsize=64)
def _rect_static(M, n, kind):
    """The rectangle's edge subgraph, the nodes of its two short sides, and
    the index pairs (I, J) of the nodes of the first side."""
    _, _, i1, j1, i2, j2 = site_endpoints(M)
    graph, I, J = _subgraph(M, edge_in_region(kind, n, i1, j1, i2, j2))
    side_a, side_b = (np.flatnonzero(s) for s in long_sides(kind, n, I + J, I - J))
    return graph, side_a, side_b, (I[side_a], J[side_a])


@lru_cache(maxsize=64)
def _annulus_static(M, n):
    """The doubled cover of the usable-edge subgraph, for the circuit
    detector.  Node 2x + s is copy s of vertex x, and each usable edge has
    two cover edges: an edge that crosses the cut ray joins opposite copies,
    any other edge the same copies."""
    A, B, i1, j1, i2, j2 = site_endpoints(M)
    keep = _usable(n, i1, j1, i2, j2)
    graph, _, _ = _subgraph(M, keep)
    cross = _crosses_cut(A, B)[keep].astype(np.int32)
    e1, e2 = 2 * graph.e1, 2 * graph.e2 + cross
    return Graph(np.concatenate([graph.sites, graph.sites]), np.concatenate([e1, e1 + 1]),
                 np.concatenate([e2, e2 + 1 - 2 * cross]), 2 * graph.nodes)


@lru_cache(maxsize=64)
def _dual_static(M, n):
    """Face adjacency catalogue for the dual crosscheck.

    The faces on either side of the edge from (i1, j1) to (i2, j2) are
    (i2, j1) and (i1, j2).  A dual step across a site is blocked iff the
    site's edge is usable (closed and structurally eligible for the circuit);
    the closed state is applied per sample.
    """
    _, _, i1, j1, i2, j2 = site_endpoints(M)
    I, J = node_grid(M)
    F = M + 1
    far = ((I - J) % 2 != 0) & np.logical_not(in_region("Q", 2 * n, I + J, I - J))
    return (_vid(i2, j1, F), _vid(i1, j2, F), len(I), _usable(n, i1, j1, i2, j2),
            _vid(0, -1, F), np.flatnonzero(far))


def _components(r, c, n_nodes):
    g = coo_matrix(
        (np.ones(len(r), dtype=np.int8), (r, c)), shape=(n_nodes, n_nodes)
    )
    _, labels = connected_components(g, directed=False)
    return labels


def _labels(closed, graph):
    """Component labels of the closed edges of ``graph`` in each field of
    the (K, W, W) stack ``closed``: a (K, m) array for a graph of m nodes.

    One connected-components call labels the block-diagonal union of the K
    graphs, where node x of field k is node km + x, so no label is shared by
    two fields.
    """
    K, m = len(closed), graph.nodes
    mask = closed.reshape(K, -1)[:, graph.sites]
    r, c = (np.concatenate([e[mk] + np.int32(k * m) for k, mk in enumerate(mask)])
            for e in (graph.e1, graph.e2))
    return _components(r, c, K * m).reshape(K, m)


def sides_joined(closed, graph, side_a, side_b):
    """For each field of the (K, W, W) stack ``closed``: do its closed edges
    of ``graph`` join a node of ``side_a`` to one of ``side_b``?  A bool
    array of length K; the sides are arrays of nodes of ``graph``."""
    labels = _labels(closed, graph)
    on_a = np.zeros(labels.size, dtype=bool)
    on_a[labels[:, side_a]] = True
    return on_a[labels[:, side_b]].any(axis=1)


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
    need = EVENTS[event].min_extent(n)
    if M < need:
        raise ValueError(f"extent {M} is below {need}, the least that covers {event} at n={n}")


def _extent(closed):
    """The extent M of a stack of (2M+1, 2M+1) closed fields."""
    return closed.shape[-1] // 2


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
    if M < rect_min_extent(n, which):
        raise ValueError(f"extent {M} does not cover {which} at n={n}")
    graph, side_a, side_b, _ = _rect_static(M, n, which)
    return sides_joined(closed, graph, side_a, side_b)


def rect_crossing(c: Configuration, n: int, which: str = "T",
                  witness: bool = False) -> EventResult:
    """Event A'_n (which='T') or one of the four rectangle crossings."""
    holds = bool(rect_holds(c.closed[np.newaxis], n, which)[0])
    w = None
    if witness and holds:
        _, _, _, (I, J) = _rect_static(c.extent, n, which)

        def inside(v):
            return in_region(which, n, v[0] + v[1], v[0] - v[1])

        path = first_path(
            [(int(i), int(j)) for i, j in zip(I, J)],
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


def _crosses_cut(a, b):
    """The edge of site (a, b) crosses the cut ray; scalars or arrays."""
    return (b == 1) & (a >= 1)


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

    I, J = node_grid(c.extent)
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

    On the doubled cover a circuit of odd cut parity, one that surrounds
    Q_n, exists iff some vertex's two copies share a component.  A vertex
    with no usable closed edge has two isolated copies, which never do.
    """
    if n < 2:
        raise ValueError("surrounding circuit needs n >= 2")
    M = _extent(closed)
    _require_extent(M, "Acirc", n)
    labels = _labels(closed, _annulus_static(M, n))
    return (labels[:, 0::2] == labels[:, 1::2]).any(axis=1)


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


def surrounding_circuit_4rect(c: Configuration, n: int) -> EventResult:
    """Sufficient condition: all four rectangles crossed in the long direction."""
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


def dual_crosscheck(c: Configuration, n: int) -> bool:
    """True iff no open dual face path escapes the annulus (circuit exists)."""
    if n < 2:
        raise ValueError("dual crosscheck needs n >= 2")
    _require_extent(c.extent, "Acirc", n)
    f1, f2, n_nodes, structural, start, targets = _dual_static(c.extent, n)
    keep = ~(c.closed.ravel() & structural)
    labels = _components(f1[keep], f2[keep], n_nodes)
    return not bool(np.any(labels[targets] == labels[start]))


class Event(NamedTuple):
    min_extent: Callable  # scale n -> least extent that covers the event
    detect: Callable  # (configuration, n, witness=False) -> EventResult
    holds: Callable  # ((K, W, W) closed stack, n) -> bool array of length K
    reads: Callable  # (extent, n) -> flat field indices of every site holds reads


def _rect_reads(M, n, kinds):
    return np.concatenate([_rect_static(M, n, kind)[0].sites for kind in kinds])


# The percolation events by name; the Monte Carlo harness adds "closure".
EVENTS = {
    "A": Event(lambda n: n + 2, radial_closed_path, radial_holds,
               lambda M, n: edge_graph(M)[0].sites),
    "Aprime": Event(lambda n: rect_min_extent(n, "T"),
                    lambda c, n, witness=False: rect_crossing(c, n, "T", witness),
                    rect_holds, lambda M, n: _rect_reads(M, n, ("T",))),
    "Acirc": Event(lambda n: 2 * n + 2, surrounding_circuit_exact, circuit_holds,
                   lambda M, n: _annulus_static(M, n).sites),
    "Acirc4": Event(lambda n: 2 * n + 2,
                    lambda c, n, witness=False: surrounding_circuit_4rect(c, n),
                    circuit4_holds, lambda M, n: _rect_reads(M, n, ("T1", "T2", "T3", "T4"))),
}


def dump_witness(result: EventResult) -> str:
    """Witness dump: header naming the event, then 'u v' vertex lines."""
    lines = [
        "manhattan-pinball witness v1",
        f"event {result.event}",
        f"holds {int(result.holds)}",
    ]
    for u, v in result.witness or []:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def loads_witness(text: str) -> EventResult:
    lines = text.splitlines() + ["", ""]
    if lines[0] != "manhattan-pinball witness v1":
        raise ConfigParseError("missing witness header", line=1)
    event = lines[1].split(None, 1)
    if not lines[1].startswith("event ") or len(event) != 2:
        raise ConfigParseError("expected 'event <name>'", line=2)
    holds = lines[2].split()
    if holds not in (["holds", "0"], ["holds", "1"]):
        raise ConfigParseError("expected 'holds 0' or 'holds 1'", line=3)
    pts = []
    for lineno, line in enumerate(lines[3:-2], start=4):
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
    return EventResult(holds=holds[1] == "1", witness=pts or None, event=event[1])
