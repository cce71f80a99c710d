"""Enhancement patterns: matching, the enhancement map, and validation.

A pattern is a finite template around an anchor: sites required closed,
sites required open, and one distinguished open site (the red edge) that the
enhancement closes wherever a translated copy of the template appears.  The
pattern is data, not code: the shipped default lives in
``data/default_pattern.txt`` and is validated at load time by three checks:

  * translation: the red edge of one copy never coincides with a required
    open edge of another jointly-satisfiable copy, so overlapping copies
    flip exactly their own reds;
  * detour: with only the pattern's mirrors present, light reaching the red
    site passes through, runs a bounded loop, and re-emerges exactly as if
    it had been deflected by a mirror on the red edge (so closing the red
    edge changes trajectories only by splicing bounded loops in or out);
  * essentiality: there is a window configuration where closing the red
    edge is pivotal for a side-to-side closed crossing.

The detour check additionally requires every site the loop visits to be
constrained by the pattern; an unconstrained visited site could carry a
mirror in a real sample and derail the loop, which would break the splice
argument the verification harness replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import events as _ev
from .configuration import (Configuration, atomic_write_text, edge_inside_q_mask,
                            from_closed_sites, header_lines, read_header)
from .errors import ConfigParseError
from .geometry import (
    DIAGONAL,
    UNIT,
    Direction,
    edge_for_site,
    mirror_orientation,
    reflect,
    site_between,
)
from .tracer import RayState, trace

PATTERN_FORMAT_VERSION = 1
# Largest |a| or |b| of a site in a pattern file.  A pattern is a local
# template (the search stops at radius 4), and its checks build fields and
# scan offsets of a few times its radius.
PATTERN_MAX_RADIUS = 16
_DETOUR_MAX_RADIUS = 5  # see check_detour
# The detour route search stops after this many search nodes or routes.
_ROUTE_NODE_BUDGET, _MAX_ROUTES = 200000, 64


@dataclass(frozen=True)
class Pattern:
    closed_sites: frozenset
    open_sites: frozenset
    red_site: tuple
    name: str = "unnamed"

    def __post_init__(self):
        if self.red_site not in self.open_sites:
            raise ValueError("red site must be required open")
        if self.closed_sites & self.open_sites:
            raise ValueError("closed and open requirements overlap")

    @property
    def radius(self) -> int:
        return max(
            max(abs(a), abs(b)) for a, b in self.closed_sites | self.open_sites
        )

    @property
    def sites(self):
        return self.closed_sites | self.open_sites


@dataclass(frozen=True)
class MatchSet:
    offsets: tuple  # sorted (t1, t2) pairs, t1 + t2 even


@dataclass
class DetourReport:
    ok: bool
    radius: int  # D: max l-inf distance of visited detour sites from red
    returns: dict  # entry direction name -> outgoing direction name at first return
    diagnostics: dict  # non-transit entries -> short description
    failure: str | None = None


@dataclass
class PatternReport:
    translation_ok: bool
    translation_counterexample: tuple | None
    detour: DetourReport
    essential_witness: Configuration | None
    essential_searched: int

    @property
    def all_ok(self) -> bool:
        return (
            self.translation_ok
            and self.detour.ok
            and self.essential_witness is not None
        )


# ---------------------------------------------------------------------------
# matching and the enhancement map
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _red_box(M, g, excluded_core, reads=None):
    """(r0, c0, allowed): the copies of ``g`` inside extent M whose red sites
    may match lie at field indices (r0 + i, c0 + j) with ``allowed[i, j]``:
    the copy's offset is parity-valid, with ``excluded_core = k`` its red edge
    is not inside Q_k, and with ``reads = (n, event)`` that event reads its
    red site.  The box bounds the allowed sites.  Cached per (M, pattern,
    core, reads), read-only."""
    if M < g.radius:
        raise ValueError("extent smaller than pattern radius")
    a, b = zip(*g.sites)
    (ra, rb), W = g.red_site, 2 * M + 1
    rows, cols = slice(ra - min(a), W + ra - max(a)), slice(rb - min(b), W + rb - max(b))
    r, c = np.ogrid[rows, cols]
    # the copy's offset, its red site less M + g.red_site, has an even sum;
    # tested without an int64 (h, w) temporary
    allowed = (r + ra) % 2 == (c + rb) % 2
    if excluded_core is not None:
        allowed &= ~edge_inside_q_mask(M, excluded_core)[rows, cols]
    if reads is not None:
        allowed &= _ev.read_mask(M, *reads)[rows, cols]
    i, j = np.nonzero(allowed)
    i0, i1, j0, j1 = (i.min(), i.max() + 1, j.min(), j.max() + 1) if i.size else (0, 0, 0, 0)
    allowed = allowed[i0:i1, j0:j1]
    allowed.flags.writeable = False
    return rows.start + int(i0), cols.start + int(j0), allowed


def _matches(closed, g, excluded_core=None, reads=None):
    """The matched reds of ``g`` in the (K, W, W) stack ``closed``, as flat
    index pairs (k, site), in field order and then site order: the copy of
    ``g`` whose red site is at flat index ``site`` of field k appears in that
    field, inside the extent, at an offset that ``_red_box`` allows with
    ``excluded_core`` and ``reads``."""
    W = closed.shape[-1]
    r0, c0, allowed = _red_box(W // 2, g, excluded_core, reads)
    (h, w), (ra, rb) = allowed.shape, g.red_site
    ok = np.broadcast_to(allowed, (len(closed), h, w)).copy()
    for sites, require in ((g.closed_sites, np.logical_and), (g.open_sites, np.greater)):
        for (a, b) in sorted(sites):  # ok & s, or ok & ~s as ok > s, in place
            i, j = r0 + a - ra, c0 + b - rb
            require(ok, closed[:, i : i + h, j : j + w], out=ok)
    k, at = np.divmod(np.flatnonzero(ok), h * w)
    row, col = np.divmod(at, w)
    return k, (row + r0) * W + col + c0


def match_pattern(c: Configuration, g: Pattern, excluded_core=None) -> MatchSet:
    """All parity-valid offsets whose translated copy appears in ``c``.

    Copies must lie fully inside the extent.  With ``excluded_core = k``,
    offsets whose red edge is inside Q_k are dropped.
    """
    row, col = np.divmod(matched_reds(c.closed, g, excluded_core), len(c.closed))
    t1, t2 = row - c.extent - g.red_site[0], col - c.extent - g.red_site[1]
    return MatchSet(offsets=tuple(zip(t1.tolist(), t2.tolist())))


def enhance_stack(closed, g: Pattern, excluded_core=None):
    """``enhance`` on fields of shape (..., W, W): a new array in which the
    red edge of every copy matched in a field is closed."""
    W = closed.shape[-1]
    k, site = _matches(closed.reshape(-1, W, W), g, excluded_core)
    out = closed.copy()
    out.reshape(-1, W * W)[k, site] = True
    return out


def matched_reds(closed, g: Pattern, excluded_core):
    """Flat indices, ascending, of the red sites that ``enhance`` with
    ``excluded_core`` closes in the (W, W) field ``closed``."""
    return _matches(closed[np.newaxis], g, excluded_core)[1]


def _dilated(mask, pattern):
    """The (W, W) bool ``mask`` and, with a pattern, each site s + r - red of a
    copy whose red edge r is in it: a field drawn on the result matches every
    copy whose red edge is in ``mask``."""
    fill = mask.copy()
    if pattern is None:
        return fill
    W = len(mask)
    ra, rb = pattern.red_site
    for sa, sb in pattern.sites:  # fill[r + d] |= mask[r] for d = s - red
        da, db = sa - ra, sb - rb
        fill[max(da, 0) : W + min(da, 0), max(db, 0) : W + min(db, 0)] |= (
            mask[max(-da, 0) : W + min(-da, 0), max(-db, 0) : W + min(-db, 0)])
    return fill


def enhance(c: Configuration, g: Pattern, excluded_core=None) -> Configuration:
    """Close the red edge of every matched copy (single pass over ``c``)."""
    return Configuration(
        extent=c.extent, closed=enhance_stack(c.closed, g, excluded_core), p=c.p,
        seed=c.seed, stream_index=c.stream_index, provenance="enhanced",
        generator=c.generator,
    )


# ---------------------------------------------------------------------------
# validation checks
# ---------------------------------------------------------------------------


def check_translation_lemma(g: Pattern):
    """(ok, first counterexample offset or None), in lexicographic order.

    Only an offset t = +-(o - red), for an open site o, can put the red site
    of one copy on an open site of the other.
    """
    closed, opens, (ra, rb) = g.closed_sites, g.open_sites, g.red_site
    for t1, t2 in sorted({(s * (a - ra), s * (b - rb)) for a, b in opens for s in (1, -1)}):
        if (t1, t2) == (0, 0) or (t1 + t2) % 2 != 0:
            continue
        shifted_closed = {(a + t1, b + t2) for a, b in closed}
        shifted_open = {(a + t1, b + t2) for a, b in opens}
        if not (closed & shifted_open or shifted_closed & opens):  # may appear jointly
            return False, (t1, t2)
    return True, None


_TRANSIT = {  # entry directions that can pass through a site, by coordinate parity
    (0, 0): (Direction.E, Direction.N),
    (1, 1): (Direction.W, Direction.S),
    (1, 0): (Direction.E, Direction.S),
    (0, 1): (Direction.W, Direction.N),
}


def check_detour(g: Pattern) -> DetourReport:
    """Trace the pattern's detour loop for both transit entry directions.

    For each entry direction d the loop must return the ray to the red site
    leaving with reflect(d, orientation(red)), stay within l-inf distance
    _DETOUR_MAX_RADIUS of the red site, and visit only pattern-constrained
    sites.  The other two directions cannot transit the red site and are
    recorded as diagnostics.
    """
    red = g.red_site
    orient = mirror_orientation(red)
    cfg = from_closed_sites(max(4 * g.radius, g.radius + 2), g.closed_sites)
    entries = _TRANSIT[(red[0] % 2, red[1] % 2)]
    others = tuple(d for d in Direction if d not in entries)
    returns = {}
    radius = 0
    failure = None
    for d in entries:
        t = trace(cfg, RayState(red, d))
        k = None
        for idx in range(1, len(t.states)):
            if (int(t.states[idx, 0]), int(t.states[idx, 1])) == red:
                k = idx
                break
        if k is None:
            failure = f"entry {d.name}: ray never returns to the red site ({t.status})"
            break
        out = Direction(int(t.states[k, 2]))
        returns[d.name] = out.name
        if out != reflect(d, orient):
            failure = (
                f"entry {d.name}: returns with {out.name}, "
                f"expected {reflect(d, orient).name}"
            )
            break
        loop = t.states[: k + 1]
        dist = int(
            np.max(np.maximum(np.abs(loop[:, 0] - red[0]), np.abs(loop[:, 1] - red[1])))
        )
        radius = max(radius, dist)
        if dist > _DETOUR_MAX_RADIUS:
            failure = f"entry {d.name}: detour radius {dist} exceeds {_DETOUR_MAX_RADIUS}"
            break
        visited = {(int(a), int(b)) for a, b in loop[:, :2]}
        stray = visited - g.sites
        if stray:
            failure = f"entry {d.name}: detour visits unconstrained sites {sorted(stray)}"
            break
    diagnostics = {}
    for d in others:
        t = trace(cfg, RayState(red, d))
        diagnostics[d.name] = f"non-transit entry, trace status {t.status}"
    return DetourReport(
        ok=failure is None and len(returns) == len(entries),
        radius=radius,
        returns=returns,
        diagnostics=diagnostics,
        failure=failure,
    )


@lru_cache(maxsize=4)
def _window_sides(M):
    """The raster of every edge of a window of extent M, and its west
    (i <= 1 - M) and east (i >= M - 1) bands; a vertex has i = (u + v) / 2."""
    raster = _ev.edge_raster(M, np.ones((2 * M + 1) ** 2, dtype=bool))
    return (raster, raster.where(lambda u, v: u + v <= 2 - 2 * M),
            raster.where(lambda u, v: u + v >= 2 * M - 2))


def _essential_witnesses(closed, g: Pattern):
    """Per field of a (K, W, W) window stack: the copy of ``g`` at offset
    (0, 0) matches, and closing the matched red edges makes a crossing that
    was not there."""
    k, site = _matches(closed, g)
    M = closed.shape[-1] // 2
    at_origin = np.zeros(len(closed), dtype=bool)
    at_origin[k[site == (g.red_site[0] + M) * (2 * M + 1) + g.red_site[1] + M]] = True
    before, after = _ev.joined_closing(closed, *_window_sides(M), k, site)
    return at_origin & ~before & after


def _chain_to_boundary(g, extent, start_vertex, westward, blocked_vertices):
    """BFS a path of closable sites from a red endpoint to a window band.

    Returns (chain sites, chain vertices) or None.  Chain sites must be
    unconstrained by the pattern; chain edges must avoid the pattern's
    mirror endpoints and previously used vertices.
    """
    pattern_vertices = {v for s in g.closed_sites for v in edge_for_site(s)}

    def neighbours(v):
        for di, dj in DIAGONAL:
            w = (v[0] + di, v[1] + dj)
            a, b = site_between(v, w)
            if (abs(a) <= extent and abs(b) <= extent and (a, b) not in g.sites
                    and (w[0] + 0.5, w[1] + 0.5) not in pattern_vertices
                    and w not in blocked_vertices):
                yield w

    goal = (lambda v: v[0] <= -extent + 1) if westward else (lambda v: v[0] >= extent - 1)
    start = (int(start_vertex[0] - 0.5), int(start_vertex[1] - 0.5))
    path = _ev.first_path([start], neighbours, goal)
    if path is None:
        return None
    return [site_between(v, w) for v, w in zip(path, path[1:])], path


def check_essential(g: Pattern, budget: int = 2000):
    """Search for a pivotality witness; (witness config or None, trials used).

    The first candidate is constructive: two closed chains tied to the red
    edge's endpoints, reaching opposite window bands, so the red edge is the
    only bridge.  Remaining budget goes to randomized fill of unconstrained
    sites.  Absence of a witness within budget is inconclusive.
    """
    W = 2 * g.radius + 6  # the window's extent
    trials = 0
    v_w, v_e = edge_for_site(g.red_site)
    built = _chain_to_boundary(g, W, v_w, True, set())
    if built is not None:
        sites_w, verts_w = built
        built_e = _chain_to_boundary(g, W, v_e, False, set(verts_w))
        if built_e is not None:
            sites_e, _ = built_e
            cfg = from_closed_sites(W, set(g.closed_sites) | set(sites_w) | set(sites_e))
            trials += 1
            if _essential_witnesses(cfg.closed[np.newaxis], g)[0]:
                return cfg, trials
    rng = np.random.default_rng(12345)
    free = np.flatnonzero(~from_closed_sites(W, g.sites).closed)
    base = from_closed_sites(W, g.closed_sites).closed
    # the fills are tried in stacks of doubling size: a witness found early
    # wastes little, a long search pays few labelling calls
    size = 4
    while trials < budget:
        size = min(2 * size, budget - trials)
        stack = np.broadcast_to(base, (size,) + base.shape).copy()
        for field in stack.reshape(size, -1):
            q = rng.uniform(0.2, 0.7)
            field[free[rng.random(len(free)) < q]] = True
        hits = np.flatnonzero(_essential_witnesses(stack, g))
        if hits.size:
            return Configuration(extent=W, closed=stack[hits[0]].copy()), trials + int(hits[0]) + 1
        trials += size
    return None, trials


def validate_pattern(g: Pattern, essential_budget: int = 2000) -> PatternReport:
    ok, ce = check_translation_lemma(g)
    det = check_detour(g)
    witness, searched = (None, 0)
    if ok and det.ok:
        witness, searched = check_essential(g, budget=essential_budget)
    return PatternReport(
        translation_ok=ok,
        translation_counterexample=ce,
        detour=det,
        essential_witness=witness,
        essential_searched=searched,
    )


# ---------------------------------------------------------------------------
# pattern search
# ---------------------------------------------------------------------------


def _enumerate_detour_routes(r_max, entry, exit_dir):
    """DFS over mirror placements for a loop from the anchor back to itself.

    Yields (mirrors, opens) for routes that start at (0, 0) moving ``entry``
    and next arrive at (0, 0) moving ``exit_dir``, confined to radius
    ``r_max``, visiting no site twice, with at most 6 mirrors.
    """
    results = []
    nodes = 0

    def dfs(a, b, d, mirrors, opens):
        nonlocal nodes
        nodes += 1
        if nodes > _ROUTE_NODE_BUDGET or len(results) >= _MAX_ROUTES:
            return
        da, db = UNIT[d]
        na, nb = a + da, b + db
        if (na, nb) == (0, 0):
            if d == exit_dir:
                results.append((frozenset(mirrors), frozenset(opens)))
            return
        if abs(na) > r_max or abs(nb) > r_max:
            return
        if (na, nb) in mirrors or (na, nb) in opens:
            return
        # pass through
        dfs(na, nb, d, mirrors, opens | {(na, nb)})
        # place a mirror
        if len(mirrors) < 6:
            dfs(na, nb, reflect(d, mirror_orientation((na, nb))), mirrors | {(na, nb)}, opens)

    dfs(0, 0, entry, frozenset(), frozenset())
    return sorted(results, key=lambda mo: (len(mo[0]), len(mo[1]), sorted(mo[0])))


def _endpoints_connected(closed_sites, red):
    """Do the pattern's mirrors alone join the red edge's endpoints?"""
    v1, v2 = edge_for_site(red)
    adj = {}
    for s in closed_sites:
        e = edge_for_site(s)
        adj.setdefault(e[0], set()).add(e[1])
        adj.setdefault(e[1], set()).add(e[0])
    return _ev.first_path([v1], lambda v: adj.get(v, ()), lambda v: v == v2) is not None


def search_patterns(r_max: int, budget: int = 200, essential_budget: int = 200):
    """Discover valid patterns anchored at a red site of even parities.

    Enumerates detour loops for both transit entries, pairs compatible
    loops, and keeps the candidates passing all three checks, sorted by
    mirror count.  Returns (patterns, budget_exhausted).
    """
    if r_max > 4:
        raise ValueError("r_max is capped at 4 (combinatorial guard)")
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    if budget <= 0:
        return [], True
    red = (0, 0)
    east_routes = _enumerate_detour_routes(r_max, Direction.E, Direction.N)
    north_routes = _enumerate_detour_routes(r_max, Direction.N, Direction.E)
    candidates = []
    seen = set()
    for me, oe in east_routes:
        for mn, on in north_routes:
            if (me & on) or (mn & oe):
                continue
            closed = me | mn
            if len(closed) > 12:
                continue
            key = (closed, oe | on)
            if key in seen:
                continue
            seen.add(key)
            candidates.append((closed, oe | on | {red}))
    candidates.sort(key=lambda co: (len(co[0]), len(co[1]), sorted(co[0])))
    found = []
    tested = 0
    exhausted = False
    for closed, opens in candidates:
        if _endpoints_connected(closed, red):
            continue  # red can never be pivotal
        if tested >= budget:
            exhausted = True
            break
        tested += 1
        g = Pattern(
            closed_sites=frozenset(closed),
            open_sites=frozenset(opens),
            red_site=red,
            name=f"searched-r{r_max}-{tested}",
        )
        report = validate_pattern(g, essential_budget=essential_budget)
        if report.all_ok:
            found.append(g)
    found.sort(key=lambda g: (len(g.closed_sites), g.radius, sorted(g.closed_sites)))
    return found, exhausted


# ---------------------------------------------------------------------------
# pattern file format
# ---------------------------------------------------------------------------


def dumps_pattern(g: Pattern) -> str:
    # the name and red lines are keyed lines a reader takes in any order
    lines = header_lines("pattern", PATTERN_FORMAT_VERSION,
                         {"name": g.name, "red": "{} {}".format(*g.red_site)})
    lines += (f"closed {a} {b}" for a, b in sorted(g.closed_sites))
    lines += (f"open {a} {b}" for a, b in sorted(g.open_sites))
    return "\n".join(lines) + "\n"


def loads_pattern(text: str) -> Pattern:
    lines = text.splitlines()
    read_header(lines, "pattern", PATTERN_FORMAT_VERSION, ())
    name = None
    red = None
    closed = set()
    opens = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "name" and len(parts) == 2:
            if name is not None:
                raise ConfigParseError("second name line", line=lineno)
            name = parts[1]
            continue
        if parts[0] in ("red", "closed", "open") and len(parts) == 3:
            try:
                site = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise ConfigParseError("bad site coordinates", line=lineno)
            if max(map(abs, site)) > PATTERN_MAX_RADIUS:
                raise ConfigParseError(f"site {site} is beyond radius {PATTERN_MAX_RADIUS}",
                                       line=lineno)
            if site in (opens if parts[0] == "closed" else closed):
                raise ConfigParseError(f"site {site} is both closed and open", line=lineno)
            if parts[0] == "red":
                if red is not None:
                    raise ConfigParseError("second red line", line=lineno)
                red = site
            (closed if parts[0] == "closed" else opens).add(site)
            continue
        raise ConfigParseError(f"unrecognized line {line!r}", line=lineno)
    if name is None or red is None:
        raise ConfigParseError("pattern file lacks a name or red line")
    return Pattern(
        closed_sites=frozenset(closed),
        open_sites=frozenset(opens),
        red_site=red,
        name=name,
    )


def save_pattern(g: Pattern, path) -> None:
    atomic_write_text(path, dumps_pattern(g))


def load_pattern(path) -> Pattern:
    with open(path) as fh:
        return loads_pattern(fh.read())


@lru_cache(maxsize=1)
def default_pattern() -> Pattern:
    """The shipped, search-discovered default pattern."""
    from importlib.resources import files

    text = files("manhattan_pinball.data").joinpath("default_pattern.txt").read_text()
    return loads_pattern(text)
