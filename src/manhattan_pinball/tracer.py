"""Deterministic light dynamics: step map, trajectory tracing, metrics.

The ray state is (site just departed, outgoing direction); the origin ray is
((0, 0), E).  The forward map is a bijection on states, so every trajectory
is either a closed orbit or leaves the extent, within 4W^2 steps: the
extent has 4W^2 ray states, W = 2M + 1, and a walk visits each at most
once.  So a walk has no step budget and marks no state: it ends when the
ray closes, escapes or aborts, and raises ``DynamicsError`` if still live
after 4W^2 steps, having repeated a state other than its start.  ``step``
and ``step_back`` are the reference dynamics.  Every other walk runs one
table-driven kernel on a flat byte copy of the field that a ``TableWalks``
owns, with the kernel's state encoding; a loop over fields refills one table.
``trace_lockstep`` walks the origin rays of many sampled fields at once
without building the fields: each step hashes just the sites the rays enter.
Its turn table gives the start site a code of its own, whose row turns a ray
back at its start state into a sentinel, as escape and abort are, so one
comparison ends every ray.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .configuration import (
    Configuration,
    _as_uint64,
    _check_extent,
    check_probability,
    closed_bits,
    hash_key,
    header_lines,
    read_header,
    region_sampler,
    stream_base,
)
from .errors import ConfigParseError, DynamicsError
from .geometry import (UNIT, Direction, Orientation, mirror_orientation, q_radius, reflect,
                       site_radius, tilted_radius)


class RayState(NamedTuple):
    site: tuple
    dir: Direction


_ORIGIN = RayState((0, 0), Direction.E)


class Escape(Exception):
    """Raised by ``step`` when the next site lies outside the extent.

    Carries the exiting state (last in-extent state) in ``state``.
    """

    def __init__(self, state: RayState):
        super().__init__(f"ray escapes from {state}")
        self.state = state


def step(s: RayState, c: Configuration) -> RayState:
    """One move of the light ray (reference implementation)."""
    da, db = UNIT[s.dir]
    na, nb = s.site[0] + da, s.site[1] + db
    if not c.in_extent((na, nb)):
        raise Escape(s)
    if c.closed_at((na, nb)):
        nd = reflect(s.dir, mirror_orientation((na, nb)))
    else:
        nd = s.dir
    return RayState((na, nb), nd)


def step_back(s: RayState, c: Configuration) -> RayState:
    """Inverse of ``step`` (the dynamics is a bijection on states)."""
    d = reflect(s.dir, mirror_orientation(s.site)) if c.closed_at(s.site) else s.dir
    da, db = UNIT[d]
    pa, pb = s.site[0] - da, s.site[1] - db
    if not c.in_extent((pa, pb)):
        raise Escape(s)
    return RayState((pa, pb), d)


CLOSED, ESCAPED, ABORTED = range(3)

STATUS_NAMES = ("closed", "escaped", "aborted")  # by status code

# The kernel reads the field from a padded (2M+3)^2 byte table with flat index
# j = (a + M + 1) * P + (b + M + 1), row length P = 2M + 3.  Each byte holds
# 4 * code: 0 open, 1 NE mirror, 2 NW mirror, 3 outside the extent (the pad
# ring), 4 beyond the abort radius.  A ray state is 4 * j + direction.
_OUT, _FAR = 4 * 3, 4 * 4
# _TURN[4 * code + d]: direction leaving a site of that code entered along d,
# as plain ints for the kernel's indexing; code 1 + o is a mirror of orientation o
_TURN = tuple(range(4)) + tuple(int(reflect(d, o)) for o in Orientation for d in Direction)


@lru_cache(maxsize=4)
def _abort_codes(M, abort_at):
    """(mirror, far) codes of extent M (uint8): 4 * the mirror code of each site
    of radius at most ``abort_at`` (None: of any radius) and 0 beyond, and _FAR
    beyond and 0 within, so a field's codes are (closed * mirror) | far.  Read-only."""
    a = np.arange(-M, M + 1, dtype=np.int16)
    mirror = ((((a[:, None] - a) & 1) + 1) << 2).astype(np.uint8)
    far = np.zeros(mirror.shape, dtype=bool) if abort_at is None else site_radius(M) > abort_at
    codes = np.where(far, np.uint8(0), mirror), np.where(far, np.uint8(_FAR), np.uint8(0))
    for x in codes:
        x.flags.writeable = False
    return codes


_REPEATED = "non-start state repeated: dynamics not injective"


def _trace_kernel(cells: bytes, P: int, s0: int, at: int | None = None):
    """Walk from state ``s0`` until closure, escape or abort.

    Returns (status, path) with path the visited states, start first.  An
    aborted walk ends with the first site beyond the abort radius, recorded
    with the direction the ray entered it.  With ``at``, the walk resumes
    from state ``at`` of a walk that started at ``s0``; the path starts at
    ``at``.  An injective walk from any state of its orbit meets ``s0`` or
    ends within 4W^2 steps, W = P - 2, so one live after them raises
    ``DynamicsError``.
    """
    step = (P, 1, -P, -1)
    turn = _TURN
    if at is None:
        at = s0
    path = array("q", (at,))
    append = path.append
    i, d = at >> 2, at & 3
    for _ in range(4 * (P - 2) ** 2):
        j = i + step[d]
        c = cells[j]
        if c >= _OUT:
            if c == _OUT:
                return ESCAPED, path
            append(4 * j + d)
            return ABORTED, path
        d = turn[c + d]
        s = 4 * j + d
        if s == s0:
            return CLOSED, path
        append(s)
        i = j
    raise DynamicsError(_REPEATED)


def _abort_at(abort_radius: int, start: RayState) -> int | None:
    """The radius beyond which a walk from ``start`` aborts: none for
    ``abort_radius < 0``, else the larger of ``abort_radius`` and the start's
    own, so a start already outside Q_abort_radius does not abort at once."""
    return max(abort_radius, q_radius(start.site)) if abort_radius >= 0 else None


def _walk(c: Configuration, start: RayState, abort_radius: int):
    """Run the kernel; returns (status, a, b, dir, linf_diameter, containment).

    a, b and dir are int64 arrays over the visited states, start first.
    """
    if not c.in_extent(start.site):
        raise ValueError("start site outside extent")
    walks = TableWalks(c.extent, _abort_at(abort_radius, start))
    walks.fill(c.closed)
    status, path = walks.walk(start)
    a, b = walks.sites(path)
    diam = max(np.ptp(a), np.ptp(b))
    return (status, a, b, np.frombuffer(path, dtype=np.int64) & 3, int(diam),
            walks.containment(path))


class TableWalks:
    """Walks on fields of extent M written one after another into one padded
    code table, so a loop over fields allocates none; sites of radius above
    ``abort_at`` (None: no site) read as _FAR.  A walk's path is the kernel's:
    state 4j + direction for the table index j of each site it visits."""

    def __init__(self, M: int, abort_at: int | None):
        self.M, self.abort_at, self.P = M, abort_at, 2 * M + 3
        self.table = bytearray([_OUT]) * self.P ** 2
        self.cells = np.frombuffer(self.table, dtype=np.uint8)

    def fill(self, closed: np.ndarray) -> None:
        """Write the mirror field ``closed`` into the inside of the table."""
        inner = self.cells.reshape(self.P, self.P)[1:-1, 1:-1]
        mirror, far = _abort_codes(self.M, self.abort_at)
        np.bitwise_or(np.multiply(closed, mirror, out=inner), far, out=inner)

    def state(self, ray: RayState = _ORIGIN) -> int:
        """The kernel state of ``ray``."""
        (a, b), M = ray.site, self.M
        return 4 * ((a + M + 1) * self.P + b + M + 1) + int(ray.dir)

    def index(self, sites: np.ndarray) -> np.ndarray:
        """Table indices of the flat field indices ``sites``."""
        row, col = np.divmod(sites, 2 * self.M + 1)
        return (row + 1) * self.P + col + 1

    def sites(self, path):
        """(a, b): the int64 coordinates of each site on ``path``."""
        a, b = np.divmod(np.frombuffer(path, dtype=np.int64) >> 2, self.P)
        return a - (self.M + 1), b - (self.M + 1)

    def close(self, sites: np.ndarray) -> None:
        """Put a mirror on each of the flat field ``sites`` that reads open."""
        j = self.index(sites)
        open_ = self.cells[j] == 0
        self.cells[j[open_]] = _abort_codes(self.M, self.abort_at)[0].ravel()[sites[open_]]

    def visits(self, path, sites: np.ndarray) -> bool:
        """Does ``path`` visit any of the flat field ``sites``?"""
        on = np.frombuffer(path, dtype=np.int64)[:, np.newaxis] >> 2 == self.index(sites)
        return bool(on.any())

    def walk(self, start: RayState = _ORIGIN, at: int | None = None):
        """(status, path) of ``_trace_kernel`` from ``start``, resumed from
        state ``at`` when given."""
        return _trace_kernel(self.table, self.P, self.state(start), at)

    def containment(self, path) -> int:
        """The largest radius of a site on ``path``."""
        a, b = self.sites(path)
        return int(tilted_radius(a + b - 1, a - b).max())


# The lockstep walk keeps each ray's direction doubled, e = 2d, and reads its
# next direction from _lockstep_turn() at 2 * (4 * code + d) + closed: an
# open site passes the ray straight on, a closed one turns it as _TURN does,
# and the pad ring and the sites beyond the abort radius end it with the
# sentinel _ESC or _ABORT whatever their uniform.  The start site reads the
# code _START, whose row ends a ray back at its start state with _HOME.
_ESC, _ABORT, _HOME = 8, 10, 12
_START = 5
# Peak bytes a lockstep walk holds per ray: the ray state (site, direction,
# stream base, sample position), one step's temporaries and the copies a
# compaction makes.  tracemalloc measured 105 at M = 66 for 1000 to 8000
# rays, on top of about 0.46 MB of tables that depend on M alone; the margin
# to 128 keeps an estimate's walks at 3072 rays (montecarlo._STACK_BYTES).
LOCKSTEP_RAY_BYTES = 128
# A lockstep step costs about 30 us however few rays are live; _trace_kernel
# costs about 0.3 us a step plus 0.12 ms to draw and write the ray's field
# (M = 66).  So a walk ends when this many rays are left, and they finish one
# by one: 1000 rays at p = 0.5, n = 64 then take 52 ms, against 75 ms all in
# lockstep.  Ending at 16, 32, 48, 64 or 96 rays read 53, 52, 51, 52 and
# 54 ms (medians of 10 interleaved rounds), so any of 32 to 64 is as good.
_LOCKSTEP_MIN_RAYS = 32


def _lockstep_turn(start_code, d0):
    """Turn table of the lockstep walk, built from _TURN when it is called;
    row _START is that of the start site's mirror code ``start_code`` with
    _HOME for leaving along the start direction ``d0``."""
    table = np.empty((_START + 1, 4, 2), dtype=np.intp)  # code, d, closed
    table[:3, :, 0] = 2 * np.arange(4)  # open site: straight on
    table[:3, :, 1] = 2 * np.reshape(_TURN, (3, 4))
    table[3], table[4] = _ESC, _ABORT
    home = table[_START]
    home[...] = table[start_code]
    home[home == 2 * d0] = _HOME
    return table.ravel()


def trace_lockstep(p: float, M: int, seed: int, stream_indices,
                   abort_radius: int) -> np.ndarray:
    """Status codes (int8, see STATUS_NAMES) of the origin rays of the fields
    ``sample(p, M, seed, i)``, i in ``stream_indices``, traced in lockstep.

    Equal to ``trace_summary(sample(p, M, seed, i), abort_radius=abort_radius)``
    ray by ray.  While more than _LOCKSTEP_MIN_RAYS rays are live, one numpy
    step moves them all and hashes only the site each enters, so no field is
    built; the rays left then finish one by one on one field buffer, drawn by
    one sampler on the sites a walk can read (those within the abort radius).
    """
    check_probability(p)
    _check_extent(M)
    walks = TableWalks(M, _abort_at(abort_radius, _ORIGIN))
    K = len(stream_indices)
    status = np.empty(K, dtype=np.int8)
    pos, at = np.arange(K), np.full(K, walks.state())
    if K > _LOCKSTEP_MIN_RAYS:
        pos, at = _lockstep(p, M, seed, stream_indices, walks, status)
    far = _abort_codes(M, walks.abort_at)[1]
    draw, field = region_sampler(M, far == 0), np.zeros(far.shape, dtype=bool)
    bases = stream_base(seed, [stream_indices[k] for k in pos.tolist()])
    for k, s, base in zip(pos.tolist(), at.tolist(), bases):
        walks.fill(draw(base, p, field))
        status[k] = walks.walk(at=s)[0]
    return status


def _lockstep(p, M, seed, stream_indices, walks, status):
    """Walk the origin rays in lockstep until at most _LOCKSTEP_MIN_RAYS are
    live, writing the status of each ray that ends into ``status``.  Returns
    (positions, states) of the rest.

    A ray holds its site, direction, stream base and sample position.  The
    start site reads the code _START, whose row sends a ray back at its start
    state to _HOME, so ``e >= _ESC`` decides every end: closure, escape and
    abort.  A walk with more than _LOCKSTEP_MIN_RAYS rays live after 4W^2
    steps raises ``DynamicsError``, as _trace_kernel does; a ray handed on
    before that resumes in _trace_kernel, whose own bound then holds.
    """
    P = 2 * M + 3
    bound = 4 * (2 * M + 1) ** 2
    # 8 * code of every cell of the padded table, and its uint64 coordinates
    walks.fill(np.ones((2 * M + 1, 2 * M + 1), dtype=bool))
    s0 = walks.state()
    turn = _lockstep_turn(walks.cells[s0 >> 2] >> 2, s0 & 3)
    cells = 2 * walks.cells.astype(np.intp)
    cells[s0 >> 2] = 8 * _START
    axis = _as_uint64(np.arange(-M - 1, M + 2))
    cell_a, cell_b = np.repeat(axis, P), np.tile(axis, P)
    step = np.repeat((P, 1, -P, -1), 2)  # by doubled direction
    ending = np.full(_HOME + 1, CLOSED, dtype=np.int8)  # status by final e
    ending[_ESC], ending[_ABORT] = ESCAPED, ABORTED

    K = len(stream_indices)
    j = np.full(K, s0 >> 2)
    e = np.full(K, 2 * (s0 & 3))
    base = stream_base(seed, stream_indices)
    pos = np.arange(K)
    scratch = np.empty(K, dtype=np.uint64)
    esc = np.array(_ESC)  # 0-d: faster ufunc calls
    steps = 0
    while len(j) > _LOCKSTEP_MIN_RAYS:
        if steps == bound:
            raise DynamicsError(_REPEATED)
        steps += 1
        tmp = scratch[: len(j)]
        j += step[e]
        # the entered site's closed bit, exactly as sample() draws it
        h = hash_key(base, cell_a[j], tmp=tmp)
        hash_key(h, cell_b[j], out=h, tmp=tmp)
        idx = cells[j]
        idx += e
        idx += closed_bits(h, p)
        e = turn[idx]
        hit = e >= esc
        if not np.count_nonzero(hit):
            continue
        status[pos[hit]] = ending[e[hit]]
        live = ~hit
        j, e, base, pos = (x[live] for x in (j, e, base, pos))
    return pos, (j << 2) + (e >> 1)


@dataclass(frozen=True)
class Trajectory:
    """Traced light path, how it ended (one of STATUS_NAMES) and containment metrics."""

    start: RayState
    states: np.ndarray  # (n, 3) int32 rows of (a, b, dir)
    status: str
    linf_diameter: int
    containment: int  # minimal m with all visited sites in Q_m

    def __len__(self):
        return len(self.states)

    @property
    def visited(self):
        """Set of visited sites, start included."""
        return {(int(a), int(b)) for a, b in self.states[:, :2]}

    def contained_in(self, m: int) -> bool:
        return self.containment <= m


def trace(c: Configuration, start: RayState = _ORIGIN) -> Trajectory:
    """Iterate the step map until the ray closes or escapes."""
    status, a, b, d, diam, radius = _walk(c, start, -1)
    states = np.stack((a, b, d), axis=1).astype(np.int32)
    states.flags.writeable = False
    return Trajectory(
        start=start,
        states=states,
        status=STATUS_NAMES[status],
        linf_diameter=diam,
        containment=radius,
    )


def trace_summary(c: Configuration, start: RayState = _ORIGIN, *, abort_radius: int = -1):
    """(status, number of states, linf_diameter, containment) of ``trace``.

    ``abort_radius >= 0`` stops early with status 'aborted' once the ray
    reaches a site outside both Q_abort_radius and the start's own Q_m; used
    by event estimators that only care about closure within Q_n.
    """
    status, a, _, _, diam, radius = _walk(c, start, abort_radius)
    return STATUS_NAMES[status], len(a), diam, radius


# Trajectory file: the preamble with status and metrics, one state per line.
TRAJECTORY_FORMAT_VERSION = 1


def dump_trajectory(t: Trajectory) -> str:
    lines = header_lines("trajectory", TRAJECTORY_FORMAT_VERSION, {
        "status": t.status, "states": len(t.states), "linf_diameter": t.linf_diameter,
        "containment": t.containment})
    lines += (f"{a} {b} {Direction(int(d)).name}" for a, b, d in t.states)
    return "\n".join(lines) + "\n"


def loads_trajectory(text: str) -> Trajectory:
    lines = text.splitlines()
    status, *counts = read_header(lines, "trajectory", TRAJECTORY_FORMAT_VERSION,
                                  ("status", "states", "linf_diameter", "containment"))
    if status not in STATUS_NAMES:
        raise ConfigParseError(f"unknown status {status!r}", line=2)
    n, diam, radius = (_parse_int(v, lineno) for lineno, v in enumerate(counts, start=3))
    if n < 1:
        raise ConfigParseError("a trajectory has at least one state", line=3)
    if len(lines) != 5 + n:
        raise ConfigParseError("state count does not match header", line=len(lines))
    rows = []
    for lineno, line in enumerate(lines[5:], start=6):
        parts = line.split()
        if len(parts) != 3:
            raise ConfigParseError("expected 'a b direction'", line=lineno)
        if parts[2] not in Direction.__members__:
            raise ConfigParseError(f"unknown direction {parts[2]!r}", line=lineno)
        rows.append((_parse_int(parts[0], lineno), _parse_int(parts[1], lineno),
                     int(Direction[parts[2]])))
    arr = np.array(rows, dtype=np.int32)
    arr.flags.writeable = False
    start = RayState((int(arr[0, 0]), int(arr[0, 1])), Direction(int(arr[0, 2])))
    return Trajectory(start=start, states=arr, status=status, linf_diameter=diam,
                      containment=radius)


def _parse_int(token: str, lineno: int) -> int:
    """An integer field of a trajectory file; coordinates must fit int32."""
    try:
        value = int(token)
    except ValueError:
        raise ConfigParseError(f"non-integer value {token!r}", line=lineno) from None
    if not -2**31 <= value < 2**31:
        raise ConfigParseError(f"value {token!r} out of range", line=lineno)
    return value
