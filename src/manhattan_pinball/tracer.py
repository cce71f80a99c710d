"""Deterministic light dynamics: step map, trajectory tracing, metrics.

The ray state is (site just departed, outgoing direction); the origin ray is
((0, 0), E).  The forward map is a bijection on states, so every trajectory
is either a closed orbit or leaves the extent.  ``step`` and ``step_back``
are the reference dynamics.  Every other walk runs one table-driven kernel
on a flat byte copy of the field that a ``TableWalks`` owns, with the
kernel's state encoding; a loop over fields refills one table.
``trace_lockstep`` walks the origin rays of many sampled fields at once
without building the fields: each step hashes just the sites the rays enter.
"""

from __future__ import annotations

import threading
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
    sample,
    stream_base,
)
from .errors import ConfigParseError, DynamicsError
from .geometry import UNIT, Direction, mirror_orientation, q_radius, reflect, tilted_radius


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


CLOSED, ESCAPED, BUDGET_EXCEEDED, ABORTED = range(4)

STATUS_NAMES = ("closed", "escaped", "budget_exceeded", "aborted")  # by status code

# The kernel reads the field from a padded (2M+3)^2 byte table with flat index
# j = (a + M + 1) * P + (b + M + 1), row length P = 2M + 3.  Each byte holds
# 4 * code: 0 open, 1 NE mirror, 2 NW mirror, 3 outside the extent (the pad
# ring), 4 beyond the abort radius.  A ray state is 4 * j + direction.
_OUT, _FAR = 4 * 3, 4 * 4
# _TURN[4 * code + d]: direction leaving a site of that code entered along d
_TURN = (0, 1, 2, 3, 1, 0, 3, 2, 3, 2, 1, 0)


@lru_cache(maxsize=4)
def _code_table(M):
    """4 * mirror code (uint8) of a mirror at every site of extent M."""
    a = np.arange(-M, M + 1, dtype=np.int16)
    code = ((((a[:, None] - a[None, :]) & 1) + 1) << 2).astype(np.uint8)
    code.flags.writeable = False
    return code


def _radius_table(M):
    """Q-radius (int16) of every site of extent M; int16 holds the largest
    radius, 2M + 1, of any extent the field budget allows."""
    a = np.arange(-M, M + 1, dtype=np.int16)
    radius = tilted_radius(a[:, None] + a[None, :] - 1, a[:, None] - a[None, :])
    radius.flags.writeable = False
    return radius


@lru_cache(maxsize=4)
def _abort_codes(M, abort_at):
    """(mirror codes, _FAR codes) of extent M (uint8): the mirror code of each
    site of radius at most ``abort_at`` and 0 beyond, and _FAR beyond and 0
    within, so that a field's codes are (closed * mirror) | far.  Read-only."""
    far = _radius_table(M) > abort_at
    codes = np.where(far, np.uint8(0), _code_table(M)), np.where(far, np.uint8(_FAR), np.uint8(0))
    for x in codes:
        x.flags.writeable = False
    return codes


_REPEATED = "non-start state repeated: dynamics not injective"


@lru_cache(maxsize=4)
def _visited_mask(n_states, thread):
    """The zeroed visited mask the walks of one extent in one thread share;
    each walk clears the states it marked."""
    return bytearray(n_states)


def _trace_kernel(cells: bytes, P: int, s0: int, max_steps: int, at: int | None = None):
    """Walk from state ``s0`` until closure, escape, abort or ``max_steps`` steps.

    Returns (status, path) with path the visited states, start first.  An
    aborted walk ends with the first site beyond the abort radius, recorded
    with the direction the ray entered it.  With ``at``, the walk resumes
    from state ``at`` of a walk that started at ``s0``; the path starts at
    ``at``.
    """
    step = (P, 1, -P, -1)
    turn = _TURN
    seen = _visited_mask(len(cells) << 2, threading.get_ident())
    if at is None:
        at = s0
    path = array("q", (at,))
    try:
        seen[s0] = 2  # entering the start state again closes the orbit
        if at != s0:
            seen[at] = 1
        append = path.append
        i, d = at >> 2, at & 3
        for _ in range(max_steps):
            j = i + step[d]
            c = cells[j]
            if c >= _OUT:
                if c == _OUT:
                    return ESCAPED, path
                append(4 * j + d)
                return ABORTED, path
            d = turn[c + d]
            s = 4 * j + d
            if seen[s]:
                if seen[s] == 1:
                    raise DynamicsError(_REPEATED)
                return CLOSED, path
            seen[s] = 1
            append(s)
            i = j
        return BUDGET_EXCEEDED, path
    finally:  # every marked state is s0 or on the path, even after a raise
        seen[s0] = 0
        np.frombuffer(seen, dtype=np.uint8)[np.frombuffer(path, dtype=np.int64)] = 0


def _abort_at(abort_radius: int, start: RayState) -> int | None:
    """The radius beyond which a walk from ``start`` aborts: none for
    ``abort_radius < 0``, else the larger of ``abort_radius`` and the start's
    own, so a start already outside Q_abort_radius does not abort at once."""
    return max(abort_radius, q_radius(start.site)) if abort_radius >= 0 else None


def _walk(c: Configuration, start: RayState, max_steps: int | None,
          abort_radius: int):
    """Run the kernel; returns (status, a, b, dir, linf_diameter, containment).

    a, b and dir are int64 arrays over the visited states, start first.
    """
    if not c.in_extent(start.site):
        raise ValueError("start site outside extent")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    walks = TableWalks(c.extent, _abort_at(abort_radius, start))
    walks.fill(c.closed)
    status, path = walks.walk(start, max_steps)
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
        if self.abort_at is None:
            np.multiply(closed, _code_table(self.M), out=inner)
        else:
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
        self.cells[j[open_]] = _code_table(self.M).ravel()[sites[open_]]

    def visits(self, path, sites: np.ndarray) -> bool:
        """Does ``path`` visit any of the flat field ``sites``?"""
        on = np.frombuffer(path, dtype=np.int64)[:, np.newaxis] >> 2 == self.index(sites)
        return bool(on.any())

    def walk(self, start: RayState = _ORIGIN, max_steps: int | None = None,
             at: int | None = None):
        """(status, path) of ``_trace_kernel`` from ``start`` within
        ``max_steps`` steps (default_max_steps(M) when None), resumed from
        state ``at`` when given."""
        if max_steps is None:
            max_steps = default_max_steps(self.M)
        return _trace_kernel(self.table, self.P, self.state(start), max_steps, at)

    def containment(self, path) -> int:
        """The largest radius of a site on ``path``."""
        a, b = self.sites(path)
        return int(tilted_radius(a + b - 1, a - b).max())


# The lockstep walk keeps each ray's direction doubled, e = 2d, and reads its
# next direction from _lockstep_turn() at 2 * (4 * code + d) + closed: an
# open site passes the ray straight on, a closed one turns it as _TURN does,
# and the pad ring and the sites beyond the abort radius end it with the
# sentinel _ESC or _ABORT whatever their uniform.
_ESC, _ABORT = 8, 10
# Peak bytes a lockstep walk holds per ray: the ray state (site, direction,
# stream base, checkpoint, sample position), one step's temporaries and the
# copies a compaction makes.  tracemalloc measured 115 at M = 66 for 1000 to
# 8000 rays, on top of about 0.44 MB of tables that depend on M alone.
LOCKSTEP_RAY_BYTES = 128
# A lockstep step costs about 30 us however few rays are live; _trace_kernel
# costs about 0.5 us a step plus 0.3 ms to build the ray's field (M = 66).
# So a walk ends when this many rays are left, and they finish one by one:
# 1000 rays at p = 0.5, n = 64 then take 84 ms instead of 102 ms, and a
# chunk this small never pays for a lockstep step (16 to 32 measured best).
_LOCKSTEP_MIN_RAYS = 32


def _lockstep_turn():
    """Turn table of the lockstep walk, built from _TURN when it is called."""
    table = np.empty((5, 4, 2), dtype=np.intp)  # code, d, closed
    table[:3, :, 0] = 2 * np.arange(4)  # open site: straight on
    table[:3, :, 1] = 2 * np.reshape(_TURN, (3, 4))
    table[3], table[4] = _ESC, _ABORT
    return table.ravel()


def trace_lockstep(p: float, M: int, seed: int, stream_indices,
                   abort_radius: int) -> np.ndarray:
    """Status codes (int8, see STATUS_NAMES) of the origin rays of the fields
    ``sample(p, M, seed, i)``, i in ``stream_indices``, traced in lockstep.

    Equal to ``trace_summary(sample(p, M, seed, i), abort_radius=abort_radius)``
    ray by ray, within the same budget of default_max_steps(M) steps.  While
    more than _LOCKSTEP_MIN_RAYS rays are live, one numpy step moves them all
    and hashes only the site each enters, so no field is built; the rays left
    then finish one by one on their own fields.
    """
    check_probability(p)
    _check_extent(M)
    max_steps = default_max_steps(M)
    walks = TableWalks(M, _abort_at(abort_radius, _ORIGIN))
    K = len(stream_indices)
    status = np.full(K, BUDGET_EXCEEDED, dtype=np.int8)
    steps, pos, at = 0, np.arange(K), np.full(K, walks.state())
    if K > _LOCKSTEP_MIN_RAYS:
        steps, pos, at = _lockstep(p, M, seed, stream_indices, walks, max_steps, status)
    if steps < max_steps:
        for k, s in zip(pos.tolist(), at.tolist()):
            walks.fill(sample(p, M, seed, stream_indices[k]).closed)
            status[k] = walks.walk(max_steps=max_steps - steps, at=s)[0]
    return status


def _lockstep(p, M, seed, stream_indices, walks, max_steps, status):
    """Walk the origin rays in lockstep until at most _LOCKSTEP_MIN_RAYS are
    live or ``max_steps`` steps are done, writing the status of each ray that
    ends into ``status``.  Returns (steps, positions, states) of the rest.

    A ray holds its site, direction, stream base and a checkpoint state.  The
    checkpoint is reset at steps 1, 2, 4, 8, ... (Brent), so a ray that
    repeats a state other than its start raises ``DynamicsError`` within
    3 * 4W^2 steps, inside the budget default_max_steps(M) = 16W^2; a ray
    handed on before that repeats, within 4W^2 more steps, a state that
    _trace_kernel has marked.
    """
    P = 2 * M + 3
    # 8 * code of every cell of the padded table, and its uint64 coordinates
    walks.fill(np.ones((2 * M + 1, 2 * M + 1), dtype=bool))
    cells = 2 * walks.cells.astype(np.intp)
    axis = _as_uint64(np.arange(-M - 1, M + 2))
    cell_a, cell_b = np.repeat(axis, P), np.tile(axis, P)
    step = np.repeat((P, 1, -P, -1), 2)  # by doubled direction
    turn = _lockstep_turn()
    ending = np.full(_ABORT + 1, CLOSED, dtype=np.int8)  # status by final e
    ending[_ESC], ending[_ABORT] = ESCAPED, ABORTED

    K = len(stream_indices)
    s0 = walks.state()
    key0 = np.array(2 * s0)  # the start's state key 8j + e
    j = np.full(K, s0 >> 2)
    e = np.full(K, 2 * (s0 & 3))
    base = stream_base(seed, stream_indices)
    checkpoint = np.full(K, key0)
    pos = np.arange(K)
    scratch = np.empty(K, dtype=np.uint64)
    esc, three = np.array(_ESC), np.array(3)  # 0-d: faster ufunc calls
    steps = 0
    while len(j) > _LOCKSTEP_MIN_RAYS and steps < max_steps:
        steps += 1
        L = len(j)
        tmp = scratch[:L]
        j += step[e]
        # the entered site's closed bit, exactly as sample() draws it
        h = hash_key(base, cell_a[j], tmp=tmp)
        hash_key(h, cell_b[j], out=h, tmp=tmp)
        idx = cells[j]
        idx += e
        idx += closed_bits(h, p)
        e = turn[idx]
        # a ray ends on its start state, on a sentinel, or on a checkpoint
        # that is not its start (then the dynamics is broken)
        key = np.left_shift(j, three)
        key += e
        hit = key == key0
        hit |= key == checkpoint
        hit |= e >= esc
        if steps & (steps - 1) == 0:
            checkpoint = key
        if not np.count_nonzero(hit):
            continue
        done = np.flatnonzero(hit)
        ed, kd = e[done], key[done]
        if np.any((ed < _ESC) & (kd != key0)):
            raise DynamicsError(_REPEATED)
        status[pos[done]] = ending[ed]
        live = ~hit
        j, e, base, checkpoint, pos = (x[live] for x in (j, e, base, checkpoint, pos))
    return steps, pos, (j << 2) + (e >> 1)


@dataclass(frozen=True)
class Trajectory:
    """Traced light path with closure status and containment metrics."""

    start: RayState
    states: np.ndarray  # (n, 3) int32 rows of (a, b, dir)
    status: str
    linf_diameter: int
    containment: int  # minimal m with all visited sites in Q_m

    def __len__(self):
        return len(self.states)

    def state(self, i) -> RayState:
        a, b, d = self.states[i]
        return RayState((int(a), int(b)), Direction(int(d)))

    @property
    def visited(self):
        """Set of visited sites, start included."""
        return {(int(a), int(b)) for a, b in self.states[:, :2]}

    def contained_in(self, m: int) -> bool:
        return self.containment <= m


def default_max_steps(M: int) -> int:
    return 16 * (2 * M + 1) ** 2


def trace(c: Configuration, start: RayState = _ORIGIN,
          max_steps: int | None = None) -> Trajectory:
    """Iterate the step map until closure, escape, or step budget."""
    status, a, b, d, diam, radius = _walk(c, start, max_steps, -1)
    states = np.stack((a, b, d), axis=1).astype(np.int32)
    states.flags.writeable = False
    return Trajectory(
        start=start,
        states=states,
        status=STATUS_NAMES[status],
        linf_diameter=diam,
        containment=radius,
    )


def trace_summary(c: Configuration, start: RayState = _ORIGIN,
                  max_steps: int | None = None, abort_radius: int = -1):
    """(status, number of states, linf_diameter, containment) of ``trace``.

    ``abort_radius >= 0`` stops early with status 'aborted' once the ray
    reaches a site outside both Q_abort_radius and the start's own Q_m; used
    by event estimators that only care about closure within Q_n.
    """
    status, a, _, _, diam, radius = _walk(c, start, max_steps, abort_radius)
    return STATUS_NAMES[status], len(a), diam, radius


# Trajectory dump format: header with status and metrics, one state per line.

def dump_trajectory(t: Trajectory) -> str:
    lines = [
        "manhattan-pinball trajectory v1",
        f"status {t.status}",
        f"states {len(t.states)}",
        f"linf_diameter {t.linf_diameter}",
        f"containment {t.containment}",
    ]
    for a, b, d in t.states:
        lines.append(f"{a} {b} {Direction(int(d)).name}")
    return "\n".join(lines) + "\n"


def loads_trajectory(text: str) -> Trajectory:
    lines = text.splitlines()
    if not lines or lines[0] != "manhattan-pinball trajectory v1":
        raise ConfigParseError("missing trajectory header", line=1)
    meta = {}
    for i, key in enumerate(("status", "states", "linf_diameter", "containment")):
        parts = lines[i + 1].split() if i + 1 < len(lines) else []
        if len(parts) != 2 or parts[0] != key:
            raise ConfigParseError(f"expected '{key} ...'", line=i + 2)
        meta[key] = parts[1]
    if meta["status"] not in STATUS_NAMES:
        raise ConfigParseError(f"unknown status {meta['status']!r}", line=2)
    for lineno, key in ((3, "states"), (4, "linf_diameter"), (5, "containment")):
        meta[key] = _parse_int(meta[key], lineno)
    n = meta["states"]
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
    return Trajectory(start=start, states=arr, status=meta["status"],
                      linf_diameter=meta["linf_diameter"],
                      containment=meta["containment"])


def _parse_int(token: str, lineno: int) -> int:
    """An integer field of a trajectory file; coordinates must fit int32."""
    try:
        value = int(token)
    except ValueError:
        raise ConfigParseError(f"non-integer value {token!r}", line=lineno) from None
    if not -2**31 <= value < 2**31:
        raise ConfigParseError(f"value {token!r} out of range", line=lineno)
    return value
