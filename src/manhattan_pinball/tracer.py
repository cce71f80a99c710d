"""Deterministic light dynamics: trajectory tracing and its metrics.

The ray state is (site just departed, outgoing direction); the origin ray is
((0, 0), E).  The forward map is a bijection on states, so every trajectory
is either a closed orbit or leaves the extent, within 4W^2 steps: the
extent has 4W^2 ray states, W = 2M + 1, and a walk visits each at most
once.  So a walk has no step budget and marks no state: it ends when the
ray closes, escapes or aborts, and raises ``DynamicsError`` if still live
after 4W^2 steps, having repeated a state other than its start.
Every walk reads one encoding of the field: a padded table of cells, each
16 * code + closed bit, and one turn table indexed at cell + 2 * direction,
which returns the doubled direction leaving the cell or, where the ray
closes, escapes or aborts, a sentinel that ends it.  The table of a
``TableWalks`` is refilled field after field and walked one ray at a time.
``trace_lockstep`` walks the origin rays of many sampled fields at once
without building the fields: each step hashes just the sites the rays enter,
for the closed bit the table would hold.  Once the live rays fit a fixed
byte cap, a table holds the hashed key of every row of every live ray, and a
step hashes the entered column alone.  A ray parks on its sentinel, which
steps nowhere and turns into itself, so the lockstep drops ended rays only
now and then.
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
    closed_test,
    hash_key,
    header_lines,
    read_header,
    region_sampler,
    stream_base,
)
from .errors import ConfigParseError, DynamicsError
from .geometry import Direction, Orientation, q_radius, reflect, site_radius, tilted_radius


class RayState(NamedTuple):
    site: tuple
    dir: Direction


_ORIGIN = RayState((0, 0), Direction.E)


CLOSED, ESCAPED, ABORTED = range(3)

STATUS_NAMES = ("closed", "escaped", "aborted")  # by status code

# Every walk reads the field from a padded (2M+3)^2 table of cells with flat
# index j = (a + M + 1) * P + (b + M + 1), row length P = 2M + 3.  A cell holds
# 16 * code + the site's closed bit: code 1 + o for a site whose mirror has
# orientation o, 3 outside the extent (the pad ring), 4 beyond the abort
# radius, and _START at the start site while a walk runs.  A ray state is
# 4 * j + direction.
# _TURN[4 * code + d]: direction leaving a closed site of that code entered
# along d, as plain ints; code 0 turns nothing
_TURN = tuple(range(4)) + tuple(int(reflect(d, o)) for o in Orientation for d in Direction)
# The turn table's sentinels: a ray that reads one has closed, escaped or
# aborted, as status (sentinel - _HOME) >> 1.
_HOME, _ESC, _ABORT = 8, 10, 12
_START = 5


@lru_cache(maxsize=32)
def _turn_table(start_code, d0, turn):
    """The turn table of walks that start on a site of code
    ``start_code`` along ``d0``, built from ``turn`` (callers pass _TURN).

    At cell + e, e = 2d for a ray entering the cell along d, it holds the
    doubled direction leaving the cell: an open site passes the ray straight
    on and a closed one turns it as ``turn`` does, while the pad ring and
    the sites beyond the abort radius end it with _ESC or _ABORT whatever
    their bit.  Row _START is that of ``start_code`` with _HOME for leaving
    along ``d0``, so it ends a ray back at its start state.  Every row maps
    a sentinel to itself, so a parked lockstep ray stays parked.
    """
    table = np.empty((_START + 1, 8, 2), dtype=np.intp)  # code, e // 2, closed
    table[...] = 2 * np.arange(8)[:, np.newaxis]  # open: straight on; sentinels stay
    table[:3, :4, 1] = 2 * np.reshape(turn, (3, 4))
    table[3, :4], table[4, :4] = _ESC, _ABORT
    home = table[_START]
    home[...] = table[start_code]
    home[home == 2 * d0] = _HOME
    return tuple(table.ravel().tolist())


@lru_cache(maxsize=4)
def _abort_codes(M, abort_at):
    """16 * code of each site of extent M (uint8): its mirror code at radius at
    most ``abort_at`` (None: at any radius) and 4 beyond.  Read-only."""
    a = np.arange(-M, M + 1, dtype=np.int16)
    codes = ((((a[:, None] - a) & 1) + 1) << 4).astype(np.uint8)
    if abort_at is not None:
        codes[site_radius(M) > abort_at] = 16 * 4
    codes.flags.writeable = False
    return codes


_REPEATED = "non-start state repeated: dynamics not injective"


def _trace_kernel(cells: bytes, step: tuple, at: int, turn: tuple):
    """Walk from state ``at`` until the turn table ``turn`` returns a
    sentinel, _HOME where the walk's start cell reads _START; ``step`` is
    the index offset of a step by doubled direction, P first.

    Returns (status, path) with path the visited states, ``at`` first.  An
    aborted walk ends with the first site beyond the abort radius, recorded
    with the direction the ray entered it.  An injective walk from any state
    of its orbit returns to its start or ends within 4W^2 steps, W = P - 2,
    so one live after them raises ``DynamicsError``.
    """
    home, abort = _HOME, _ABORT
    path = array("q", (at,))
    append = path.append
    j, e = at >> 2, 2 * (at & 3)
    for _ in range(4 * (step[0] - 2) ** 2):
        j += step[e]
        e = turn[cells[j] + e]
        if e >= home:
            if e == abort:
                append(4 * j + (path[-1] & 3))
            return (e - home) >> 1, path
        append(4 * j + (e >> 1))
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
    """Walks on fields of extent M written one after another into one cell
    table, so a loop over fields allocates none; sites of radius above
    ``abort_at`` (None: no site) read code 4.  A walk's path holds state
    4j + direction for the table index j of each site it visits."""

    def __init__(self, M: int, abort_at: int | None):
        self.M, self.abort_at, P = M, abort_at, 2 * M + 3
        self.P, self.step = P, (P, P, 1, 1, -P, -P, -1, -1)
        self.table = bytearray([16 * 3]) * P ** 2
        self.cells = np.frombuffer(self.table, dtype=np.uint8)

    def fill(self, closed: np.ndarray) -> None:
        """Write the mirror field ``closed`` into the inside of the table."""
        inner = self.cells.reshape(self.P, self.P)[1:-1, 1:-1]
        np.add(_abort_codes(self.M, self.abort_at), closed, out=inner)

    def state(self, ray: RayState = _ORIGIN) -> int:
        """The kernel state of ``ray``."""
        (a, b), M = ray.site, self.M
        return 4 * ((a + M + 1) * self.P + b + M + 1) + int(ray.dir)

    def sites(self, path):
        """(a, b): the int64 coordinates of each site on ``path``."""
        a, b = np.divmod(np.frombuffer(path, dtype=np.int64) >> 2, self.P)
        return a - (self.M + 1), b - (self.M + 1)

    def close(self, sites: np.ndarray) -> None:
        """Put a mirror on each of the flat field ``sites``."""
        row, col = np.divmod(sites, 2 * self.M + 1)
        self.cells[(row + 1) * self.P + col + 1] |= 1

    def walk(self, start: RayState = _ORIGIN, at: int | None = None):
        """(status, path) of ``_trace_kernel`` from ``start``, resumed from
        state ``at`` when given.  The start cell reads _START while it runs."""
        s0 = self.state(start)
        j0, table = s0 >> 2, self.table
        c = table[j0]
        table[j0] = 16 * _START + (c & 1)
        try:
            return _trace_kernel(table, self.step, s0 if at is None else at,
                                 _turn_table(c >> 4, s0 & 3, _TURN))
        finally:
            table[j0] = c

    def containment(self, path) -> int:
        """The largest radius of a site on ``path``."""
        a, b = self.sites(path)
        return int(tilted_radius(a + b - 1, a - b).max())


# Peak bytes a lockstep walk holds per ray (its state, one step's temporaries
# and a compaction's copies), beside tables that depend on M alone and at most
# _ROW_KEY_BYTES of row keys: tracemalloc measured 98.5 at M = 66.
LOCKSTEP_RAY_BYTES = 128
# A lockstep walk takes its rays in chunks of _LOCKSTEP_BYTES // LOCKSTEP_RAY_BYTES = 3072.
_LOCKSTEP_BYTES = 3 << 17
# The row-key table holds hash_key(stream base, a) for every padded row a of
# every live ray, so a step hashes only the entered site's column.  A walk
# builds it once its live rays' keys fit in this many bytes together with
# the buffer they are hashed in (_ROW_KEY_BLOCK sites): 455 rays at M = 66.
# With this cap 1000 rays at p = 0.5, n = 64 ran 1.13x as fast as without.
_ROW_KEY_BYTES = 1 << 19
_ROW_KEY_BLOCK = 1 << 12
# A lockstep step costs about 19 us even with 33 to 50 rays (M = 66), and
# _trace_kernel about 0.3 us a step plus 0.12 ms to draw the ray's field.  So
# a walk ends when this many rays are left, and they finish one by one: any
# end from 16 to 48 rays ran as fast (1000 rays at p = 0.5, n = 64).
_LOCKSTEP_MIN_RAYS = 32


def _row_keys(base, axis):
    """The row-key table of the rays with stream bases ``base``: hash_key(base[k],
    axis[a]) at k * len(axis) + a, hashed a block of rays at a time in one
    block-sized buffer, which holds the block's bases and then the hash's
    scratch (a ufunc that broadcasts the bases buffers about twice the block)."""
    P = len(axis)
    keys = np.empty((len(base), P), dtype=np.uint64)
    buf = np.empty((max(1, _ROW_KEY_BLOCK // P), P), dtype=np.uint64)
    for lo in range(0, len(base), len(buf)):
        block = keys[lo : lo + len(buf)]
        np.copyto(block, axis)
        tmp = buf[: len(block)]
        np.copyto(tmp, base[lo : lo + len(buf), np.newaxis])
        hash_key(tmp, block, out=block, tmp=tmp)
    return keys.ravel()


def trace_lockstep(p: float, M: int, seed: int, stream_indices,
                   abort_radius: int) -> np.ndarray:
    """Status codes (int8, see STATUS_NAMES) of the origin rays of the fields
    ``sample(p, M, seed, i)``, i in ``stream_indices``, traced in lockstep.

    Equal to ``trace_summary(sample(p, M, seed, i), abort_radius=abort_radius)``
    ray by ray.  While more than _LOCKSTEP_MIN_RAYS rays of a chunk are live,
    one numpy step moves them all and hashes only the site each enters (from
    a table of row keys once they fit _ROW_KEY_BYTES), so no field is built;
    the rays left then finish one by one on one field buffer, drawn by one
    sampler on the sites a walk can read (those within the abort radius).
    """
    check_probability(p)
    _check_extent(M)
    walks = TableWalks(M, _abort_at(abort_radius, _ORIGIN))
    status = np.empty(len(stream_indices), dtype=np.int8)
    chunk = _LOCKSTEP_BYTES // LOCKSTEP_RAY_BYTES
    for lo in range(0, len(stream_indices), chunk):
        rays, out = stream_indices[lo : lo + chunk], status[lo : lo + chunk]
        pos, at = np.arange(len(rays)), np.full(len(rays), walks.state())
        if len(rays) > _LOCKSTEP_MIN_RAYS:
            pos, at = _lockstep(p, M, seed, rays, walks, out)
        # built after the lockstep, which then peaks without it
        codes = _abort_codes(M, walks.abort_at)
        draw, field = region_sampler(M, codes < 16 * 4), np.zeros(codes.shape, dtype=bool)
        bases = stream_base(seed, [rays[k] for k in pos.tolist()])
        for k, s, base in zip(pos.tolist(), at.tolist(), bases):
            walks.fill(draw(base, p, field))
            out[k] = walks.walk(at=s)[0]
    return status


def _lockstep(p, M, seed, stream_indices, walks, status):
    """Walk the origin rays in lockstep until at most _LOCKSTEP_MIN_RAYS are
    live, writing the status of each ray that ends into ``status``.  Returns
    (positions, states) of the rest.

    A ray holds its site, direction, sample position and row source: its
    stream base, which a step hashes with the entered row and then column,
    or, once the row-key table is built, the offset of its rows in the table,
    so that a step hashes the column alone.  It reads the cells of ``walks``
    filled with an open field, the start cell reading _START, plus the
    hashed closed bit, so ``e >= _HOME`` decides every end as in
    _trace_kernel.  An ended ray parks on its sentinel.  The walk counts its
    live rays every fourth step, and writes the parked rays' statuses and
    drops them only when a quarter of its arrays has ended, when the live rays first fit in the table (which
    is then built for exactly those rays, and never moved) and when it stops.
    A walk with more than _LOCKSTEP_MIN_RAYS rays live after 4W^2 steps (a
    multiple of four, so the count is exact there) raises ``DynamicsError``,
    as _trace_kernel does; a ray handed on before that resumes in
    _trace_kernel, whose own bound then holds.
    """
    P = 2 * M + 3
    bound = 4 * (2 * M + 1) ** 2
    # 16 * code of every cell of the padded table (an open field), and its
    # uint64 coordinates
    walks.fill(False)
    s0 = walks.state()
    cells = walks.cells.astype(np.intp)
    turn = np.array(_turn_table(cells[s0 >> 2] >> 4, s0 & 3, _TURN))
    cells[s0 >> 2] = 16 * _START
    axis = _as_uint64(np.arange(-M - 1, M + 2))
    cell_a, cell_b = np.repeat(axis, P), np.tile(axis, P)
    step = np.zeros(16, dtype=np.intp)  # by doubled direction; a sentinel stays
    step[:8] = walks.step
    closed, limit = closed_test(p)
    fits = _ROW_KEY_BYTES // (8 * P) - max(1, _ROW_KEY_BLOCK // P)  # rays the table takes

    K = len(stream_indices)
    j = np.full(K, s0 >> 2)
    e = np.full(K, 2 * (s0 & 3))
    row = stream_base(seed, stream_indices)
    pos = np.arange(K)
    keys = None
    scratch = np.empty(K, dtype=np.uint64)
    home = np.array(_HOME)  # 0-d: faster ufunc calls
    live, steps = K, 0
    while True:
        table_due = keys is None and live <= fits
        if live <= _LOCKSTEP_MIN_RAYS or table_due or 4 * live <= 3 * len(j):
            ended = e >= home
            status[pos[ended]] = (e[ended] - home) >> 1
            j, e, row, pos = (x[~ended] for x in (j, e, row, pos))
            if live <= _LOCKSTEP_MIN_RAYS:
                return pos, (j << 2) + (e >> 1)
            if table_due:
                keys, row = _row_keys(row, axis), np.arange(0, len(j) * P, P)
        if steps == bound:
            raise DynamicsError(_REPEATED)
        steps += 1
        tmp = scratch[: len(j)]
        j += step[e]
        # the entered site's closed bit, exactly as sample() draws it
        if keys is None:
            h = hash_key(row, cell_a[j], tmp=tmp)
        else:
            h = keys.take(row + j // P)
        hash_key(h, cell_b[j], out=h, tmp=tmp)
        idx = cells[j]
        idx += e
        idx += closed(h, limit)
        e = turn[idx]
        if not steps & 3:  # counted every fourth step: a count costs 2 of the ~23 calls
            live = len(j) - np.count_nonzero(e >= home)


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
