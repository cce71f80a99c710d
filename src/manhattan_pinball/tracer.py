"""Deterministic light dynamics: step map, trajectory tracing, metrics.

The ray state is (site just departed, outgoing direction); the origin ray is
((0, 0), E).  The forward map is a bijection on states, so every trajectory
is either a closed orbit or leaves the extent.  ``step`` and ``step_back``
are the reference dynamics; ``trace`` and ``trace_summary`` share one
table-driven kernel that walks a flat byte copy of the field.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .configuration import Configuration
from .errors import ConfigParseError
from .geometry import UNIT, Direction, mirror_orientation, q_radius, reflect, tilted_radius


class RayState(NamedTuple):
    site: tuple
    dir: Direction


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


_CLOSED, _ESCAPED, _BUDGET, _REPEAT, _ABORTED = 0, 1, 2, 3, 4

_STATUS_NAMES = {_CLOSED: "closed", _ESCAPED: "escaped",
                 _BUDGET: "budget_exceeded", _ABORTED: "aborted"}

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


@lru_cache(maxsize=4)
def _radius_table(M):
    """Q-radius (int16) of every site of extent M; int16 holds the largest
    radius, 2M + 1, of any extent the field budget allows."""
    a = np.arange(-M, M + 1, dtype=np.int16)
    radius = tilted_radius(a[:, None] + a[None, :] - 1, a[:, None] - a[None, :])
    radius.flags.writeable = False
    return radius


def _cells(c: Configuration, abort_at: int | None) -> bytes:
    """The padded code table of ``c``; sites of radius above ``abort_at`` read as _FAR."""
    M = c.extent
    table = np.full((2 * M + 3, 2 * M + 3), _OUT, dtype=np.uint8)
    inner = table[1:-1, 1:-1]
    np.multiply(c.closed, _code_table(M), out=inner)
    if abort_at is not None:
        np.copyto(inner, _FAR, where=_radius_table(M) > abort_at)
    return table.tobytes()


def _trace_kernel(cells: bytes, P: int, s0: int, max_steps: int):
    """Walk from state ``s0`` until closure, escape, abort or ``max_steps`` steps.

    Returns (status, path) with path the visited states, start first.  An
    aborted walk ends with the first site beyond the abort radius, recorded
    with the direction the ray entered it.
    """
    step = (P, 1, -P, -1)
    turn = _TURN
    seen = bytearray(len(cells) << 2)
    seen[s0] = 2  # entering the start state again closes the orbit
    path = array("q", (s0,))
    append = path.append
    i, d = s0 >> 2, s0 & 3
    for _ in range(max_steps):
        j = i + step[d]
        c = cells[j]
        if c >= _OUT:
            if c == _OUT:
                return _ESCAPED, path
            append(4 * j + d)
            return _ABORTED, path
        d = turn[c + d]
        s = 4 * j + d
        if seen[s]:
            return (_CLOSED if seen[s] == 2 else _REPEAT), path
        seen[s] = 1
        append(s)
        i = j
    return _BUDGET, path


def _walk(c: Configuration, start: RayState, max_steps: int | None,
          abort_radius: int):
    """Run the kernel; returns (status, a, b, dir, linf_diameter, containment).

    a, b and dir are int64 arrays over the visited states, start first.
    """
    if not c.in_extent(start.site):
        raise ValueError("start site outside extent")
    if max_steps is None:
        max_steps = default_max_steps(c.extent)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    M = c.extent
    P = 2 * M + 3
    # The walk aborts on first reaching a site farther out than both
    # abort_radius and the start, so a start already outside Q_abort_radius
    # does not abort at once.
    abort_at = max(abort_radius, q_radius(start.site)) if abort_radius >= 0 else None
    a0, b0 = start.site
    s0 = 4 * ((a0 + M + 1) * P + b0 + M + 1) + int(start.dir)
    status, path = _trace_kernel(_cells(c, abort_at), P, s0, max_steps)
    if status == _REPEAT:
        raise AssertionError("non-start state repeated: dynamics not injective")
    s = np.frombuffer(path, dtype=np.int64)
    a, b = np.divmod(s >> 2, P)
    a -= M + 1
    b -= M + 1
    diam = max(np.ptp(a), np.ptp(b))
    radius = tilted_radius(a + b - 1, a - b).max()
    return status, a, b, s & 3, int(diam), int(radius)


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


def trace(c: Configuration, start: RayState = RayState((0, 0), Direction.E),
          max_steps: int | None = None) -> Trajectory:
    """Iterate the step map until closure, escape, or step budget."""
    status, a, b, d, diam, radius = _walk(c, start, max_steps, -1)
    states = np.stack((a, b, d), axis=1).astype(np.int32)
    states.flags.writeable = False
    return Trajectory(
        start=start,
        states=states,
        status=_STATUS_NAMES[status],
        linf_diameter=diam,
        containment=radius,
    )


def trace_summary(c: Configuration, start: RayState = RayState((0, 0), Direction.E),
                  max_steps: int | None = None, abort_radius: int = -1):
    """(status, number of states, linf_diameter, containment) of ``trace``.

    ``abort_radius >= 0`` stops early with status 'aborted' once the ray
    reaches a site outside both Q_abort_radius and the start's own Q_m; used
    by event estimators that only care about closure within Q_n.
    """
    status, a, _, _, diam, radius = _walk(c, start, max_steps, abort_radius)
    return _STATUS_NAMES[status], len(a), diam, radius


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
    if meta["status"] not in _STATUS_NAMES.values():
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
