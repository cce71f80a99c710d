"""Light dynamics: hand-trace oracles, bijectivity, the ``step`` oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manhattan_pinball.configuration import constant, from_closed_sites, sample
from manhattan_pinball.errors import ConfigParseError
from manhattan_pinball.geometry import Direction, q_radius
from manhattan_pinball.tracer import (
    Escape,
    RayState,
    Trajectory,
    default_max_steps,
    dump_trajectory,
    loads_trajectory,
    step,
    step_back,
    trace,
    trace_summary,
)

E, N, W, S = Direction.E, Direction.N, Direction.W, Direction.S


def test_step_hand_cases():
    c = from_closed_sites(5, [(1, 0), (1, -1)])
    # straight through an open site
    assert step(RayState((0, 0), E), from_closed_sites(5, [])) == RayState((1, 0), E)
    # (1, 0) is a NW mirror: east becomes south
    assert step(RayState((0, 0), E), c) == RayState((1, 0), S)
    # (1, -1) is a NE mirror: south becomes west
    assert step(RayState((1, 0), S), c) == RayState((1, -1), W)
    # (0, -1) open in c: continue west... from (1,-1) going W
    assert step(RayState((1, -1), W), c) == RayState((0, -1), W)


def test_step_escape():
    c = constant(2, False)
    with pytest.raises(Escape) as ei:
        step(RayState((2, 0), E), c)
    assert ei.value.state == RayState((2, 0), E)


def test_p1_orbit():
    c = constant(6, True)
    t = trace(c, RayState((0, 0), E))
    assert t.status == "closed"
    assert len(t.states) == 4
    assert t.visited == {(0, 0), (1, 0), (1, -1), (0, -1)}
    assert t.linf_diameter == 1
    assert t.containment == 2


def test_p1_orbit_universality():
    # at p = 1 every orbit is a 4-step loop around one face
    c = constant(8, True)
    for a in range(-4, 5):
        for b in range(-4, 5):
            for d in Direction:
                t = trace(c, RayState((a, b), d))
                assert t.status == "closed" and len(t.states) == 4
                assert t.linf_diameter == 1


def test_p0_escape_straight():
    c = constant(5, False)
    t = trace(c, RayState((0, 0), E))
    assert t.status == "escaped"
    assert [tuple(s) for s in t.states] == [(k, 0, 0) for k in range(6)]


def test_single_mirror_deflection():
    # NW mirror at (3, 0): the eastbound ray turns south and escapes
    c = from_closed_sites(4, [(3, 0)])
    t = trace(c, RayState((0, 0), E))
    assert t.status == "escaped"
    expect = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 3), (3, -1, 3),
              (3, -2, 3), (3, -3, 3), (3, -4, 3)]
    assert [tuple(s) for s in t.states] == expect


def test_manhattan_consistency_along_trajectories():
    # outgoing directions always respect the one-way streets: row b is E for
    # even b and W for odd b; column a is N for even a and S for odd a
    for seed in range(10):
        c = sample(0.5, 10, seed=seed)
        t = trace(c, RayState((0, 0), E))
        for a, b, d in t.states:
            if d in (0, 2):
                assert d == (0 if b % 2 == 0 else 2), (a, b, d)
            else:
                assert d == (1 if a % 2 == 0 else 3), (a, b, d)


def _oracle(c, start, max_steps, abort_radius=-1):
    """Iterate ``step``: (status, states, linf_diameter, containment).

    With ``abort_radius >= 0`` the walk stops, status 'aborted', at the first
    state whose radius exceeds both abort_radius and every radius before it.
    """
    states = [start]
    seen = {start}
    radius = q_radius(start.site)
    status = "budget_exceeded"
    s = start
    for _ in range(max_steps):
        try:
            s = step(s, c)
        except Escape:
            status = "escaped"
            break
        if s == start:
            status = "closed"
            break
        assert s not in seen, "non-start state repeated"
        seen.add(s)
        states.append(s)
        r = q_radius(s.site)
        if r > radius:
            radius = r
            if 0 <= abort_radius < r:
                status = "aborted"
                break
    arr = np.array([[a, b, int(d)] for (a, b), d in states], dtype=np.int32)
    diam = int(max(np.ptp(arr[:, 0]), np.ptp(arr[:, 1])))
    return status, arr, diam, radius


def test_trace_matches_step_oracle():
    # seeded sweep over p, extent, start state, budget and abort radius,
    # including starts outside Q_abort_radius
    rng = random.Random(2024)
    for case in range(150):
        p = (0.0, 1.0)[case] if case < 2 else rng.random()
        M = rng.randint(2, 20)
        c = sample(p, M, seed=case)
        start = RayState((rng.randint(-M, M), rng.randint(-M, M)),
                         Direction(rng.randrange(4)))
        r0 = q_radius(start.site)
        for max_steps in (rng.randint(1, 12), default_max_steps(M)):
            status, states, diam, radius = _oracle(c, start, max_steps)
            t = trace(c, start, max_steps)
            assert t.status == status and t.start == start
            assert t.states.dtype == np.int32
            assert np.array_equal(t.states, states)
            assert (t.linf_diameter, t.containment) == (diam, radius)
            for abort_radius in (-1, r0 - 1, r0, r0 + 1, 2 * M):
                status, states, diam, radius = _oracle(c, start, max_steps, abort_radius)
                got = trace_summary(c, start, max_steps, abort_radius)
                assert got == (status, len(states), diam, radius), (
                    case, start, max_steps, abort_radius)


def test_trace_summary_agrees_with_trace():
    for seed in range(10):
        c = sample(0.55, 10, seed=seed)
        t = trace(c, RayState((0, 0), E))
        status, nstates, diam, radius = trace_summary(c, RayState((0, 0), E))
        assert (status, nstates, diam, radius) == (
            t.status, len(t.states), t.linf_diameter, t.containment)


def test_trace_summary_abort_radius():
    c = constant(6, False)  # ray runs straight east, leaving Q_2 quickly
    status, _, _, radius = trace_summary(c, RayState((0, 0), E), abort_radius=2)
    assert status == "aborted"
    assert radius == 3


def test_budget_exhaustion():
    c = constant(6, False)
    t = trace(c, RayState((0, 0), E), max_steps=3)
    assert t.status == "budget_exceeded"
    assert len(t.states) == 4  # start plus three steps


@settings(max_examples=100, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3), st.integers(0, 50))
def test_step_back_inverts_step(a, b, d, seed):
    c = sample(0.5, 6, seed=seed)
    s = RayState((a, b), Direction(d))
    try:
        nxt = step(s, c)
    except Escape:
        return
    assert step_back(nxt, c) == s


def test_start_outside_extent_rejected():
    for f in (trace, trace_summary):
        with pytest.raises(ValueError):
            f(constant(3, False), RayState((5, 0), E))


def test_dump_roundtrip():
    c = sample(0.5, 8, seed=4)
    t = trace(c, RayState((0, 0), E))
    t2 = loads_trajectory(dump_trajectory(t))
    assert t2.status == t.status
    assert np.array_equal(t2.states, t.states)
    assert (t2.linf_diameter, t2.containment) == (t.linf_diameter, t.containment)


@pytest.mark.parametrize("line,message", [
    ("0 0 Q", "unknown direction"),
    ("0 0", "expected 'a b direction'"),
    ("0 0 E x", "expected 'a b direction'"),
    ("0 x E", "non-integer"),
    ("0 99999999999 E", "out of range"),
])
def test_loader_state_errors_carry_line_numbers(line, message):
    lines = dump_trajectory(trace(constant(4, True))).splitlines()
    lines[6] = line
    with pytest.raises(ConfigParseError, match=message) as ei:
        loads_trajectory("\n".join(lines))
    assert ei.value.line == 7


_HEADER = ("manhattan-pinball trajectory v1", "status closed", "states 2",
           "linf_diameter 1", "containment 2")
_TOKENS = st.sampled_from(["0", "1", "-1", "2", "E", "N", "W", "S", "Q", "x", "1.5",
                           "99999999999", "status", "states", "closed", "escaped",
                           "aborted", "linf_diameter", "containment", "", "\t"])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=8).map(
        lambda rows: "\n".join(("manhattan-pinball trajectory v1", *rows))),
    st.tuples(st.integers(0, 7), st.lists(_TOKENS, max_size=4).map(" ".join)).map(
        lambda edit: "\n".join(_HEADER[:edit[0]] + (edit[1],) + _HEADER[edit[0] + 1:]
                               + ("0 0 E", "1 0 S"))),
))
def test_loader_fuzz_returns_trajectory_or_parse_error(text):
    try:
        t = loads_trajectory(text)
    except ConfigParseError:
        return
    assert isinstance(t, Trajectory) and len(t.states) >= 1
