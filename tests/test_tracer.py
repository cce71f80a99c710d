"""Light dynamics: hand-trace oracles, bijectivity, the ``step`` oracle."""

import contextlib
import hashlib
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import manhattan_pinball
from manhattan_pinball import configuration, enhancement, events, geometry, montecarlo, tracer
from manhattan_pinball.cli import main
from manhattan_pinball.configuration import Configuration, constant, from_closed_sites, sample
from manhattan_pinball.errors import ConfigParseError, DynamicsError, ResourceLimitError
from manhattan_pinball.geometry import UNIT, Direction, mirror_orientation, q_radius, reflect
from manhattan_pinball.tracer import (
    LOCKSTEP_RAY_BYTES,
    STATUS_NAMES,
    RayState,
    Trajectory,
    dump_trajectory,
    loads_trajectory,
    trace,
    trace_lockstep,
    trace_summary,
)

E, N, W, S = Direction.E, Direction.N, Direction.W, Direction.S


class Escape(Exception):
    """Raised by ``step`` when the next site lies outside the extent; carries
    the exiting state (last in-extent state) in ``state``."""

    def __init__(self, state):
        super().__init__(f"ray escapes from {state}")
        self.state = state


def step(s, c):
    """One move of the light ray: the reference dynamics the walks are checked against."""
    da, db = UNIT[s.dir]
    na, nb = s.site[0] + da, s.site[1] + db
    if not c.in_extent((na, nb)):
        raise Escape(s)
    d = reflect(s.dir, mirror_orientation((na, nb))) if c.closed_at((na, nb)) else s.dir
    return RayState((na, nb), d)


def step_back(s, c):
    """Inverse of ``step`` (the dynamics is a bijection on states)."""
    d = reflect(s.dir, mirror_orientation(s.site)) if c.closed_at(s.site) else s.dir
    da, db = UNIT[d]
    pa, pb = s.site[0] - da, s.site[1] - db
    if not c.in_extent((pa, pb)):
        raise Escape(s)
    return RayState((pa, pb), d)


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


def _oracle(c, start, abort_radius=-1):
    """Iterate ``step``: (status, states, linf_diameter, containment).

    With ``abort_radius >= 0`` the walk stops, status 'aborted', at the first
    state whose radius exceeds both abort_radius and every radius before it.
    """
    states = [start]
    seen = {start}
    radius = q_radius(start.site)
    s = start
    while True:
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
    # seeded sweep over p, extent, start state and abort radius, including
    # starts outside Q_abort_radius
    rng = random.Random(2024)
    for case in range(150):
        p = (0.0, 1.0)[case] if case < 2 else rng.random()
        M = rng.randint(2, 20)
        c = sample(p, M, seed=case)
        start = RayState((rng.randint(-M, M), rng.randint(-M, M)),
                         Direction(rng.randrange(4)))
        r0 = q_radius(start.site)
        status, states, diam, radius = _oracle(c, start)
        t = trace(c, start)
        assert t.status == status and t.start == start
        assert t.states.dtype == np.int32
        assert np.array_equal(t.states, states)
        assert (t.linf_diameter, t.containment) == (diam, radius)
        for abort_radius in (-1, r0 - 1, r0, r0 + 1, 2 * M):
            status, states, diam, radius = _oracle(c, start, abort_radius)
            got = trace_summary(c, start, abort_radius=abort_radius)
            assert got == (status, len(states), diam, radius), (case, start, abort_radius)


def _summary_statuses(p, M, seed, indices, abort_radius):
    return [trace_summary(sample(p, M, seed, i), abort_radius=abort_radius)[0]
            for i in indices]


def _lockstep_statuses(p, M, seed, indices, abort_radius):
    return [STATUS_NAMES[code] for code in trace_lockstep(p, M, seed, indices, abort_radius)]


# 0: every ray is walked in lockstep; 8: the last 8 live rays of a walk finish
# on their own fields
MIN_RAYS = pytest.mark.parametrize("min_rays", [0, 8])


@MIN_RAYS
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.55, 0.6, 0.7, 1.0])
def test_lockstep_matches_trace_summary_at_closure_extents(p, min_rays, monkeypatch):
    # the estimator's walk: extent n + 2, abort radius n
    monkeypatch.setattr(tracer, "_LOCKSTEP_MIN_RAYS", min_rays)
    for n in (1, 2, 3, 8, 16, 64):
        for seed in (3, 1001, -8):
            indices = range(seed % 7, seed % 7 + 30)
            assert (_lockstep_statuses(p, n + 2, seed, indices, abort_radius=n)
                    == _summary_statuses(p, n + 2, seed, indices, abort_radius=n)), (p, n, seed)


@MIN_RAYS
def test_lockstep_matches_trace_summary_on_radii(min_rays, monkeypatch):
    # seeded sweep over p, extent and abort radius (none, inside and beyond
    # the start's radius 1), so every status occurs
    monkeypatch.setattr(tracer, "_LOCKSTEP_MIN_RAYS", min_rays)
    rng = random.Random(77)
    seen = set()
    for case in range(60):
        p = rng.choice((0.0, 1.0, rng.random()))
        M = rng.randint(1, 12)
        abort_radius = rng.choice((-1, 0, 1, 2, M, 2 * M))
        indices = [rng.randrange(-50, 10**6) for _ in range(rng.randint(1, 30))]
        want = _summary_statuses(p, M, case, indices, abort_radius)
        assert _lockstep_statuses(p, M, case, indices, abort_radius) == want, case
        seen.update(want)
    assert seen == set(STATUS_NAMES)


@pytest.mark.parametrize("min_rays", [0, 12])
def test_lockstep_matches_trace_summary_on_a_field_of_two_hash_blocks(min_rays, monkeypatch):
    # M = 100 is hashed in two blocks of rows; with 12 of 12 rays every ray
    # finishes on the tail's fields, with 0 every ray walks in lockstep
    monkeypatch.setattr(tracer, "_LOCKSTEP_MIN_RAYS", min_rays)
    M, indices = 100, range(3, 15)
    for p in (0.2, 0.4, 0.5, 0.75):
        for abort_radius in (-1, 0, 8, 20, 60, 99, M, 2 * M + 1):
            assert (_lockstep_statuses(p, M, 17, indices, abort_radius)
                    == _summary_statuses(p, M, 17, indices, abort_radius)), (p, abort_radius)


# The row-key table's cap: no table, one built mid-walk for the rays still
# live (about half of K), and one built before the first step
ROW_KEYS = ("none", "mid", "all")


def _cap_row_keys(monkeypatch, row_keys, M, K):
    """Set the row-key cap of extent M for walks of K rays; returns the ray
    counts of the tables built, in order."""
    P = 2 * M + 3
    cap = {"none": 0, "mid": 8 * (P * (K // 2) + tracer._ROW_KEY_BLOCK), "all": 1 << 40}
    monkeypatch.setattr(tracer, "_ROW_KEY_BYTES", cap[row_keys])
    built, row_keys_of = [], tracer._row_keys

    def spy(base, axis):
        built.append(len(base))
        return row_keys_of(base, axis)
    monkeypatch.setattr(tracer, "_row_keys", spy)
    return built


@pytest.mark.parametrize("row_keys", ROW_KEYS)
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.6, 1.0])
def test_lockstep_paths_match_trace_summary(p, row_keys, monkeypatch):
    # at p = 0 and 1 every ray ends on the same step, so the parked rays'
    # statuses are all written by the last compaction
    K = 40
    for n in (2, 8, 64):
        built = _cap_row_keys(monkeypatch, row_keys, n + 2, K)
        for min_rays in (0, 8):
            monkeypatch.setattr(tracer, "_LOCKSTEP_MIN_RAYS", min_rays)
            for seed in (3, -8):
                indices = range(seed % 7, seed % 7 + K)
                assert (_lockstep_statuses(p, n + 2, seed, indices, abort_radius=n)
                        == _summary_statuses(p, n + 2, seed, indices, abort_radius=n)), (n, seed)
        if row_keys == "none":
            assert not built
        elif row_keys == "all":
            assert built == [K] * 4
        elif 0 < p < 1:
            assert 0 < min(built) < K and max(built) <= K // 2 + 1, built


def test_lockstep_guards():
    assert len(trace_lockstep(0.5, 4, 1, [], 2)) == 0
    for p in (-0.1, 1.5):
        with pytest.raises(ValueError, match="p must lie"):
            trace_lockstep(p, 4, 1, range(3), 2)
        with pytest.raises(ValueError, match="p must lie"):
            trace_lockstep(p, 4, 1, range(100), 2)
    with pytest.raises(ResourceLimitError):
        trace_lockstep(0.5, 10**5, 1, range(3), 2)


@MIN_RAYS
def test_lockstep_statuses_do_not_depend_on_the_chunk(min_rays, monkeypatch):
    # chunks of 1 ray, of 33 and of the budget's 3,072 on the same 3,100
    # indices, so each size leaves a short last chunk
    monkeypatch.setattr(tracer, "_LOCKSTEP_MIN_RAYS", min_rays)
    assert tracer._LOCKSTEP_BYTES // LOCKSTEP_RAY_BYTES == 3072
    indices = range(5, 3105)
    statuses = []
    for rays in (1, 33, 3072):
        monkeypatch.setattr(tracer, "_LOCKSTEP_BYTES", rays * LOCKSTEP_RAY_BYTES)
        statuses.append(trace_lockstep(0.5, 4, 7, indices, abort_radius=2))
    assert 0 < np.count_nonzero(statuses[0] == tracer.CLOSED) < len(indices)
    assert all(np.array_equal(statuses[0], x) for x in statuses[1:])


def test_lockstep_memory_per_ray_within_declared_bytes(monkeypatch):
    monkeypatch.setattr(tracer, "_LOCKSTEP_MIN_RAYS", 0)  # no per-field tail
    peaks = []
    for K in (1000, 3000):
        tracemalloc.start()
        try:
            trace_lockstep(0.5, 66, 1001, range(K), abort_radius=64)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 0 < (peaks[1] - peaks[0]) / 2000 <= LOCKSTEP_RAY_BYTES


def test_row_key_table_adds_at_most_its_cap_to_a_walks_peak(monkeypatch):
    # the table is hashed a block of rays at a time: no full-size temporary
    monkeypatch.setattr(tracer, "_LOCKSTEP_MIN_RAYS", 0)
    caps = (0, 1 << 17, tracer._ROW_KEY_BYTES)
    peaks = []
    for cap in caps:
        monkeypatch.setattr(tracer, "_ROW_KEY_BYTES", cap)
        tracemalloc.start()
        try:
            trace_lockstep(0.5, 66, 1001, range(1000), abort_radius=64)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    for cap, peak in zip(caps[1:], peaks[1:]):
        assert 0 < peak - peaks[0] <= cap, (cap, peak - peaks[0])


# NE mirrors send a ray entering southward on south, as they do one entering
# westward: two states step to the same state
_NON_INJECTIVE_TURN = (0, 1, 2, 3, 1, 0, 3, 3, 3, 2, 1, 0)


@contextlib.contextmanager
def _non_injective_turn(monkeypatch):
    """_TURN patched to _NON_INJECTIVE_TURN.  The cached turn tables are built
    from _TURN, so they are dropped after patching and again on the way out,
    lest a non-injective table reach later walks."""
    with monkeypatch.context() as patched:
        patched.setattr(tracer, "_TURN", _NON_INJECTIVE_TURN)
        tracer._turn_table.cache_clear()
        try:
            yield
        finally:
            tracer._turn_table.cache_clear()


@pytest.fixture
def non_injective_turn(monkeypatch):
    with _non_injective_turn(monkeypatch):
        yield


def test_non_injective_dynamics_raise_on_the_same_samples(non_injective_turn, monkeypatch, capsys):
    p, n, seed = 0.5, 8, 5

    def raises(fn, *args, **kwargs):
        try:
            fn(*args, **kwargs)
        except DynamicsError:
            return True
        return False

    scalar = [raises(trace_summary, sample(p, n + 2, seed, i), abort_radius=n)
              for i in range(60)]
    assert 0 < sum(scalar) < 60
    sound = [i for i in range(60) if not scalar[i]]
    first = scalar.index(True)
    args = ["estimate", "--event", "closure", "--p", str(p), "--n", str(n), "--seed", str(seed)]
    for row_keys in ROW_KEYS:
        for min_rays in (0, 4, tracer._LOCKSTEP_MIN_RAYS):
            with monkeypatch.context() as patched:
                _cap_row_keys(patched, row_keys, n + 2, 60)
                patched.setattr(tracer, "_LOCKSTEP_MIN_RAYS", min_rays)
                assert [raises(trace_lockstep, p, n + 2, seed, [i], abort_radius=n)
                        for i in range(60)] == scalar
                assert raises(trace_lockstep, p, n + 2, seed, range(60), abort_radius=n)
                assert (_lockstep_statuses(p, n + 2, seed, sound, abort_radius=n)
                        == _summary_statuses(p, n + 2, seed, sound, abort_radius=n))
                if first:
                    assert main(args + ["--trials", str(first)]) == 0
                assert main(args + ["--trials", str(first + 1)]) == 3
                assert main(args + ["--trials", "60"]) == 3
    assert "internal error: non-start state repeated" in capsys.readouterr().err


_WALKS = """
import hashlib
from manhattan_pinball.configuration import sample
from manhattan_pinball.tracer import dump_trajectory, trace
text = "".join(dump_trajectory(trace(sample(0.5, 10, 5, i))) for i in range(40))
print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_walks_after_a_raise_equal_a_fresh_interpreters(monkeypatch):
    # a walk that raises leaves nothing behind that later walks read
    fields = [sample(0.5, 10, 5, i) for i in range(40)]
    with _non_injective_turn(monkeypatch):
        with pytest.raises(DynamicsError):
            for c in fields:
                trace(c)
    text = "".join(dump_trajectory(trace(c)) for c in fields)
    src = str(Path(manhattan_pinball.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-c", _WALKS], env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, timeout=120, check=True)
    assert hashlib.sha256(text.encode()).hexdigest() == fresh.stdout.strip()


def test_walks_in_threads_equal_the_serial_walks():
    fields = [sample(0.5, 10, 5, i) for i in range(40)]
    want = [trace_summary(c) for c in fields]
    results = {}

    def walk(k):
        results[k] = [trace_summary(c) for c in fields for _ in range(5)][::5]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads in the middle of walks
    try:
        threads = [threading.Thread(target=walk, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[k] == want for k in range(len(threads)))


def test_walks_raise_once_live_past_the_extents_ray_states(non_injective_turn, monkeypatch):
    # an injective walk ends within the extent's 4W^2 ray states, so one still
    # live after 4W^2 steps raises, whether it walks alone or in lockstep
    monkeypatch.setattr(tracer, "_LOCKSTEP_MIN_RAYS", 0)
    M, seed = 10, 5
    for i in range(60):
        c = sample(0.5, M, seed, i)
        try:
            trace_summary(c)
        except DynamicsError:
            break
    else:
        pytest.fail("no walk raised")
    with pytest.raises(DynamicsError):
        trace(c)
    with pytest.raises(DynamicsError):
        trace_lockstep(0.5, M, seed, [i], -1)


def test_walk_retains_no_buffer_per_state():
    # after a walk only its extent's cached codes (2 B/site) remain; a mask
    # or any buffer over the 4W^2 ray states would hold 4 B/site more
    trace_summary(sample(0.5, 4, 1))  # first-use imports are not retained state
    for M in (40, 100):
        c = sample(0.5, M, 1)
        for module in (configuration, enhancement, events, geometry, montecarlo, tracer):
            for f in vars(module).values():
                if hasattr(f, "cache_clear"):
                    f.cache_clear()
        tracemalloc.start()
        try:
            trace_summary(c)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        per_site = retained / (2 * M + 1) ** 2
        assert per_site <= 3, (M, per_site)


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
    with pytest.raises(TypeError):  # the abort radius is keyword-only
        trace_summary(c, RayState((0, 0), E), 2)


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


# starts of the walks below; each lies in Q_3, inside every abort radius the
# test uses, so trace_summary aborts where they do
_TABLE_STARTS = (RayState((0, 0), Direction.E), RayState((1, 2), Direction.S),
                 RayState((-2, 1), Direction.W), RayState((0, -1), Direction.N))


def test_table_walks_match_trace_summary():
    # one table refilled field after field, and mirrors added to it in place;
    # a walk resumed from a state half way along its path ends as it would
    rng = np.random.default_rng(4)
    for M, abort_at in ((6, 3), (20, 12), (20, 60)):
        walks = tracer.TableWalks(M, abort_at)
        for i in range(40):
            c = sample((0.3, 0.5, 0.7)[i % 3], M, seed=5, stream_index=i)
            walks.fill(c.closed)
            for field in (c.closed, None):
                if field is None:  # close some open sites on and off the orbit
                    opens = np.flatnonzero(~c.closed)
                    extra = np.unique(np.concatenate([
                        rng.choice(opens, 5),
                        np.intersect1d(opens, sites_on(path, M))[: 2 * (i % 2)]]))
                    walks.close(extra)
                    field = c.closed.copy()
                    field.ravel()[extra] = True
                for start in reversed(_TABLE_STARTS):  # the origin's path last
                    status, path = walks.walk(start)
                    want = trace_summary(Configuration(extent=M, closed=field), start,
                                         abort_radius=abort_at)
                    got = (STATUS_NAMES[status], len(path), walks.containment(path))
                    assert got == (want[0], want[1], want[3]), (M, abort_at, i, start)
                    a, b = walks.sites(path[:1])
                    assert ((int(a[0]), int(b[0])), path[0] & 3) == start
                    k = (len(path) - 1) // 2  # steps before the resumed walk's start
                    resumed, tail = walks.walk(start, at=path[k])
                    assert (resumed, path[:k] + tail) == (status, path), (M, i, start)


def sites_on(path, M):
    """Flat field indices of the sites of a TableWalks path (extent M)."""
    a, b = np.divmod(np.frombuffer(path, dtype=np.int64) >> 2, 2 * M + 3)
    return (a - 1) * (2 * M + 1) + b - 1
