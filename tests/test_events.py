"""Event detectors against independent brute-force graph oracles.

The oracles are built on networkx from first principles: vertices are the
integer index pairs (i, j) of tilted vertices, closed edges come straight
from edge_for_site, and events are decided by path existence or cycle-basis
parity, never by the detectors' own machinery.
"""

import hashlib
import importlib.machinery
import importlib.util
import itertools
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import manhattan_pinball
from manhattan_pinball import events
from manhattan_pinball.configuration import (Configuration, constant, dumps, from_closed_sites,
                                             sample)
from manhattan_pinball.enhancement import (
    _window_sides,
    check_essential,
    default_pattern,
    dumps_pattern,
    enhance_stack,
    search_patterns,
)
from manhattan_pinball.events import (
    EVENTS,
    _PLANE,
    EventResult,
    _circuit_static,
    _cycle_static,
    _label,
    _radial_static,
    _rect_static,
    circuit4_holds,
    circuit_holds,
    closure_holds,
    dual_crosscheck,
    dump_witness,
    edge_raster,
    loads_witness,
    radial_closed_path,
    radial_holds,
    rect_crossing,
    rect_holds,
    sides_joined,
    surrounding_circuit_4rect,
    surrounding_circuit_exact,
    walk_winding,
)
from manhattan_pinball.errors import ConfigParseError
from manhattan_pinball.geometry import edge_for_site
from manhattan_pinball.tracer import trace_summary


def closed_graph(c):
    g = nx.Graph()
    M = c.extent
    for a in range(-M, M + 1):
        for b in range(-M, M + 1):
            if not c.closed_at((a, b)):
                continue
            (x1, y1), (x2, y2) = edge_for_site((a, b))
            g.add_edge((int(x1 - 0.5), int(y1 - 0.5)), (int(x2 - 0.5), int(y2 - 0.5)))
    return g


def brute_radial(c, n):
    g = closed_graph(c)
    if (0, 0) not in g:
        return False
    comp = nx.node_connected_component(g, (0, 0))
    return any(max(abs(i + j), abs(i - j)) > n for i, j in comp)


def in_rect(kind, n, x, y):
    """The rectangles T_n and T1..T4, from the paper's inequalities on a real point."""
    u, v = x + y - 1, x - y
    if kind == "T":
        return 1 <= u <= n and abs(v) <= 2 * n
    if kind == "T1":
        return n + 1 <= u <= 2 * n and abs(v) <= 2 * n
    if kind == "T2":
        return -2 * n <= u <= -n - 1 and abs(v) <= 2 * n
    if kind == "T3":
        return n + 1 <= v <= 2 * n and abs(u) <= 2 * n
    return -2 * n <= v <= -n - 1 and abs(u) <= 2 * n


def brute_rect(c, n, kind):
    g = closed_graph(c)
    keep = [v for v in g if in_rect(kind, n, v[0] + 0.5, v[1] + 0.5)]
    sub = g.subgraph(keep)
    long_coord = (lambda v: v[0] - v[1]) if kind in ("T", "T1", "T2") else (
        lambda v: v[0] + v[1])
    side_a = [v for v in sub if long_coord(v) == -2 * n]
    side_b = {v for v in sub if long_coord(v) == 2 * n}
    for s in side_a:
        if side_b & nx.node_connected_component(sub, s):
            return True
    return False


def _cut_parity(cycle):
    # crossings of the ray {(x, 1): x > 1/2}; the crossed edge's site is the
    # midpoint of the two vertices
    par = 0
    closed = list(cycle) + [cycle[0]]
    for (i1, j1), (i2, j2) in zip(closed, closed[1:]):
        a = (i1 + i2 + 1) // 2
        b = (j1 + j2 + 1) // 2
        if b == 1 and a >= 1:
            par ^= 1
    return par


def brute_circuit(c, n):
    # restrict to the annulus, then use linearity of cut parity on the cycle
    # space: a surrounding circuit exists iff some basis cycle has odd parity
    g = closed_graph(c)
    keep = [
        v for v in g
        if max(abs(v[0] + v[1]), abs(v[0] - v[1])) <= 2 * n
        and max(abs(v[0] + v[1]), abs(v[0] - v[1])) > n
    ]
    sub = g.subgraph(keep)
    return any(_cut_parity(cyc) for cyc in nx.cycle_basis(nx.Graph(sub)))


def random_tiny_configs(count, seed0=0):
    cfgs = []
    i = 0
    while len(cfgs) < count:
        n = 2 + (i % 2)
        p = (0.25, 0.4, 0.5, 0.6, 0.75)[i % 5]
        cfgs.append((sample(p, 2 * n + 2, seed=1000 + i), n))
        i += 1
    return cfgs


def test_detectors_match_brute_oracles():
    extremes = [(sample(p, 2 * n + 2, seed=1), n) for p in (0.0, 1.0) for n in (2, 3)]
    for c, n in random_tiny_configs(120) + extremes:
        assert radial_closed_path(c, n).holds == brute_radial(c, n)
        for kind in ("T", "T1", "T2", "T3", "T4"):
            assert rect_crossing(c, n, kind).holds == brute_rect(c, n, kind), (
                n, kind, c.stream_index)
        exact = surrounding_circuit_exact(c, n).holds
        assert exact == brute_circuit(c, n), (n, c.seed)
        assert exact == dual_crosscheck(c, n)
        if surrounding_circuit_4rect(c, n).holds:
            assert exact


def brute_window(c):
    """The window crossing of the enhancement checks: a closed path from a
    vertex with i <= 1 - M to one with i >= M - 1."""
    g = closed_graph(c)
    M = c.extent
    for s in (v for v in g if v[0] <= 1 - M):
        if any(v[0] >= M - 1 for v in nx.node_connected_component(g, s)):
            return True
    return False


@pytest.mark.parametrize("K", [1, 2, 7])
def test_stacked_detectors_match_per_sample_oracles(K):
    # each field of a stack is decided as if it were alone: the stacked
    # answers equal the per-sample oracles for every p in 0, 0.1, ..., 1,
    # and permuting the stack permutes the answers
    rng = np.random.default_rng(K)
    seen = set()
    for t, (p, n) in enumerate(itertools.product(np.linspace(0, 1, 11), (2, 3))):
        cfgs = [sample(p, 2 * n + 2, seed=40 + K, stream_index=K * t + k) for k in range(K)]
        closed = np.stack([c.closed for c in cfgs])
        perm = rng.permutation(K)
        answers = {
            "radial": (lambda f: radial_holds(f, n), [brute_radial(c, n) for c in cfgs]),
            "circuit": (lambda f: circuit_holds(f, n), [brute_circuit(c, n) for c in cfgs]),
            "dual": (lambda f: circuit_holds(f, n), [dual_crosscheck(c, n) for c in cfgs]),
            "circuit4": (lambda f: circuit4_holds(f, n),
                         [all(brute_rect(c, n, k) for k in ("T1", "T2", "T3", "T4"))
                          for c in cfgs]),
            "window": (lambda f: sides_joined(f, *_window_sides(f.shape[-1] // 2)),
                       [brute_window(c) for c in cfgs]),
        }
        for kind in ("T", "T1", "T2", "T3", "T4"):
            answers[kind] = (lambda f, kind=kind: rect_holds(f, n, kind),
                             [brute_rect(c, n, kind) for c in cfgs])
        for name, (holds, oracle) in answers.items():
            got = holds(closed)
            assert got.dtype == bool and got.tolist() == oracle, (name, p, n)
            assert holds(closed[perm]).tolist() == got[perm].tolist(), (name, p, n)
            seen.update((name, x) for x in oracle)
    assert len(seen) == 2 * len(answers)  # both answers of every detector are exercised


def test_closure_holds_on_stacks_matches_per_field_trace_summary():
    # one walk table serves a stack: each field must be walked on its own bits
    g = default_pattern()
    seen = set()
    for n in (1, 2, 8, 64):
        M = n + 2
        for p in (0.0, 0.5, 1.0):
            plain = np.stack([sample(p, M, seed=17, stream_index=i).closed for i in range(8)])
            for closed in (plain, enhance_stack(plain, g)):
                oracle = [trace_summary(Configuration(extent=M, closed=f), abort_radius=n)[0]
                          == "closed" for f in closed]
                assert closure_holds(closed, n).tolist() == oracle, (n, p)
                seen.add(tuple(oracle))
    assert any(len(set(oracle)) == 2 for oracle in seen)  # a stack with both answers


def test_circuit_detectors_agree_at_verify_scale():
    # the dual image and the primal odd-cycle test at the extent verify uses
    n, M = 128, 267
    cfgs = [sample(p, M, seed=11, stream_index=i) for p in (0.45, 0.55) for i in range(2)]
    got = circuit_holds(np.stack([c.closed for c in cfgs]), n).tolist()
    assert got == [dual_crosscheck(c, n) for c in cfgs]
    assert set(got) == {False, True}


def whole_image_circuit(closed, n):
    """``circuit_holds`` on the whole dual image with center face (-1, 1),
    the interior of Q_{n-3} left on."""
    raster, _, ring = _circuit_static(closed.shape[-1] // 2, n)
    r = 2 * n + 1
    U, V = np.ogrid[-r : r + 1, -r : r + 1]
    whole = raster._replace(base=(U % 2 == 1) | (V % 2 == 1))
    labels, _ = _label(~closed, whole)
    return (labels[:, ring] != labels[:, [whole.pixel(-1, 1)]]).all(axis=1)


def test_circuit_image_without_its_interior_decides_as_the_whole_image():
    seen = set()
    for n in (2, 3, 4, 5, 6, 7, 9, 12, 17, 24):
        raster, center, _ = _circuit_static(2 * n + 2, n)
        assert raster.base.ravel()[center]
        if n > 4:  # the center (-1, 1) lies in the interior, which is off
            assert not raster.base.ravel()[raster.pixel(-1, 1)]
        for p in (0.4, 0.5, 0.55, 0.6, 0.7):
            cfgs = [sample(p, 2 * n + 2, seed=61, stream_index=i) for i in range(6)]
            closed = np.stack([c.closed for c in cfgs])
            got = circuit_holds(closed, n).tolist()
            assert got == whole_image_circuit(closed, n).tolist(), (n, p)
            assert got == [dual_crosscheck(c, n) for c in cfgs], (n, p)
            seen.update((n > 4, x) for x in got)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("event", sorted(EVENTS))
def test_event_reads_cover_every_site_the_detector_sees(event):
    # refilling every site outside Event.reads leaves each answer as it was,
    # which is what lets a paired comparison skip unchanged samples
    ev = EVENTS[event]
    rng = np.random.default_rng(5)
    for n in (2, 3):
        M = ev.min_extent(n) + 3
        reads = ev.reads(M, n)
        assert np.all(np.diff(reads) > 0)  # each site once, sorted
        outside = np.ones((2 * M + 1) ** 2, dtype=bool)
        outside[reads] = False
        assert outside.any()
        closed = np.stack([sample(p, M, seed=9, stream_index=i).closed
                           for i, p in enumerate((0.3, 0.5, 0.6, 0.75, 0.9))])
        expected = ev.holds(closed, n).tolist()
        for fill in (False, True, None):  # all open, all closed, random
            refilled = closed.reshape(len(closed), -1).copy()
            refilled[:, outside] = (fill if fill is not None else
                                    rng.random((len(closed), int(outside.sum()))) < 0.5)
            assert ev.holds(refilled.reshape(closed.shape), n).tolist() == expected, (
                event, n, fill)


@pytest.mark.parametrize("K", [1, 3, 9])
def test_label_kernel_matches_public_ndimage_label(K):
    # _label calls scipy's labelling kernel without its public wrapper, which
    # is the oracle here for the labels and the count on every cached raster
    from scipy import ndimage

    n, M = 3, 8
    W = 2 * M + 1
    rasters = [_radial_static(M, n)[0], *(_rect_static(M, n, kind)[0] for kind in
                                          ("T", "T1", "T2", "T3", "T4")),
               _circuit_static(M, n)[0], _cycle_static(M, n)[0],
               edge_raster(M, np.zeros(W * W, dtype=bool))]  # an image with no foreground
    rng = np.random.default_rng(K)
    counts = []
    for raster in rasters:
        bits = rng.random((K, W, W)) < rng.random((K, 1, 1))
        image = np.stack([raster.base] * K)
        for pixels, field in zip(image.reshape(K, -1), bits.reshape(K, -1)):
            pixels[raster.pixels] = field[raster.sites]
        expected, count = ndimage.label(image, _PLANE)
        labels, got = _label(bits, raster)
        assert got == count and np.array_equal(labels, expected.reshape(K, -1))
        counts.append(count)
    assert counts[-1] == 0 and max(counts) > K


def modules_after(code, then=""):
    """The names in sys.modules of a fresh interpreter, with the package under
    test on its path, once ``code`` has run there; ``then`` runs next in the
    same interpreter and must not fail.  Neither may print."""
    src = str(Path(manhattan_pinball.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint(*sys.modules)\n{then}"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_package_import_leaves_scipy_sparse_out():
    # loading scipy.sparse costs set-up time and memory in every fresh
    # interpreter and worker
    assert not {m for m in modules_after("import manhattan_pinball")
                if m.startswith("scipy.sparse")}


def test_closure_runs_leave_scipy_out():
    # closure walks the ray and labels no image; importing scipy would
    # more than double its set-up time in every fresh interpreter and worker
    loaded = modules_after(
        "from manhattan_pinball.configuration import sample\n"
        "from manhattan_pinball.enhancement import default_pattern\n"
        "from manhattan_pinball.montecarlo import estimate_event\n"
        "from manhattan_pinball.tracer import trace\n"
        "estimate_event('closure', 0.5, 8, 50, 1)\n"
        "estimate_event('closure', 0.5, 8, 5, 1, pattern=default_pattern())\n"
        "trace(sample(0.5, 10, 1))")
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_single_worker_runs_leave_the_process_pool_out():
    # a run in one process starts no pool, and importing one would load
    # multiprocessing and logging into every fresh interpreter
    pool = {"concurrent.futures.process", "multiprocessing"}
    run = ("from manhattan_pinball.enhancement import default_pattern\n"
           "from manhattan_pinball.montecarlo import compare_enhanced, estimate_event, verify_theorem\n"
           "estimate_event('closure', 0.5, 8, 50, 1, workers={w})\n"
           "estimate_event('Aprime', 0.55, 3, 4, 1, workers={w})\n"
           "compare_enhanced(0.55, 3, 4, 1, default_pattern(), workers={w})\n"
           "verify_theorem(0.55, 101, 1, 1, default_pattern(), workers={w})")
    assert not pool & modules_after(run.format(w=1))
    assert pool <= modules_after(run.format(w=2))


def test_graph_event_runs_leave_scipy_ndimage_out():
    # the labelling kernel is loaded from its extension file: the package
    # scipy.ndimage and its array-API imports would more than double the
    # set-up of a graph run.  A later import of scipy.ndimage takes the same
    # kernel module, so labels do not change.
    loaded = modules_after(
        "from manhattan_pinball.enhancement import default_pattern\n"
        "from manhattan_pinball.montecarlo import compare_enhanced, estimate_event, verify_theorem\n"
        "for event in ('A', 'Aprime', 'Acirc', 'Acirc4'):\n"
        "    for pattern in (None, default_pattern()):\n"
        "        estimate_event(event, 0.55, 3, 4, 1, pattern=pattern)\n"
        "compare_enhanced(0.55, 3, 4, 1, default_pattern())\n"
        "verify_theorem(0.55, 101, 1, 1, default_pattern())",
        then="import numpy as np\n"
        "from manhattan_pinball.configuration import sample\n"
        "from manhattan_pinball.events import _circuit_static, _label\n"
        "closed, raster = ~sample(0.55, 8, 1).closed[np.newaxis], _circuit_static(8, 3)[0]\n"
        "labels, count = _label(closed, raster)\n"
        "kernel = sys.modules['scipy.ndimage._ni_label']\n"
        "import scipy.ndimage\n"
        "assert scipy.ndimage._measurements._ni_label is kernel\n"
        "again, count_again = _label(closed, raster)\n"
        "assert count_again == count and np.array_equal(again, labels)")
    assert "scipy.ndimage._ni_label" in loaded
    assert "scipy.ndimage" not in loaded


def test_label_kernel_loads_once_while_another_thread_asks(monkeypatch):
    # the kernel's module is registered before it has run: a thread asking
    # meanwhile waits for the loaded kernel instead of taking a module that
    # has no _label yet
    name = "scipy.ndimage._ni_label"
    entered, release, kernel = threading.Event(), threading.Event(), object()

    class SlowLoader:
        def create_module(self, spec):
            return None

        def exec_module(self, module):
            entered.set()
            release.wait(10)
            module._label = kernel

    spec = importlib.machinery.ModuleSpec(name, SlowLoader())
    finder = types.SimpleNamespace(find_spec=lambda name, path: spec)
    monkeypatch.setattr(events, "importlib", types.SimpleNamespace(
        machinery=types.SimpleNamespace(PathFinder=finder), util=importlib.util))
    monkeypatch.delitem(sys.modules, name, raising=False)
    events._label_kernel.cache_clear()
    got = {}

    def ask(who):
        try:
            got[who] = events._label_kernel()
        except Exception as e:  # a half-loaded module has no _label
            got[who] = e

    first = threading.Thread(target=ask, args=("first",))
    second = threading.Thread(target=ask, args=("second",))
    try:
        first.start()
        assert entered.wait(10)
        second.start()
        second.join(0.2)  # time to take the half-loaded module, were it not held
        release.set()
        first.join(10)
        second.join(10)
    finally:
        release.set()
        sys.modules.pop(name, None)  # the real module, if loaded, comes back on teardown
        events._label_kernel.cache_clear()
    assert not first.is_alive() and not second.is_alive()
    assert got == {"first": kernel, "second": kernel}


def test_planted_diamond_ring():
    # every site at tilted distance 4 or 5 from the center is a mirror: the
    # ring surrounds Q_2 and supports a circuit
    M, n = 12, 2
    ring = [(a, b) for a in range(-M, M + 1) for b in range(-M, M + 1)
            if max(abs(a + b - 1), abs(a - b)) in (4, 5)]
    c = from_closed_sites(M, ring)
    r = surrounding_circuit_exact(c, n, witness=True)
    assert r.holds and dual_crosscheck(c, n) and brute_circuit(c, n)
    # removing one ring layer's worth of sites on the east breaks it
    broken = [s for s in ring if not (s[0] > 3 and abs(s[1]) <= 2)]
    c2 = from_closed_sites(M, broken)
    assert not surrounding_circuit_exact(c2, n).holds
    assert not dual_crosscheck(c2, n)


def test_planted_staircase_crossing():
    # a monotone staircase of closed edges crossing T_2 the long way
    n, M = 2, 8
    # path of vertices from i - j = -4 to i - j = 4 inside 1 <= i + j <= 2
    verts = [(-1, 3), (0, 2), (1, 1), (2, 0), (3, -1)]
    sites = []
    for v, w in zip(verts, verts[1:]):
        sites.append(((v[0] + w[0] + 1) // 2, (v[1] + w[1] + 1) // 2))
    c = from_closed_sites(M, sites)
    r = rect_crossing(c, n, "T", witness=True)
    assert r.holds and brute_rect(c, n, "T")
    assert not rect_crossing(from_closed_sites(M, sites[1:]), n, "T").holds


def test_circuit_witness_validates():
    found = 0
    # circuits are rare at moderate p on tiny annuli; bias toward dense fields
    configs = random_tiny_configs(40) + [
        (sample((0.9, 0.95)[i % 2], 6, seed=3000 + i), 2) for i in range(40)
    ]
    for c, n in configs:
        r = surrounding_circuit_exact(c, n, witness=True)
        if not r.holds:
            continue
        found += 1
        cyc = [(int(x - 0.5), int(y - 0.5)) for x, y in r.witness]
        assert cyc[0] == cyc[-1] and len(set(cyc[:-1])) == len(cyc) - 1
        for v, w in zip(cyc, cyc[1:]):
            assert abs(v[0] - w[0]) == 1 and abs(v[1] - w[1]) == 1
            a = (v[0] + w[0] + 1) // 2
            b = (v[1] + w[1] + 1) // 2
            assert c.closed_at((a, b))
            for i, j in (v, w):  # confined to the annulus
                assert n < max(abs(i + j), abs(i - j)) <= 2 * n
        assert abs(walk_winding(cyc)) == 1
    assert found >= 5  # the sample must actually exercise the witness path


def test_radial_and_rect_witnesses_validate():
    for c, n in random_tiny_configs(40):
        r = radial_closed_path(c, n, witness=True)
        if r.holds:
            path = [(int(x - 0.5), int(y - 0.5)) for x, y in r.witness]
            assert path[0] == (0, 0)
            i, j = path[-1]
            assert max(abs(i + j), abs(i - j)) > n
            for v, w in zip(path, path[1:]):
                a = (v[0] + w[0] + 1) // 2
                b = (v[1] + w[1] + 1) // 2
                assert c.closed_at((a, b))
        r = rect_crossing(c, n, "T3", witness=True)
        if r.holds:
            # T3's long direction runs along u = i + j from -2n to 2n
            path = [(int(x - 0.5), int(y - 0.5)) for x, y in r.witness]
            assert path[0][0] + path[0][1] == -2 * n
            assert path[-1][0] + path[-1][1] == 2 * n


def test_dual_blocking_path_when_no_circuit():
    for c, n in random_tiny_configs(30):
        r = surrounding_circuit_exact(c, n, witness=True)
        if r.holds:
            continue
        path = r.witness
        assert path is not None
        k0, l0 = int(path[0][0] - 0.5), int(path[0][1] - 0.5)
        assert (k0, l0) == (0, -1)  # starts at the face by the origin
        ke, le = int(path[-1][0] - 0.5), int(path[-1][1] - 0.5)
        assert max(abs(ke + le), abs(ke - le)) > 2 * n
        for v, w in zip(path, path[1:]):
            assert abs(v[0] - w[0]) == 1 and abs(v[1] - w[1]) == 1


def test_monotone_under_extra_mirrors():
    for c, n in random_tiny_configs(20):
        if not surrounding_circuit_exact(c, n).holds:
            continue
        closed = np.array(c.closed)
        closed[0, 0] = True  # close one more edge
        from manhattan_pinball.configuration import Configuration
        c2 = Configuration(extent=c.extent, closed=closed)
        assert surrounding_circuit_exact(c2, n).holds


def test_extent_and_scale_validation():
    c = constant(5, False)
    with pytest.raises(ValueError):
        radial_closed_path(c, 5)
    with pytest.raises(ValueError):
        rect_crossing(c, 4, "T1")
    with pytest.raises(ValueError):
        rect_crossing(c, 2, "bogus")
    with pytest.raises(ValueError):
        surrounding_circuit_exact(c, 1)
    with pytest.raises(ValueError):
        dual_crosscheck(constant(5, False), 4)
    for detect in (radial_closed_path, rect_crossing, surrounding_circuit_4rect):
        with pytest.raises(ValueError):
            detect(constant(5, True), 0)  # a scale is at least 1
    # T_1 holds no vertex, so not even a full field crosses it; T3 at n = 1 is crossed
    assert not rect_crossing(constant(5, True), 1, "T").holds
    assert rect_crossing(constant(5, True), 1, "T3").holds


def test_witness_dump_roundtrip():
    M, n = 12, 2
    ring = [(a, b) for a in range(-M, M + 1) for b in range(-M, M + 1)
            if max(abs(a + b - 1), abs(a - b)) in (4, 5)]
    r = surrounding_circuit_exact(from_closed_sites(M, ring), n, witness=True)
    r2 = loads_witness(dump_witness(r))
    assert r2.holds == r.holds and r2.event == r.event
    assert r2.witness == [(float(u), float(v)) for u, v in r.witness]


def test_witness_loader_errors_carry_line_numbers():
    ok = "manhattan-pinball witness v1\nevent A_2\nholds 1\n0.5 0.5\n1.5 1.5\n"
    assert loads_witness(ok).witness == [(0.5, 0.5), (1.5, 1.5)]
    for text, line in (
        ("nonsense\n", 1),
        ("manhattan-pinball witness v1\n", 2),
        ("manhattan-pinball witness v1\nevent \nholds 1\n", 2),
        (ok.replace("holds 1", "holds "), 3),
        (ok.replace("holds 1", "holds 2"), 3),
        (ok.replace("holds 1", "holds"), 3),
        (ok.replace("1.5 1.5", "1.5 1.5 2.5"), 5),
        (ok.replace("1.5 1.5", "1.5"), 5),
        (ok.replace("1.5 1.5", "1.5 x"), 5),
        (ok.replace("1.5 1.5", "1.5 nan"), 5),
        (ok.replace("0.5 0.5", "inf 0.5"), 4),
    ):
        with pytest.raises(ConfigParseError) as ei:
            loads_witness(text)
        assert ei.value.line == line, text


_WITNESS_TOKENS = st.sampled_from(["0", "1", "-1", "0.5", "1.5", "x", "nan", "inf",
                                   "-inf", "1e999", "event", "holds", "A_2", "", "\t"])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.lists(_WITNESS_TOKENS, max_size=4).map(" ".join), max_size=6).map(
        lambda rows: "\n".join(("manhattan-pinball witness v1", *rows))),
    st.tuples(st.integers(1, 4), st.lists(_WITNESS_TOKENS, max_size=4).map(" ".join)).map(
        lambda edit: "\n".join(
            ("manhattan-pinball witness v1", "event A_2", "holds 1", "0.5 0.5", "1.5 1.5")[
                :edit[0]] + (edit[1],))),
))
def test_witness_loader_fuzz_returns_result_or_parse_error(text):
    try:
        r = loads_witness(text)
    except ConfigParseError:
        return
    assert isinstance(r, EventResult) and r.event
    assert all(np.isfinite(u) and np.isfinite(v) for u, v in r.witness or [])


# sha256 of the witness sweep below, computed before the witness searches were
# merged into one breadth-first routine; every witness must keep its bytes
WITNESS_DIGEST = "46fd75cb79c2c6ff4dee730ec1ccdc40ff17d04805a9faed79bf94a756e54068"


def test_witness_bytes_match_pinned_digest():
    h = hashlib.sha256()
    circuits = duals = 0
    for k, (p, n) in enumerate(itertools.product((0.3, 0.5, 0.6, 0.75, 0.9), (2, 3, 5, 8))):
        for s in range(4):
            c = sample(p, 2 * n + 2, seed=7000 + 10 * k + s)
            results = [radial_closed_path(c, n, witness=True)]
            results += [rect_crossing(c, n, kind, witness=True)
                        for kind in ("T", "T1", "T2", "T3", "T4")]
            results.append(surrounding_circuit_exact(c, n, witness=True))
            circuits += results[-1].holds
            duals += not results[-1].holds
            for r in results:
                h.update(dump_witness(r).encode())
    assert circuits >= 10 and duals >= 10  # both witness kinds are exercised
    w, _ = check_essential(default_pattern())
    h.update(dumps(w).encode())
    # a small essentiality budget keeps the run short; every candidate still
    # goes through the chain construction and the endpoint search
    found, _ = search_patterns(3, essential_budget=5)
    for g in found:
        h.update(dumps_pattern(g).encode())
    assert h.hexdigest() == WITNESS_DIGEST
