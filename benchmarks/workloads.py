"""Workloads of the benchmark and the traced replay behind its per-layer metrics.

Each workload is one public Monte Carlo entry point of the package, called
with workers=1 on batches of samples whose seeds derive from the benchmark
seed.  Its replay evaluates the same samples by calling each layer's public
function from this file, one span per call.  A span's request id is
(batch seed, sample index); its parent is the span of its sample, or the
span of the call that made it.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
refuses a ``manhattan_pinball`` imported from anywhere else.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import manhattan_pinball  # noqa: E402

if Path(manhattan_pinball.__file__).resolve().parent != ROOT / "src" / "manhattan_pinball":
    raise ImportError(f"manhattan_pinball comes from {manhattan_pinball.__file__}, "
                      f"not from {ROOT / 'src'}")

from manhattan_pinball import enhancement  # noqa: E402
from manhattan_pinball.configuration import hybrid, threshold, uniforms  # noqa: E402
from manhattan_pinball.enhancement import check_detour, default_pattern, enhance  # noqa: E402
from manhattan_pinball.events import rect_crossing, surrounding_circuit_exact  # noqa: E402
from manhattan_pinball.montecarlo import (  # noqa: E402
    _CORE_RADIUS,
    compare_enhanced,
    estimate_event,
    estimates_csv,
    event_extent,
    verify_extent,
    verify_theorem,
)
from manhattan_pinball.tracer import trace, trace_summary  # noqa: E402

# Layer functions the replays time, each per call.
LAYER_CALLS = (
    "configuration.uniforms",
    "configuration.threshold",
    "configuration.hybrid",
    "enhancement.match_pattern",
    "enhancement.enhance",
    "events.rect_crossing",
    "events.surrounding_circuit_exact",
    "tracer.trace_summary",
    "tracer.trace",
)
LAYERS = ("configuration", "enhancement", "events", "tracer", "montecarlo")
# Layers whose calls the memory pass measures.
MEMORY_LAYERS = ("configuration", "enhancement", "events", "tracer")
SAMPLE_SPAN = "montecarlo.sample"


class SpanLog:
    """Spans and counters kept in memory until the run ends.

    A span is (request, span id, parent id, name, start ns, end ns).
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count()
        self._request = None
        self._stack = [None]

    @contextmanager
    def span(self, name):
        span, parent = next(self._ids), self._stack[-1]
        self._stack.append(span)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((self._request, span, parent, name, start,
                               time.perf_counter_ns()))
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def sample(self, seed, index):
        """The parent span of one sample's calls."""
        self._request = (seed, index)
        return self.span(SAMPLE_SPAN)

    def write(self, path, manifest):
        """JSON lines: the manifest, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"manifest": manifest}) + "\n")
            for (seed, sample), span, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "request": sample, "batch_seed": seed, "span": span,
                    "parent": parent, "name": name, "start_ns": start,
                    "end_ns": end}) + "\n")


class MemoryLog(SpanLog):
    """Peak bytes that one call of each layer function allocates.

    Each outermost layer call resets tracemalloc's peak before it runs and
    reads it after, so a nested call (match_pattern inside enhance) counts
    toward its caller.  numpy reports its array buffers to tracemalloc.
    """

    def __init__(self):
        super().__init__()
        self.peaks = Counter()

    def call(self, name, fn, *args, **kwargs):
        if len(self._stack) > 2:  # inside another layer call: it is measured there
            return fn(*args, **kwargs)
        with self.span(name):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
        layer = name.split(".")[0]
        self.peaks[layer] = max(self.peaks[layer], peak)
        return result


class Workload:
    """A public entry point, its layer-by-layer replay, and their tallies.

    A run times ``batches`` batches of ``batch`` trials each, one public call
    per batch, at trial counts of the size the package is run with.
    ``memory_samples`` samples of the first batch go through the memory pass.
    """

    name: str
    p: float
    batch: int
    batches: int
    smoke_batch: int
    memory_samples: int
    M: int
    params: dict

    def call(self, seed: int, trials: int):
        raise NotImplementedError

    def tally(self, result):
        """What the replay of the same samples must reproduce exactly."""
        raise NotImplementedError

    def failures(self, result) -> int:
        return 0

    def digest_text(self, result) -> str:
        raise NotImplementedError

    def replay(self, log: SpanLog, seed: int, trials: int):
        raise NotImplementedError

    def vacuity(self, log: SpanLog):
        """Why the replay left a layer of this workload unmeasured, or None."""
        return None

    def digest(self, seed: int, trials: int) -> str:
        return hashlib.sha256(self.digest_text(self.call(seed, trials)).encode()).hexdigest()

    def _sample(self, log, seed, i):
        f = log.call("configuration.uniforms", uniforms, self.M, seed, i)
        return log.call("configuration.threshold", threshold, f, self.p)


def _count_matches(log, c, enhanced):
    """Matched copies: each one closes its own required-open red site."""
    k = int(np.count_nonzero(enhanced.closed != c.closed))
    log.counts["enhancement.matches"] += k
    log.counts["enhancement.samples_matched"] += k > 0
    return k


class Closure(Workload):
    """Tracer-bound: the ray's closure inside Q_n, one orbit per sample."""

    name = "closure-p0.5-n64"
    p, n = 0.5, 64
    batch, batches, smoke_batch, memory_samples = 1000, 2, 20, 10

    def __init__(self):
        self.M = event_extent("closure", self.n)
        self.params = {"event": "closure", "p": self.p, "n": self.n, "M": self.M}

    def call(self, seed, trials):
        return estimate_event("closure", self.p, self.n, trials, seed)

    def tally(self, result):
        return result.hits

    def digest_text(self, result):
        return estimates_csv([result])

    def replay(self, log, seed, trials):
        hits = 0
        for i in range(trials):
            with log.sample(seed, i):
                c = self._sample(log, seed, i)
                status, steps, _, _ = log.call("tracer.trace_summary", trace_summary,
                                               c, abort_radius=self.n)
            log.counts["tracer.steps"] += steps
            log.counts["tracer." + status] += 1
            hits += status == "closed"
        log.counts["montecarlo.hits"] += hits
        return hits


class PairedAprime(Workload):
    """Enhancement and small graph calls: A'_n before and after enhancement."""

    name = "paired-aprime-p0.5-n64"
    p, n = 0.5, 64
    batch, batches, smoke_batch, memory_samples = 400, 1, 4, 10

    def __init__(self):
        self.g = default_pattern()
        self.M = event_extent("Aprime", self.n, self.g)
        self.params = {"event": "Aprime", "p": self.p, "n": self.n, "M": self.M,
                       "pattern": self.g.name}

    def call(self, seed, trials):
        return compare_enhanced(self.p, self.n, trials, seed, self.g, "Aprime")

    def tally(self, r):
        return (r.plain.hits, r.enhanced.hits, r.both, r.only_enhanced, r.only_plain)

    def failures(self, r):
        return r.only_plain  # monotonicity violations

    def digest_text(self, r):
        return estimates_csv([r.plain, r.enhanced])

    def replay(self, log, seed, trials):
        tally = [0, 0, 0, 0]  # neither, only plain, only enhanced, both
        for i in range(trials):
            with log.sample(seed, i):
                c = self._sample(log, seed, i)
                a = log.call("events.rect_crossing", rect_crossing, c, self.n, "T").holds
                e = log.call("enhancement.enhance", enhance, c, self.g)
                b = log.call("events.rect_crossing", rect_crossing, e, self.n, "T").holds
            k = _count_matches(log, c, e)
            log.counts["montecarlo.paired_needed"] += not a and k > 0
            log.counts["events.holds"] += a + b
            tally[a + 2 * b] += 1
        _, only_plain, only_enh, both = tally
        log.counts["montecarlo.hits"] += only_plain + both
        log.counts["montecarlo.only_enhanced"] += only_enh
        return (only_plain + both, only_enh + both, both, only_enh, only_plain)


class VerifyTheorem(Workload):
    """Large extent: the per-sample theorem replay, circuit then two traces."""

    name = "verify-p0.55-n128"
    p, n = 0.55, 128
    batch, batches, smoke_batch, memory_samples = 40, 2, 2, 4

    def __init__(self):
        self.g = default_pattern()
        self.D = check_detour(self.g).radius
        self.M = verify_extent(self.n, self.g, self.D)
        self.params = {"p": self.p, "n": self.n, "M": self.M, "D": self.D,
                       "pattern": self.g.name}

    def call(self, seed, trials):
        return verify_theorem(self.p, self.n, trials, seed, self.g)

    def tally(self, result):
        records, _ = result
        return tuple((r.sample, r.circuit, r.closed, r.contained, r.hybrid_contained, r.passed)
                     for r in records)

    def failures(self, result):
        return result[1].failures  # theorem failures

    def digest_text(self, result):
        return json.dumps(self.tally(result))

    def vacuity(self, log):
        if log.counts["events.circuits"] == 0:
            return "verify found no circuit, so the theorem check is vacuous"
        calls = Counter(s[3] for s in log.spans)
        for name in ("tracer.trace", "configuration.hybrid"):
            if calls[name] == 0:
                return f"{name} was never called"
        return None

    def replay(self, log, seed, trials):
        n, D = self.n, self.D
        rows = []
        for i in range(trials):
            with log.sample(seed, i):
                w = self._sample(log, seed, i)
                w_t = log.call("enhancement.enhance", enhance, w, self.g)
                circuit = log.call("events.surrounding_circuit_exact",
                                   surrounding_circuit_exact, w_t, n).holds
                if circuit:
                    t = log.call("tracer.trace", trace, w)
                    w0 = log.call("configuration.hybrid", hybrid, w, w_t, _CORE_RADIUS)
                    t0 = log.call("tracer.trace", trace, w0)
            _count_matches(log, w, w_t)
            if not circuit:
                rows.append((i, False, None, None, None, True))
                continue
            closed = t.status == "closed"
            contained = closed and t.contained_in(2 * n + 2 * D)
            hybrid_contained = t0.status == "closed" and t0.contained_in(2 * n)
            passed = closed and contained and hybrid_contained
            for tr in (t, t0):
                log.counts["tracer.steps"] += len(tr)
                log.counts["tracer." + tr.status] += 1
            log.counts["montecarlo.theorem_failures"] += not passed
            rows.append((i, True, closed, contained, hybrid_contained, passed))
        circuits = sum(r[1] for r in rows)
        log.counts["events.circuits"] += circuits
        log.counts["montecarlo.hits"] += circuits
        return tuple(rows)


WORKLOADS = {w.name: w for w in (Closure, PairedAprime, VerifyTheorem)}


def get(name: str) -> Workload:
    return WORKLOADS[name]()


def replay(workload: Workload, log: SpanLog, seed: int, trials: int):
    """The workload's replay of one batch: the tally its public call must match.

    enhance() calls match_pattern through its module.  During the replay that
    name is a wrapper that records the call as a child span of enhance, so
    the replay does the same work as the public call.
    """
    inner = enhancement.match_pattern
    enhancement.match_pattern = functools.partial(log.call, "enhancement.match_pattern", inner)
    try:
        return workload.replay(log, seed, trials)
    finally:
        enhancement.match_pattern = inner


def memory_peaks(workload: Workload, seed: int, trials: int) -> Counter:
    """Per layer, the most bytes one call allocated, over a replay with tracemalloc on.

    This pass is not timed: tracemalloc slows every allocation.
    """
    log = MemoryLog()
    tracemalloc.start()
    try:
        replay(workload, log, seed, trials)
    finally:
        tracemalloc.stop()
    return log.peaks


def layer_metrics(log: SpanLog, replay_s: float, untraced_s: float, peaks: Counter):
    """Per-layer metrics (name -> (value, unit)) from the replay's spans."""
    child_ns = defaultdict(int)
    for _, _, parent, _, start, end in log.spans:
        if parent is not None:
            child_ns[parent] += end - start
    durations = defaultdict(list)  # per call; the sample span's own time only
    self_ns = Counter()
    for _, span, _, name, start, end in log.spans:
        own = end - start - child_ns.get(span, 0)
        self_ns[name.split(".")[0]] += own
        durations[name].append(own if name == SAMPLE_SPAN else end - start)

    out = {}
    for name in LAYER_CALLS + ("montecarlo.self",):
        d = durations[SAMPLE_SPAN if name == "montecarlo.self" else name]
        p50, p99 = np.percentile(d, [50, 99]) / 1e6 if d else (0.0, 0.0)
        out[name + ".p50_ms"] = (float(p50), "ms")
        out[name + ".p99_ms"] = (float(p99), "ms")
        if name != "montecarlo.self":
            out[name + ".calls"] = (len(d), "count")

    c = log.counts
    samples = len(durations[SAMPLE_SPAN])
    steps = c["tracer.steps"]
    tracer_ns = sum(durations["tracer.trace_summary"]) + sum(durations["tracer.trace"])
    out["tracer.steps"] = (steps, "count")
    out["tracer.ns_per_step"] = (tracer_ns / steps if steps else 0.0, "ns")
    for status in ("closed", "aborted", "escaped"):
        out["tracer." + status] = (c["tracer." + status], "count")
    out["events.circuits"] = (c["events.circuits"], "count")
    out["events.holds"] = (c["events.holds"], "count")
    out["enhancement.matches"] = (c["enhancement.matches"], "count")
    out["enhancement.samples_matched"] = (c["enhancement.samples_matched"], "count")
    for layer in MEMORY_LAYERS:
        out[layer + ".peak_bytes"] = (peaks[layer], "bytes")
    out["montecarlo.samples"] = (samples, "count")
    for key in ("hits", "only_enhanced", "theorem_failures"):
        out["montecarlo." + key] = (c["montecarlo." + key], "count")
    out["montecarlo.paired_needed_ratio"] = (
        c["montecarlo.paired_needed"] / samples if samples else 0.0, "ratio")
    for layer in LAYERS:
        out[layer + ".share"] = (self_ns[layer] / (replay_s * 1e9), "ratio")
    out["tracing_overhead"] = (replay_s / untraced_s, "ratio")
    return out
