"""Monte Carlo estimation and the sample-by-sample theorem harness: three
sample loops (estimates and paired comparisons of the events in
``events.EVENTS``, and verify) and one run driver.

Every trial draws its own configuration with stream_index equal to the
sample index, so tallies are identical for any worker count and any
scheduling.  Estimates and paired comparisons fill a stack of closed fields
one sample at a time, drawing only the sites the event reads (dilated by the
pattern when pairing), and hand each stack to the event's stacked detector;
plain closure builds no field and traces a worker's samples together with
``trace_lockstep``.  An enhanced estimate is the enhanced half of a paired
comparison, which draws, matches and tallies: enhancement only closes
matched reds, so ``events.holds_closing`` decides both bits of a stack from
the matched reds the event reads.  No tally depends on the stack or walk
sizes.  The harness replays the localization argument per sample: if
the enhanced field carries an exact surrounding circuit at scale n, the
origin trajectory of the raw field must close inside Q_{2n+2D} and the
hybrid field (raw core, enhanced exterior) must localize inside Q_{2n}.  A
verify worker reuses two fields and one walk table, and a sample draws only
the sites its record reads.  The reds it closes are
``enhancement.matched_reds`` outside the core Q_100: its enhanced circuit is
``circuit_holds`` on that field with them closed, and its hybrid walk the
raw walk's table with them added.  ``_record`` decides every record from the
circuit and the two orbits.  A worker keeps only the records it passes,
whose orbits read exact bits, and hands every other sample to
``_verify_reference``, which recomputes it on whole fields.

The loops that label overlap two samples (``_Helper``).  scipy's labelling
kernel releases the GIL, so while one helper thread decides stack k (verify:
the circuit of sample k), the calling thread draws and matches stack k + 1
(verify: draws sample k + 1, then walks sample k).  Stacks and verify's
fields alternate between two buffers, so a buffer is drawn again only after
its decision is taken, and decisions are taken in sample order: every
tally and record is that of the in-order loop.  Each worker process runs
one helper thread, and only when it has a core to spare; otherwise it
decides inline, in the same loop.
"""

from __future__ import annotations

import csv
import io
import os
import sys
import threading
import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .configuration import (
    GENERATOR_ID,
    _check_extent,
    atomic_write_text,
    check_probability,
    hybrid,
    region_sampler,
    sample,
    site_sampler,
    stream_base,
)
from .enhancement import Pattern, _dilated, _matches, check_detour, enhance, matched_reds
from .events import (EVENTS, _require_extent, circuit_holds, holds_closing, read_mask,
                     surrounding_circuit_exact)
from .geometry import site_radius
from .tracer import CLOSED, TableWalks, trace_lockstep, trace_summary

_Z95 = 1.959963984540054


def wilson_interval(k: int, n: int):
    """95% Wilson score interval for a binomial proportion."""
    if not 0 <= k <= n or n < 1:
        raise ValueError("need 0 <= k <= n, n >= 1")
    z = _Z95
    denom = n + z * z
    center = (k + z * z / 2.0) / denom
    half = z * np.sqrt(k * (n - k) / n + z * z / 4.0) / denom
    return float(max(0.0, center - half)), float(min(1.0, center + half))


@dataclass(frozen=True)
class EstimationReport:
    event: str
    p: float
    n: int
    trials: int
    hits: int
    estimate: float
    ci_lo: float
    ci_hi: float
    seed: int
    generator: str = GENERATOR_ID
    walltime_ms: int = 0


@dataclass(frozen=True)
class DecayFit:
    points: tuple  # (n, 1 - estimate) pairs used in the fit
    c_hat: float
    intercept: float
    r2: float
    degenerate: bool  # some estimate hit 1.0 exactly and was dropped


@dataclass(frozen=True)
class VerificationRecord:
    sample: int
    circuit: bool
    closed: bool | None
    contained: bool | None
    hybrid_contained: bool | None
    passed: bool
    diagnostics: str = ""


@dataclass(frozen=True)
class VerificationSummary:
    trials: int
    circuits: int
    failures: int
    conditional_pass_rate: float  # 1.0 when no circuit was found (vacuous)


@dataclass(frozen=True)
class PairedReport:
    plain: EstimationReport
    enhanced: EstimationReport
    both: int  # samples in the event before and after enhancement
    only_enhanced: int
    only_plain: int  # monotonicity violations; must be 0
    gap: float
    gap_ci_lo: float
    gap_ci_hi: float


# ---------------------------------------------------------------------------
# the run driver
# ---------------------------------------------------------------------------


# The most trials one run takes: a worker's sample indices are a range, whose
# length must fit a C ssize_t.
MAX_TRIALS = sys.maxsize


def _cores():
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _run(worker, args, N, workers):
    """``worker((*args, indices), threaded)`` for one chunk of range(N) per
    worker, in this process, or in a pool when there is more than one chunk;
    the results in chunk order.  ``threaded`` is whether each worker process
    has a second core for its ``_Helper`` thread."""
    if not 1 <= N <= MAX_TRIALS:
        raise ValueError(f"need 1 to {MAX_TRIALS} trials, got {N}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    size = (N + workers - 1) // workers
    jobs = [(*args, range(lo, min(lo + size, N))) for lo in range(0, N, size)]
    processes = min(os.cpu_count() or 1, len(jobs))
    worker = partial(worker, threaded=_cores() >= 2 * processes)
    if len(jobs) == 1:
        return [worker(jobs[0])]
    # imported here: it loads multiprocessing and logging, which a run in one
    # process never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=processes) as ex:
        return list(ex.map(worker, jobs))


class _Helper:
    """Decides a sample loop's items in order (``overlap``), each after the
    first on one helper thread when ``threaded``, else on the calling thread.
    Used as a context manager, which joins the thread however the loop ends,
    so that no thread outlives it."""

    def __init__(self, threaded):
        self._threaded = threaded
        self._thread = self._call = self._outcome = None
        # held locked: _submit releases _go for the thread, which releases
        # _done for _result; _call is not None while a call is in flight
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._thread is not None:
            if self._call is not None:
                self._done.acquire()
            self._call = None
            self._go.release()
            self._thread.join()

    def _serve(self):
        while True:
            self._go.acquire()
            if self._call is None:
                return
            decide, item = self._call
            try:
                self._outcome = decide(item), None
            except BaseException as error:  # raised again by _result, on the calling thread
                self._outcome = None, error
            self._done.release()

    def _submit(self, decide, item):
        if not self._threaded:
            self._outcome = decide(item), None
            return
        if self._thread is None:
            self._thread = threading.Thread(target=self._serve, daemon=True)
            self._thread.start()
        self._call = decide, item
        self._go.release()

    def _result(self):
        if self._call is not None:
            self._done.acquire()
            self._call = None
        (value, error), self._outcome = self._outcome, None
        if error is not None:
            raise error
        return value

    def overlap(self, decide, items):
        """(item, decide(item)) for each of ``items``, in order.  Item k + 1
        is made (the next of ``items``) while item k is decided, and item k
        is used (the caller's loop body) while item k + 1 is, so an item
        must stay intact until the item after the next one is made.  The
        first item is decided on the calling thread: that loads the
        labelling kernel and fills the event's caches there, not in the
        helper's malloc arena, and a loop of one item starts no thread."""
        items = iter(items)
        pending = next(items, None)
        if pending is None:
            return
        self._outcome = decide(pending), None
        for item in items:
            decision = self._result()
            self._submit(decide, item)
            yield pending, decision
            pending = item
        yield pending, self._result()


def _report(event, p, n, N, hits, seed, walltime_ms):
    lo, hi = wilson_interval(hits, N)
    return EstimationReport(event=event, p=p, n=n, trials=N, hits=hits, estimate=hits / N,
                            ci_lo=lo, ci_hi=hi, seed=seed, walltime_ms=walltime_ms)


def event_extent(event: str, n: int, pattern: Pattern | None = None) -> int:
    """Extent covering the event region, plus matching padding when enhancing;
    checked against the event's least scale and the field budget."""
    if event not in EVENTS:
        raise ValueError(f"unknown event {event!r}; choose from {tuple(EVENTS)}")
    extent = EVENTS[event].min_extent(n) + (pattern.radius if pattern is not None else 0)
    _require_extent(extent, event, n)
    _check_extent(extent)
    return extent


# Bytes of closed fields a sample loop holds at once: it fills and detects
# stacks of K = max(1, _STACK_BYTES // (2M + 1)^2) fields.  Each field of a
# stack adds up to 0.18 MB of images and labels to the peak traced memory, so
# peak RSS sets this: K = 9 at the Aprime extent of n = 64 (M = 101).
_STACK_BYTES = 3 << 17


@lru_cache(maxsize=16)
def _fill_sites(extent, n, event, pattern):
    """Flat indices of the sites a sample loop draws: those the event reads,
    dilated by the pattern's copies.  The enhanced field is then exact on
    every read site.  Cached, read-only."""
    sites = np.flatnonzero(_dilated(read_mask(extent, n, event), pattern))
    sites.flags.writeable = False
    return sites


def _field_stacks(p, extent, seed, indices, sites):
    """The closed fields of the samples in ``indices`` at probability ``p``, as
    (K, W, W) stacks in sample order, drawn on the flat ``sites`` only (the
    rest open).  They alternate between two buffers: a stack is a view that
    the next stack but one overwrites, so it stays intact while the next is
    drawn (``_Helper.overlap``)."""
    check_probability(p)
    W = 2 * extent + 1
    K = max(1, min(len(indices), _STACK_BYTES // (W * W)))
    stacks = np.zeros((2, K, W, W), dtype=bool)
    flats = stacks.reshape(2, K, -1)
    closed = site_sampler(extent, sites)
    for j, lo in enumerate(range(0, len(indices), K)):
        chunk = indices[lo : lo + K]
        for field, base in zip(flats[j % 2], stream_base(seed, chunk)):
            field[sites] = closed(base, p)
        yield stacks[j % 2, : len(chunk)]


def _eval_samples(args, threaded=False):
    """Worker body: the hits of one event on a run of sample indices."""
    event, p, n, seed, extent, indices = args
    if event == "closure":  # no field needed: the tracer walks the rays in lockstep
        return int(np.count_nonzero(
            trace_lockstep(p, extent, seed, indices, abort_radius=n) == CLOSED))
    holds = EVENTS[event].holds
    stacks = _field_stacks(p, extent, seed, indices, _fill_sites(extent, n, event, None))
    with _Helper(threaded) as helper:
        return sum(int(np.count_nonzero(hits))
                   for _, hits in helper.overlap(lambda closed: holds(closed, n), stacks))


def estimate_event(event: str, p: float, n: int, N: int, seed: int,
                   pattern: Pattern | None = None, workers: int = 1) -> EstimationReport:
    """Monte Carlo estimate of P_p[event at scale n] over N independent samples;
    with ``pattern``, the enhanced half of ``compare_enhanced`` on them."""
    if pattern is not None:
        return compare_enhanced(p, n, N, seed, pattern, event, workers).enhanced
    t0 = time.perf_counter()
    extent = event_extent(event, n)
    hits = sum(_run(_eval_samples, (event, p, n, seed, extent), N, workers))
    return _report(event, p, n, N, hits, seed, int(round((time.perf_counter() - t0) * 1000)))


# ---------------------------------------------------------------------------
# paired enhancement comparison
# ---------------------------------------------------------------------------


def _paired_samples(args, threaded=False):
    """Worker body: the [neither, only plain, only enhanced, both] tally of
    one event on a run of sample indices."""
    event, p, n, seed, extent, pattern, indices = args
    tally = np.zeros(4, dtype=np.int64)
    sites = _fill_sites(extent, n, event, pattern)
    matched = ((closed, *_matches(closed, pattern, reads=(n, event)))
               for closed in _field_stacks(p, extent, seed, indices, sites))
    with _Helper(threaded) as helper:
        for _, (a, b) in helper.overlap(lambda item: holds_closing(event, item[0], n, *item[1:]),
                                        matched):
            tally += np.bincount(a + 2 * b, minlength=4)
    return tally


def compare_enhanced(p: float, n: int, N: int, seed: int, g: Pattern,
                     event: str = "Aprime", workers: int = 1) -> PairedReport:
    """Evaluate an event on identical samples before and after enhancement.

    ``events.holds_closing`` decides A and Aprime before and after from one
    labelling of the plain field, merged along the matched reds: closing
    edges only joins labels, so ``only_plain`` is then 0 by construction.
    The other events detect a field again where enhancement closes a red
    they read, so a monotonicity violation would show in ``only_plain``.
    ``estimate_event`` with the pattern returns the enhanced report.

    The paired gap interval is a normal-approximation interval on the mean
    of the per-sample differences (enhanced minus plain, each in {-1,0,1}).
    """
    t0 = time.perf_counter()
    extent = event_extent(event, n, g)
    tally = sum(_run(_paired_samples, (event, p, n, seed, extent, g), N, workers))
    neither, only_plain, only_enh, both = (int(x) for x in tally)
    k_plain = only_plain + both
    k_enh = only_enh + both
    walltime = int(round((time.perf_counter() - t0) * 1000))
    d_mean = (k_enh - k_plain) / N
    d_var = (only_enh + only_plain) / N - d_mean ** 2
    half = float(_Z95 * np.sqrt(max(d_var, 0.0) / N))
    return PairedReport(
        plain=_report(event, p, n, N, k_plain, seed, walltime),
        enhanced=_report(event + "~", p, n, N, k_enh, seed, walltime),
        both=both, only_enhanced=only_enh, only_plain=only_plain,
        gap=d_mean, gap_ci_lo=d_mean - half, gap_ci_hi=d_mean + half,
    )


# ---------------------------------------------------------------------------
# theorem harness
# ---------------------------------------------------------------------------

_CORE_RADIUS = 100  # the proof's detour-free core Q_100


def verify_extent(n: int, g: Pattern, detour_radius: int) -> int:
    return 2 * n + 2 * detour_radius + g.radius + 2


def _record(i, circuit, raw, hybrid, n, D):
    """The record of sample i, decided from whether its enhanced field has a
    surrounding circuit at scale n and, if so, from the (closed, containment)
    of its raw orbit, ``raw``, and of its hybrid orbit, ``hybrid``: the raw
    orbit must close inside Q_{2n+2D} and the hybrid orbit inside Q_2n."""
    if not circuit:
        return VerificationRecord(sample=i, circuit=False, closed=None, contained=None,
                                  hybrid_contained=None, passed=True)
    (closed, containment), (h_closed, h_containment) = raw, hybrid
    contained = closed and containment <= 2 * n + 2 * D
    hybrid_contained = h_closed and h_containment <= 2 * n
    return VerificationRecord(sample=i, circuit=True, closed=closed, contained=contained,
                              hybrid_contained=hybrid_contained,
                              passed=contained and hybrid_contained)


def _verify_reference(p, n, seed, extent, g, D, i):
    """The record of sample i, computed on whole fields: the oracle of
    ``_verify_samples`` and its fallback."""
    w = sample(p, extent, seed, stream_index=i)
    w_t = enhance(w, g)
    if not surrounding_circuit_exact(w_t, n).holds:
        return _record(i, False, None, None, n, D)
    status, _, _, containment = trace_summary(w)
    h_status, _, _, h_containment = trace_summary(hybrid(w, w_t, _CORE_RADIUS))
    record = _record(i, True, (status == "closed", containment),
                     (h_status == "closed", h_containment), n, D)
    if record.passed:
        return record
    return replace(record, diagnostics=(
        f"seed={seed} stream={i} n={n} p={p} extent={extent} "
        f"status={status} containment={containment} "
        f"hybrid_status={h_status} hybrid_containment={h_containment}"))


@lru_cache(maxsize=4)
def _verify_static(extent, n, g, reach):
    """The read-only (W, W) mask of the sites a record of a verify sample at
    (extent, n, g) reads when its walks abort beyond Q_reach.  That is the
    raw bits of Q_reach for the raw walk, and those of Q_{2n+1}, dilated by
    the pattern, for the enhanced circuit and the hybrid walk inside Q_2n: a
    site is the tilted midpoint of its edge, so the usable sites lie in Q_2n."""
    radius = site_radius(extent)
    drawn = _dilated(radius <= 2 * n + 1, g)
    drawn |= radius <= reach
    drawn.flags.writeable = False
    return drawn


def _verify_samples(args, threaded=False):
    """Worker body: the records of a run of sample indices.

    The fields and the walk table are allocated once per call, and a sample
    draws only the sites its record reads (the rest read open).  The reds are
    those ``enhance`` closes outside the core Q_100, and a matched red is open
    in the raw field, so they are closed for the circuit and opened again for
    the raw walk.  This needs the core to be smaller than Q_n (n > 100): then
    both ends of a red inside the core lie in Q_n, no circuit may use it and
    ``circuit_holds`` never reads it, so the field with the reds closed is the
    enhanced one on every site the circuit reads.  The hybrid, the raw field
    plus the reds, is walked on the raw walk's table with them added.  A walk
    aborts beyond Q_reach, where the drawn bits end, and its path then ends
    on a site of radius reach + 1.  ``_record`` decides every record from
    these walks, and a record it does not pass, as a theorem failure would
    be, is recomputed by ``_verify_reference``: so this path passes only what
    ``_record`` passes on orbits that read exact bits.  Samples alternate
    between two fields: the helper decides one sample's circuit while the
    next is drawn, and the next one's while this one is walked.
    """
    p, n, seed, extent, g, D, indices = args
    walks = TableWalks(extent, 2 * n + 2 * D)
    drawn = _verify_static(extent, n, g, walks.abort_at)
    W = 2 * extent + 1
    draw = region_sampler(extent, drawn)
    fields = np.zeros((2, W, W), dtype=bool)

    def enhanced():
        """(sample, its field's slot, its reds), the reds closed in the field."""
        for j, (i, base) in enumerate(zip(indices, stream_base(seed, indices))):
            draw(base, p, fields[j % 2])
            reds = matched_reds(fields[j % 2], g, _CORE_RADIUS)
            fields[j % 2].ravel()[reds] = True
            yield i, j % 2, reds

    records = []
    with _Helper(threaded) as helper:
        for (i, slot, reds), circuit in helper.overlap(
                lambda item: circuit_holds(fields[item[1], np.newaxis], n)[0], enhanced()):
            field = fields[slot]
            field.ravel()[reds] = False
            orbits = None, None  # (closed, containment) of the raw and hybrid orbits
            if circuit:
                walks.fill(field)
                raw = walks.walk()
                walks.close(reds)
                orbits = [(status == CLOSED, walks.containment(path))
                          for status, path in (raw, walks.walk())]
            record = _record(i, circuit, *orbits, n, D)
            records.append(record if record.passed
                           else _verify_reference(p, n, seed, extent, g, D, i))
    return records


def verify_theorem(p: float, n: int, N: int, seed: int, g: Pattern,
                   workers: int = 1):
    """Replay the localization argument on N samples; returns (records, summary).

    Requires n > 100: the hybrid splice at Q_100 only stands clear of the
    annulus when the circuit scale exceeds the core.  Assertion failures are
    recorded with reproduction data and the run continues.
    """
    if n <= _CORE_RADIUS:
        raise ValueError("verify_theorem requires n > 100")
    check_probability(p)
    det = check_detour(g)
    if not det.ok:
        raise ValueError(f"pattern fails the detour check: {det.failure}")
    extent = verify_extent(n, g, det.radius)
    _check_extent(extent)
    chunks = _run(_verify_samples, (p, n, seed, extent, g, det.radius), N, workers)
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: r.sample)
    circuits = sum(r.circuit for r in records)
    failures = sum(not r.passed for r in records)
    rate = 1.0 if circuits == 0 else (circuits - failures) / circuits
    return records, VerificationSummary(
        trials=N, circuits=circuits, failures=failures, conditional_pass_rate=rate)


# ---------------------------------------------------------------------------
# decay fit
# ---------------------------------------------------------------------------


def fit_decay(series) -> DecayFit:
    """Least-squares fit of log(1 - estimate) against n; c_hat = -slope.

    ``series`` is a list of (n, EstimationReport).  Points with estimate
    exactly 1 are log-undefined; they are dropped and the fit is flagged
    degenerate.
    """
    usable = [(n, 1.0 - r.estimate) for n, r in series if r.estimate < 1.0]
    degenerate = len(usable) < len(series)
    if len(usable) < 3:
        raise ValueError("fit_decay needs at least 3 points with estimate < 1")
    x = np.array([n for n, _ in usable], dtype=float)
    y = np.log([s for _, s in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return DecayFit(points=tuple(usable), c_hat=max(0.0, -float(slope)),
                    intercept=float(intercept), r2=r2, degenerate=degenerate)


# ---------------------------------------------------------------------------
# CSV output (stable column order; floats via repr for byte stability)
# ---------------------------------------------------------------------------


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def estimates_csv(reports) -> str:
    """CSV per the estimates schema.

    walltime_ms is written as 0 so output is byte-identical across runs and
    worker counts; real timing stays on the report objects.
    """
    rows = [
        (r.event, r.p, r.n, r.trials, r.hits, r.estimate, r.ci_lo, r.ci_hi,
         r.seed, r.generator, 0)
        for r in reports
    ]
    return _write_csv(
        ("event", "p", "n", "N", "hits", "estimate", "ci_lo", "ci_hi",
         "seed", "generator", "walltime_ms"), rows)


def verification_csv(records) -> str:
    rows = [
        (r.sample, r.circuit, r.closed, r.contained, r.hybrid_contained, r.passed)
        for r in records
    ]
    return _write_csv(
        ("sample", "circuit", "closed", "contained", "hybrid_contained", "pass"),
        rows)


def write_csv(text: str, path) -> None:
    atomic_write_text(path, text)
