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
comparison, whose deciders start from the matched reds the event reads
(enhancement only closes matched reds).  A or Aprime, whose detector is one
``sides_joined`` on a primal image, labels each plain stack once and merges
the labels along them; the other events are detected again on the fields
with such a red, with those reds closed.  No tally depends on the stack or
walk sizes.  The harness replays the localization argument per sample: if
the enhanced field carries an exact surrounding circuit at scale n, the
origin trajectory of the raw field must close inside Q_{2n+2D} and the
hybrid field (raw core, enhanced exterior) must localize inside Q_{2n}.  A
verify worker reuses one field and one walk table, and a sample draws only
the sites its record reads.  The reds it closes are
``enhancement.matched_reds`` outside the core Q_100: its enhanced circuit is
``circuit_holds`` on that field with them closed, and its hybrid walk the
raw walk's table with them added.  ``_record`` decides every record from the
circuit and the two orbits.  A worker keeps only the records it passes,
whose orbits read exact bits, and hands every other sample to
``_verify_reference``, which recomputes it on whole fields.
"""

from __future__ import annotations

import csv
import io
import os
import sys
import time
from dataclasses import dataclass, replace
from functools import lru_cache

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
from .events import (EVENTS, _require_extent, circuit_holds, joined_labels,
                     surrounding_circuit_exact)
from .geometry import edge_ends, site_radius
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


def _run(worker, args, N, workers):
    """``worker((*args, indices))`` for one chunk of range(N) per worker, in
    this process, or in a pool when there is more than one chunk; the results
    in chunk order."""
    if not 1 <= N <= MAX_TRIALS:
        raise ValueError(f"need 1 to {MAX_TRIALS} trials, got {N}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    size = (N + workers - 1) // workers
    jobs = [(*args, range(lo, min(lo + size, N))) for lo in range(0, N, size)]
    if len(jobs) == 1:
        return [worker(jobs[0])]
    # imported here: it loads multiprocessing and logging, which a run in one
    # process never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, len(jobs))) as ex:
        return list(ex.map(worker, jobs))


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
def _read_mask(extent, n, event):
    """(W, W) bool mask of the sites the event reads.  Cached, read-only."""
    W = 2 * extent + 1
    reads = np.zeros((W, W), dtype=bool)
    reads.ravel()[EVENTS[event].reads(extent, n)] = True
    reads.flags.writeable = False
    return reads


@lru_cache(maxsize=16)
def _fill_sites(extent, n, event, pattern):
    """Flat indices of the sites a sample loop draws: those the event reads,
    dilated by the pattern's copies.  The enhanced field is then exact on
    every read site.  Cached, read-only."""
    sites = np.flatnonzero(_dilated(_read_mask(extent, n, event), pattern))
    sites.flags.writeable = False
    return sites


def _field_stacks(p, extent, seed, indices, sites):
    """The closed fields of the samples in ``indices`` at probability ``p``, as
    (K, W, W) stacks in sample order, drawn on the flat ``sites`` only (the
    rest open); each is a view of one buffer that the next overwrites."""
    check_probability(p)
    W = 2 * extent + 1
    K = max(1, min(len(indices), _STACK_BYTES // (W * W)))
    stack = np.zeros((K, W, W), dtype=bool)
    flat = stack.reshape(K, -1)
    closed = site_sampler(extent, sites)
    for lo in range(0, len(indices), K):
        chunk = indices[lo : lo + K]
        for k, base in enumerate(stream_base(seed, chunk)):
            flat[k][sites] = closed(base, p)
        yield stack[: len(chunk)]


def _eval_samples(args):
    """Worker body: the hits of one event on a run of sample indices."""
    event, p, n, seed, extent, indices = args
    if event == "closure":  # no field needed: the tracer walks the rays in lockstep
        return int(np.count_nonzero(
            trace_lockstep(p, extent, seed, indices, abort_radius=n) == CLOSED))
    holds = EVENTS[event].holds
    sites = _fill_sites(extent, n, event, None)
    return sum(int(np.count_nonzero(holds(closed, n)))
               for closed in _field_stacks(p, extent, seed, indices, sites))


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


def _joins(x, y, on_a, on_b):
    """For the edges x[i] - y[i] between labels: does the component of x[i]
    in their graph hold a label of ``on_a`` and one of ``on_b``?"""
    parent = {}

    def root(v):
        while v in parent:
            v = parent[v]
        return v

    for u, v in zip(x, y):
        if root(u) != root(v):
            parent[root(u)] = root(v)
    sides = {}
    for v, side in zip(x + y, (on_a[x + y] + 2 * on_b[x + y]).tolist()):
        sides[root(v)] = sides.get(root(v), 0) | side
    return [sides[root(v)] == 3 for v in x]


def _paired_merge(closed, n, extent, event, pattern):
    """(plain, enhanced) event bits of the (K, W, W) stack of plain fields
    ``closed``, for an event with ``sides``, from one labelling.

    Enhancement only closes matched reds, which are open in the plain field,
    and a closed red joins the pixels of its edge's two ends.  So where the
    plain event fails it holds enhanced iff the plain labels, merged along
    the matched reds that the raster reads, join the two sides: the (k, site)
    pairs of the fields k where the plain event fails."""
    raster, side_a, side_b = EVENTS[event].sides(extent, n)
    a, labels, on_a = joined_labels(closed, raster, side_a, side_b)
    k, site = _matches(closed, pattern, reads=(n, event))
    unmet = ~a[k]
    k, site = k[unmet], site[unmet]
    b = a.copy()
    if k.size:
        row, col = np.divmod(site, 2 * extent + 1)
        i1, j1, i2, j2 = edge_ends(row - extent, col - extent)
        x = labels[k, raster.pixel(i1 + j1, i1 - j1)]
        y = labels[k, raster.pixel(i2 + j2, i2 - j2)]
        on_b = np.zeros_like(on_a)
        on_b[labels[:, side_b]] = True
        b[k[_joins(x.tolist(), y.tolist(), on_a, on_b)]] = True
    return a, b


def _paired_redetect(closed, n, extent, event, pattern):
    """(plain, enhanced) event bits of the (K, W, W) stack of plain fields
    ``closed``, for any event.  A detector reads only the event's sites, and
    there the enhanced field is the plain one with the matched reds (k, site)
    that the event reads closed: only a field k with such a red is detected
    again, on a copy with them closed.  That keeps a monotonicity violation
    visible."""
    holds = EVENTS[event].holds
    a = holds(closed, n)
    k, site = _matches(closed, pattern, reads=(n, event))
    b = a.copy()
    if k.size:
        changed, k = np.unique(k, return_inverse=True)
        enhanced = closed[changed]
        enhanced.reshape(len(changed), -1)[k, site] = True
        b[changed] = holds(enhanced, n)
    return a, b


def _paired_samples(args):
    event, p, n, seed, extent, pattern, indices = args
    decide = _paired_redetect if EVENTS[event].sides is None else _paired_merge
    tally = np.zeros(4, dtype=np.int64)  # [neither, only plain, only enhanced, both]
    sites = _fill_sites(extent, n, event, pattern)
    for closed in _field_stacks(p, extent, seed, indices, sites):
        a, b = decide(closed, n, extent, event, pattern)
        tally += np.bincount(a + 2 * b, minlength=4)
    return tally


def compare_enhanced(p: float, n: int, N: int, seed: int, g: Pattern,
                     event: str = "Aprime", workers: int = 1) -> PairedReport:
    """Evaluate an event on identical samples before and after enhancement.

    A and Aprime are decided before and after from one labelling of the plain
    field, merged along the matched reds: closing edges only joins labels, so
    ``only_plain`` is then 0 by construction.  The other events detect a
    field again where enhancement closes a red they read, so a monotonicity
    violation would show in ``only_plain``.  ``estimate_event`` with the
    pattern returns the enhanced report.

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


def _verify_samples(args):
    """Worker body: the records of a run of sample indices.

    The field and the walk table are allocated once per call, and a sample
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
    ``_record`` passes on orbits that read exact bits.
    """
    p, n, seed, extent, g, D, indices = args
    walks = TableWalks(extent, 2 * n + 2 * D)
    drawn = _verify_static(extent, n, g, walks.abort_at)
    W = 2 * extent + 1
    draw = region_sampler(extent, drawn)
    field = np.zeros((W, W), dtype=bool)
    flat = field.ravel()
    records = []
    for i, base in zip(indices, stream_base(seed, indices)):
        draw(base, p, field)
        reds = matched_reds(field, g, _CORE_RADIUS)
        flat[reds] = True
        circuit = circuit_holds(field[np.newaxis], n)[0]
        flat[reds] = False
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
