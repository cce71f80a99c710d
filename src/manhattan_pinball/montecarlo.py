"""Monte Carlo estimation and the sample-by-sample theorem harness.

Every trial draws its own configuration with stream_index equal to the
sample index, so tallies are identical for any worker count and any
scheduling.  Estimates and paired comparisons fill a stack of closed fields
one sample at a time and hand each stack to the event's stacked detector;
plain closure builds no field and traces a worker's samples together with
``trace_lockstep``.  Stack and walk sizes follow from a fixed byte budget,
and no tally depends on them.  The harness replays the localization
argument per sample: if the enhanced field carries an exact surrounding
circuit at scale n, the origin trajectory of the raw field must close inside
Q_{2n+2D} and the hybrid field (raw core, enhanced exterior) must localize
inside Q_{2n}.
"""

from __future__ import annotations

import csv
import ctypes
import io
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .configuration import (
    GENERATOR_ID,
    Configuration,
    atomic_write_text,
    check_probability,
    hybrid,
    sample,
    uniforms,
)
from .enhancement import Pattern, check_detour, enhance, enhance_stack
from .events import EVENTS, Event, EventResult, surrounding_circuit_exact
from .tracer import CLOSED, LOCKSTEP_RAY_BYTES, trace_lockstep, trace_summary

_Z95 = 1.959963984540054


def wilson_interval(k: int, n: int, z: float = _Z95):
    """95% Wilson score interval for a binomial proportion."""
    if not 0 <= k <= n or n < 1:
        raise ValueError("need 0 <= k <= n, n >= 1")
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
# event descriptors
# ---------------------------------------------------------------------------


def _closure(c, n, witness=False):
    """The origin ray closes before it leaves Q_n (or its start's own Q_m)."""
    status, _, _, _ = trace_summary(c, abort_radius=n)
    return EventResult(holds=status == "closed", event=f"closure_{n}")


def _closure_holds(closed, n):
    """``_closure`` on each field of a (K, W, W) stack: bool array."""
    M = closed.shape[-1] // 2
    return np.array([_closure(Configuration(extent=M, closed=f), n).holds for f in closed],
                    dtype=bool)


_EVENTS = {"closure": Event(lambda n: n + 2, _closure, _closure_holds,
                            lambda M, n: np.arange((2 * M + 1) ** 2)),
           **EVENTS}
EVENT_NAMES = tuple(_EVENTS)


def event_extent(event: str, n: int, pattern: Pattern | None = None) -> int:
    """Extent covering the event region, plus matching padding when enhancing."""
    if event not in _EVENTS:
        raise ValueError(f"unknown event {event!r}; choose from {EVENT_NAMES}")
    base = _EVENTS[event].min_extent(n)
    return base + (pattern.radius if pattern is not None else 0)


# Bytes of closed fields a sample loop holds at once: it fills and detects
# stacks of K = max(1, _STACK_BYTES // (2M + 1)^2) fields.  Each field of a
# stack adds about 0.1 MB of event images and enhancement arrays to the peak
# memory, so peak RSS sets this: K = 9 at the Aprime extent of n = 64 (M = 101)
# and 1 from M = 222 on, which covers the verify extent.  Plain closure
# builds no fields; it walks up to _STACK_BYTES // LOCKSTEP_RAY_BYTES = 3072
# rays at once.
_STACK_BYTES = 3 << 17


def _field_stacks(p, extent, seed, indices):
    """The closed fields of the samples in ``indices`` at probability ``p``,
    as (K, W, W) stacks in sample order; each is a view of one buffer that
    the next overwrites."""
    check_probability(p)
    W = 2 * extent + 1
    K = max(1, min(len(indices), _STACK_BYTES // (W * W)))
    stack = np.empty((K, W, W), dtype=bool)
    for lo in range(0, len(indices), K):
        chunk = indices[lo : lo + K]
        for k, i in enumerate(chunk):
            np.less(uniforms(extent, seed, i).u, p, out=stack[k])
        yield stack[: len(chunk)]


def _eval_samples(args):
    """Worker body: evaluate one event on a run of sample indices."""
    event, p, n, seed, extent, pattern, indices = args
    if event == "closure" and pattern is None:  # no field needed: one walk per chunk
        K = max(1, _STACK_BYTES // LOCKSTEP_RAY_BYTES)
        return sum(int(np.count_nonzero(
            trace_lockstep(p, extent, seed, indices[lo : lo + K], abort_radius=n) == CLOSED))
            for lo in range(0, len(indices), K))
    holds = _EVENTS[event].holds
    hits = 0
    for closed in _field_stacks(p, extent, seed, indices):
        if pattern is not None:
            closed = enhance_stack(closed, pattern)
        hits += int(np.count_nonzero(holds(closed, n)))
    return hits


def _chunks(N, workers):
    if workers < 1:
        raise ValueError("workers must be >= 1")
    size = (N + workers - 1) // workers
    return [range(lo, min(lo + size, N)) for lo in range(0, N, size)]


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _retain_freed_memory():
    """Have glibc keep freed blocks of up to 32 MB for reuse (Linux only).

    Every sample allocates and frees arrays the size of its field.  glibc
    hands blocks above its mmap threshold (128 kB, raised only as ever larger
    blocks are freed) back to the kernel, and the next sample faults them in
    again page by page: at the verify extent (M = 267) that cost over a third
    of the run time.  Fixed thresholds make the reuse independent of what was
    freed before.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _map_chunks(fn, jobs, workers):
    if workers <= 1 or len(jobs) <= 1:
        _retain_freed_memory()
        return [fn(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, len(jobs)),
                             initializer=_retain_freed_memory) as ex:
        return list(ex.map(fn, jobs))


def estimate_event(event: str, p: float, n: int, N: int, seed: int,
                   enhanced: bool = False, pattern: Pattern | None = None,
                   workers: int = 1) -> EstimationReport:
    """Monte Carlo estimate of P_p[event at scale n] over N independent samples."""
    if N < 1:
        raise ValueError("need at least one trial")
    if enhanced and pattern is None:
        from .enhancement import default_pattern
        pattern = default_pattern()
    if not enhanced:
        pattern = None
    t0 = time.perf_counter()
    extent = event_extent(event, n, pattern)
    jobs = [(event, p, n, seed, extent, pattern, idx) for idx in _chunks(N, workers)]
    hits = sum(_map_chunks(_eval_samples, jobs, workers))
    lo, hi = wilson_interval(hits, N)
    name = event + ("~" if enhanced else "")
    return EstimationReport(
        event=name, p=p, n=n, trials=N, hits=hits, estimate=hits / N,
        ci_lo=lo, ci_hi=hi, seed=seed,
        walltime_ms=int(round((time.perf_counter() - t0) * 1000)),
    )


# ---------------------------------------------------------------------------
# paired enhancement comparison
# ---------------------------------------------------------------------------


def _paired_samples(args):
    event, p, n, seed, extent, pattern, indices = args
    ev = _EVENTS[event]
    reads = ev.reads(extent, n)
    tally = np.zeros(4, dtype=np.int64)  # [neither, only plain, only enhanced, both]
    for closed in _field_stacks(p, extent, seed, indices):
        a = ev.holds(closed, n)
        enhanced = enhance_stack(closed, pattern)
        # The detector reads only the sites ``reads``: where enhancement
        # changed none of them it would see the same input again, so b = a.
        # Any other sample is detected anew, which keeps a monotonicity
        # violation (only_plain) visible.
        K = len(closed)
        changed = (enhanced.reshape(K, -1)[:, reads]
                   != closed.reshape(K, -1)[:, reads]).any(axis=1)
        b = a.copy()
        if changed.any():
            b[changed] = ev.holds(enhanced[changed], n)
        tally += np.bincount(a + 2 * b, minlength=4)
    return tally


def compare_enhanced(p: float, n: int, N: int, seed: int, g: Pattern,
                     event: str = "Aprime", workers: int = 1) -> PairedReport:
    """Evaluate an event on identical samples before and after enhancement.

    The paired gap interval is a normal-approximation interval on the mean
    of the per-sample differences (enhanced minus plain, each in {-1,0,1}).
    """
    if N < 1:
        raise ValueError("need at least one trial")
    t0 = time.perf_counter()
    extent = event_extent(event, n, g)
    jobs = [(event, p, n, seed, extent, g, idx) for idx in _chunks(N, workers)]
    tally = sum(_map_chunks(_paired_samples, jobs, workers))
    neither, only_plain, only_enh, both = (int(x) for x in tally)
    k_plain = only_plain + both
    k_enh = only_enh + both
    walltime = int(round((time.perf_counter() - t0) * 1000))

    def report(name, k):
        lo, hi = wilson_interval(k, N)
        return EstimationReport(event=name, p=p, n=n, trials=N, hits=k,
                                estimate=k / N, ci_lo=lo, ci_hi=hi, seed=seed,
                                walltime_ms=walltime)

    d_mean = (k_enh - k_plain) / N
    d_var = (only_enh + only_plain) / N - d_mean ** 2
    half = float(_Z95 * np.sqrt(max(d_var, 0.0) / N))
    return PairedReport(
        plain=report(event, k_plain),
        enhanced=report(event + "~", k_enh),
        both=both, only_enhanced=only_enh, only_plain=only_plain,
        gap=d_mean, gap_ci_lo=d_mean - half, gap_ci_hi=d_mean + half,
    )


# ---------------------------------------------------------------------------
# theorem harness
# ---------------------------------------------------------------------------

_CORE_RADIUS = 100  # the proof's detour-free core Q_100


def verify_extent(n: int, g: Pattern, detour_radius: int) -> int:
    return 2 * n + 2 * detour_radius + g.radius + 2


def _verify_samples(args):
    p, n, seed, extent, g, D, indices = args
    records = []
    for i in indices:
        w = sample(p, extent, seed, stream_index=i)
        w_t = enhance(w, g)
        circuit = surrounding_circuit_exact(w_t, n).holds
        if not circuit:
            records.append(VerificationRecord(
                sample=i, circuit=False, closed=None, contained=None,
                hybrid_contained=None, passed=True))
            continue
        status, _, _, containment = trace_summary(w)
        closed = status == "closed"
        contained = closed and containment <= 2 * n + 2 * D
        w0 = hybrid(w, w_t, _CORE_RADIUS)
        h_status, _, _, h_containment = trace_summary(w0)
        hybrid_contained = h_status == "closed" and h_containment <= 2 * n
        passed = closed and contained and hybrid_contained
        diag = "" if passed else (
            f"seed={seed} stream={i} n={n} p={p} extent={extent} "
            f"status={status} containment={containment} "
            f"hybrid_status={h_status} hybrid_containment={h_containment}"
        )
        records.append(VerificationRecord(
            sample=i, circuit=True, closed=closed, contained=contained,
            hybrid_contained=hybrid_contained, passed=passed, diagnostics=diag))
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
    if N < 1:
        raise ValueError("need at least one trial")
    det = check_detour(g)
    if not det.ok:
        raise ValueError(f"pattern fails the detour check: {det.failure}")
    extent = verify_extent(n, g, det.radius)
    jobs = [(p, n, seed, extent, g, det.radius, idx) for idx in _chunks(N, workers)]
    records = [r for chunk in _map_chunks(_verify_samples, jobs, workers) for r in chunk]
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


def estimates_csv(reports, deterministic: bool = True) -> str:
    """CSV per the estimates schema.

    ``deterministic`` zeroes walltime_ms so output is byte-identical across
    runs and worker counts; real timing stays on the report objects.
    """
    rows = [
        (r.event, r.p, r.n, r.trials, r.hits, r.estimate, r.ci_lo, r.ci_hi,
         r.seed, r.generator, 0 if deterministic else r.walltime_ms)
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


def fits_csv(fits) -> str:
    rows = [(f.c_hat, f.intercept, f.r2, len(f.points)) for f in fits]
    return _write_csv(("c_hat", "intercept", "r2", "points_used"), rows)


def write_csv(text: str, path) -> None:
    atomic_write_text(path, text)
