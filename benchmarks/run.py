"""Benchmark of the manhattan-pinball Monte Carlo entry points.

    python3 benchmarks/run.py --workload closure-p0.5-n64 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seconds 30

One run times one workload for ``--seconds`` in this process.  A few large
sample batches, drawn from ``--seed``, go round-robin through the workload's
public entry point with workers=1, one call per batch.  With ``--trace 0``
each call sits between two runs of the reference kernel (reference.py),
which put its time on a steady scale, and each batch keeps the median of its
calls; the run reports the end-to-end metrics: samples per second and
set-up time (median over fresh interpreters), both on the reference scale,
and the peak RSS of a fresh process that runs the first batch once.  It
also prints the wall-clock figures.  ``--trace 1`` also replays every batch through the layer
functions with spans on, each round, and reports the per-layer metrics of
the fastest round, plus the peak bytes per layer call from an untimed pass
with tracemalloc on; its spans go to ``.bench_out/``.

Every run checks its outputs: the replay must reproduce the public call's
tally, and a call at a fixed seed must reproduce the digest in ``digests.json``.
``--workload all`` runs each workload in a fresh process of its own.
The last line of stdout is one JSON object.  Exit status: 0 when correct,
1 on a correctness or vacuity failure, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# Reference-kernel time after each timed call, as a share of the call's time.
REFERENCE_SHARE = 0.35


def probe(workload: str, seed: int, trials: int = 0, batch_seeds=()) -> tuple[float, float]:
    """(set-up seconds, peak RSS in MB) of one fresh interpreter (see setup_probe.py)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(trials),
         *map(str, batch_seeds)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    setup_s, rss_mb = out.stdout.split()[-2:]
    return float(setup_s), float(rss_mb)


def per_batch_median(times) -> float:
    """Sum over batches of the median time of the batch's calls."""
    return sum(statistics.median(t) for t in times.values())


def manifest(wl, args, batch, batches, rounds):
    import numpy
    import scipy

    from manhattan_pinball.configuration import GENERATOR_ID

    try:
        rev = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        rev = ""
    return {
        "workload": wl.name, "params": wl.params, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "batch_trials": batch, "batches": batches, "rounds": rounds,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numba": "numba" in sys.modules,
        "generator": GENERATOR_ID, "git_revision": rev or "unknown",
        "nproc": os.cpu_count(),
    }


def run_one(workloads, reference, args) -> int:
    wl = workloads.get(args.workload)
    batch, n_batches = (wl.smoke_batch, 2) if args.smoke else (wl.batch, wl.batches)
    seeds = [1000 * args.seed + k for k in range(n_batches)]
    probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    tallies, raised, problems, setups, setups_scaled = {}, set(), [], [], []
    failed = 0

    def replay(log, seed):
        replayed = workloads.replay(wl, log, seed, batch)
        if replayed != tallies[seed]:
            problems.append(f"batch seed {seed}: replay tally {replayed!r} "
                            f"!= public tally {tallies[seed]!r}")

    wl.call(args.seed, 1)  # warm-up: catalogues and lazy set-up stay out of the timing
    reference.kernel()
    ref_s = reference.timed(REFERENCE_SHARE)
    scaled, wall = defaultdict(list), defaultdict(list)

    def on_scale(dt):
        """dt on the reference scale, with the kernel timed right after it."""
        nonlocal ref_s
        before, ref_s = ref_s, reference.timed(REFERENCE_SHARE * dt)
        return dt * reference.NOMINAL_S / ((before + ref_s) / 2)

    # Round-robin over the batches for --seconds, with the set-up probes spread
    # evenly over the same time.  With --trace 0 each call sits between two runs
    # of the reference kernel, and each batch keeps the median of its scaled times.
    log, replay_s, untraced_s, rounds = None, math.inf, math.inf, 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        rounds += 1
        round_log, round_replay_s, round_untraced_s = workloads.SpanLog(), 0.0, 0.0
        for seed in seeds:
            if seed in raised:
                continue
            t0 = time.perf_counter()
            try:
                result = wl.call(seed, batch)
            except Exception:  # a raising batch fails all its samples; the run goes on
                traceback.print_exc()
                raised.add(seed)
                failed += batch
                continue
            dt = time.perf_counter() - t0
            wall[seed].append(dt)
            if not args.trace:
                scaled[seed].append(on_scale(dt))
            round_untraced_s += dt
            tally = wl.tally(result)
            if seed not in tallies:
                tallies[seed] = tally
                failed += wl.failures(result)
            elif tally != tallies[seed]:
                problems.append(f"batch seed {seed}: a repeated call changed the tally")
            if args.trace:
                t0 = time.perf_counter()
                replay(round_log, seed)
                round_replay_s += time.perf_counter() - t0
        if args.trace and round_replay_s < replay_s:
            log, replay_s = round_log, round_replay_s
        untraced_s = min(untraced_s, round_untraced_s)
        while len(setups) < min(probes, probes * (time.perf_counter() - start) / args.seconds):
            setups.append(probe(wl.name, args.seed)[0])
            setups_scaled.append(on_scale(setups[-1]))
    while len(setups) < probes:
        setups.append(probe(wl.name, args.seed)[0])
        setups_scaled.append(on_scale(setups[-1]))
    if args.trace:
        peaks = workloads.memory_peaks(wl, seeds[0], min(batch, wl.memory_samples))
    else:
        # A fresh process without the reference kernel, so its RSS is the program's.
        if wall:
            peak_rss_mb = probe(wl.name, args.seed, batch, [min(wall)])[1]
        log = workloads.SpanLog()
        for seed in tallies:
            replay(log, seed)
    if not wall:
        problems.append("every batch raised")
    reason = wl.vacuity(log)
    if reason:
        problems.append("vacuous: " + reason)
    ref = json.loads((HERE / "digests.json").read_text())[wl.name]
    if wl.digest(ref["seed"], ref["trials"]) != ref["sha256"]:
        problems.append(f"digest at seed {ref['seed']}, {ref['trials']} trials "
                        "differs from digests.json")

    info = manifest(wl, args, batch, n_batches, rounds)
    print("manifest " + json.dumps(info))
    if not wall:
        metrics = {}
    elif args.trace:
        metrics = workloads.layer_metrics(log, replay_s, untraced_s, peaks)
        spans = ROOT / ".bench_out" / f"{wl.name}-seed{args.seed}-spans.jsonl"
        log.write(spans, info)
        print(f"spans {len(log.spans)} -> {spans.relative_to(ROOT)}")
    else:
        metrics = {
            "samples_per_s": (batch * len(scaled) / per_batch_median(scaled), "1/s"),
            "setup_s": (statistics.median(setups_scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"{wl.name} wall samples_per_s "
              f"{batch * len(wall) / per_batch_median(wall):.6g} 1/s, "
              f"setup_s {statistics.median(setups):.6g} s (not on the reference scale)")
    attempted = batch * n_batches
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {unit}")
    print(f"{wl.name} failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


def run_all(names, args) -> int:
    """Each workload in a fresh process; a summary line per workload."""
    results, status = {}, 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        print(out.stdout, end="")
        status = max(status, out.returncode)
        lines = out.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if out.returncode in (0, 1) and lines else None
    for name, r in results.items():
        if r is None:
            print(f"{name}: no result")
            continue
        shown = " ".join(f"{m}={v['value']:.6g} {v['unit']}" for m, v in r["metrics"].items())
        print(f"{name}: correct={r['correct']} {shown} "
              f"failed_ratio={r['failed'] / r['attempted']:.6g}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    try:
        import reference
        import workloads
    except ImportError as exc:
        print(f"benchmark: cannot import the package from src/: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny batches and one set-up probe, for a quick check")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 40:
        ap.error("--seed must lie in [0, 2**40)")
    if args.workload == "all":
        return run_all(tuple(workloads.WORKLOADS), args)
    return run_one(workloads, reference, args)


if __name__ == "__main__":
    sys.exit(main())
