"""Command-line surface.

Exit codes: 0 success, 1 verification or pattern check failure, 2 usage error,
3 internal error (a defect of the program, such as non-injective dynamics).
All file writes are atomic (temp file + rename).  Randomness flows only
through explicit --seed flags.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .configuration import (
    FORMAT_VERSION,
    GENERATOR_ID,
    atomic_write_text,
    load,
    sample,
    save,
)
from .enhancement import (
    PATTERN_FORMAT_VERSION,
    default_pattern,
    dumps_pattern,
    enhance,
    load_pattern,
    match_pattern,
    save_pattern,
    search_patterns,
    validate_pattern,
)
from .errors import ConfigParseError, DynamicsError, ResourceLimitError
from .events import EVENTS, dump_witness, loads_witness
from .montecarlo import (
    EVENT_NAMES,
    estimate_event,
    estimates_csv,
    verification_csv,
    verify_theorem,
    write_csv,
)
from .render import ALL_LAYERS, RenderSpec, render_svg
from .tracer import dump_trajectory, loads_trajectory, trace

_VERSION_BLURB = (
    f"manhattan-pinball {__version__} "
    f"(configuration format v{FORMAT_VERSION}, "
    f"pattern format v{PATTERN_FORMAT_VERSION}, "
    f"trajectory/witness format v1, generator {GENERATOR_ID})"
)


def _resolve_pattern(spec_str):
    if spec_str == "default":
        return default_pattern()
    return load_pattern(spec_str)


def _cmd_sample(args):
    c = sample(args.p, args.extent, args.seed, stream_index=args.stream)
    save(c, args.out)
    print(f"wrote {args.out}: extent={args.extent} p={args.p} seed={args.seed}")
    return 0


def _cmd_trace(args):
    c = load(args.config)
    t = trace(c)
    atomic_write_text(args.out, dump_trajectory(t))
    print(f"status={t.status} states={len(t.states)} "
          f"linf_diameter={t.linf_diameter} containment={t.containment}")
    if args.svg:
        spec = RenderSpec(layers=("lattice", "mirrors", "trajectory"))
        atomic_write_text(args.svg, render_svg(c, spec, trajectory=t))
    return 0


def _cmd_enhance(args):
    c = load(args.config)
    g = _resolve_pattern(args.pattern)
    e = enhance(c, g, excluded_core=args.exclude_core)
    save(e, args.out)
    ms = match_pattern(c, g, excluded_core=args.exclude_core)
    print(f"matches={len(ms.offsets)} wrote {args.out}")
    if args.diff:
        ra, rb = g.red_site
        lines = [f"{ra + t1} {rb + t2}" for t1, t2 in sorted(ms.offsets)]
        atomic_write_text(args.diff, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_event(args):
    r = EVENTS[args.event].detect(load(args.config), args.n, witness=True)
    print(f"event={r.event} holds={int(r.holds)}")
    if args.witness:
        atomic_write_text(args.witness, dump_witness(r))
    return 0


def _cmd_estimate(args):
    report = estimate_event(
        args.event, args.p, args.n, args.trials, args.seed,
        enhanced=args.enhanced, workers=args.workers,
    )
    text = estimates_csv([report])
    if args.csv:
        write_csv(text, args.csv)
    print(f"event={report.event} estimate={report.estimate} "
          f"ci=[{report.ci_lo:.6f}, {report.ci_hi:.6f}] "
          f"walltime_ms={report.walltime_ms}")
    return 0


def _cmd_verify(args):
    g = _resolve_pattern(args.pattern)
    records, summary = verify_theorem(
        args.p, args.n, args.trials, args.seed, g, workers=args.workers
    )
    if args.csv:
        write_csv(verification_csv(records), args.csv)
    # with no circuit the pass rate of 1.0 checked nothing
    print(f"trials={summary.trials} circuits={summary.circuits} "
          f"failures={summary.failures} "
          f"conditional_pass_rate={summary.conditional_pass_rate} "
          f"vacuous={int(summary.circuits == 0)}")
    for r in records:
        if not r.passed:
            print(f"FAIL sample {r.sample}: {r.diagnostics}", file=sys.stderr)
    return 1 if summary.failures else 0


def _cmd_pattern(args):
    if args.action == "check":
        g = _resolve_pattern(args.pattern)
        report = validate_pattern(g, essential_budget=args.budget)
        print(f"pattern={g.name} closed={len(g.closed_sites)} "
              f"open={len(g.open_sites)} radius={g.radius}")
        print(f"translation={'pass' if report.translation_ok else 'FAIL'}"
              + (f" counterexample={report.translation_counterexample}"
                 if not report.translation_ok else ""))
        print(f"detour={'pass' if report.detour.ok else 'FAIL'} "
              f"D={report.detour.radius} returns={report.detour.returns}"
              + (f" ({report.detour.failure})" if report.detour.failure else ""))
        print(f"essential={'witness found' if report.essential_witness is not None else 'absent (inconclusive)'} "
              f"after {report.essential_searched} trials")
        return 0 if report.all_ok else 1
    found, exhausted = search_patterns(args.radius, budget=args.budget)
    print(f"found {len(found)} valid patterns"
          + (" (budget exhausted, search partial)" if exhausted else ""))
    if found:
        g = found[0]
        print(f"smallest: {len(g.closed_sites)} mirrors, radius {g.radius}")
        if args.out:
            save_pattern(g, args.out)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(dumps_pattern(g))
    return 0


def _cmd_render(args):
    c = load(args.config)
    t = None
    if args.trajectory:
        with open(args.trajectory) as fh:
            t = loads_trajectory(fh.read())
    w = None
    if args.witness:
        with open(args.witness) as fh:
            w = loads_witness(fh.read()).witness
    layers = tuple(s.strip() for s in args.layers.split(",") if s.strip())
    spec = RenderSpec(layers=layers, scale=args.scale)
    atomic_write_text(args.out, render_svg(c, spec, trajectory=t, witness=w))
    print(f"wrote {args.out}")
    return 0


def _count(least):
    """argparse type of an integer count of at least ``least``."""
    def count(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return count


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="manhattan-pinball",
        description="Light percolation in the random Manhattan mirror lattice.",
    )
    ap.add_argument("--version", action="version", version=_VERSION_BLURB)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a mirror configuration")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--extent", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("trace", help="trace the origin light ray")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("enhance", help="apply an enhancement pattern")
    p.add_argument("--config", required=True)
    p.add_argument("--pattern", default="default")
    p.add_argument("--exclude-core", type=int, dest="exclude_core")
    p.add_argument("--out", required=True)
    p.add_argument("--diff", help="write the list of changed sites here")
    p.set_defaults(fn=_cmd_enhance)

    p = sub.add_parser("event", help="evaluate a percolation event")
    p.add_argument("--config", required=True)
    p.add_argument("--event", required=True, choices=tuple(EVENTS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--witness", help="write the witness dump here")
    p.set_defaults(fn=_cmd_event)

    p = sub.add_parser("estimate", help="Monte Carlo event probability")
    p.add_argument("--event", required=True, choices=EVENT_NAMES)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--enhanced", action="store_true")
    p.add_argument("--csv")
    p.add_argument("--workers", type=_count(1), default=1)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("verify", help="replay the localization theorem per sample")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pattern", default="default")
    p.add_argument("--csv")
    p.add_argument("--workers", type=_count(1), default=1)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("pattern", help="check or search enhancement patterns")
    p.add_argument("action", choices=("check", "search"))
    p.add_argument("--pattern", default="default")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--budget", type=_count(0), default=200)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_pattern)

    p = sub.add_parser("render", help="render layers to SVG")
    p.add_argument("--config", required=True)
    p.add_argument("--trajectory")
    p.add_argument("--witness")
    p.add_argument("--layers", default="lattice,mirrors",
                   help=f"comma list from {{{','.join(ALL_LAYERS)}}}")
    p.add_argument("--scale", type=int, default=24)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_render)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigParseError, ResourceLimitError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DynamicsError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
