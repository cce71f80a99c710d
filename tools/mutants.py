"""Mutants of the package's fast paths and checks, and a runner that reports
which of them the tests kill.

Each entry of ``MUTANTS`` is (name, file, old, new, tests): ``old`` is exact
text that occurs once in ``file`` (``tests/test_mutants.py`` checks this, so
the list cannot rot silently), ``new`` replaces it, and ``tests`` are the
test files expected to fail under the mutant.  A change to a fast path adds
its own mutants here.  A survivor is a gap in the tests: it gets a test
that kills it, not a looser entry.

Run from anywhere; each mutant is applied to a fresh copy of the repository
in a temporary directory, and pytest runs the entry's test files there:

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME ...     # the named ones

A mutant is killed when pytest reports a failed test (exit status 1).  Any
other pytest status is reported as an error.  The runner exits 1 when a
mutant survives or errs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


EVENTS, ENHANCEMENT = "src/manhattan_pinball/events.py", "src/manhattan_pinball/enhancement.py"
MONTECARLO, TRACER = "src/manhattan_pinball/montecarlo.py", "src/manhattan_pinball/tracer.py"
CONFIGURATION = "src/manhattan_pinball/configuration.py"
T_MONTECARLO, T_TRACER = "tests/test_montecarlo.py", "tests/test_tracer.py"
T_ENHANCEMENT, T_EVENTS = "tests/test_enhancement.py", "tests/test_events.py"

MUTANTS = (
    # the label merge and re-detection behind events.holds_closing
    Mutant("merge-never-joins", EVENTS,
           "after[k[_joins(x.tolist(), y.tolist(), on_a, on_b)]] = True",
           "after[k[_joins(x.tolist(), y.tolist(), on_a, on_b)]] = False",
           (T_MONTECARLO, T_ENHANCEMENT)),
    Mutant("merge-keeps-plain-fields", EVENTS,
           "unmet = ~before[k]", "unmet = before[k] | ~before[k]", (T_MONTECARLO,)),
    Mutant("ends-one-end-twice", EVENTS,
           "return self.pixel(i1 + j1, i1 - j1), self.pixel(i2 + j2, i2 - j2)",
           "return self.pixel(i1 + j1, i1 - j1), self.pixel(i1 + j1, i1 - j1)",
           (T_EVENTS, T_MONTECARLO, T_ENHANCEMENT)),
    Mutant("redetect-no-inverse", EVENTS,
           "changed, k = np.unique(k, return_inverse=True)", "changed = np.unique(k)",
           (T_MONTECARLO,)),
    # pattern copies and the essentiality check
    Mutant("essential-before-as-after", ENHANCEMENT,
           "return at_origin & ~before & after", "return at_origin & ~after & after",
           (T_ENHANCEMENT,)),
    Mutant("essential-wrong-red", ENHANCEMENT,
           "site == (g.red_site[0] + M) * (2 * M + 1) + g.red_site[1] + M]",
           "site == (g.red_site[0] + M) * (2 * M + 1) + g.red_site[1] + M + 2]",
           (T_ENHANCEMENT,)),
    Mutant("red-box-reads-ignored", ENHANCEMENT,
           "allowed &= _ev.read_mask(M, *reads)[rows, cols]", "allowed &= True",
           (T_MONTECARLO,)),
    Mutant("matcher-site-column-off", ENHANCEMENT,
           "return k, (row + r0) * W + col + c0", "return k, (row + r0) * W + col + c0 + 1",
           (T_ENHANCEMENT,)),
    # sampling
    Mutant("hash-grid-broadcasts", CONFIGURATION,
           "    np.copyto(out, x)\n    np.copyto(tmp, keys[:, np.newaxis])\n"
           "    return hash_key(tmp, out, out=out, tmp=tmp)",
           "    return hash_key(keys[:, np.newaxis], x, out=out, tmp=tmp)",
           ("tests/test_configuration.py",)),
    # the theorem replay
    Mutant("record-hybrid-bound-plus-one", MONTECARLO,
           "hybrid_contained = h_closed and h_containment <= 2 * n",
           "hybrid_contained = h_closed and h_containment <= 2 * n + 1", (T_MONTECARLO,)),
    Mutant("record-raw-bound-plus-five", MONTECARLO,
           "contained = closed and containment <= 2 * n + 2 * D",
           "contained = closed and containment <= 2 * n + 2 * D + 5", (T_MONTECARLO,)),
    Mutant("fast-path-keeps-failed-records", MONTECARLO,
           "records.append(record if record.passed\n"
           "                       else _verify_reference(p, n, seed, extent, g, D, i))",
           "records.append(record)", (T_MONTECARLO,)),
    Mutant("enhanced-estimate-reads-plain", MONTECARLO,
           "return compare_enhanced(p, n, N, seed, pattern, event, workers).enhanced",
           "return compare_enhanced(p, n, N, seed, pattern, event, workers).plain",
           (T_MONTECARLO,)),
    # the walk tables
    Mutant("far-ends-only-open", TRACER,
           "table[3, :4], table[4, :4] = _ESC, _ABORT",
           "table[3, :4], table[4, :4, 0] = _ESC, _ABORT", (T_TRACER,)),
    Mutant("pad-ends-only-open", TRACER,
           "table[3, :4], table[4, :4] = _ESC, _ABORT",
           "table[3, :4, 0], table[4, :4] = _ESC, _ABORT", (T_TRACER,)),
    Mutant("abort-drops-entry", TRACER,
           "append(4 * j + (path[-1] & 3))", "pass", (T_TRACER,)),
    Mutant("start-not-restored", TRACER,
           "        finally:\n            table[j0] = c\n",
           "        finally:\n            pass\n", (T_TRACER,)),
    Mutant("start-loses-closed-bit", TRACER,
           "table[j0] = 16 * _START + (c & 1)", "table[j0] = 16 * _START", (T_TRACER,)),
    Mutant("close-ors-0", TRACER,
           "self.cells[(row + 1) * self.P + col + 1] |= 1",
           "self.cells[(row + 1) * self.P + col + 1] |= 0", (T_TRACER, T_MONTECARLO)),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".bench_out", ".bench_build", "*.egg-info")


def run(mutant: Mutant) -> str:
    """'killed by <first failed test>', 'survived' or 'error: ...' for one
    mutant, applied to a copy of the repository in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"error: old text occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests], cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True, text=True)
    if result.returncode == 1:
        failed = [line[len("FAILED "):].split(" - ")[0] for line in result.stdout.splitlines()
                  if line.startswith("FAILED ")]
        return "killed" + (f" by {failed[0]}" if failed else "")
    if result.returncode == 0:
        return "survived"
    return f"error: pytest exited {result.returncode}"


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for m in chosen:
        outcome = run(m)
        bad += not outcome.startswith("killed")
        print(f"{m.name}: {outcome}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
