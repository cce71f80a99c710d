"""Set-up and memory probe: one fresh interpreter.

    python3 benchmarks/setup_probe.py <workload> <seed> [<trials> <batch seed>...]

Times the interpreter from before the package import to the end of a 1-trial
call of the workload's public entry point, then makes one call of ``trials``
samples per batch seed.  Prints the set-up seconds and the process's peak
RSS in MB.  run.py starts it several times per run.

The peak RSS is VmHWM of /proc/self/status, not ru_maxrss: Linux carries
ru_maxrss over from the parent when a child is spawned, so it would report
the parent's peak whenever that is the larger.
"""

import sys
import time

start = time.perf_counter()

import workloads  # noqa: E402  (imports manhattan_pinball from src/)

wl = workloads.get(sys.argv[1])
wl.call(int(sys.argv[2]), 1)
setup_s = time.perf_counter() - start
for batch_seed in sys.argv[4:]:
    wl.call(int(batch_seed), int(sys.argv[3]))
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(repr(setup_s), hwm_kb / 1024)
