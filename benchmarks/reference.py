"""The reference kernel that puts the benchmark's times on a steady scale.

The benchmark shares a few cores of a host whose speed moves by up to 2.5x
within minutes.  A run times this kernel right
before and right after each timed call or set-up probe, and scales the call's
time by ``NOMINAL_S`` over the mean of the two kernel times: the time the call
would have taken on a machine where the kernel takes ``NOMINAL_S`` seconds.

The kernel uses none of the package.  It mixes the kinds of work the
workloads do: a Python loop of scalar array reads and small-integer updates,
like the tracer's step loop, and ``connected_components`` on fixed random
subgraphs of a small and a large grid, like the event detectors.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# About the kernel's time on a calm period of the 2-core machine the
# benchmark was built on; it sets the scale only.
NOMINAL_S = 0.125

_STEPS = 160_000
_DX = (1, 0, -1, 0)
_DY = (0, 1, 0, -1)


def _grid_graphs(w, count, rng):
    """``count`` random subgraphs of the w x w grid, each edge kept with chance 1/2."""
    idx = np.arange(w * w, dtype=np.int32).reshape(w, w)
    rows = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    cols = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    graphs = []
    for _ in range(count):
        keep = rng.random(rows.size) < 0.5
        graphs.append(csr_matrix((np.ones(int(keep.sum())), (rows[keep], cols[keep])),
                                 shape=(w * w, w * w)))
    return graphs


# Built once, so that the kernel allocates little and the same each run.
_rng = np.random.default_rng(12345)
_MIRRORS = _rng.random((101, 101)) < 0.5
_SMALL = _grid_graphs(101, 8, _rng)
_LARGE = _grid_graphs(401, 2, _rng)


def kernel() -> int:
    """A fixed amount of work; returns a checksum so none of it is skipped."""
    g, w = _MIRRORS, _MIRRORS.shape[0] - 2
    x = y = w // 2
    d = acc = 0
    for _ in range(_STEPS):
        d = (d + 1) & 3 if g[x, y] else (d + 3) & 3
        x = 1 + (x + _DX[d]) % w
        y = 1 + (y + _DY[d]) % w
        acc += x
    for graph in _SMALL * 5 + _LARGE * 2:
        acc += connected_components(graph, directed=False)[0]
    return acc


def timed(at_least: float) -> float:
    """Seconds per kernel run, over as many runs as fill ``at_least`` seconds (one at least)."""
    runs, t0 = 0, time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= at_least:
            return elapsed / runs
