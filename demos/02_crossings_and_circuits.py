"""Percolation events on the mirror lattice.

Three families of events drive the localization argument: a closed radial
path from the center past Q_n, long-direction closed crossings of tilted
rectangles, and a closed circuit inside Q_2n that surrounds Q_n.  The exact
circuit detector asks whether the mirrors cut the center face off from the
faces outside Q_2n (planar-dual reachability); a primal check, the parity of
crossings of a cut ray, must always agree with it, and crossing all four
rectangles ringing Q_n is a sufficient (strictly weaker) condition.
"""

from manhattan_pinball.configuration import sample
from manhattan_pinball.events import (
    dual_crosscheck,
    radial_closed_path,
    rect_crossing,
    surrounding_circuit_4rect,
    surrounding_circuit_exact,
)

N = 8
TRIALS = 300


def frequency(fn):
    hits = 0
    for i in range(TRIALS):
        c = sample(0.55, 2 * N + 2, seed=7, stream_index=i)
        hits += fn(c)
    return hits / TRIALS


def main():
    print(f"event frequencies at p=0.55, n={N}, {TRIALS} samples:")
    print(f"  radial escape path   {frequency(lambda c: radial_closed_path(c, N).holds):.3f}")
    print(f"  rectangle T crossing {frequency(lambda c: rect_crossing(c, N, 'T').holds):.3f}")
    print(f"  circuit (exact)      {frequency(lambda c: surrounding_circuit_exact(c, N).holds):.3f}")
    print(f"  circuit (4 rect)     {frequency(lambda c: surrounding_circuit_4rect(c, N).holds):.3f}")

    print("\nexact detector vs primal crosscheck on 500 fresh samples:", end=" ")
    agree = all(
        surrounding_circuit_exact(c, N).holds == dual_crosscheck(c, N)
        for c in (sample(0.5, 2 * N + 2, seed=8, stream_index=i) for i in range(500))
    )
    print("agree" if agree else "DISAGREE")

    # dig out one circuit and show its winding witness
    for i in range(2000):
        c = sample(0.62, 2 * N + 2, seed=9, stream_index=i)
        r = surrounding_circuit_exact(c, N, witness=True)
        if r.holds:
            print(f"\nsample {i} carries a surrounding circuit "
                  f"({len(r.witness) - 1} edges); first vertices:")
            print("  " + " -> ".join(str(v) for v in r.witness[:6]) + " ...")
            break


if __name__ == "__main__":
    main()
