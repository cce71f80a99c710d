"""Estimators, intervals, the decay fit, and the verification harness."""

import hashlib
import math

import numpy as np
import pytest

from manhattan_pinball import montecarlo
from manhattan_pinball.configuration import Configuration, sample
from manhattan_pinball.enhancement import Pattern, default_pattern, enhance_stack
from manhattan_pinball.events import rect_crossing
from manhattan_pinball.montecarlo import (
    EstimationReport,
    compare_enhanced,
    estimate_event,
    estimates_csv,
    event_extent,
    fit_decay,
    fits_csv,
    verification_csv,
    verify_theorem,
    wilson_interval,
)


def test_wilson_basics():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0 < hi < 0.1
    lo, hi = wilson_interval(50, 50)
    assert 0.9 < lo < 1 and hi == 1.0
    for k, n in ((3, 10), (17, 40), (250, 1000)):
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_wilson_coverage_meta():
    # empirical 95% coverage over 1000 synthetic Bernoulli runs
    rng = np.random.default_rng(7)
    q, N = 0.3, 60
    covered = 0
    for _ in range(1000):
        k = rng.binomial(N, q)
        lo, hi = wilson_interval(k, N)
        covered += lo <= q <= hi
    assert 0.93 <= covered / 1000 <= 0.97


def test_estimate_trivial_endpoints():
    assert estimate_event("Aprime", 1.0, 8, 100, seed=1).estimate == 1.0
    assert estimate_event("Aprime", 0.0, 8, 100, seed=1).estimate == 0.0
    assert estimate_event("closure", 1.0, 8, 100, seed=1).estimate == 1.0
    r = estimate_event("A", 0.0, 8, 50, seed=1)
    assert r.estimate == 0.0 and r.hits == 0 and r.trials == 50
    assert r.ci_lo <= r.estimate <= r.ci_hi


def test_estimate_unknown_event():
    with pytest.raises(ValueError, match="unknown event"):
        estimate_event("bogus", 0.5, 8, 10, seed=1)
    with pytest.raises(ValueError):
        estimate_event("A", 0.5, 8, 0, seed=1)


def test_estimate_worker_invariance():
    r1 = estimate_event("Acirc", 0.55, 8, 37, seed=5, workers=1)
    r3 = estimate_event("Acirc", 0.55, 8, 37, seed=5, workers=3)
    assert (r1.hits, r1.estimate, r1.ci_lo, r1.ci_hi) == (
        r3.hits, r3.estimate, r3.ci_lo, r3.ci_hi)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    g = default_pattern()
    with pytest.raises(ValueError, match="workers"):
        estimate_event("closure", 0.5, 4, 10, seed=1, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        compare_enhanced(0.5, 4, 10, seed=1, g=g, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        verify_theorem(0.5, 101, 10, seed=1, g=g, workers=workers)


def test_event_extent_covers_enhanced_padding():
    g = default_pattern()
    assert event_extent("Acirc", 8) == 18
    assert event_extent("Acirc", 8, g) == 18 + g.radius


def test_compare_enhanced_monotone_and_trivial():
    g = default_pattern()
    pr = compare_enhanced(0.5, 8, 300, seed=3, g=g)
    assert pr.only_plain == 0  # closing edges never destroys a crossing
    assert pr.gap >= 0
    assert pr.gap_ci_lo <= pr.gap <= pr.gap_ci_hi
    assert pr.plain.trials == pr.enhanced.trials == 300
    # at p = 1 every open requirement fails, the pattern never matches, and
    # both estimates saturate: zero gap
    pr1 = compare_enhanced(1.0, 8, 50, seed=3, g=g)
    assert pr1.gap == 0.0 and pr1.only_enhanced == pr1.only_plain == 0


def test_compare_never_matching_pattern_zero_gap():
    # impossible requirements: the match needs a mirror fully surrounded by
    # required-open sites at distance 0 -- contradiction is via p = 0 fields
    g = default_pattern()
    pr = compare_enhanced(0.0, 8, 50, seed=9, g=g)
    assert pr.gap == 0.0 and pr.plain.hits == 0 and pr.enhanced.hits == 0


def test_fit_decay_exact_synthetic():
    series = []
    for n in (8, 16, 32):
        est = 1 - math.exp(-0.2 * n)
        series.append((n, EstimationReport(
            event="closure", p=0.6, n=n, trials=100, hits=int(est * 100),
            estimate=est, ci_lo=0, ci_hi=1, seed=0)))
    f = fit_decay(series)
    assert abs(f.c_hat - 0.2) < 1e-9
    assert abs(f.r2 - 1.0) < 1e-12
    assert not f.degenerate


def test_fit_decay_degenerate_and_errors():
    def rep(n, est):
        return (n, EstimationReport(event="e", p=0.6, n=n, trials=10,
                                    hits=int(est * 10), estimate=est,
                                    ci_lo=0, ci_hi=1, seed=0))
    series = [rep(8, 1 - math.exp(-0.2 * 8)), rep(16, 1 - math.exp(-0.2 * 16)),
              rep(32, 1 - math.exp(-0.2 * 32)), rep(64, 1.0)]
    f = fit_decay(series)
    assert f.degenerate and len(f.points) == 3
    with pytest.raises(ValueError):
        fit_decay([rep(8, 1.0), rep(16, 1.0), rep(32, 1.0)])
    with pytest.raises(ValueError):
        fit_decay([rep(8, 0.5), rep(16, 0.6)])


def test_verify_theorem_trivial_p():
    g = default_pattern()
    recs, summ = verify_theorem(1.0, 101, 3, seed=1, g=g)
    assert summ.circuits == 3 and summ.failures == 0
    assert summ.conditional_pass_rate == 1.0
    for r in recs:
        assert r.circuit and r.closed and r.contained and r.hybrid_contained
    recs, summ = verify_theorem(0.0, 101, 3, seed=1, g=g)
    assert summ.circuits == 0 and summ.conditional_pass_rate == 1.0
    assert all(r.passed and not r.circuit for r in recs)


def test_verify_theorem_pass_invariant():
    g = default_pattern()
    recs, summ = verify_theorem(0.6, 104, 12, seed=8, g=g, workers=2)
    assert [r.sample for r in recs] == list(range(12))
    for r in recs:
        assert r.passed == ((not r.circuit) or
                            (r.closed and r.contained and r.hybrid_contained))
    assert summ.failures == sum(not r.passed for r in recs)


def test_verify_theorem_guards():
    g = default_pattern()
    with pytest.raises(ValueError, match="n > 100"):
        verify_theorem(0.5, 100, 5, seed=1, g=g)
    with pytest.raises(ValueError, match="detour"):
        broken = Pattern(closed_sites=frozenset(sorted(g.closed_sites)[:-1]),
                         open_sites=g.open_sites, red_site=g.red_site)
        verify_theorem(0.5, 101, 5, seed=1, g=broken)


def test_csv_schemas():
    r = estimate_event("Aprime", 0.0, 8, 10, seed=1)
    text = estimates_csv([r])
    lines = text.splitlines()
    assert lines[0] == "event,p,n,N,hits,estimate,ci_lo,ci_hi,seed,generator,walltime_ms"
    assert lines[1].startswith("Aprime,0.0,8,10,0,0.0,0.0,")
    assert lines[1].endswith(",1,splitmix64-v1,0")
    g = default_pattern()
    recs, _ = verify_theorem(1.0, 101, 2, seed=1, g=g)
    vtext = verification_csv(recs)
    assert vtext.splitlines()[0] == "sample,circuit,closed,contained,hybrid_contained,pass"
    assert vtext.splitlines()[1] == "0,1,1,1,1,1"
    f = fit_decay([(n, EstimationReport(event="e", p=0.6, n=n, trials=10, hits=5,
                                        estimate=1 - math.exp(-0.1 * n),
                                        ci_lo=0, ci_hi=1, seed=0))
                   for n in (8, 16, 32)])
    assert fits_csv([f]).splitlines()[0] == "c_hat,intercept,r2,points_used"


def test_coupled_monotonicity_small():
    # shared uniforms: increasing p only adds mirrors, and every detector is
    # closed-increasing
    from manhattan_pinball.configuration import threshold, uniforms
    from manhattan_pinball.events import (
        radial_closed_path, rect_crossing, surrounding_circuit_exact)
    n = 4
    for i in range(60):
        f = uniforms(2 * n + 2, seed=77, stream_index=i)
        lo, hi = threshold(f, 0.35), threshold(f, 0.65)
        assert radial_closed_path(lo, n).holds <= radial_closed_path(hi, n).holds
        assert rect_crossing(lo, n, "T").holds <= rect_crossing(hi, n, "T").holds
        assert (surrounding_circuit_exact(lo, n).holds
                <= surrounding_circuit_exact(hi, n).holds)


# Graph events at scales and p where some samples hold, plain and enhanced.
GRAPH_CASES = (("A", 0.5, 6), ("Aprime", 0.55, 6), ("Acirc", 0.75, 4), ("Acirc4", 0.8, 4))
PAIRED_CASES = ((0.55, 8, 400, 29, "Aprime"), (0.75, 4, 90, 31, "Acirc"))


def _paired_text(pr):
    return estimates_csv([pr.plain, pr.enhanced]) + repr(
        (pr.both, pr.only_enhanced, pr.only_plain, pr.gap, pr.gap_ci_lo, pr.gap_ci_hi))


def _graph_run_text(N, workers):
    g = default_pattern()
    reports = [estimate_event(ev, p, n, N, seed=19, enhanced=enhanced, workers=workers)
               for ev, p, n in GRAPH_CASES for enhanced in (False, True)]
    paired = [compare_enhanced(p, n, min(N, trials), seed, g, event, workers=workers)
              for p, n, trials, seed, event in PAIRED_CASES]
    return estimates_csv(reports) + "".join(_paired_text(pr) for pr in paired)


# sha256 of _graph_run_text(50, 1), computed before graph events were detected
# on stacks of samples; every byte must stay
GRAPH_RUN_DIGEST = "9536a79a72478b5114978cf50c2b93e8d95378f7de564db606523676c45a53a9"


def test_graph_estimates_match_pinned_digest():
    text = _graph_run_text(50, 1)
    assert "Acirc4,0.8,4,50,6," in text  # some samples of each event hold
    assert hashlib.sha256(text.encode()).hexdigest() == GRAPH_RUN_DIGEST


def test_reports_do_not_depend_on_workers_or_stack_size(monkeypatch):
    # 37 is prime, so no stack size divides it: every run has a short stack
    reference = _graph_run_text(37, 1)
    monkeypatch.setattr(montecarlo, "_STACK_BYTES", 2000)  # 2 to 6 fields a stack
    assert _graph_run_text(37, 1) == reference
    assert _graph_run_text(37, 3) == reference


def test_paired_shortcut_keeps_every_change_of_outcome(monkeypatch):
    # a non-monotone "enhancement": fields whose site (0, 0) is open lose
    # closed edges and can lose their crossing, the others gain a straight
    # crossing of T.  The paired comparison must count both changes exactly
    # as a per-sample comparison without the shortcut does.
    g = default_pattern()
    p, n, N, seed = 0.55, 6, 120, 29
    real = enhance_stack
    extent = event_extent("Aprime", n, g)
    a, b = np.meshgrid(np.arange(-extent, extent + 1), np.arange(-extent, extent + 1),
                       indexing="ij")
    cut = (a - b == 1) & (b % 2 == 0)  # every other edge across a - b = 1
    line = a + b - 1 == 3  # the straight crossing of T along u = 3

    def fake(closed, pattern):
        out = real(closed, pattern)
        center = closed[:, extent, extent]
        out[~center] &= ~cut
        out[center] |= line
        return out

    monkeypatch.setattr(montecarlo, "enhance_stack", fake)
    pr = compare_enhanced(p, n, N, seed, g)
    only_plain = only_enhanced = 0
    for i in range(N):
        c = sample(p, extent, seed, stream_index=i)
        e = Configuration(extent=extent, closed=fake(c.closed[np.newaxis], g)[0])
        before, after = rect_crossing(c, n).holds, rect_crossing(e, n).holds
        only_plain += before and not after
        only_enhanced += after and not before
    assert pr.only_plain == only_plain > 0
    assert pr.only_enhanced == only_enhanced > 0
    assert pr.only_plain < pr.plain.hits  # the cut spares some crossings
