"""Estimators, intervals, the decay fit, and the verification harness."""

import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from manhattan_pinball import configuration, enhancement, events, geometry, montecarlo, tracer
from manhattan_pinball.configuration import Configuration, hybrid, sample
from manhattan_pinball.enhancement import (
    Pattern,
    check_detour,
    default_pattern,
    enhance,
    enhance_stack,
)
from manhattan_pinball.errors import ResourceLimitError
from manhattan_pinball.events import (EVENTS, _circuit_static, rect_crossing,
                                      surrounding_circuit_exact)
from manhattan_pinball.montecarlo import (
    EstimationReport,
    compare_enhanced,
    estimate_event,
    estimates_csv,
    event_extent,
    fit_decay,
    verification_csv,
    verify_theorem,
    wilson_interval,
)

from test_enhancement import SKEWED_PATTERN


@pytest.mark.parametrize("event", ["A", "Aprime", "Acirc", "Acirc4"])
def test_graph_event_retains_few_bytes_per_site(event):
    # what an estimate keeps between calls is its event's rasters and drawn
    # sites; a per-site catalogue beside them would double that
    estimate_event(event, 0.5, 2, 1, 1)  # first-use imports are not retained state
    for n in (16, 24):
        for module in (configuration, enhancement, events, geometry, montecarlo, tracer):
            for f in vars(module).values():
                if hasattr(f, "cache_clear"):
                    f.cache_clear()
        tracemalloc.start()
        try:
            estimate_event(event, 0.5, n, 1, 1)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        per_site = retained / (2 * event_extent(event, n) + 1) ** 2
        assert per_site <= 20, (n, per_site)


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
    reports = [estimate_event(ev, p, n, N, seed=19, pattern=pattern, workers=workers)
               for ev, p, n in GRAPH_CASES for pattern in (None, g)]
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


# Filling the copies of SKEWED_PATTERN around a read site with offsets red - s
# instead of s - red misses its sites.
FILL_CASES = (("A", (2, 5)), ("Aprime", (3, 6)), ("Acirc", (2, 3)), ("Acirc4", (2, 3)))


def _fill_run_text():
    out = []
    for event, scales in FILL_CASES:
        for n in scales:
            for p in (0.0, 0.3, 0.5, 0.7, 1.0):
                out.append(estimates_csv([estimate_event(event, p, n, 30, seed=13)]))
                for g in (default_pattern(), SKEWED_PATTERN):
                    out.append(estimates_csv([estimate_event(event, p, n, 30, seed=13,
                                                             pattern=g)]))
                    out.append(_paired_text(compare_enhanced(p, n, 30, 13, g, event)))
    return "".join(out)


def _enhanced_reads(event, p, n, g, sites):
    extent = event_extent(event, n, g)
    reads = EVENTS[event].reads(extent, n)
    stacks = montecarlo._field_stacks(p, extent, 13, range(30), sites(extent, n, event, g))
    return [enhance_stack(s, g).reshape(len(s), -1)[:, reads] for s in stacks]


def test_reports_do_not_depend_on_drawing_only_the_read_sites(monkeypatch):
    def every_site(extent, n, event, pattern):
        return np.arange((2 * extent + 1) ** 2)

    for event, scales in FILL_CASES:
        for g in (default_pattern(), SKEWED_PATTERN):
            for p in (0.3, 0.5, 0.7):
                drawn = _enhanced_reads(event, p, scales[0], g, montecarlo._fill_sites)
                full = _enhanced_reads(event, p, scales[0], g, every_site)
                assert all(np.array_equal(x, y) for x, y in zip(drawn, full)), (event, g.name, p)
    reference = _fill_run_text()
    assert len(re.findall(r"\(\d+, [1-9]", reference)) >= 5  # enhancement changes outcomes
    monkeypatch.setattr(montecarlo, "_fill_sites", every_site)
    assert _fill_run_text() == reference


# sha256 of the concatenated _paired_text of compare_enhanced(0.5, 64, 60, seed,
# default_pattern()), seeds 1 to 3, computed before samples drew only the sites
# their detector reads
PAIRED_N64_DIGEST = "a105d04266d3fdf0cd5a7267ccf947cd41d5bc2d51448377969e750b33efcf6e"


def test_paired_at_n64_matches_pinned_digest():
    g = default_pattern()
    text = "".join(_paired_text(compare_enhanced(0.5, 64, 60, seed, g)) for seed in (1, 2, 3))
    assert hashlib.sha256(text.encode()).hexdigest() == PAIRED_N64_DIGEST


# sha256 of the concatenated _paired_text of compare_enhanced(0.5, n, 200, 17,
# SKEWED_PATTERN, event) for A at n = 5 and 12 and Aprime at n = 6 and 14,
# computed when copies were indexed by their offset
PAIRED_SKEWED_DIGEST = "7f542bf5b5b5b77237c4b350253cd2aa03bda195af6dd5d9ad874549c31906f2"


def test_paired_changes_of_outcome_match_pinned_digest():
    reports = [compare_enhanced(0.5, n, 200, 17, SKEWED_PATTERN, event)
               for event, n in (("A", 5), ("A", 12), ("Aprime", 6), ("Aprime", 14))]
    assert all(pr.only_enhanced > 0 for pr in reports)  # the merge joins labels in each
    text = "".join(_paired_text(pr) for pr in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == PAIRED_SKEWED_DIGEST


# sha256 of the concatenated _paired_text of compare_enhanced(p, 5, 200, 17,
# SKEWED_PATTERN, event) for Acirc at p = 0.6, Acirc4 at 0.7 and closure at
# 0.5, computed when the tracer kernel and lockstep read separate encodings
PAIRED_REDETECT_DIGEST = "c9195986ce509166e36c8167f2b3836eb4c8e8e0d0b5b576a1034e4380f43c85"


def test_paired_redetected_changes_of_outcome_match_pinned_digest():
    reports = [compare_enhanced(p, 5, 200, 17, SKEWED_PATTERN, event)
               for event, p in (("Acirc", 0.6), ("Acirc4", 0.7), ("closure", 0.5))]
    assert all(pr.only_enhanced > 0 for pr in reports)  # re-detection changes outcomes
    text = "".join(_paired_text(pr) for pr in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == PAIRED_REDETECT_DIGEST


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.55, 0.6, 0.7, 1.0])
def test_closure_estimate_matches_per_sample_closure(p):
    # the lockstep walk of plain closure against the field-by-field detector
    for n in (1, 2, 3, 8, 16, 64):
        for seed in (2, 1001):
            N = 70  # more rays than a walk finishes one by one
            hits = sum(tracer.trace_summary(sample(p, n + 2, seed, i), abort_radius=n)[0]
                       == "closed" for i in range(N))
            assert estimate_event("closure", p, n, N, seed).hits == hits, (p, n, seed)


CLOSURE_CASES = ((0.3, 6), (0.45, 10), (0.5, 3), (0.55, 16), (0.65, 4), (0.8, 2))


def _closure_run_text(N, workers):
    return estimates_csv([estimate_event("closure", p, n, N, seed=23, pattern=pattern,
                                         workers=workers)
                          for p, n in CLOSURE_CASES for pattern in (None, default_pattern())])


# sha256 of _closure_run_text(120, 1), computed before plain closure was traced
# in lockstep; every byte must stay
CLOSURE_RUN_DIGEST = "1f9b23b45244dad9d44ec970c75a99ec63fcb04749a70f7785b2883678eaae9b"


def test_closure_estimates_match_pinned_digest():
    text = _closure_run_text(120, 1)
    assert "closure,0.55,16,120,74," in text and "closure,0.3,6,120,2," in text
    assert hashlib.sha256(text.encode()).hexdigest() == CLOSURE_RUN_DIGEST


def test_closure_does_not_depend_on_workers_or_walk_size(monkeypatch):
    reference = _closure_run_text(53, 1)  # prime: no walk size divides it
    monkeypatch.setattr(tracer, "_LOCKSTEP_BYTES", 1000)  # walks of 7 rays
    for min_rays in (32, 2):
        monkeypatch.setattr(tracer, "_LOCKSTEP_MIN_RAYS", min_rays)
        assert _closure_run_text(53, 1) == reference
        assert _closure_run_text(53, 3) == reference


def test_paired_shortcut_keeps_every_change_of_outcome(monkeypatch):
    # a non-monotone Acirc, an event whose enhanced bit is detected again: it
    # is circuit_holds where site (1, 6) is closed and its negation where it
    # is open.  The red-only pattern closes every open site of even parity,
    # never (1, 6), so fields with (1, 6) closed can gain the event and the
    # others lose it.  The paired comparison must count both changes exactly
    # as a per-sample comparison over ``enhance`` does.
    g = Pattern(frozenset(), frozenset({(0, 0)}), (0, 0))
    p, n, N, seed = 0.6, 4, 200, 29
    extent = event_extent("Acirc", n, g)
    assert events.read_mask(extent, n, "Acirc")[extent + 1, extent + 6]

    def holds(closed, n):
        return events.circuit_holds(closed, n) == closed[:, extent + 1, extent + 6]

    monkeypatch.setitem(EVENTS, "Acirc", EVENTS["Acirc"]._replace(holds=holds))
    pr = compare_enhanced(p, n, N, seed, g, "Acirc")
    only_plain = only_enhanced = 0
    for i in range(N):
        c = sample(p, extent, seed, stream_index=i)
        before, after = (holds(x.closed[np.newaxis], n)[0] for x in (c, enhance(c, g)))
        only_plain += before and not after
        only_enhanced += after and not before
    assert pr.only_plain == only_plain > 0
    assert pr.only_enhanced == only_enhanced > 0


# The events whose enhanced bit a paired comparison decides from the plain
# labelling, with the scales the merge is checked at, and those it detects
# again on the fields where it closes a red the event reads.
MERGE_CASES = (("A", (2, 5, 12)), ("Aprime", (1, 2, 3, 6, 14)))
REDETECT_CASES = (("Acirc", (3, 5)), ("Acirc4", (3, 5)), ("closure", (2, 5, 12)))


@pytest.mark.parametrize("event, scales", MERGE_CASES + REDETECT_CASES,
                         ids=[e for e, _ in MERGE_CASES + REDETECT_CASES])
def test_paired_merge_matches_detecting_the_enhanced_field(event, scales, monkeypatch):
    # the paired decider (the merge of the plain labels along the matched
    # reds, or detecting again the fields with a matched red closed) against
    # detecting the enhanced field itself, sample by sample, on the same
    # stacks of a few fields each
    monkeypatch.setattr(montecarlo, "_STACK_BYTES", 4000)
    calls = []
    label = events._label
    monkeypatch.setattr(events, "_label", lambda *args: calls.append(1) or label(*args))
    holds, N, seed = EVENTS[event].holds, 40, 17
    merge = EVENTS[event].sides is not None

    def decide(closed, n, extent, event, g):
        k, site = enhancement._matches(closed, g, reads=(n, event))
        return events.holds_closing(event, closed, n, k, site)
    only_enhanced = together = 0
    for g in (default_pattern(), SKEWED_PATTERN):
        for n in scales:
            extent = event_extent(event, n, g)
            reads = EVENTS[event].reads(extent, n)
            for p in (0.3, 0.45, 0.5, 0.55, 0.6, 0.7):
                del calls[:]
                stacks = [s.copy() for s in montecarlo._field_stacks(
                    p, extent, seed, range(N), montecarlo._fill_sites(extent, n, event, g))]
                tally = np.zeros(4, dtype=np.int64)
                for closed in stacks:
                    a, b = decide(closed, n, extent, event, g)
                    assert np.array_equal(a, holds(closed, n)), (event, g.name, n, p)
                    assert np.array_equal(b, holds(enhance_stack(closed, g), n)), \
                        (event, g.name, n, p)
                    tally += np.bincount(a + 2 * b, minlength=4)
                    for field in closed[b & ~a]:
                        reds = np.intersect1d(enhancement.matched_reds(field, g, None), reads)
                        alone = np.repeat(field[np.newaxis], len(reds), axis=0)
                        alone.reshape(len(reds), -1)[np.arange(len(reds)), reds] = True
                        together += not holds(alone, n).any()
                if merge:
                    assert tally[1] == 0  # closing edges never breaks a crossing
                only_enhanced += int(tally[2])
                del calls[:]
                pr = compare_enhanced(p, n, N, seed, g, event)
                if merge:
                    assert len(calls) == len(stacks)  # one labelling per stack
                assert (pr.only_plain, pr.only_enhanced, pr.both) == tuple(tally[1:])
    assert only_enhanced > 0
    if merge:
        assert together > 0  # some field is joined by two reds or more, none alone


def test_paired_merge_maps_only_the_reds_of_fields_where_the_plain_event_fails(monkeypatch):
    # a red closed in a field that already crosses changes no bit, so the
    # merge maps to pixels only the reds of the fields where the event fails
    mapped, ends = [], events.Raster.ends
    monkeypatch.setattr(events.Raster, "ends",
                        lambda raster, M, sites: mapped.extend(sites.tolist()) or ends(raster, M, sites))
    g, event, n = SKEWED_PATTERN, "A", 2
    extent = event_extent(event, n, g)
    closed = next(montecarlo._field_stacks(
        0.5, extent, 17, range(40), montecarlo._fill_sites(extent, n, event, g)))
    k, site = enhancement._matches(closed, g, reads=(n, event))
    a, _ = events.holds_closing(event, closed, n, k, site)
    assert a[k].any() and len(mapped) == np.count_nonzero(~a[k]) > 0


VERIFY_CASES = ((0.55, 128, 40, 1, 1), (0.55, 128, 40, 2, 1), (0.55, 128, 40, 3, 1),
                (0.6, 104, 12, 8, 2))


def _verify_run_text():
    g = default_pattern()
    out = []
    for p, n, N, seed, workers in VERIFY_CASES:
        records, _ = verify_theorem(p, n, N, seed, g, workers=workers)
        out.append(verification_csv(records) + "".join(r.diagnostics + "\n" for r in records))
    return "".join(out)


# sha256 of _verify_run_text(), the verification CSVs and every record's
# diagnostics, computed before verify drew only the sites a record reads
VERIFY_RUN_DIGEST = "ab991dd2951eb270a0bed331382e698344387e12372e4d0ba43f83a16d0b9f22"


def test_verify_records_match_pinned_digest():
    text = _verify_run_text()
    assert text.count(",1,1,1,1,1\n") == 126  # samples with a circuit, all passed
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_RUN_DIGEST


def _reference_records(p, n, N, seed, g):
    D = check_detour(g).radius
    extent = montecarlo.verify_extent(n, g, D)
    return [montecarlo._verify_reference(p, n, seed, extent, g, D, i) for i in range(N)]


@pytest.mark.parametrize("p, seed", [(0.0, 1), (0.5, 2), (0.52, 5), (0.55, 11), (0.6, 8), (1.0, 3)])
def test_verify_fast_path_matches_reference(p, seed):
    g = default_pattern()
    records, _ = verify_theorem(p, 102, 16, seed, g)
    assert records == _reference_records(p, 102, 16, seed, g)


def test_verify_decides_the_circuit_on_the_enhanced_field_and_walks_the_raw_one(monkeypatch):
    # the matched reds are closed for the circuit and open again for the walk
    g = default_pattern()
    p, n, N, seed = 0.55, 102, 8, 2
    D = check_detour(g).radius
    extent = montecarlo.verify_extent(n, g, D)
    circuits, walked = [], []
    real_holds, real_fill = montecarlo.circuit_holds, tracer.TableWalks.fill
    monkeypatch.setattr(montecarlo, "circuit_holds", lambda closed, n: (
        circuits.append(closed[0].copy()) or real_holds(closed, n)))
    monkeypatch.setattr(tracer.TableWalks, "fill", lambda walks, closed: (
        walked.append(closed.copy()) or real_fill(walks, closed)))
    records = montecarlo._verify_samples((p, n, seed, extent, g, D, range(N)))
    reads = _circuit_static(extent, n)[0].sites
    drawn = montecarlo._verify_static(extent, n, g, 2 * n + 2 * D)
    raw = [sample(p, extent, seed, i).closed for i in range(N)]
    patched = [0, 0]  # samples whose reds change what the circuit, the walk reads
    for field, w in zip(circuits, raw):
        enhanced = enhance_stack(w, g).ravel()[reads]
        assert np.array_equal(field.ravel()[reads], enhanced)
        patched[0] += not np.array_equal(w.ravel()[reads], enhanced)
    for field, w in zip(walked, [w for r, w in zip(records, raw) if r.circuit]):
        assert np.array_equal(field[drawn], w[drawn])
        patched[1] += not np.array_equal(field[drawn], enhance_stack(w, g)[drawn])
    assert len(circuits) == N and min(patched) > 0


# (circuit, raw, hybrid) -> (closed, contained, hybrid_contained, passed) of
# _record at n = 102, D = 4: the raw bound is 2n + 2D = 212, the hybrid's 2n = 204
RECORD_CASES = {
    "raw at 2n+2D": (True, (True, 212), (True, 10), (True, True, True, True)),
    "raw at 2n+2D+1": (True, (True, 213), (True, 10), (True, False, True, False)),
    "hybrid at 2n": (True, (True, 10), (True, 204), (True, True, True, True)),
    "hybrid at 2n+1": (True, (True, 10), (True, 205), (True, True, False, False)),
    "raw open": (True, (False, 10), (True, 10), (False, False, True, False)),
    "hybrid open": (True, (True, 10), (False, 10), (True, True, False, False)),
    "no circuit": (False, None, None, (None, None, None, True)),
}


@pytest.mark.parametrize("circuit, raw, hybrid_orbit, want", RECORD_CASES.values(),
                         ids=RECORD_CASES.keys())
def test_record_decides_at_the_bounds(circuit, raw, hybrid_orbit, want):
    r = montecarlo._record(7, circuit, raw, hybrid_orbit, 102, 4)
    assert (r.sample, r.circuit, r.diagnostics) == (7, circuit, "")
    assert (r.closed, r.contained, r.hybrid_contained, r.passed) == want


@pytest.mark.parametrize("over", [0, 1])
def test_verify_fast_path_hands_what_record_fails_to_the_reference(monkeypatch, over):
    # the fast path's hybrid orbits read containment 2n + over: at 2n + 1
    # _record fails every circuit sample, which the reference then recomputes
    g = default_pattern()
    p, n, N, seed = 0.55, 102, 8, 2
    D = check_detour(g).radius
    extent = montecarlo.verify_extent(n, g, D)
    expected = _reference_records(p, n, N, seed, g)
    circuits = [r.sample for r in expected if r.circuit]
    recomputed = _shrunk_reach(monkeypatch, 2 * n + 2 * D)
    real_fill, real_close = tracer.TableWalks.fill, tracer.TableWalks.close
    real_containment = tracer.TableWalks.containment

    def fill(walks, closed):  # the reference's walks never close reds
        walks.hybrid = False
        real_fill(walks, closed)

    def close(walks, sites):
        walks.hybrid = True
        real_close(walks, sites)

    monkeypatch.setattr(tracer.TableWalks, "fill", fill)
    monkeypatch.setattr(tracer.TableWalks, "close", close)
    monkeypatch.setattr(tracer.TableWalks, "containment", lambda walks, path: (
        2 * n + over if walks.hybrid else real_containment(walks, path)))
    assert montecarlo._verify_samples((p, n, seed, extent, g, D, range(N))) == expected
    assert circuits and recomputed == (circuits if over else [])


def test_estimates_reject_scales_below_the_events_least_before_a_run(monkeypatch):
    monkeypatch.setattr(montecarlo, "_run", lambda *args: pytest.fail("a run started"))
    with pytest.raises(ValueError, match="Acirc needs n >= 2, got 1"):
        estimate_event("Acirc", 0.5, 1, 4, 1, workers=2)
    with pytest.raises(ValueError, match="Acirc needs n >= 2, got 1"):
        compare_enhanced(0.5, 1, 4, 1, default_pattern(), event="Acirc", workers=2)


def _shrunk_reach(monkeypatch, reach):
    """Raw walks abort beyond Q_reach, drawing Q_reach alone of the raw walk's
    region; returns the list of samples recomputed by _verify_reference."""
    real_static, real_reference = montecarlo._verify_static, montecarlo._verify_reference
    recomputed = []

    def reference(*args):
        recomputed.append(args[-1])
        return real_reference(*args)

    monkeypatch.setattr(montecarlo, "_verify_static",
                        lambda extent, n, g, _: real_static(extent, n, g, reach))
    monkeypatch.setattr(montecarlo, "TableWalks", lambda M, _: tracer.TableWalks(M, reach))
    monkeypatch.setattr(montecarlo, "_verify_reference", reference)
    return recomputed


@pytest.mark.parametrize("reach", [0, 8, 150])
def test_verify_falls_back_to_reference_beyond_the_drawn_region(monkeypatch, reach):
    # a raw orbit that leaves Q_reach, or a hybrid orbit that leaves Q_2n,
    # is recomputed on whole fields; every record stays as the reference's
    g = default_pattern()
    p, n, N, seed = 0.55, 102, 24, 4
    expected = _reference_records(p, n, N, seed, g)
    circuits = [r.sample for r in expected if r.circuit]
    recomputed = _shrunk_reach(monkeypatch, reach)
    records, _ = verify_theorem(p, n, N, seed, g)
    assert records == expected
    assert set(recomputed) <= set(circuits)
    if reach == 0:  # every raw walk aborts on its first step
        assert recomputed == circuits
    elif reach == 8:
        assert 0 < len(recomputed) < len(circuits)


def test_verify_fallback_keeps_failures_and_their_diagnostics(monkeypatch):
    # a hybrid field with no mirror lets its ray escape: every circuit sample
    # then fails, and only the fallback can see it
    g = default_pattern()
    _shrunk_reach(monkeypatch, 0)
    monkeypatch.setattr(montecarlo, "hybrid", lambda w, w_t, k: Configuration(
        extent=w.extent, closed=np.zeros_like(w.closed)))
    records, summary = verify_theorem(0.6, 102, 6, 8, g)
    failed = [r for r in records if r.circuit]
    assert failed and summary.failures == len(failed) and summary.conditional_pass_rate == 0.0
    for r in failed:
        assert (r.closed, r.contained, r.hybrid_contained, r.passed) == (True, True, False, False)
        assert r.diagnostics.startswith(f"seed=8 stream={r.sample} n=102 p=0.6 extent=")
        assert "hybrid_status=escaped" in r.diagnostics


@pytest.mark.parametrize("event", ["A", "Aprime", "Acirc", "Acirc4", "closure"])
def test_estimates_check_the_extent_before_building_tables(event):
    # numpy would refuse the (2M + 1)^2 tables at once, with a traceback
    g = default_pattern()
    with pytest.raises(ResourceLimitError):
        estimate_event(event, 0.5, 100000, 1, 1)
    with pytest.raises(ResourceLimitError):
        estimate_event(event, 0.5, 100000, 1, 1, pattern=g)
    with pytest.raises(ResourceLimitError):
        compare_enhanced(0.5, 100000, 1, 1, g, event=event)


@pytest.mark.parametrize("n", [0, -1])
def test_estimates_reject_scales_below_one(n):
    for event in EVENTS:
        with pytest.raises(ValueError, match="n >= 1"):
            estimate_event(event, 0.5, n, 5, 1)


def _planted(c, g, core):
    """``c`` with a copy of ``g`` planted near the origin so that the origin's
    orbit crosses its red site, which is a red of the hybrid at ``core``."""
    M = c.extent
    offsets = itertools.product(range(-9, 10), repeat=2)
    for t1, t2 in sorted(offsets, key=lambda t: abs(t[0]) + abs(t[1])):
        if (t1 + t2) % 2:
            continue
        red = (g.red_site[0] + t1, g.red_site[1] + t2)
        closed = c.closed.copy()
        for sites, bit in ((g.closed_sites, True), (g.open_sites, False)):
            for a, b in sites:
                closed[a + t1 + M, b + t2 + M] = bit
        planted = Configuration(extent=M, closed=closed)
        if (red in tracer.trace(planted).visited
                and hybrid(planted, enhance(planted, g), core).closed_at(red)):
            return planted, red
    raise AssertionError("no copy of the pattern lies on the orbit")


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_verify_walks_the_hybrid_again_when_the_raw_orbit_meets_its_red(monkeypatch, seed):
    # reds of the hybrid lie outside Q_100, where sampled orbits rarely go: a
    # copy planted on the orbit, with the core shrunk to Q_2, makes the
    # hybrid orbit differ from the raw one
    g, core, n = default_pattern(), 2, 16
    D = check_detour(g).radius
    extent = montecarlo.verify_extent(n, g, D)
    field, red = _planted(sample(0.7, extent, seed), g, core)
    assert surrounding_circuit_exact(enhance(field, g), n).holds
    assert (tracer.trace_summary(field)
            != tracer.trace_summary(hybrid(field, enhance(field, g), core)))
    closes = []
    real_close = tracer.TableWalks.close
    monkeypatch.setattr(tracer.TableWalks, "close",
                        lambda walks, sites: closes.append(sites) or real_close(walks, sites))
    monkeypatch.setattr(montecarlo, "_CORE_RADIUS", core)
    monkeypatch.setattr(montecarlo, "_verify_static", montecarlo._verify_static.__wrapped__)
    monkeypatch.setattr(montecarlo, "region_sampler",
                        lambda M, mask: lambda base, p, out: np.copyto(out, field.closed))
    monkeypatch.setattr(montecarlo, "sample", lambda p, M, seed, stream_index: field)
    # the (circuit, raw, hybrid) each path hands to _record: a record passes on
    # a hybrid orbit it walked wrongly, but that orbit then reads differently
    decided = []
    real_record = montecarlo._record
    monkeypatch.setattr(montecarlo, "_record",
                        lambda i, *args: decided.append(args[:3]) or real_record(i, *args))
    fast = montecarlo._verify_samples((0.7, n, seed, extent, g, D, range(1)))
    assert fast == [montecarlo._verify_reference(0.7, n, seed, extent, g, D, 0)]
    assert len(decided) == 2 and decided[0] == decided[1]
    assert fast[0].circuit and len(closes) == 1
    W = 2 * extent + 1
    assert (red[0] + extent) * W + red[1] + extent in closes[0]
