"""Enhancement patterns: matching oracle, the three validity checks, search."""

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manhattan_pinball import events
from manhattan_pinball.cli import main as cli_main
from manhattan_pinball.configuration import Configuration, constant, from_closed_sites, sample
from manhattan_pinball.enhancement import (
    Pattern,
    check_detour,
    check_essential,
    check_translation_lemma,
    default_pattern,
    dumps_pattern,
    enhance,
    load_pattern,
    loads_pattern,
    match_pattern,
    matched_reds,
    save_pattern,
    search_patterns,
    validate_pattern,
)
from manhattan_pinball.errors import ConfigParseError
from manhattan_pinball.geometry import edge_for_site


# An asymmetric pattern whose red site is not the origin, so that a copy's
# offset and its red site differ.  It matches often, so enhancement changes
# many outcomes.
SKEWED_PATTERN = Pattern(closed_sites=frozenset({(4, 2)}), open_sites=frozenset({(1, 2), (1, 3)}),
                         red_site=(1, 2), name="skewed")


def vertex_in_q(vertex, k):
    """Q_k membership of a real point, from the paper's inequalities."""
    x, y = vertex
    return abs(x + y - 1) <= k and abs(x - y) <= k


def brute_match(c, g, excluded_core=None):
    """Exhaustive reference matcher: test every offset site by site."""
    M = c.extent
    out = []
    for t1 in range(-2 * M, 2 * M + 1):
        for t2 in range(-2 * M, 2 * M + 1):
            if (t1 + t2) % 2 != 0:
                continue
            if not all(abs(a + t1) <= M and abs(b + t2) <= M for a, b in g.sites):
                continue
            if not all(c.closed_at((a + t1, b + t2)) for a, b in g.closed_sites):
                continue
            if any(c.closed_at((a + t1, b + t2)) for a, b in g.open_sites):
                continue
            if excluded_core is not None:
                v1, v2 = edge_for_site((g.red_site[0] + t1, g.red_site[1] + t2))
                if vertex_in_q(v1, excluded_core) and vertex_in_q(v2, excluded_core):
                    continue
            out.append((t1, t2))
    return sorted(out)


def test_match_against_brute_oracle():
    for g in (default_pattern(), SKEWED_PATTERN):
        for seed in range(8):
            c = sample(0.35, 7, seed=seed)
            assert sorted(match_pattern(c, g).offsets) == brute_match(c, g)
            assert sorted(match_pattern(c, g, excluded_core=4).offsets) == brute_match(
                c, g, excluded_core=4)


def test_planted_copy_matches():
    g = default_pattern()
    c = from_closed_sites(8, g.closed_sites)
    assert match_pattern(c, g).offsets == ((0, 0),)
    e = enhance(c, g)
    diff = np.argwhere(e.closed != c.closed)
    assert [tuple(d - 8) for d in diff] == [g.red_site]
    assert e.provenance == "enhanced"


def test_translated_planted_copy():
    g = default_pattern()
    t = (4, -2)  # even coordinate sum keeps street parities aligned
    c = from_closed_sites(9, {(a + t[0], b + t[1]) for a, b in g.closed_sites})
    assert match_pattern(c, g).offsets == (t,)


def test_enhance_changes_exactly_matched_reds():
    for g, seed in itertools.product((default_pattern(), SKEWED_PATTERN), range(6)):
        c = sample(0.5, 10, seed=100 + seed)
        e = enhance(c, g)
        diff = {tuple(d - 10) for d in np.argwhere(e.closed != c.closed)}
        ra, rb = g.red_site
        assert diff == {(ra + t1, rb + t2) for t1, t2 in match_pattern(c, g).offsets}
        assert not (c.closed & ~e.closed).any()  # closed-increasing


def test_excluded_core_drops_central_matches():
    g = default_pattern()
    c = from_closed_sites(8, g.closed_sites)
    assert match_pattern(c, g, excluded_core=4).offsets == ()
    # a far translate survives the same exclusion
    t = (6, 6)
    c2 = from_closed_sites(12, {(a + t[0], b + t[1]) for a, b in g.closed_sites})
    assert match_pattern(c2, g, excluded_core=4).offsets == (t,)


@pytest.mark.parametrize("core", [None, 2, 100])
def test_matched_reds_are_the_sites_enhance_closes(core):
    M = 110
    for g in (default_pattern(), SKEWED_PATTERN):
        fields = [sample(p, M, seed=31, stream_index=i) for i, p in enumerate((0.0, 0.4, 0.5))]
        planted = sample(0.4, M, seed=32).closed.copy()
        # red edges inside Q_2, inside Q_100 only, and outside Q_100 twice
        for t1, t2 in ((0, 0), (6, 6), (60, 60), (-90, 20)):
            for sites, bit in ((g.closed_sites, True), (g.open_sites, False)):
                for a, b in sites:
                    planted[a + t1 + M, b + t2 + M] = bit
        fields.append(Configuration(extent=M, closed=planted))
        for c in fields:
            reds = matched_reds(c.closed, g, core)
            assert np.array_equal(
                reds, np.flatnonzero(enhance(c, g, excluded_core=core).closed & ~c.closed))
        assert len(reds) >= {None: 4, 2: 3, 100: 2}[core]


def test_shipped_pattern_passes_all_checks():
    g = default_pattern()
    report = validate_pattern(g)
    assert report.translation_ok
    assert report.detour.ok and report.detour.radius <= 5
    assert set(report.detour.returns) == {"E", "N"}
    assert report.essential_witness is not None
    assert report.all_ok


def test_detour_is_exactly_the_reflected_exit():
    g = default_pattern()
    det = check_detour(g)
    # the red edge at (0, 0) is NE, so east in must leave north and vice versa
    assert det.returns == {"E": "N", "N": "E"}
    assert det.radius == 3
    assert set(det.diagnostics) == {"W", "S"}


def test_translation_lemma_counterexample_detected():
    # closed (3,1) and open (2,0): shifting by (2,0) is parity-valid,
    # overlapping, jointly satisfiable, and puts the red on the other copy's
    # required-open site (2,0)
    bad = Pattern(closed_sites=frozenset({(3, 1)}),
                  open_sites=frozenset({(0, 0), (2, 0)}),
                  red_site=(0, 0))
    ok, ce = check_translation_lemma(bad)
    assert not ok
    assert ce in ((2, 0), (-2, 0))


def test_detour_failure_on_broken_pattern():
    g = default_pattern()
    mirrors = sorted(g.closed_sites)
    broken = Pattern(closed_sites=frozenset(mirrors[:-1]),
                     open_sites=g.open_sites, red_site=g.red_site)
    assert not check_detour(broken).ok


def test_detour_rejects_unconstrained_visits():
    # same loop shape but with the required-open legs left unconstrained:
    # a random mirror on the leg could derail the splice, so the check fails
    g = default_pattern()
    stripped = Pattern(closed_sites=g.closed_sites,
                       open_sites=frozenset({g.red_site}),
                       red_site=g.red_site)
    det = check_detour(stripped)
    assert not det.ok
    assert "unconstrained" in det.failure


def test_essential_witness_is_pivotal():
    g = default_pattern()
    w, _ = check_essential(g)
    assert w is not None
    # the planted copy matches; only the red edge separates no-crossing from
    # crossing (checked through the public enhancement map)
    assert (0, 0) in match_pattern(w, g).offsets
    from manhattan_pinball.enhancement import _window_crossing
    assert not _window_crossing(w.closed[np.newaxis])[0]
    assert _window_crossing(enhance(w, g).closed[np.newaxis])[0]


def test_essential_witnesses_match_detecting_the_enhanced_window(monkeypatch):
    # the merge of one labelling along the matched reds against detecting the
    # window before and after enhance_stack, on fills of density q in
    # [0.2, 0.7], with the copy at the origin planted and without it
    from manhattan_pinball.enhancement import _essential_witnesses, _window_crossing, enhance_stack

    calls = []
    label = events._label
    monkeypatch.setattr(events, "_label", lambda *args: calls.append(1) or label(*args))
    rng = np.random.default_rng(5)
    for g in (default_pattern(), SKEWED_PATTERN):
        M = 2 * g.radius + 6
        planted = from_closed_sites(M, g.closed_sites).closed
        free = np.flatnonzero(~from_closed_sites(M, g.sites).closed)
        seen = set()
        for plant, K in ((True, 1000), (False, 200)):  # 0.5 % of planted fields are witnesses
            stack = np.zeros((K, 2 * M + 1, 2 * M + 1), dtype=bool)
            for field in stack.reshape(len(stack), -1):
                q = rng.uniform(0.2, 0.7)
                if plant:
                    field[:] = planted.ravel()
                    field[free[rng.random(len(free)) < q]] = True
                else:
                    field[:] = rng.random(len(field)) < q
            at_origin = np.array([all(f[a + M, b + M] for a, b in g.closed_sites)
                                  and not any(f[a + M, b + M] for a, b in g.open_sites)
                                  for f in stack])
            want = at_origin & ~_window_crossing(stack) & _window_crossing(enhance_stack(stack, g))
            del calls[:]
            got = _essential_witnesses(stack, g)
            assert len(calls) == 1  # one labelling per window stack
            assert got.tolist() == want.tolist(), (g.name, plant)
            seen.update((plant, x) for x in got.tolist())
        assert {(True, True), (True, False), (False, False)} <= seen, g.name


def test_essential_absent_when_red_is_sealed_off():
    # all edges adjacent to the red edge's endpoints are required open, so
    # nothing can ever attach to the red edge: no witness exists
    sealed = Pattern(
        closed_sites=frozenset({(5, 0), (0, 5)}),  # arbitrary far mirrors
        open_sites=frozenset({(0, 0), (1, 0), (0, 1), (1, 1),
                              (-1, 0), (0, -1), (-1, -1)}),
        red_site=(0, 0),
    )
    w, trials = check_essential(sealed, budget=40)
    assert w is None
    assert trials == 40


def test_pattern_invariants():
    with pytest.raises(ValueError, match="required open"):
        Pattern(closed_sites=frozenset(), open_sites=frozenset({(1, 1)}),
                red_site=(0, 0))
    with pytest.raises(ValueError, match="overlap"):
        Pattern(closed_sites=frozenset({(0, 0)}),
                open_sites=frozenset({(0, 0)}), red_site=(0, 0))


def test_pattern_file_roundtrip(tmp_path):
    g = default_pattern()
    assert loads_pattern(dumps_pattern(g)) == g
    path = tmp_path / "g.txt"
    save_pattern(g, path)
    assert load_pattern(path) == g


def test_pattern_file_errors():
    with pytest.raises(ConfigParseError, match="header"):
        loads_pattern("not a pattern\n")
    with pytest.raises(ConfigParseError, match="version"):
        loads_pattern("manhattan-pinball pattern v9\n")
    ok = dumps_pattern(default_pattern())
    with pytest.raises(ConfigParseError, match="coordinates"):
        loads_pattern(ok.replace("red 0 0", "red x 0"))
    with pytest.raises(ConfigParseError, match="unrecognized"):
        loads_pattern(ok + "bogus line\n")
    with pytest.raises(ConfigParseError, match="name or red"):
        loads_pattern("manhattan-pinball pattern v1\nopen 0 0\n")


def test_match_extent_guard():
    g = default_pattern()
    with pytest.raises(ValueError):
        match_pattern(constant(2, False), g)


def test_search_rediscovers_the_shipped_pattern():
    found, exhausted = search_patterns(3, budget=50, essential_budget=50)
    assert found
    g = default_pattern()
    smallest = found[0]
    assert smallest.closed_sites == g.closed_sites
    assert smallest.open_sites == g.open_sites
    assert smallest.red_site == g.red_site


def test_search_radius_guards():
    with pytest.raises(ValueError):
        search_patterns(5)
    with pytest.raises(ValueError):
        search_patterns(1)


def brute_translation_lemma(g):
    """The translation check by a scan of every offset in the pattern's span."""
    span_a = max(a for a, _ in g.sites) - min(a for a, _ in g.sites)
    span_b = max(b for _, b in g.sites) - min(b for _, b in g.sites)
    ra, rb = g.red_site
    for t1 in range(-span_a, span_a + 1):
        for t2 in range(-span_b, span_b + 1):
            if (t1, t2) == (0, 0) or (t1 + t2) % 2 != 0:
                continue
            shifted_closed = {(a + t1, b + t2) for a, b in g.closed_sites}
            shifted_open = {(a + t1, b + t2) for a, b in g.open_sites}
            if g.closed_sites & shifted_open or shifted_closed & g.open_sites:
                continue
            if (ra + t1, rb + t2) in g.open_sites or (ra - t1, rb - t2) in g.open_sites:
                return False, (t1, t2)
    return True, None


_SMALL_SITES = st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_SMALL_SITES, _SMALL_SITES, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_translation_lemma_matches_offset_scan(closed, opens, red):
    closed = closed - {red}
    g = Pattern(closed_sites=frozenset(closed), open_sites=frozenset((opens - closed) | {red}),
                red_site=red)
    assert check_translation_lemma(g) == brute_translation_lemma(g)


def test_translation_lemma_keeps_its_answers_on_shipped_and_searched_patterns():
    found, _ = search_patterns(3)
    assert found
    for g in [default_pattern(), *found]:
        assert check_translation_lemma(g) == brute_translation_lemma(g) == (True, None)


def test_far_pattern_site_is_a_parse_error_with_its_line(tmp_path, capsys):
    ok = dumps_pattern(default_pattern())
    for far in ("closed 99999999999 0", "open 0 -17", "red 17 1"):
        with pytest.raises(ConfigParseError) as ei:
            loads_pattern(ok + far + "\n")
        assert ei.value.line == len(ok.splitlines()) + 1
    edge = loads_pattern(ok.replace("closed -3 0", "closed -16 16"))
    assert (-16, 16) in edge.closed_sites and edge.radius == 16
    path = tmp_path / "far.txt"
    path.write_text(ok + "closed 99999999999 0\n")
    assert cli_main(["pattern", "check", "--pattern", str(path)]) == 2
    assert "beyond radius 16" in capsys.readouterr().err


def test_site_required_closed_and_open_is_a_parse_error():
    ok = dumps_pattern(default_pattern())
    for extra in ("closed 0 -2", "open 1 0", "closed 0 0"):
        with pytest.raises(ConfigParseError, match="both closed and open") as ei:
            loads_pattern(ok + extra + "\n")
        assert ei.value.line == len(ok.splitlines()) + 1


def test_second_name_or_red_line_is_a_parse_error_with_its_line():
    # keeping the last red would leave the earlier red an open site of the
    # loaded pattern
    ok = dumps_pattern(default_pattern())
    for extra, key in (("red 0 -1", "red"), ("name other", "name")):
        with pytest.raises(ConfigParseError, match=f"second {key} line") as ei:
            loads_pattern(ok + extra + "\n")
        assert ei.value.line == len(ok.splitlines()) + 1


_PATTERN_TOKENS = st.sampled_from(["red", "closed", "open", "name", "0", "1", "-1", "2", "-3",
                                   "16", "-17", "99999999999", "x", "1.5", ""])


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.text(max_size=60),
    st.lists(st.lists(_PATTERN_TOKENS, max_size=4).map(" ".join), max_size=8).map(
        lambda rows: "\n".join(("manhattan-pinball pattern v1", *rows))),
    st.tuples(st.integers(1, 16), st.lists(_PATTERN_TOKENS, max_size=4).map(" ".join)).map(
        lambda edit: "\n".join(
            dumps_pattern(default_pattern()).splitlines()[:edit[0]] + [edit[1]])),
))
def test_pattern_loader_and_check_fuzz(text):
    # every input loads or is a parse error, and the command exits 0, 1 or 2
    try:
        g = loads_pattern(text)
    except ConfigParseError:
        g = None
    if g is not None:
        assert g.radius <= 16 and g.red_site in g.open_sites
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "pattern.txt"
        path.write_text(text)
        assert cli_main(["pattern", "check", "--pattern", str(path), "--budget", "2"]) in (
            0, 1, 2)
