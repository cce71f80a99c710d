"""Command surface: exit codes, golden byte stability, file plumbing."""

import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manhattan_pinball import cli, events, montecarlo
from manhattan_pinball.cli import main
from manhattan_pinball.configuration import Configuration
from manhattan_pinball.errors import DynamicsError
from manhattan_pinball.montecarlo import MAX_TRIALS

from test_montecarlo import _shrunk_reach


def run(args):
    return main(args)


def test_version(capsys):
    with pytest.raises(SystemExit) as ei:
        run(["--version"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    assert "splitmix64-v1" in out
    for kind in ("configuration", "pattern", "trajectory", "witness"):
        assert f"{kind} format v1" in out


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as ei:
        run(["sample", "--p", "0.5"])  # missing required flags
    assert ei.value.code == 2
    assert "--extent" in capsys.readouterr().err


def test_probability_outside_unit_interval_exit_2(capsys):
    for event in ("closure", "A"):
        assert run(["estimate", "--event", event, "--p", "1.5", "--n", "4",
                    "--trials", "5", "--seed", "1"]) == 2
        assert "p must lie in [0, 1]" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path, capsys):
    rc = run(["trace", "--config", str(tmp_path / "nope.txt"),
              "--out", str(tmp_path / "t.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_write_error_names_the_requested_file(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    assert run(["sample", "--p", "1", "--extent", "4", "--seed", "1", "--out", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "t.txt"
    assert run(["trace", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and ".tmp-" not in err


def test_sample_then_trace_p1_loop(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    out = tmp_path / "t.txt"
    assert run(["sample", "--p", "1", "--extent", "8", "--seed", "7",
                "--out", str(cfg)]) == 0
    assert run(["trace", "--config", str(cfg), "--out", str(out),
                "--svg", str(tmp_path / "t.svg")]) == 0
    text = out.read_text()
    assert "status closed" in text
    assert "states 4" in text
    svg = (tmp_path / "t.svg").read_text()
    assert svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")


def test_golden_byte_stability(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        run(["sample", "--p", "0.5", "--extent", "10", "--seed", "3",
             "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()
    sa, sb = tmp_path / "a.svg", tmp_path / "b.svg"
    for cfg, svg in ((a, sa), (b, sb)):
        run(["render", "--config", str(cfg), "--layers", "lattice,mirrors",
             "--out", str(svg)])
    assert sa.read_bytes() == sb.read_bytes()


def test_estimate_csv_trivial(tmp_path):
    csv = tmp_path / "e.csv"
    assert run(["estimate", "--event", "Aprime", "--p", "0", "--n", "8",
                "--trials", "10", "--seed", "1", "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[1].split(",")[5] == "0.0"


def test_event_and_witness_and_render(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    run(["sample", "--p", "0.7", "--extent", "18", "--seed", "3",
         "--out", str(cfg)])
    wit = tmp_path / "w.txt"
    assert run(["event", "--config", str(cfg), "--event", "Acirc",
                "--n", "4", "--witness", str(wit)]) == 0
    out = capsys.readouterr().out
    assert "holds=" in out
    assert wit.read_text().startswith("manhattan-pinball witness v1")
    svg = tmp_path / "r.svg"
    assert run(["render", "--config", str(cfg), "--witness", str(wit),
                "--layers", "lattice,mirrors,circuit_witness",
                "--out", str(svg)]) == 0
    assert "<polyline" in svg.read_text() or "holds 0" in wit.read_text()


def test_event_without_witness_flag_builds_no_witness(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.txt"
    run(["sample", "--p", "0.55", "--extent", "18", "--seed", "3", "--out", str(cfg)])
    args = ["event", "--config", str(cfg), "--event", "Acirc", "--n", "4"]
    capsys.readouterr()
    assert run([*args, "--witness", str(tmp_path / "w.txt")]) == 0
    line = capsys.readouterr().out

    def no_witness(*_):
        raise AssertionError("witness built without --witness")
    monkeypatch.setattr(events, "_circuit_witness", no_witness)
    monkeypatch.setattr(events, "_dual_path", no_witness)
    assert run(args) == 0
    assert capsys.readouterr().out == line


def test_configuration_beyond_the_field_budget_is_parse_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("manhattan-pinball configuration v1\ngenerator splitmix64-v1\n"
                   "extent 20000\np none\nseed none\nstream none\nprovenance explicit\n")
    for args in (["trace", "--out", str(tmp_path / "t.txt")],
                 ["event", "--event", "Acirc", "--n", "2"]):
        assert run([*args, "--config", str(cfg)]) == 2
        assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("p, holds", [("1", 1), ("0", 0)])
def test_event_closure(tmp_path, capsys, p, holds):
    # every mirror closed turns the origin ray round a small loop; none lets
    # it run straight out of Q_4
    cfg = tmp_path / "c.txt"
    run(["sample", "--p", p, "--extent", "6", "--seed", "1", "--out", str(cfg)])
    capsys.readouterr()
    assert run(["event", "--config", str(cfg), "--event", "closure", "--n", "4"]) == 0
    assert capsys.readouterr().out == f"event=closure_4 holds={holds}\n"


def test_enhance_diff(tmp_path):
    cfg = tmp_path / "c.txt"
    run(["sample", "--p", "0.5", "--extent", "12", "--seed", "11",
         "--out", str(cfg)])
    out = tmp_path / "e.txt"
    diff = tmp_path / "d.txt"
    assert run(["enhance", "--config", str(cfg), "--pattern", "default",
                "--out", str(out), "--diff", str(diff)]) == 0
    # every changed site listed in the diff is closed in the output
    from manhattan_pinball.configuration import load
    before, after = load(cfg), load(out)
    changed = {tuple(map(int, line.split())) for line in
               diff.read_text().splitlines()}
    for site in changed:
        assert not before.closed_at(site) and after.closed_at(site)


@pytest.mark.parametrize("core", [None, 2, 100])
def test_enhance_diff_lists_the_matched_reds(tmp_path, capsys, core):
    from manhattan_pinball.configuration import from_closed_sites, sample, save
    from manhattan_pinball.enhancement import default_pattern, match_pattern
    g = default_pattern()
    M = 12
    field = sample(0.5, M, 11)
    closed = {(a, b) for a in range(-M, M + 1) for b in range(-M, M + 1)
              if field.closed_at((a, b))}
    # plant disjoint copies; with core 2 the copy at (0, 0) has its red in Q_2
    for t1, t2 in ((0, 0), (8, -2), (-6, 6)):
        closed -= {(a + t1, b + t2) for a, b in g.open_sites}
        closed |= {(a + t1, b + t2) for a, b in g.closed_sites}
    c = from_closed_sites(M, closed)
    cfg, diff = tmp_path / "c.txt", tmp_path / "d.txt"
    save(c, cfg)
    core_args = [] if core is None else ["--exclude-core", str(core)]
    assert run(["enhance", "--config", str(cfg), "--out", str(tmp_path / "e.txt"),
                "--diff", str(diff)] + core_args) == 0
    ra, rb = g.red_site
    want = [f"{ra + t1} {rb + t2}"
            for t1, t2 in sorted(match_pattern(c, g, excluded_core=core).offsets)]
    assert len(want) == {None: 3, 2: 2, 100: 0}[core]
    assert capsys.readouterr().out.startswith(f"matches={len(want)} ")
    assert diff.read_text() == "".join(line + "\n" for line in want)


def test_verify_exit_codes(tmp_path, capsys):
    csv = tmp_path / "v.csv"
    assert run(["verify", "--p", "1", "--n", "101", "--trials", "2",
                "--seed", "1", "--csv", str(csv)]) == 0
    assert "conditional_pass_rate=1.0" in capsys.readouterr().out
    assert csv.read_text().splitlines()[1] == "0,1,1,1,1,1"
    # n <= 100 is a usage error
    assert run(["verify", "--p", "1", "--n", "50", "--trials", "2",
                "--seed", "1"]) == 2


def test_verify_exits_1_and_names_each_failed_sample(tmp_path, monkeypatch, capsys):
    # a hybrid field with no mirror lets its ray escape, so every circuit
    # sample fails (as in test_verify_fallback_keeps_failures_and_their_diagnostics)
    _shrunk_reach(monkeypatch, 0)
    monkeypatch.setattr(montecarlo, "hybrid", lambda w, w_t, k: Configuration(
        extent=w.extent, closed=np.zeros_like(w.closed)))
    csv = tmp_path / "v.csv"
    assert run(["verify", "--p", "0.6", "--n", "102", "--trials", "6",
                "--seed", "8", "--csv", str(csv)]) == 1
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    circuits = [int(row[0]) for row in rows if row[1] == "1"]
    assert circuits and all(row[5] == "0" for row in rows if row[1] == "1")
    fails = [line for line in capsys.readouterr().err.splitlines() if line.startswith("FAIL")]
    assert len(fails) == len(circuits)
    for i, line in zip(circuits, fails):
        assert re.fullmatch(rf"FAIL sample {i}: seed=8 stream={i} .* hybrid_status=escaped .*",
                            line), line


def test_verify_marks_vacuous_runs(tmp_path, capsys):
    # at p = 0 no circuit exists, so the pass rate of 1.0 checked nothing
    csv = tmp_path / "v.csv"
    assert run(["verify", "--p", "0", "--n", "101", "--trials", "2",
                "--seed", "1", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "circuits=0" in out and "conditional_pass_rate=1.0" in out
    assert out.rstrip().endswith("vacuous=1")
    assert csv.read_text().splitlines()[1:] == ["0,0,,,,1", "1,0,,,,1"]
    assert run(["verify", "--p", "1", "--n", "101", "--trials", "1",
                "--seed", "1"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("vacuous=0")


def test_pattern_check_and_search(tmp_path, capsys):
    assert run(["pattern", "check", "--pattern", "default"]) == 0
    out = capsys.readouterr().out
    assert "translation=pass" in out and "detour=pass" in out
    dest = tmp_path / "found.txt"
    assert run(["pattern", "search", "--radius", "3", "--budget", "5",
                "--out", str(dest)]) == 0
    assert dest.read_text().startswith("manhattan-pinball pattern v1")


def test_bad_layer_is_usage_error(tmp_path, capsys):
    # no flag feeds the regions or pattern_matches layers of render_svg: they
    # would draw nothing
    cfg = tmp_path / "c.txt"
    run(["sample", "--p", "0.5", "--extent", "5", "--seed", "1",
         "--out", str(cfg)])
    for layer in ("sparkles", "regions", "pattern_matches"):
        capsys.readouterr()
        assert run(["render", "--config", str(cfg), "--layers", f"lattice,{layer}",
                    "--out", str(tmp_path / "x.svg")]) == 2
        assert f"layer {layer!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("layers, missing", [
    ("trajectory", "layer 'trajectory'"),
    ("lattice,trajectory", "layer 'trajectory'"),
    ("circuit_witness", "layer 'circuit_witness'"),
    (",", "no layer to render"),
])
def test_render_layer_without_input_is_usage_error(tmp_path, capsys, layers, missing):
    # a layer no flag feeds would draw a blank picture, or none of itself
    cfg = tmp_path / "c.txt"
    run(["sample", "--p", "0.5", "--extent", "3", "--seed", "1",
         "--out", str(cfg)])
    capsys.readouterr()
    assert run(["render", "--config", str(cfg), "--layers", layers,
                "--out", str(tmp_path / "x.svg")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {missing}")
    assert not (tmp_path / "x.svg").exists()


def test_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "estimate_event", exhausted)
    csv = tmp_path / "e.csv"
    assert run(["estimate", "--event", "A", "--p", "0.5", "--n", "4",
                "--trials", "1", "--seed", "1", "--csv", str(csv)]) == 2
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert not csv.exists()


@pytest.mark.parametrize("error, status", [(DynamicsError("repeated state"), 3),
                                           (MemoryError(), 2)], ids=["dynamics", "memory"])
def test_an_error_on_the_helper_thread_exits_with_its_code(error, status, capsys, monkeypatch):
    # the first stack is labelled on the calling thread, the second on the
    # helper, which raises: the error reaches the command line, which exits
    # with its documented code, and no thread is left behind
    monkeypatch.setattr(montecarlo, "_cores", lambda: 2)
    monkeypatch.setattr(montecarlo, "_STACK_BYTES", 1)  # a stack a sample
    label, where = events._label, []

    def failing(*args):
        where.append(threading.current_thread())
        if len(where) > 1:
            raise error
        return label(*args)

    monkeypatch.setattr(events, "_label", failing)
    before = threading.active_count()
    assert run(["estimate", "--event", "Acirc", "--p", "0.6", "--n", "3",
                "--trials", "3", "--seed", "1"]) == status
    assert threading.active_count() == before
    assert where[0] is threading.main_thread() and where[1] is not where[0]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["0", "-2"])
def test_render_scale_below_one_is_usage_error(tmp_path, capsys, scale):
    # a scale below 1 would draw a 0x0 or negative-size picture
    cfg = tmp_path / "c.txt"
    run(["sample", "--p", "0.5", "--extent", "5", "--seed", "1",
         "--out", str(cfg)])
    assert run(["render", "--config", str(cfg), "--scale", scale,
                "--out", str(tmp_path / "x.svg")]) == 2
    assert "scale must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(workers, capsys):
    for cmd in (["estimate", "--event", "closure", "--n", "4"],
                ["verify", "--n", "101"]):
        with pytest.raises(SystemExit) as ei:
            run(cmd + ["--p", "0.5", "--trials", "4", "--seed", "1",
                       "--workers", workers])
        assert ei.value.code == 2
        assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [["estimate", "--event", "closure", "--n", "4"],
                                 ["verify", "--n", "101"]])
def test_trials_beyond_ssize_t_is_usage_error(cmd, capsys, monkeypatch):
    # a range of more than sys.maxsize sample indices has no length: the
    # parser refuses such a count, and past it the run driver does, before
    # any trial runs
    args = cmd + ["--p", "0.5", "--trials", str(MAX_TRIALS + 1), "--seed", "1"]
    with pytest.raises(SystemExit) as ei:
        run(args)
    assert ei.value.code == 2
    assert f"--trials: must be <= {MAX_TRIALS}" in capsys.readouterr().err
    monkeypatch.setattr(cli, "MAX_TRIALS", 10 * MAX_TRIALS)
    assert run(args) == 2
    assert f"need 1 to {MAX_TRIALS} trials, got {MAX_TRIALS + 1}" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["check", "search"])
def test_negative_pattern_budget_is_usage_error(action, capsys):
    with pytest.raises(SystemExit) as ei:
        run(["pattern", action, "--radius", "2", "--budget", "-1"])
    assert ei.value.code == 2
    assert "--budget: must be >= 0" in capsys.readouterr().err


def test_negative_excluded_core_is_usage_error(tmp_path, capsys):
    # Q_k is empty for k < 0, so a negative core would silently exclude nothing
    cfg, out = tmp_path / "c.txt", tmp_path / "e.txt"
    run(["sample", "--p", "0.5", "--extent", "6", "--seed", "1", "--out", str(cfg)])
    with pytest.raises(SystemExit) as ei:
        run(["enhance", "--config", str(cfg), "--exclude-core", "-1", "--out", str(out)])
    assert ei.value.code == 2
    assert "--exclude-core: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_bad_trajectory_file_is_parse_error(tmp_path, capsys):
    cfg, traj = tmp_path / "c.txt", tmp_path / "t.txt"
    run(["sample", "--p", "1", "--extent", "4", "--seed", "1", "--out", str(cfg)])
    run(["trace", "--config", str(cfg), "--out", str(traj)])
    text = traj.read_text()
    # a bad state line, and a status no walk ends with
    for line, bad in ((7, "0 0 Q"), (2, "status budget_exceeded")):
        lines = text.splitlines()
        lines[line - 1] = bad
        traj.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["render", "--config", str(cfg), "--trajectory", str(traj),
                    "--layers", "trajectory", "--out", str(tmp_path / "r.svg")]) == 2
        assert f"line {line}" in capsys.readouterr().err


def test_bad_witness_file_is_parse_error(tmp_path, capsys):
    cfg, wit = tmp_path / "c.txt", tmp_path / "w.txt"
    run(["sample", "--p", "0.5", "--extent", "6", "--seed", "1", "--out", str(cfg)])
    for body, line in (("holds \n", 3), ("holds 1\n0.5 0.5 0.5\n", 4),
                       ("holds 1\n1.5 nan\n", 4)):
        wit.write_text("manhattan-pinball witness v1\nevent A_2\n" + body)
        capsys.readouterr()
        assert run(["render", "--config", str(cfg), "--witness", str(wit),
                    "--layers", "circuit_witness", "--out", str(tmp_path / "r.svg")]) == 2
        assert f"line {line}" in capsys.readouterr().err


@pytest.mark.parametrize("args, name", [
    (["sample", "--p", "0.5", "--extent", "3", "--seed", "99999999999999999999999"], "seed"),
    (["sample", "--p", "0.5", "--extent", "3", "--seed", "1",
      "--stream", "18446744073709551615"], "stream"),
    (["estimate", "--event", "A", "--p", "0.5", "--n", "4", "--trials", "3",
      "--seed", "-9999999999999999999999"], "seed"),
    (["verify", "--p", "0.5", "--n", "101", "--trials", "1",
      "--seed", "99999999999999999999999"], "seed"),
])
def test_seed_outside_int64_is_usage_error(tmp_path, capsys, args, name):
    out = ["--out", str(tmp_path / "c.txt")] if args[0] == "sample" else []
    assert run(args + out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} ") and "outside [-2**63, 2**63)" in err


@pytest.mark.parametrize("event, enhanced", [
    ("A", False), ("Aprime", False), ("Acirc", False), ("Acirc4", False), ("Aprime", True),
    ("closure", False)])
def test_estimate_beyond_the_field_budget_is_usage_error(capsys, event, enhanced):
    assert run(["estimate", "--event", event, "--p", "0.5", "--n", "100000",
                "--trials", "1", "--seed", "1"] + ["--enhanced"] * enhanced) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_closure_below_scale_one_is_usage_error(capsys, n):
    assert run(["estimate", "--event", "closure", "--p", "0.5", "--n", n,
                "--trials", "3", "--seed", "1"]) == 2
    assert "closure needs n >= 1" in capsys.readouterr().err


# Adversarial numbers: not a number, infinite, overflowing, 25 digits,
# negative, empty, hexadecimal and fractional.  Counts that size a run
# (extent, n, trials, radius, budget, workers) take the ones that are not
# integers or are negative, and their valid values stay small, so that every
# accepted run is quick.
_NUMBERS = st.sampled_from(("nan", "inf", "-inf", "1e309", "1" * 25, "-7", "", "0x10", "1.5"))
_NOT_COUNTS = st.sampled_from(("nan", "inf", "-inf", "1e309", "-7", "", "0x10", "1.5"))
# Paths are "@" and a name under the test's directory, each in the role its
# option expects or in another: a configuration, a trajectory and a witness
# file, a directory and a missing file.
_PATHS = ("@config", "@trajectory", "@witness", "@directory", "@missing")
_OUTPUTS = ("@out", "@directory", "@missing/out")


def _one_of(*values):
    return st.sampled_from(values)


def _path(good, paths=_PATHS):
    return _one_of(good), _one_of(*(x for x in paths if x != good))


def _count(lo, hi):
    return st.integers(lo, hi).map(str), _NOT_COUNTS


_P, _SEED = (_one_of("0", "0.5", "0.7", "1"), _NUMBERS), (_one_of("1", "5"), _NUMBERS)
_CONFIG, _OUT = _path("@config"), _path("@out", _OUTPUTS)
_PATTERN = (_one_of("default"), _one_of("@config", "@witness", "@directory", "@missing"))
_EVENT = (st.sampled_from(tuple(events.EVENTS)), _one_of("nope"))
# (flag, (values of the kind it expects, values of another kind)) by subcommand;
# a flag ending in "?" may be left out, and --enhanced takes no value
_COMMANDS = {
    "sample": (("--p", _P), ("--extent", _count(0, 20)), ("--seed", _SEED),
               ("--stream", (_one_of("0", "3"), _NUMBERS)), ("--out", _OUT)),
    "trace": (("--config", _CONFIG), ("--out", _OUT), ("--svg?", _OUT)),
    "enhance": (("--config", _CONFIG), ("--pattern", _PATTERN),
                ("--exclude-core?", (_one_of("0", "3"), _NUMBERS)), ("--out", _OUT),
                ("--diff?", _OUT)),
    "event": (("--config", _CONFIG), ("--event", _EVENT), ("--n", _count(0, 6)),
              ("--witness?", _OUT)),
    "estimate": (("--event", _EVENT), ("--p", _P), ("--n", _count(0, 20)),
                 ("--trials", _count(1, 20)), ("--seed", _SEED), ("--enhanced?", None),
                 ("--csv?", _OUT), ("--workers", _count(1, 1))),
    "verify": (("--p", _P), ("--n", _count(0, 20)), ("--trials", _count(1, 20)),
               ("--seed", _SEED), ("--pattern", _PATTERN), ("--csv?", _OUT),
               ("--workers", _count(1, 1))),
    "pattern check": (("--pattern", _PATTERN), ("--budget", _count(0, 1))),
    "pattern search": (("--radius", _count(0, 3)), ("--budget", _count(0, 1)),
                       ("--out?", _OUT)),
    "render": (("--config", _CONFIG), ("--trajectory?", _path("@trajectory")),
               ("--witness?", _path("@witness")),
               ("--layers", (_one_of("lattice,mirrors", "lattice,mirrors,trajectory",
                                     "circuit_witness"), _one_of("", "nope"))),
               ("--scale", (_one_of("1", "3"), _NUMBERS)), ("--out", _OUT)),
}


@st.composite
def _argv(draw):
    """A command line of one subcommand, at most two of whose options take a
    value of another kind."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options = _COMMANDS[command]
    bad = draw(st.sets(st.integers(0, len(options) - 1), max_size=2))
    argv = command.split()
    for k, (flag, values) in enumerate(options):
        if flag.endswith("?") and draw(st.booleans()):
            continue
        argv.append(flag.rstrip("?"))
        if values is not None:
            argv.append(draw(values[k in bad]))
    return argv


def test_fuzzed_command_lines_exit_with_a_documented_code(tmp_path, capsys):
    config = str(tmp_path / "config")
    assert run(["sample", "--p", "0.6", "--extent", "8", "--seed", "1", "--out", config]) == 0
    assert run(["trace", "--config", config, "--out", str(tmp_path / "trajectory")]) == 0
    assert run(["event", "--config", config, "--event", "Acirc", "--n", "2",
                "--witness", str(tmp_path / "witness")]) == 0
    (tmp_path / "directory").mkdir()

    @settings(max_examples=300, deadline=None)
    @given(_argv())
    def exits(argv):
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        capsys.readouterr()
        try:
            code = run(argv)
        except SystemExit as e:  # argparse refuses the command line
            code = e.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)

    exits()
