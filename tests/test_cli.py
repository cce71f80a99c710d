"""Command surface: exit codes, golden byte stability, file plumbing."""

import pytest

from manhattan_pinball.cli import main


def run(args):
    return main(args)


def test_version(capsys):
    with pytest.raises(SystemExit) as ei:
        run(["--version"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    assert "splitmix64-v1" in out
    assert "configuration format v1" in out


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


def test_verify_exit_codes(tmp_path, capsys):
    csv = tmp_path / "v.csv"
    assert run(["verify", "--p", "1", "--n", "101", "--trials", "2",
                "--seed", "1", "--csv", str(csv)]) == 0
    assert "conditional_pass_rate=1.0" in capsys.readouterr().out
    assert csv.read_text().splitlines()[1] == "0,1,1,1,1,1"
    # n <= 100 is a usage error
    assert run(["verify", "--p", "1", "--n", "50", "--trials", "2",
                "--seed", "1"]) == 2


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
    cfg = tmp_path / "c.txt"
    run(["sample", "--p", "0.5", "--extent", "5", "--seed", "1",
         "--out", str(cfg)])
    assert run(["render", "--config", str(cfg), "--layers", "sparkles",
                "--out", str(tmp_path / "x.svg")]) == 2


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


@pytest.mark.parametrize("action", ["check", "search"])
def test_negative_pattern_budget_is_usage_error(action, capsys):
    with pytest.raises(SystemExit) as ei:
        run(["pattern", action, "--radius", "2", "--budget", "-1"])
    assert ei.value.code == 2
    assert "--budget: must be >= 0" in capsys.readouterr().err


def test_bad_trajectory_file_is_parse_error(tmp_path, capsys):
    cfg, traj = tmp_path / "c.txt", tmp_path / "t.txt"
    run(["sample", "--p", "1", "--extent", "4", "--seed", "1", "--out", str(cfg)])
    run(["trace", "--config", str(cfg), "--out", str(traj)])
    lines = traj.read_text().splitlines()
    lines[6] = "0 0 Q"
    traj.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["render", "--config", str(cfg), "--trajectory", str(traj),
                "--layers", "trajectory", "--out", str(tmp_path / "r.svg")]) == 2
    assert "line 7" in capsys.readouterr().err


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
