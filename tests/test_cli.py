import os
import subprocess
import sys
from pathlib import Path

import pytest

import wobble
from wobble.cli import EXIT_FAILURE, EXIT_USAGE, main, worker_count
from wobble.terrain import flat_terrain, parse_terrain, serialize_terrain

# The directory that holds the imported package, absolute, so the child
# finds the same `wobble` whatever its cwd and however PYTHONPATH was given.
WOBBLE_ROOT = str(Path(wobble.__file__).resolve().parents[1])


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    env.setdefault("WOBBLE_THREADS", "1")
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (WOBBLE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "wobble", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def terrain10(tmp_path_factory):
    d = tmp_path_factory.mktemp("terr")
    path = d / "t10.json"
    r = run_cli(["gen-terrain", "--seed", "7", "--theta", "10", "--bumps", "20",
                 "--out", str(path)], cwd=d)
    assert r.returncode == 0, r.stderr
    return path


def test_gen_terrain_writes_parseable_file(terrain10):
    text = terrain10.read_text()
    t = parse_terrain(text)
    assert len(t.bumps) == 20
    import math
    assert t.slope_bound <= math.radians(10.0)


def test_gen_terrain_zero_bumps(tmp_path):
    out = tmp_path / "flat.json"
    r = run_cli(["gen-terrain", "--seed", "1", "--theta", "10", "--bumps", "0",
                 "--out", str(out)], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    t = parse_terrain(out.read_text())
    assert t.height(0.0, 0.0) == 0.0


def test_gen_terrain_zero_theta(tmp_path):
    out = tmp_path / "flat0.json"
    r = run_cli(["gen-terrain", "--seed", "1", "--theta", "0", "--bumps", "20",
                 "--out", str(out)], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    t = parse_terrain(out.read_text())
    assert all(b.amplitude == 0.0 for b in t.bumps)


def test_check_reports_slope(terrain10, tmp_path):
    r = run_cli(["check", "--terrain", str(terrain10), "--samples", "40000"],
                cwd=tmp_path)
    assert r.returncode == 0
    assert "slope bound est" in r.stdout
    assert "10.0000 deg" in r.stdout


def test_solve_march_success(terrain10, tmp_path):
    out = tmp_path / "trace.csv"
    r = run_cli(["solve", "--terrain", str(terrain10), "--motion", "gamma",
                 "--out", str(out)], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "equilibrium:     found" in r.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == ("param_deg,x1,y1,z1,x2,y2,z2,x3,y3,z3,x4,y4,z4,"
                        "h4,sphere_R_over_L,lat_deg,warnings")
    sweep = [ln for ln in r.stdout.splitlines() if "azimuth sweep" in ln][0]
    assert float(sweep.split()[2]) <= 90.0 + 0.25
    samples = [ln for ln in r.stdout.splitlines() if "samples:" in ln][0]
    assert len(lines) - 1 == int(samples.split()[1])


def test_solve_flat_degenerate(tmp_path):
    flat = tmp_path / "flat.json"
    r = run_cli(["gen-terrain", "--seed", "1", "--theta", "10", "--bumps", "0",
                 "--out", str(flat)], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    out = tmp_path / "trace.csv"
    r = run_cli(["solve", "--terrain", str(flat), "--out", str(out)],
                cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "azimuth sweep:   0.0000 deg" in r.stdout


def test_solve_steep_terrain_exit_3(tmp_path):
    steep = tmp_path / "t20.json"
    r = run_cli(["gen-terrain", "--seed", "2", "--theta", "20",
                 "--out", str(steep)], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["solve", "--terrain", str(steep), "--motion", "gamma",
                 "--out", str(tmp_path / "x.csv")], cwd=tmp_path)
    assert r.returncode == 3, r.stderr
    assert "14.47" in r.stderr
    # the rotate-then-slide motion accepts this slope
    r2 = run_cli(["solve", "--terrain", str(steep), "--motion", "rt",
                  "--out", str(tmp_path / "y.csv")], cwd=tmp_path)
    assert r2.returncode == 0, r2.stderr


def test_solve_missing_terrain_exit_4(tmp_path):
    r = run_cli(["solve", "--terrain", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")], cwd=tmp_path)
    assert r.returncode == 4, r.stderr


def test_usage_errors_exit_64(tmp_path):
    r = run_cli(["montecarlo", "--n", "0", "--out", "x.csv"], cwd=tmp_path)
    assert r.returncode == 64, r.stderr
    r = run_cli(["solve"], cwd=tmp_path)
    assert r.returncode == 64, r.stderr
    r = run_cli(["nonsense"], cwd=tmp_path)
    assert r.returncode == 64, r.stderr


def test_scan_square_table(terrain10, tmp_path):
    out = tmp_path / "scan.csv"
    r = run_cli(["scan", "--terrain", str(terrain10), "--side", "1",
                 "--out", str(out)], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "(even)" in r.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "theta_deg,h1,h2,h3,h4,g"
    assert len(lines) == 1 + 4096


def test_scan_half_hexagon_ratios(terrain10, tmp_path):
    r = run_cli(["scan", "--terrain", str(terrain10), "--circle", "1.0",
                 "--angles", "0,60,120,180", "--out",
                 str(tmp_path / "hh.csv")], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "alpha=0.666667" in r.stdout
    assert "beta=0.333333" in r.stdout


def test_scan_flat_degenerate(tmp_path):
    flat = tmp_path / "flat.json"
    r = run_cli(["gen-terrain", "--seed", "1", "--theta", "0", "--bumps", "0",
                 "--out", str(flat)], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["scan", "--terrain", str(flat), "--out",
                 str(tmp_path / "s.csv")], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "degenerate" in r.stdout


def test_montecarlo_small_campaign(tmp_path):
    out = tmp_path / "camp.csv"
    r = run_cli(["montecarlo", "--n", "3", "--theta", "14", "--seed", "5",
                 "--out", str(out)], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "found:           3/3" in r.stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 4


@pytest.mark.parametrize("motion", ["gamma", "rt"])
def test_montecarlo_deterministic_and_worker_independent(motion, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    args = ["montecarlo", "--n", "3", "--theta", "12", "--seed", "9",
            "--motion", motion]
    r1 = run_cli([*args, "--out", str(a)], cwd=tmp_path)
    r2 = run_cli([*args, "--out", str(b)], cwd=tmp_path)
    r3 = run_cli([*args, "--out", str(c)], cwd=tmp_path,
                 env_extra={"WOBBLE_THREADS": "2"})
    assert r1.returncode == r2.returncode == r3.returncode == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_main_in_process_usage():
    assert main(["montecarlo", "--n", "0", "--out", "x.csv"]) == 64


def test_worker_count_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("WOBBLE_THREADS", "1000000")
    assert worker_count(10**6) == 4
    # a request for two workers survives the cap on a one-core machine
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setenv("WOBBLE_THREADS", "2")
    assert worker_count(3) == 2


def test_non_integer_worker_setting_is_usage_error(monkeypatch, tmp_path,
                                                   capsys):
    monkeypatch.setenv("WOBBLE_THREADS", "abc")
    out = tmp_path / "x.csv"
    assert main(["montecarlo", "--n", "1", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "wobble: error: WOBBLE_THREADS must be an integer, got 'abc'\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["gen-terrain", "--seed", "1", "--theta", "10", "--extent", "a,b,c,d"],
    ["solve", "--center", "a,0"],
    ["scan", "--circle", "1", "--angles", "0,60,x,180"],
    ["scan", "--study", "5,ten"],
])
def test_non_numeric_flag_is_usage_error(args, tmp_path, capsys):
    terrain = tmp_path / "flat.json"
    terrain.write_text(serialize_terrain(flat_terrain()))
    out = tmp_path / "out"
    if args[0] != "gen-terrain":
        args = [*args, "--terrain", str(terrain)]
    assert main([*args, "--out", str(out)]) == EXIT_USAGE
    assert "expects comma-separated numbers" in capsys.readouterr().err
    assert not out.exists()


def test_wrong_count_of_numbers_is_domain_error(tmp_path):
    out = tmp_path / "t.json"
    assert main(["gen-terrain", "--seed", "1", "--theta", "10",
                 "--extent", "1,2,3", "--out", str(out)]) == EXIT_FAILURE
    assert not out.exists()


@pytest.mark.parametrize("step", ["0", "-0.25", "nan"])
@pytest.mark.parametrize("command", ["solve", "montecarlo"])
def test_step_must_be_finite_and_positive(command, step, tmp_path, capsys):
    out = tmp_path / "out.csv"
    args = [command, "--motion", "rt", "--step", step, "--out", str(out)]
    if command == "solve":
        terrain = tmp_path / "flat.json"
        terrain.write_text(serialize_terrain(flat_terrain()))
        args += ["--terrain", str(terrain)]
    else:
        args += ["--n", "2"]
    assert main(args) == EXIT_FAILURE
    assert "trace step must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["solve", "--yaw", "inf"], "yaw must be finite"),
    (["solve", "--yaw", "nan"], "yaw must be finite"),
    (["solve", "--side", "nan"], "table side must be finite and positive"),
    (["solve", "--side", "inf"], "table side must be finite and positive"),
    (["scan", "--circle", "nan", "--angles", "0,60,120,180"],
     "foot circle radius must be finite and positive"),
    (["montecarlo", "--n", "2", "--side", "nan"],
     "table side must be finite and positive"),
])
def test_non_finite_yaw_or_size_is_domain_error(args, message, tmp_path, capsys):
    # the campaign fails before it generates a terrain or starts a worker
    out = tmp_path / "out.csv"
    if args[0] != "montecarlo":
        terrain = tmp_path / "flat.json"
        terrain.write_text(serialize_terrain(flat_terrain()))
        args = [*args, "--terrain", str(terrain)]
    assert main([*args, "--out", str(out)]) == EXIT_FAILURE
    assert message in capsys.readouterr().err
    assert not out.exists()
