import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wobble
from wobble.cli import (
    EXIT_FAILURE,
    EXIT_USAGE,
    TRACE_HEADER,
    CampaignConfig,
    _run_one,
    main,
    trace_csv_lines,
    worker_count,
)
from wobble.contact import TableSpec
from wobble.motion import run_march, run_pivot_slide
from wobble.terrain import (
    Extent,
    GridTerrain,
    flat_terrain,
    generate_terrain,
    parse_terrain,
    serialize_terrain,
)

# The directory that holds the imported package, absolute, so the child
# finds the same `wobble` whatever its cwd and however PYTHONPATH was given.
WOBBLE_ROOT = str(Path(wobble.__file__).resolve().parents[1])


def run_python(args, cwd, env_extra=None):
    """Run a fresh interpreter with `args`, finding the imported `wobble`."""
    env = dict(os.environ)
    env.setdefault("WOBBLE_THREADS", "1")
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (WOBBLE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def run_cli(args, cwd, env_extra=None):
    return run_python(["-m", "wobble", *args], cwd, env_extra)


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
    r = run_cli(["check", "--terrain", str(terrain10)], cwd=tmp_path)
    assert r.returncode == 0
    assert "certified upper bound" in r.stdout
    assert "10.0000 deg" in r.stdout


def test_check_reports_a_grid_slope_as_sampled(tmp_path, capsys):
    # a tilted plane: the bicubic interpolant reproduces it exactly
    tilt = math.tan(math.radians(10.0))
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({
        "type": "grid", "origin": [0, 0], "spacing": 1, "rows": 3, "cols": 3,
        "heights": [tilt * col for _ in range(3) for col in range(3)]}))
    assert main(["check", "--terrain", str(path)]) == 0
    out = capsys.readouterr().out
    # the grid's own slope bound: the value that `solve` gates on
    assert "slope bound:     10.0000 deg (sampled lower bound)\n" in out
    assert "slope search" not in out


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


@pytest.mark.parametrize("step, message", [
    ("0", "trace step must be positive"),
    ("-0.25", "trace step must be positive"),
    ("nan", "trace step must be positive"),
    # far below the floor: a missing guard fails at once in numpy's allocator
    ("1e-13", "trace step 1e-13 deg is below the floor of 0.0006866 deg (pi/2^18 rad)"),
], ids=["0", "-0.25", "nan", "1e-13"])
@pytest.mark.parametrize("command", ["solve", "montecarlo"])
def test_step_must_be_finite_and_positive(command, step, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    args = [command, "--motion", "rt", "--step", step, "--out", str(out)]
    if command == "solve":
        terrain = tmp_path / "flat.json"
        terrain.write_text(serialize_terrain(flat_terrain()))
        args += ["--terrain", str(terrain)]
    else:
        args += ["--n", "2"]
    assert main(args) == EXIT_FAILURE
    assert message in capsys.readouterr().err
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


@pytest.mark.parametrize("theta", ["nan", "95", "-1"])
def test_campaign_target_slope_checked_before_the_runs(theta, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["montecarlo", "--n", "1", "--theta", theta,
                 "--out", str(out)]) == EXIT_FAILURE
    assert "target slope must be in [0, pi/2)" in capsys.readouterr().err
    assert not out.exists()


def test_campaign_bump_count_checked_before_the_runs(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["montecarlo", "--n", "1", "--bumps", "-1",
                 "--out", str(out)]) == EXIT_FAILURE
    assert "bump count must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, seed", [
    (["gen-terrain", "--seed", "-1", "--theta", "10"], -1),
    (["montecarlo", "--n", "2", "--seed", "-5", "--motion", "rt"], -5),
], ids=["gen-terrain", "montecarlo"])
def test_negative_seed_is_refused(args, seed, tmp_path, capsys, monkeypatch):
    # numpy's generator takes no negative seed; the campaign refuses it
    # before any seed is drawn or any worker starts
    monkeypatch.setattr("wobble.cli._campaign_seeds", _refuse)
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == EXIT_FAILURE
    assert capsys.readouterr().err == f"failure: seed must be non-negative, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, bounds", [
    (["gen-terrain", "--seed", "1", "--theta", "10", "--extent=-inf,inf,-8,8"],
     "[-inf, inf] x [-8.0, 8.0]"),
    (["gen-terrain", "--seed", "1", "--theta", "10", "--extent=-1e308,1e308,-8,8"],
     "[-1e+308, 1e+308] x [-8.0, 8.0]"),
    (["montecarlo", "--n", "1", "--motion", "rt", "--extent=-1e308,1e308,-1e308,1e308"],
     "[-1e+308, 1e+308] x [-1e+308, 1e+308]"),
], ids=["gen-terrain-inf", "gen-terrain-1e308", "montecarlo-1e308"])
def test_extent_without_a_finite_width_is_refused(args, bounds, tmp_path, capsys,
                                                  monkeypatch):
    # numpy's uniform draws overflow on such a width; the extent is refused
    # before any seed or bump is drawn
    monkeypatch.setattr("wobble.cli._campaign_seeds", _refuse)
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == EXIT_FAILURE
    assert capsys.readouterr().err == (
        f"failure: extent must have a finite width and height, got {bounds}\n")
    assert not out.exists()


@pytest.mark.parametrize("args, n", [
    (["gen-terrain", "--seed", "1", "--theta", "10", "--bumps", "100000000"], 100000000),
    (["montecarlo", "--n", "2", "--motion", "rt", "--bumps", "10001"], 10001),
], ids=["gen-terrain", "montecarlo"])
def test_bump_count_over_the_cap_is_refused(args, n, tmp_path, capsys, monkeypatch):
    # the count is refused before any bump is drawn or any worker starts
    monkeypatch.setattr("wobble.cli._campaign_seeds", _refuse)
    monkeypatch.setattr("wobble.terrain.Bump", _refuse)
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == EXIT_FAILURE
    assert capsys.readouterr().err == f"failure: a terrain takes at most 10^4 bumps, got {n}\n"
    assert not out.exists()


def test_coplanar_start_is_one_failure_line(tmp_path, capsys):
    # a 1e-6 table's settled and dropped feet span a volume of 8.3e-28: no
    # unique sphere through them, a CoplanarPoints error, reported as a
    # failure like any other solver error
    terrain = tmp_path / "t.json"
    terrain.write_text(serialize_terrain(
        generate_terrain(1, math.radians(10.0), 20, Extent(-8.0, 8.0, -8.0, 8.0))))
    out = tmp_path / "trace.csv"
    assert main(["solve", "--terrain", str(terrain), "--side", "1e-6",
                 "--out", str(out)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("failure: points are near-coplanar")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not out.exists()


# the special floats, and one ordinary value each so that some examples
# solve the march
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308,
                            5e-324, -5e-324, 1e-310])


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(step=st.one_of(_SPECIAL, st.just(0.5)), yaw=st.one_of(_SPECIAL, st.just(30.0)),
       center=st.tuples(st.one_of(_SPECIAL, st.just(0.5)),
                        st.one_of(_SPECIAL, st.just(-0.5))))
def test_march_solve_on_special_values_exits_with_a_documented_code(
        terrain10, step, yaw, center):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.csv"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["solve", "--terrain", str(terrain10), "--motion", "gamma",
                         f"--step={step!r}", f"--yaw={yaw!r}",
                         f"--center={center[0]!r},{center[1]!r}", "--out", str(out)])
        assert code in (0, 2, 3, 4, 64)
        if code in (0, 2):
            assert out.exists()
        else:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert not out.exists()


# the ordinary foot angles, in degrees: a square on the unit circle
_ANGLES = (10.0, 100.0, 190.0, 280.0)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(circle=st.one_of(st.none(), _SPECIAL, st.just(1.0)),
       angles=st.tuples(*(st.one_of(_SPECIAL, st.just(a)) for a in _ANGLES)),
       center=st.tuples(st.one_of(_SPECIAL, st.just(0.5)),
                        st.one_of(_SPECIAL, st.just(-0.5))),
       side=st.one_of(_SPECIAL, st.just(1.0)))
def test_scan_on_special_values_exits_with_a_documented_code(
        terrain10, circle, angles, center, side):
    # without --circle the scan takes the --side square and ignores --angles;
    # a warning would be a second stderr line, so warnings raise here
    args = ["scan", "--terrain", str(terrain10), "--n", "256", f"--side={side!r}",
            f"--angles={','.join(repr(a) for a in angles)}",
            f"--center={center[0]!r},{center[1]!r}"]
    if circle is not None:
        args.append(f"--circle={circle!r}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "scan.csv"
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            code = main([*args, "--out", str(out)])
        assert code in (0, 2, 3, 4, 64)
        if code in (0, 2):
            assert out.exists()
        else:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert not out.exists()


@pytest.mark.parametrize("angles", ["0,90,180,inf", "0,nan,120,180", "-inf,0,90,180"])
def test_scan_refuses_a_non_finite_foot_angle(angles, terrain10, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scan", "--terrain", str(terrain10), "--circle", "1",
                     f"--angles={angles}", "--out", str(out)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failure: foot angles must be finite\n"
    assert not out.exists()


def test_campaign_residuals_are_the_march_trace_residuals():
    # the campaign derives both residual columns from the trace's feet,
    # heights and sphere; recompute them from a fresh march
    cfg = CampaignConfig(n=1, master_seed=0, target_slope=math.radians(12.0))
    seed = 11
    rec = _run_one((cfg, 0, seed))
    assert rec["error"] == "" and rec["found"]
    terrain = generate_terrain(seed, cfg.target_slope, cfg.bump_count, cfg.extent)
    trace = run_march(TableSpec.square(cfg.side), terrain, step=cfg.step)
    sph = trace.sphere
    sphere_resid = max(abs(float(np.linalg.norm(trace.feet[i, j] - sph.center))
                           - sph.radius)
                       for i in range(len(trace)) for j in (0, 1))
    surface_resid = max(abs(float(h)) for h in trace.heights[:, :3].ravel())
    assert repr(rec["sphere_resid"]) == repr(sphere_resid)
    assert repr(rec["surface_resid"]) == repr(surface_resid)
    assert 0.0 < rec["surface_resid"] < 1e-9 and rec["sphere_resid"] < 1e-9


@pytest.mark.parametrize("levels", ["5,95,10", "5,nan,10", "5,-3,10"])
def test_scan_study_levels_checked_before_the_scan(levels, tmp_path, capsys):
    terrain = tmp_path / "flat.json"
    terrain.write_text(serialize_terrain(flat_terrain()))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--terrain", str(terrain), "--study", levels,
                 "--out", str(out)]) == EXIT_FAILURE
    assert "target slope must be in [0, pi/2)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ground, levels, message", [
    ("grid", "2,4,8", "the scaling study needs a bump terrain with bumps"),
    ("bumps", "2,4", "need at least 3 slope levels, got 2"),
])
def test_scan_study_that_cannot_run_leaves_no_csv(ground, levels, message,
                                                   tmp_path, capsys):
    terrain = tmp_path / "ground.json"
    terrain.write_text(serialize_terrain(
        generate_terrain(7, math.radians(10.0), 20, Extent(-8.0, 8.0, -8.0, 8.0))
        if ground == "bumps" else
        GridTerrain.from_function(lambda x, y: 0.05 * x * y, Extent(-2, 2, -2, 2), 0.5)))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--terrain", str(terrain), "--study", levels, "--n", "256",
                 "--out", str(out)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.err == f"failure: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"type": "bumps", "bumps": [{"cx": None, "cy": 0, "amplitude": 1, "sigma": 1}]},
    {"type": "bumps", "extent": [-1, "x", -1, 1], "bumps": []},
    {"type": "bumps", "bumps": [[0, 0, 1, 1]]},
    {"type": "grid", "origin": [0], "spacing": 1, "rows": 2, "cols": 2,
     "heights": [0, 0, 0, 0]},
    {"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 2.7, "cols": 2,
     "heights": [0, 0, 0, 0]},
    {"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 2, "cols": 2,
     "heights": [0, None, 0, 0]},
    {"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 2, "cols": 2,
     "heights": [0, "x", 0, 0]},
    {"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 2, "cols": 2,
     "heights": [0, [0, 1], 0, 0]},
])
def test_malformed_terrain_file_exits_4(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--terrain", str(path)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("failure: ") and err.count("\n") == 1


def test_non_utf8_terrain_file_exits_4(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"type": "bumps", "bumps": []}'.encode("utf-16-le"))
    assert main(["check", "--terrain", str(path)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("failure: terrain file is not valid JSON")
    assert err.count("\n") == 1


def test_bump_width_too_small_to_square_exits_4(tmp_path, capsys):
    path = tmp_path / "narrow.json"
    path.write_text('{"type": "bumps", "bumps": '
                    '[{"cx": 0, "cy": 0, "amplitude": 1, "sigma": 1e-200}]}')
    assert main(["check", "--terrain", str(path)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("failure: bump width 1e-200 is out of range")
    assert err.count("\n") == 1


def test_import_loads_no_lazy_module(tmp_path):
    # the process pool and orjson are imported where they are used, never
    # by importing the package
    code = ("import sys, wobble, wobble.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'orjson') "
            "if m in sys.modules))")
    r = run_python(["-c", code], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_sphere_cap_fits_load_no_scipy(tmp_path):
    # a None entry is a blocked import, not a loaded module
    code = ("import sys, numpy as np; "
            "from wobble.balance import SphericalCapGround, concyclicity_defect, "
            "sphere_cap_fit_scan; "
            "feet = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.1]]); "
            "concyclicity_defect(feet); "
            "sphere_cap_fit_scan(feet, SphericalCapGround(50.0), 4, 3); "
            "print(sorted(m for m, mod in sys.modules.items() "
            "if m.split('.')[0] == 'scipy' and mod is not None))")
    r = run_python(["-c", code], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_check_refuses_a_sample_count_too_large_to_hold(tmp_path, capsys):
    # `check` takes no sample count: it prints the terrain's own slope
    # bound, so any count, 10^12 among them, is a usage error that reads
    # no terrain (the estimate's own refusal is tested in test_terrain)
    terrain = tmp_path / "flat.json"
    terrain.write_text(serialize_terrain(flat_terrain()))
    assert main(["check", "--terrain", str(terrain),
                 "--samples", "1000000000000"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --samples 1000000000000" in captured.err


def _refuse(*args):
    raise AssertionError("ran past the size check")


@pytest.mark.parametrize("n", ["524288", "1099511627776"])
def test_scan_refuses_a_size_too_large_to_hold(n, tmp_path, capsys, monkeypatch):
    # 2^40 angles would be 32 TB of foot heights; the size is refused
    # before the scan computes anything that grows with it
    monkeypatch.setattr("wobble.contact.diagonal_intersection_ratios", _refuse)
    terrain = tmp_path / "flat.json"
    terrain.write_text(serialize_terrain(flat_terrain()))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--terrain", str(terrain), "--n", n,
                 "--out", str(out)]) == EXIT_FAILURE
    assert capsys.readouterr().err == f"failure: scan size must be at most 2^18, got {n}\n"
    assert not out.exists()


@pytest.mark.parametrize("n", ["100001", "1000000000000"])
def test_campaign_refuses_a_run_count_too_large_to_hold(n, tmp_path, capsys,
                                                        monkeypatch):
    # 10^12 seeds alone would take 8 TB; the count is refused before any
    # seed is drawn or any worker starts
    monkeypatch.setattr("wobble.cli._campaign_seeds", _refuse)
    out = tmp_path / "camp.csv"
    assert main(["montecarlo", "--n", n, "--out", str(out)]) == EXIT_FAILURE
    assert capsys.readouterr().err == f"failure: campaign takes at most 10^5 runs, got {n}\n"
    assert not out.exists()


def test_scan_refuses_a_grid_whose_node_derivatives_overflow(tmp_path, capsys):
    heights = np.random.default_rng(0).choice([-1.7e308, 1.7e308], (41, 41))
    terrain = tmp_path / "huge.json"
    terrain.write_text(json.dumps({"type": "grid", "origin": [-20, -20], "spacing": 1,
                                   "rows": 41, "cols": 41,
                                   "heights": heights.ravel().tolist()}))
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scan", "--terrain", str(terrain), "--n", "256",
                     "--out", str(out)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failure: grid heights overflow their node derivatives\n"
    assert not out.exists()


def _reference_trace_csv_lines(trace):
    """The trace CSV written sample by sample from `trace.sample(i)`."""
    def fmt(value):
        return "" if value is None else repr(float(value))

    r_over_l = (trace.sphere.radius / trace.table.side
                if trace.sphere is not None else None)
    lines = [TRACE_HEADER]
    for i in range(len(trace)):
        s = trace.sample(i)
        lat = math.degrees(s.latitude1) if s.latitude1 is not None else None
        lines.append(",".join([fmt(math.degrees(s.param)),
                               *(fmt(v) for v in s.feet.points.ravel()),
                               fmt(s.contact.h4), fmt(r_over_l), fmt(lat),
                               ";".join(s.flags)]))
    return lines


def _latitude_flagged_march():
    # the slope pinned at 1 deg puts the latitude bound at 2 deg, which
    # every sample of this march exceeds: under override each row carries
    # the "latitude" flag and a warning
    terrain = generate_terrain(2, math.radians(12.0), 20, Extent(-8.0, 8.0, -8.0, 8.0))
    terrain._slope_cache = math.radians(1.0)
    trace = run_march(TableSpec.square(1.0), terrain, override=True)
    assert trace.flags.all() and len(trace.warnings) > len(trace)
    return trace


@pytest.mark.parametrize("case", ["march-hills14", "pivot_slide-hills30",
                                  "march-override-flags"])
def test_trace_csv_matches_sample_by_sample_reference(case, request):
    table = TableSpec.square(1.0)
    if case == "march-hills14":
        trace = run_march(table, request.getfixturevalue("hills14"))
    elif case == "pivot_slide-hills30":
        trace = run_pivot_slide(table, request.getfixturevalue("hills30"))
    else:
        trace = _latitude_flagged_march()
    got = "\n".join(trace_csv_lines(trace)).encode()
    want = "\n".join(_reference_trace_csv_lines(trace)).encode()
    assert len(trace) > 300
    assert got == want
