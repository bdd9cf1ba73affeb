"""The benchmark's own tests: each output check rejects a corrupted output,
and the reference evaluator agrees with the program. They run in about a
second and need `src` on PYTHONPATH, as the repository's tests do."""

import math

import numpy as np
import pytest

import refcheck
import spans
from wobble.balance import approximate_equilibrium, find_balance_angles, height_scan
from wobble.contact import TableSpec
from wobble.terrain import (
    Extent,
    GridTerrain,
    generate_terrain,
    parse_terrain,
    serialize_terrain,
)

EXT = Extent(-8.0, 8.0, -8.0, 8.0)
SQUARE = (TableSpec.square(1.0), 1.0 / math.sqrt(2.0),
          tuple(math.radians(a) for a in (45, 135, 225, 315)))
HALF_HEX = (TableSpec.circle(1.0, [math.radians(a) for a in (0, 60, 120, 180)]),
            1.0, tuple(math.radians(a) for a in (0, 60, 120, 180)))


@pytest.fixture(scope="module")
def bump_terrain():
    return generate_terrain(7, math.radians(18.0), 20, EXT)


@pytest.fixture(scope="module")
def grid_terrain():
    xs = np.linspace(-3.0, 3.0, 61)
    x, y = np.meshgrid(xs, xs)
    h = 0.3 * np.sin(1.3 * x + 0.4) * np.cos(0.9 * y) + 0.2 * np.exp(-(x - 0.5) ** 2 - y ** 2)
    return GridTerrain((-3.0, -3.0), 0.1, h)


def test_reference_matches_program(bump_terrain, grid_terrain):
    rng = np.random.default_rng(0)
    for ground, span in ((bump_terrain, 7.5), (grid_terrain, 2.9)):
        ref = refcheck.reference_from_text(serialize_terrain(ground))
        x, y = rng.uniform(-span, span, size=(2, 500))
        assert np.abs(ref.height(x, y) - ground.height(x, y)).max() < 1e-12


# ---------------------------------------------------------------- march

FLAT = refcheck.BumpReference([])
FEET = np.array([[0.2, 0.1, 0.0], [1.2, 0.1, 0.0], [1.2, 1.1, 0.0], [0.2, 1.1, 0.0]])
CSV_HEADER = ("param_deg,x1,y1,z1,x2,y2,z2,x3,y3,z3,x4,y4,z4,"
              "h4,sphere_R_over_L,lat_deg,warnings")


def _report(feet, sweep=41.5, found="found"):
    lines = [f"equilibrium:     {found}", f"azimuth sweep:   {sweep:.4f} deg", "feet:"]
    lines += [f"  {i + 1}: ({p[0]:.12f}, {p[1]:.12f}, {p[2]:.12f})"
              for i, p in enumerate(feet)]
    return "\n".join(lines)


def _csv(rows):
    out = [CSV_HEADER]
    for param, feet in rows:
        out.append(",".join([repr(param), *(repr(float(v)) for v in feet.ravel()),
                             "0.0", "0.8", "0.0", ""]))
    return "\n".join(out) + "\n"


def _march(report=None, csv=None):
    report = report if report is not None else _report(FEET)
    csv = csv if csv is not None else _csv([(0.0, FEET), (0.25, FEET + [0.01, 0, 0])])
    return refcheck.check_march(report, csv, FLAT, 1.0, 0.25)


def test_march_accepts_a_valid_output():
    assert _march() == []


def test_march_rejects_a_foot_off_the_ground():
    feet = FEET.copy()
    feet[3, 2] += 1e-6
    assert any("off the ground" in p for p in _march(report=_report(feet)))


def test_march_rejects_a_non_rigid_square():
    feet = FEET.copy()
    feet[2, 0] += 1e-6
    assert any("rigid square" in p for p in _march(report=_report(feet)))


def test_march_rejects_a_sweep_past_a_quarter_turn():
    assert _march(report=_report(FEET, sweep=90.26))
    assert _march(report=_report(FEET, sweep=90.25)) == []


def test_march_rejects_no_equilibrium():
    assert _march(report=_report(FEET, found="not found"))


def test_march_rejects_a_corrupted_trace_row():
    bad = FEET.copy()
    bad[1, 2] += 1e-6
    assert _march(csv=_csv([(0.0, FEET), (0.25, bad)]))


# ------------------------------------------------------------- campaign

SEEDS = refcheck.campaign_seeds(5, 4)


def _campaign_csv(**overrides):
    lines = [",".join(refcheck.CAMPAIGN_COLUMNS)]
    for k, seed in enumerate(SEEDS):
        row = {c: "" for c in refcheck.CAMPAIGN_COLUMNS}
        row.update(index=str(k), seed=str(seed), theta_target_deg="35.0",
                   theta_measured_deg="34.99999997", motion="rt", found="1",
                   residual="3e-11", legs_clear="1")
        if k == 2:
            row.update(overrides)
        lines.append(",".join(row[c] for c in refcheck.CAMPAIGN_COLUMNS))
    return "\n".join(lines) + "\n"


def _campaign(text):
    return refcheck.check_campaign(text, SEEDS, 35.0, "rt")


def test_campaign_accepts_a_valid_output():
    assert _campaign(_campaign_csv()) == []


@pytest.mark.parametrize("override", [
    {"seed": str(SEEDS[3])},
    {"found": "0"},
    {"error": "NumericalFailure: x"},
    {"residual": "1.1e-09"},
    {"legs_clear": "0"},
    {"theta_measured_deg": "35.000001"},
])
def test_campaign_rejects_a_corrupted_row(override):
    assert _campaign(_campaign_csv(**override))


def test_campaign_rejects_a_missing_row():
    text = _campaign_csv()
    assert _campaign(text.rsplit("\n", 2)[0] + "\n")


# ----------------------------------------------------------------- scan

@pytest.fixture(scope="module")
def scan_output(bump_terrain):
    table, rho, angles = HALF_HEX
    scan = height_scan(table, bump_terrain, (0.0, 0.0), 1024)
    roots = find_balance_angles(scan).roots
    points = [approximate_equilibrium(table, bump_terrain, (0.0, 0.0), t).surface_points
              for t in roots]
    ground = refcheck.reference_from_text(serialize_terrain(bump_terrain))
    return ground, rho, angles, scan.heights, list(roots), points


def _scan(ground, rho, angles, heights, roots, points):
    return refcheck.check_scan(ground, (0.0, 0.0), rho, angles, heights, roots, points)


def test_scan_accepts_program_output(scan_output):
    assert _scan(*scan_output) == []


def test_scan_accepts_grid_output(grid_terrain):
    table, rho, angles = SQUARE
    ground = refcheck.reference_from_text(serialize_terrain(grid_terrain))
    assert isinstance(ground, refcheck.GridReference)
    scan = height_scan(table, parse_terrain(serialize_terrain(grid_terrain)), (0.0, 0.0), 1024)
    roots = find_balance_angles(scan).roots
    points = [approximate_equilibrium(table, grid_terrain, (0.0, 0.0), t).surface_points
              for t in roots]
    assert _scan(ground, rho, angles, scan.heights, list(roots), points) == []


def test_scan_rejects_a_moved_root(scan_output):
    ground, rho, angles, heights, roots, points = scan_output
    moved = list(roots)
    moved[0] += 1e-6
    problems = _scan(ground, rho, angles, heights, moved, points)
    assert any("|g|" in p or "sign" in p for p in problems)


def test_scan_rejects_a_moved_ground_point(scan_output):
    ground, rho, angles, heights, roots, points = scan_output
    bad = [q.copy() for q in points]
    bad[0][2, 2] += 1e-6
    problems = _scan(ground, rho, angles, heights, roots, bad)
    assert any("coplanar" in p for p in problems)


def test_scan_rejects_an_odd_root_count(scan_output):
    ground, rho, angles, heights, roots, points = scan_output
    assert _scan(ground, rho, angles, heights, roots[1:], points[1:])


def test_scan_rejects_unequal_integrals(scan_output):
    ground, rho, angles, heights, roots, points = scan_output
    bad = heights.copy()
    bad[1] += 1e-6
    assert any("integrals" in p for p in _scan(ground, rho, angles, bad, roots, points))


def test_coplanarity_determinant_alone_rejects_a_lifted_point():
    q = np.array([[0.0, 0.0, 0.1], [1.0, 0.0, 0.2], [1.0, 1.0, 0.3], [0.0, 1.0, 0.2]])
    det = np.linalg.det(np.array([q[1] - q[0], q[2] - q[0], q[3] - q[0]]))
    assert abs(det) < 1e-15
    q[3, 2] += 1e-6
    det = np.linalg.det(np.array([q[1] - q[0], q[2] - q[0], q[3] - q[0]]))
    assert abs(det) > refcheck.COPLANAR_TOL


# ------------------------------------------------------------- tracing

def test_self_time_subtracts_the_union_of_children():
    recs = [["a", 0.0, 10.0, -1, 1],
            ["b", 1.0, 4.0, 0, 1], ["c", 3.0, 6.0, 0, 2],   # overlap 3..4
            ["d", 2.0, 3.0, 1, 1]]
    assert spans.self_times(recs) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_campaign_shares():
    recs = [["cli.run_campaign", 0.0, 10.0, -1, 1],
            ["cli.run", 0.5, 6.0, 0, 2], ["cli.run", 0.5, 9.5, 0, 3],
            ["cli.run", 6.0, 8.0, 0, 2]]
    busy, avail, tail = spans.campaign_shares(recs)
    assert busy == pytest.approx(16.5)
    assert avail == pytest.approx(20.0)
    assert tail == pytest.approx(1.5)
