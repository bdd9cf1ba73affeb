"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and the reported figures. The two campaigns dominate the runtime
(a few minutes on one core; WOBBLE_THREADS scales them out).
"""

import math
import os

import numpy as np
import pytest

from wobble.balance import (
    SphericalCapGround,
    approximate_equilibrium,
    concyclicity_defect,
    distortion_scaling_study,
    find_balance_angles,
    height_scan,
    integral_equality_residual,
    sphere_cap_fit_scan,
)
from wobble.cli import CampaignConfig, main, run_campaign
from wobble.contact import TableSpec
from wobble.geometry import SlopeThresholds, orthotriple_inclination_residual
from wobble.terrain import Extent, generate_terrain

EXT = Extent(-8.0, 8.0, -8.0, 8.0)
SQUARE = TableSpec.square(1.0)
HALF_HEX = TableSpec.circle(1.0, [math.radians(a) for a in (0, 60, 120, 180)])
STEP_DEG = 0.25


def _report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}", flush=True)


@pytest.fixture(scope="session")
def campaign_march():
    cfg = CampaignConfig(n=200, master_seed=11, target_slope=math.radians(14.0),
                         motion="gamma", step=math.radians(STEP_DEG),
                         bump_count=20, side=1.0, extent=EXT)
    return run_campaign(cfg)


@pytest.fixture(scope="session")
def campaign_pivot():
    cfg = CampaignConfig(n=100, master_seed=23, target_slope=math.radians(35.0),
                         motion="rt", step=math.radians(STEP_DEG),
                         bump_count=20, side=1.0, extent=EXT)
    return run_campaign(cfg)


def test_criterion_01_threshold_constants():
    th = SlopeThresholds()
    assert round(th.legs_clear_deg, 3) == 35.264
    assert round(th.monotone_march_deg, 3) == 14.470
    assert round(th.no_double_point_deg, 3) == 30.000
    assert round(th.half_circle_unique_deg, 3) == 45.000
    _report("1 threshold constants",
            f"{th.legs_clear_deg:.3f} / {th.monotone_march_deg:.3f} / "
            f"{th.no_double_point_deg:.3f} / {th.half_circle_unique_deg:.3f} deg")


def test_criterion_02_march_campaign(campaign_march):
    records = campaign_march.records
    assert len(records) == 200
    failures = [r for r in records if not r["found"] or r["error"]]
    assert not failures, failures[:3]
    worst_resid = max(r["residual"] for r in records)
    assert worst_resid < 1e-9
    sweeps = [r["sweep_deg"] for r in records]
    assert max(sweeps) <= 90.0 + STEP_DEG
    slopes = [r["theta_measured_deg"] for r in records]
    assert max(slopes) <= 14.0 + 1e-9
    _report("2 march campaign",
            f"200/200 found, max residual {worst_resid:.2e}, "
            f"max sweep {max(sweeps):.4f} deg")


def test_criterion_03_pivot_campaign(campaign_pivot):
    records = campaign_pivot.records
    assert len(records) == 100
    failures = [r for r in records if not r["found"] or r["error"]]
    assert not failures, failures[:3]
    worst_resid = max(r["residual"] for r in records)
    assert worst_resid < 1e-9
    assert all(r["legs_clear"] for r in records)
    assert max(r["theta_measured_deg"] for r in records) <= 35.0 + 1e-9
    _report("3 pivot-slide campaign",
            f"100/100 found, max residual {worst_resid:.2e}, legs clear")


def test_criterion_04_sphere_radius_bounds(campaign_march):
    ratios = [r["r_over_l"] for r in campaign_march.records
              if r["r_over_l"] is not None]
    assert ratios
    lo, hi = min(ratios), max(ratios)
    assert 1.0 / math.sqrt(2.0) < lo
    assert hi < math.sqrt(3.0) / 2.0
    _report("4 sphere radius bounds",
            f"R/L in [{lo:.6f}, {hi:.6f}] within "
            f"({1 / math.sqrt(2):.6f}, {math.sqrt(3) / 2:.6f})")


def test_criterion_05_curve_invariants(campaign_march):
    checked = 0
    for r in campaign_march.records:
        if r["degenerate"]:
            continue
        checked += 1
        assert r["sphere_resid"] < 1e-9
        assert r["surface_resid"] < 1e-9
        assert r["lat_max_deg"] < r["lat_bound_deg"]
        assert r["lat_bound_deg"] == pytest.approx(2.0 * r["theta_measured_deg"],
                                                   rel=1e-12)
        assert r["monotone_ok"]
    assert checked > 0
    _report("5 curve invariants",
            f"{checked} runs, 100% of traced points within bounds, "
            f"azimuths monotone")


def test_criterion_06_orthotriple_identity():
    rng = np.random.default_rng(17)

    def rotation(q):
        w, x, y, z = q
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])

    worst = 0.0
    for _ in range(10_000):
        q = rng.normal(size=4)
        m = rotation(q / np.linalg.norm(q))
        worst = max(worst, orthotriple_inclination_residual(m[:, 0], m[:, 1],
                                                            m[:, 2]))
    assert worst < 1e-9

    # third rows of a million random rotations; the smallest max-inclination
    # approaches arcsin(1/sqrt(3)) from above
    q = rng.normal(size=(1_000_000, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    rows = np.column_stack([
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)])
    max_incl = np.arcsin(np.minimum(np.abs(rows), 1.0)).max(axis=1)
    floor_deg = math.degrees(math.asin(1.0 / math.sqrt(3.0)))
    min_max_deg = math.degrees(float(max_incl.min()))
    assert min_max_deg >= floor_deg - 1e-9
    assert min_max_deg <= floor_deg + 0.5
    _report("6 orthotriple identity",
            f"max residual {worst:.2e}, min max-inclination "
            f"{min_max_deg:.4f} deg vs floor {floor_deg:.4f} deg")


@pytest.fixture(scope="session")
def conjecture_scans():
    out = []
    for i in range(20):
        slope = math.radians(6.0 + i)
        terrain = generate_terrain(100 + i, slope, 20, EXT)
        for table in (SQUARE, HALF_HEX):
            scan = height_scan(table, terrain, (0.0, 0.0), 4096)
            out.append((terrain, table, scan))
    return out


def test_criterion_07_conjecture_identities(conjecture_scans):
    worst_int = 0.0
    worst_g = 0.0
    degenerate = 0
    for terrain, table, scan in conjecture_scans:
        resid = integral_equality_residual(scan)
        worst_int = max(worst_int, resid)
        assert resid < 1e-6
        g_int = abs(scan.integral_of_g())
        worst_g = max(worst_g, g_int)
        assert g_int < 1e-9 * 2.0 * math.pi * table.char_length
        found = find_balance_angles(scan)
        if found.degenerate:
            degenerate += 1
            continue
        assert len(found.roots) >= 2
        assert len(found.roots) % 2 == 0
    assert degenerate == 0
    _report("7 conjecture identities",
            f"40 scans, max integral spread {worst_int:.2e}, "
            f"max |int g| {worst_g:.2e}, all root counts even")


def test_criterion_08_coplanarity_at_roots(conjecture_scans):
    worst = 0.0
    count = 0
    for terrain, table, scan in conjecture_scans:
        found = find_balance_angles(scan)
        for theta in found.roots:
            cand = approximate_equilibrium(table, terrain, scan.center, theta)
            worst = max(worst, cand.coplanarity_residual)
            count += 1
            assert cand.coplanarity_residual < 1e-9 * table.char_length
    assert count > 0
    _report("8 coplanarity at balance angles",
            f"{count} roots, worst residual {worst:.2e}")


def test_criterion_09_distortion_scaling(hills12):
    study = distortion_scaling_study(
        SQUARE, hills12, [math.radians(d) for d in (2.0, 4.0, 8.0)],
        (0.5, -0.3))
    assert study.distortion_exponent >= 2.0
    assert study.distortion_fit_residual < 0.3
    _report("9 distortion scaling",
            f"distortion exponent {study.distortion_exponent:.4f} "
            f"(fit residual {study.distortion_fit_residual:.4f}), "
            f"rigid-fit height exponent {study.height_exponent:.4f}, "
            f"cubic-order reference {study.reference_exponent:.0f} "
            f"not asserted")


def test_criterion_10_large_sphere_counterexample():
    side = 1.0
    cap = SphericalCapGround(50.0 * side)
    rho = side / math.sqrt(2.0)
    square_xy = np.array([
        [rho * math.cos(math.radians(a)), rho * math.sin(math.radians(a))]
        for a in (45.0, 135.0, 225.0, 315.0)])
    # calibrate the radial push so the circle-fit defect is 0.01 * side
    probe = square_xy.copy()
    probe[3] *= 1.02
    base_defect = concyclicity_defect(probe)
    push = 1.0 + 0.02 * (0.01 * side / base_defect)
    feet = square_xy.copy()
    feet[3] *= push
    defect = concyclicity_defect(feet)
    assert abs(defect - 0.01 * side) < 1e-3

    control = sphere_cap_fit_scan(square_xy, cap, theta_steps=16, center_steps=3)
    assert control.min_residual < 1e-9 * side
    report = sphere_cap_fit_scan(feet, cap, theta_steps=16, center_steps=3)
    assert report.min_residual > 1e-4 * side
    _report("10 large-sphere counterexample",
            f"defect {defect:.5f}, non-concyclic residual "
            f"{report.min_residual:.3e} > 1e-4, concyclic control "
            f"{control.min_residual:.3e}")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("WOBBLE_THREADS", "1")
    monkeypatch.chdir(tmp_path)

    def run(args):
        assert main(args) == 0

    pairs = []
    for tag in ("a", "b"):
        terr = f"t_{tag}.json"
        trace = f"trace_{tag}.csv"
        scan = f"scan_{tag}.csv"
        camp = f"camp_{tag}.csv"
        run(["gen-terrain", "--seed", "7", "--theta", "10", "--bumps", "20",
             "--out", terr])
        run(["solve", "--terrain", terr, "--motion", "gamma", "--out", trace])
        run(["scan", "--terrain", terr, "--side", "1", "--out", scan])
        run(["montecarlo", "--n", "3", "--theta", "12", "--seed", "9",
             "--out", camp])
        pairs.append((terr, trace, scan, camp))
    for fa, fb in zip(pairs[0], pairs[1]):
        assert (tmp_path / fa).read_bytes() == (tmp_path / fb).read_bytes(), \
            f"{fa} differs from {fb}"
    _report("11 determinism", "terrain, trace, scan and campaign CSVs "
            "byte-identical on reruns")
