import math

import numpy as np
import pytest

from wobble import balance as balance_mod
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
from wobble.contact import TableSpec
from wobble.errors import DomainError
from wobble.geometry import Sphere
from wobble.ring import circle_surface_intersection, ring_point
from wobble.terrain import BumpTerrain, Extent, GridTerrain

EXT = Extent(-8.0, 8.0, -8.0, 8.0)
SQUARE = TableSpec.square(1.0)
HALF_HEX = TableSpec.circle(1.0, [math.radians(a) for a in (0, 60, 120, 180)])


def test_scan_requires_power_of_two():
    from wobble.terrain import flat_terrain
    with pytest.raises(DomainError):
        height_scan(SQUARE, flat_terrain(EXT), (0, 0), 1000)
    with pytest.raises(DomainError):
        height_scan(SQUARE, flat_terrain(EXT), (0, 0), 128)


def test_scan_circle_must_fit(hills14):
    big = TableSpec.circle(9.0, [math.radians(a) for a in (0, 90, 180, 270)])
    with pytest.raises(DomainError):
        height_scan(big, hills14, (0, 0), 4096)


def test_flat_scan_constant_and_degenerate(flat):
    scan = height_scan(SQUARE, flat, (0, 0), 4096)
    assert np.all(scan.heights == scan.heights[:, :1])
    found = find_balance_angles(scan)
    assert found.degenerate
    assert integral_equality_residual(scan) == 0.0


def test_shift_identity_square(hills14):
    scan = height_scan(SQUARE, hills14, (0.4, 0.1), 4096)
    # feet 1 and 3 sit half a turn apart on the same circle
    assert np.max(np.abs(scan.heights[2] - np.roll(scan.heights[0], -2048))) < 1e-12
    assert np.max(np.abs(scan.heights[3] - np.roll(scan.heights[1], -2048))) < 1e-12


def test_shift_identity_quarter_turns(hills12):
    scan = height_scan(SQUARE, hills12, (-0.3, 0.2), 4096)
    for i in (1, 2, 3):
        shift = i * 1024
        assert np.max(np.abs(scan.heights[i] - np.roll(scan.heights[0], -shift))) < 1e-12


def test_integral_identity_square(hills14):
    scan = height_scan(SQUARE, hills14, (0.4, 0.1), 4096)
    assert integral_equality_residual(scan) < 1e-9
    assert abs(scan.integral_of_g()) < 1e-9 * 2 * math.pi * SQUARE.char_length


def test_integral_identity_half_hexagon(hills14):
    scan = height_scan(HALF_HEX, hills14, (0.4, 0.1), 4096)
    assert integral_equality_residual(scan) < 1e-6
    assert abs(scan.integral_of_g()) < 1e-9 * 2 * math.pi * HALF_HEX.char_length
    # quadrature convergence: doubling the grid barely moves the integrals
    scan2 = height_scan(HALF_HEX, hills14, (0.4, 0.1), 8192)
    assert np.max(np.abs(scan.integrals() - scan2.integrals())) < 1e-8


def test_balance_angles_even_count(hills14):
    for table in (SQUARE, HALF_HEX):
        scan = height_scan(table, hills14, (0.4, 0.1), 4096)
        found = find_balance_angles(scan)
        assert not found.degenerate
        assert len(found.roots) >= 2
        assert len(found.roots) % 2 == 0


def test_balance_angles_synthetic_sine():
    # inject g(theta) = sin(theta) directly: roots at 0 and pi
    from wobble.terrain import flat_terrain
    flat = flat_terrain(EXT)
    scan = height_scan(SQUARE, flat, (0, 0), 4096)
    funcs = (np.sin, lambda t: 0.0 * np.asarray(t), lambda t: 0.0 * np.asarray(t),
             lambda t: 0.0 * np.asarray(t))
    synthetic = type(scan)(
        table=scan.table, terrain=scan.terrain, center=scan.center, z0=0.0,
        thetas=scan.thetas, heights=np.array([np.sin(scan.thetas),
                                              np.zeros(scan.n),
                                              np.zeros(scan.n),
                                              np.zeros(scan.n)]),
        alpha=scan.alpha, beta=scan.beta, height_funcs=funcs)
    found = find_balance_angles(synthetic)
    assert not found.degenerate
    assert len(found.roots) == 2
    assert found.roots[0] == pytest.approx(0.0, abs=1e-12)
    assert found.roots[1] == pytest.approx(math.pi, abs=1e-12)


def test_balance_angles_saddle_square():
    # ground x^2 - y^2 gives g = 2 s rho^2 sin(2 theta) for a square table
    s = 0.02
    g = GridTerrain.from_function(lambda x, y: s * (x * x - y * y), EXT, 0.5)
    scan = height_scan(SQUARE, g, (0, 0), 4096)
    rho = SQUARE.as_circle[0]
    want = 2.0 * s * rho * rho * np.sin(2.0 * scan.thetas)
    assert np.max(np.abs(scan.g_values - want)) < 1e-10
    found = find_balance_angles(scan)
    got = sorted(found.roots)
    assert len(got) == 4
    for root, expect in zip(got, (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)):
        assert root == pytest.approx(expect, abs=1e-9)


def test_approximate_equilibrium_flat(flat):
    cand = approximate_equilibrium(SQUARE, flat, (0, 0), 0.7)
    assert cand.coplanarity_residual < 1e-12
    assert cand.distortion < 1e-12
    assert cand.fit_height_error < 1e-12


def test_approximate_equilibrium_at_root(hills14):
    scan = height_scan(SQUARE, hills14, (0.4, 0.1), 4096)
    found = find_balance_angles(scan)
    for theta in found.roots:
        cand = approximate_equilibrium(SQUARE, hills14, (0.4, 0.1), theta)
        assert cand.coplanarity_residual < 1e-9 * SQUARE.char_length


def test_approximate_equilibrium_rejects_non_root(hills14):
    scan = height_scan(SQUARE, hills14, (0.4, 0.1), 4096)
    found = find_balance_angles(scan)
    theta_bad = found.roots[0] + 0.3
    with pytest.raises(DomainError):
        approximate_equilibrium(SQUARE, hills14, (0.4, 0.1), theta_bad)


def test_approximate_equilibrium_tilted_plane(plane10):
    cand = approximate_equilibrium(SQUARE, plane10, (0.0, 0.0), 0.3)
    # planar ground: 3-D chords stretch over the rigid horizontal ones
    q = cand.surface_points
    ref = SQUARE.reference_distances()
    direct = 0.0
    for i in range(4):
        for j in range(4):
            direct = max(direct, abs(np.linalg.norm(q[i] - q[j]) - ref[i, j]))
    assert cand.distortion == pytest.approx(direct / SQUARE.char_length, abs=1e-15)
    assert cand.coplanarity_residual < 1e-12


def test_scaling_study_exponents(hills12):
    study = distortion_scaling_study(
        SQUARE, hills12, [math.radians(d) for d in (2, 4, 8)], (0.5, -0.3))
    assert study.distortion_exponent >= 2.0
    assert study.distortion_fit_residual < 0.3
    assert study.height_exponent == pytest.approx(3.0, abs=0.3)
    assert study.reference_exponent == 3.0


def test_scaling_study_needs_three_levels(hills12):
    with pytest.raises(DomainError):
        distortion_scaling_study(SQUARE, hills12,
                                 [math.radians(2), math.radians(4)], (0, 0))


@pytest.mark.parametrize("bad", [math.radians(95.0), math.nan, math.radians(-3.0)],
                         ids=["95deg", "nan", "-3deg"])
def test_scaling_study_checks_every_level_first(bad, hills12, monkeypatch):
    # the check comes before any scan
    monkeypatch.setattr(balance_mod, "height_scan", None)
    with pytest.raises(DomainError, match=r"target slope must be in \[0, pi/2\)"):
        distortion_scaling_study(SQUARE, hills12,
                                 [math.radians(5.0), bad, math.radians(10.0)], (0, 0))


def test_scaling_study_zero_level_excluded(hills12):
    study = distortion_scaling_study(
        SQUARE, hills12, [0.0] + [math.radians(d) for d in (2, 4, 8)],
        (0.5, -0.3))
    assert study.levels[0].note == "flat level excluded"
    assert study.distortion_exponent >= 2.0


def _square_feet_xy(side: float = 1.0) -> np.ndarray:
    rho = side / math.sqrt(2.0)
    return np.array([
        [rho * math.cos(math.radians(a)), rho * math.sin(math.radians(a))]
        for a in (45.0, 135.0, 225.0, 315.0)
    ])


def test_concyclicity_defect_square_zero():
    assert concyclicity_defect(_square_feet_xy()) < 1e-12


def test_cap_scan_concyclic_control():
    cap = SphericalCapGround(50.0)
    report = sphere_cap_fit_scan(_square_feet_xy(), cap, theta_steps=8,
                                 center_steps=3)
    assert report.defect < 1e-12
    assert report.min_residual < 1e-9


def test_cap_scan_noncyclic_bounded_away():
    cap = SphericalCapGround(50.0)
    feet = _square_feet_xy()
    feet[3] *= 1.0563  # radial push, defect close to 0.01 of the side
    defect = concyclicity_defect(feet)
    assert 0.005 < defect < 0.02
    report = sphere_cap_fit_scan(feet, cap, theta_steps=8, center_steps=3)
    assert report.min_residual > 1e-4 * defect / 0.01 * 0.5
    assert report.min_residual > 0.0


def test_cap_meets_circles_and_spheres():
    # the cap answers the terrain protocol's bound queries, so the foot
    # circle and curve kernels run on it
    cap = SphericalCapGround(100.0, Extent(-10.0, 10.0, -10.0, 10.0))

    def off_cap(q):
        return abs(float(np.linalg.norm(q - cap.sphere_center)) - cap.radius)

    center = np.array([1.0, -0.5, cap.height(1.0, -0.5)])
    q = circle_surface_intersection(center, np.array([1.0, 0.3, 0.2]), 0.7, cap)
    assert off_cap(q) < 1e-12
    assert abs(float(np.linalg.norm(q - center)) - 0.7) < 1e-12
    sphere = Sphere(np.array([0.5, -0.3, cap.height(0.5, -0.3) + 0.2]), 0.8)
    q, _ = ring_point(sphere, cap, 0.4)
    assert off_cap(q) < 1e-12
    assert abs(float(np.linalg.norm(q - sphere.center)) - sphere.radius) < 1e-12


def test_cap_scan_plane_limit_fits_anything():
    cap = SphericalCapGround(1e9)
    feet = _square_feet_xy()
    feet[3] *= 1.06
    report = sphere_cap_fit_scan(feet, cap, theta_steps=4, center_steps=3)
    assert report.min_residual < 1e-6
