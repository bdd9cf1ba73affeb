import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pytest

from wobble import balance as balance_mod
from wobble.balance import (
    HeightScan,
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
    assert np.array_equal(scan.heights[2], np.roll(scan.heights[0], -2048))
    assert np.array_equal(scan.heights[3], np.roll(scan.heights[1], -2048))


def test_shift_identity_quarter_turns(hills12):
    scan = height_scan(SQUARE, hills12, (-0.3, 0.2), 4096)
    for i in (1, 2, 3):
        shift = i * 1024
        assert np.array_equal(scan.heights[i], np.roll(scan.heights[0], -shift))


class CountingTerrain:
    """Delegates to a terrain and records the point count of each array
    height call."""

    def __init__(self, inner):
        self.inner = inner
        self.points = []

    def height(self, x, y):
        if isinstance(x, np.ndarray):
            self.points.append(np.broadcast(x, y).size)
        return self.inner.height(x, y)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _circle_table(*degrees):
    return TableSpec.circle(1.0, [math.radians(a) for a in degrees])


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("table, rows", [
    (SQUARE, 1),
    (HALF_HEX, 3),                          # 0 and 180 deg share a row
    # 100, 190 and 280 deg lie quarter turns, n/4 steps, apart and share
    # one row; 0 deg has its own
    (_circle_table(0, 100, 190, 280), 2),
    (_circle_table(0, 95, 190, 285), 4),    # no two a whole number of steps apart
])
def test_scan_evaluates_one_row_per_class_of_feet(hills14, table, rows, n):
    ground = CountingTerrain(hills14)
    height_scan(table, ground, (0.4, 0.1), n)
    assert ground.points == [rows * n]


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("table", [SQUARE, HALF_HEX, _circle_table(0, 100, 190, 280)])
@pytest.mark.parametrize("kind", ["bump", "grid", "cap"])
def test_shared_rows_match_each_foots_own_evaluation(hills14, table, kind, n):
    ground = {"bump": lambda: hills14,
              "grid": lambda: GridTerrain.from_function(
                  lambda x, y: 0.1 * math.sin(x) * math.cos(1.3 * y), EXT, 0.5),
              "cap": lambda: SphericalCapGround(50.0)}[kind]()
    scan = height_scan(table, ground, (0.4, 0.1), n)
    own = scan.heights_at(scan.thetas)
    assert np.max(np.abs(scan.heights - own)) <= 1e-13
    # a class's first foot reads its own evaluation, bit for bit
    assert np.array_equal(scan.heights[0], own[0])


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


@dataclass(frozen=True)
class _FirstFootScan(HeightScan):
    """A scan whose first foot's height is the function h1 and the others'
    zero, in place of the terrain lookup."""

    h1: Callable

    def heights_at(self, theta):
        h = self.h1(theta)
        return np.array([h, 0.0 * h, 0.0 * h, 0.0 * h])


def _synthetic_scan(h1):
    """A square-table scan of level ground whose first foot's height is the
    function h1 and the others' zero, so g = h1 / 2."""
    from wobble.terrain import flat_terrain
    scan = height_scan(SQUARE, flat_terrain(EXT), (0, 0), 4096)
    heights = np.zeros((4, scan.n))
    heights[0] = h1(scan.thetas)
    return _FirstFootScan(table=scan.table, terrain=scan.terrain, center=scan.center,
                          thetas=scan.thetas, heights=heights, alpha=scan.alpha,
                          beta=scan.beta, h1=h1)


def test_balance_angles_synthetic_sine():
    # inject g(theta) = sin(theta) / 2 directly: roots at 0 and pi
    found = find_balance_angles(_synthetic_scan(np.sin))
    assert not found.degenerate
    assert len(found.roots) == 2
    assert found.roots[0] == pytest.approx(0.0, abs=1e-12)
    assert found.roots[1] == pytest.approx(math.pi, abs=1e-12)


def test_balance_angles_root_in_the_wrap_around_cell():
    half = math.pi / 4096
    found = find_balance_angles(_synthetic_scan(lambda t: np.sin(t + half)))
    # the second root lies in the cell [theta_{n-1}, 2 pi)
    assert len(found.roots) == 2
    assert found.roots[0] == pytest.approx(math.pi - half, abs=1e-12)
    assert found.roots[1] == pytest.approx(2.0 * math.pi - half, abs=1e-12)
    assert 2.0 * math.pi * 4095 / 4096 < found.roots[1] < 2.0 * math.pi
    assert found.slopes == (-1, 1)
    assert found.tangential == ()


def test_balance_angles_report_tangential_touches():
    # g >= 0 touches zero between the first two nodes without crossing it
    half = math.pi / 4096
    scan = _synthetic_scan(lambda t: 1e-4 * (1.0 - np.cos(t - half)))
    found = find_balance_angles(scan)
    assert not found.degenerate
    assert found.roots == () and found.slopes == ()
    assert found.tangential == (float(scan.thetas[0]), float(scan.thetas[1]))


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
    ref = SQUARE.reference_distances
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


def test_cap_fit_batch_rows_equal_one_row_fits(monkeypatch):
    # the scan's own residuals: each placement of a 3-placement batch gets
    # the same bits as its fit alone
    fits = []
    lm = balance_mod._levenberg_marquardt
    monkeypatch.setattr(balance_mod, "_levenberg_marquardt",
                        lambda fun, x0: fits.append((fun, x0)) or lm(fun, x0))
    feet = _square_feet_xy()
    feet[3] *= 1.0563
    sphere_cap_fit_scan(feet, SphericalCapGround(50.0), theta_steps=3, center_steps=1)
    fun, x0 = fits[-1]
    assert len(x0) == 3
    x, res = lm(fun, x0)
    for k in range(3):
        x_k, res_k = lm(lambda v, rows, k=k: fun(v, rows + k), x0[k:k + 1])
        assert x_k.tobytes() == x[k:k + 1].tobytes()
        assert res_k.tobytes() == res[k:k + 1].tobytes()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_cap_fits_refuse_non_finite_feet(bad):
    # refused before the circle fit's linear start, which never returns on
    # an inf coordinate and raises LAPACK's error on a NaN
    feet = _square_feet_xy()
    feet[2, 1] = bad
    with pytest.raises(DomainError, match="planar points must be finite"):
        concyclicity_defect(feet)
    with pytest.raises(DomainError, match="planar points must be finite"):
        sphere_cap_fit_scan(feet, SphericalCapGround(50.0), theta_steps=4)


@pytest.mark.parametrize("feet, message", [
    ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], "collinear"),
    # on a slanted line, far from the origin
    ([(1e4, 2e4), (1e4 + 0.5, 2e4 + 1.0), (1e4 + 2.0, 2e4 + 4.0), (1e4 + 3.0, 2e4 + 6.0)],
     "collinear"),
    # three distinct points on a circle and a repeated one
    ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)], "coincide"),
    ([(2.0, -1.0)] * 4, "coincide"),
], ids=["collinear", "slanted-line", "coincident-pair", "one-point"])
def test_cap_fits_refuse_collinear_or_coincident_feet(feet, message):
    # no best-fit circle exists: on (0,0)..(3,0) the fit used to settle on
    # an arbitrary 0.5000000000001179
    feet = np.array(feet)
    with pytest.raises(DomainError, match=message):
        concyclicity_defect(feet)
    with pytest.raises(DomainError, match=message):
        sphere_cap_fit_scan(feet, SphericalCapGround(50.0), theta_steps=4)


def test_concyclicity_defect_of_a_far_small_square_is_zero():
    # the degeneracy tests are relative to the feet's own extent
    feet = _square_feet_xy(1e-3) + np.array([3e3, -4e3])
    assert concyclicity_defect(feet) < 1e-9


@pytest.mark.parametrize("steps", [(0, 3), (4, 0), (-1, 3), (1, -1)])
def test_cap_scan_refuses_an_empty_grid(steps):
    with pytest.raises(DomainError, match=r"a cap scan takes 1 to 2\^16 placements"):
        sphere_cap_fit_scan(_square_feet_xy(), SphericalCapGround(50.0), *steps)


def _refuse(*args):
    raise AssertionError("ran past the size check")


def test_cap_scan_refuses_more_placements_than_it_holds(monkeypatch):
    monkeypatch.setattr(balance_mod, "concyclicity_defect", _refuse)
    with pytest.raises(DomainError) as info:
        sphere_cap_fit_scan(_square_feet_xy(), SphericalCapGround(50.0),
                            theta_steps=2 ** 16 + 1, center_steps=1)
    assert str(info.value) == ("a cap scan takes 1 to 2^16 placements, got "
                               "65537 turn angles x 1^2 center offsets")
    with pytest.raises(DomainError, match=r"got 4 turn angles x 1000000\^2"):
        sphere_cap_fit_scan(_square_feet_xy(), SphericalCapGround(50.0),
                            theta_steps=4, center_steps=10 ** 6)


def _per_foot_heights(scan, theta):
    """The foot heights of `heights_at`, one terrain call per foot."""
    rho, angles = scan.table.as_circle
    cx, cy = scan.center
    return np.array([0.0 - scan.terrain.height(cx + rho * np.cos(theta + a),
                                               cy + rho * np.sin(theta + a))
                     for a in angles])


@pytest.mark.parametrize("ground", ["bumps", "grid", "cap"])
def test_heights_at_matches_one_call_per_foot(ground, hills14):
    rng = np.random.default_rng(5)
    terrain = {
        "bumps": hills14,
        "grid": GridTerrain((-4.0, -4.0), 0.25, rng.standard_normal((33, 33))),
        "cap": SphericalCapGround(50.0),
    }[ground]
    scan = height_scan(HALF_HEX, terrain, (0.3, -0.2), 256)
    # 8 points run the bump kernel's one-pass layout for both, 512 points
    # one pass per foot but the loop for all four, 4096 the loop for both
    for n in (8, 512, 4096):
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        assert scan.heights_at(theta).tobytes() == _per_foot_heights(scan, theta).tobytes()
