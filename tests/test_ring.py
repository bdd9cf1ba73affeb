import math

import numpy as np
import pytest

from wobble.errors import (
    BlockedMotion,
    ConditionViolation,
    DomainError,
    GeometryViolation,
)
from wobble import ring
from wobble.geometry import Sphere
from wobble.roots import bracketed_root
from wobble.ring import (
    chord_advance,
    circle_crossings,
    circle_surface_intersection,
    half_circle_crossings,
    ring_point,
    trace_ring,
)
from wobble.terrain import BumpTerrain, Extent, GridTerrain, generate_terrain

EXT = Extent(-8.0, 8.0, -8.0, 8.0)
STEP = math.radians(0.25)
TURN = (0.0, 2.0 * math.pi)


def _azimuths(step, arc=TURN):
    """The arc, ends included, in equal increments of at most `step`."""
    n = math.ceil((arc[1] - arc[0]) / step)
    return arc[0] + (arc[1] - arc[0]) * np.arange(n + 1) / n


def test_ring_point_flat_equator(flat):
    s = Sphere(center=np.array([0.0, 0.0, 0.0]), radius=1.0)
    p, lam = ring_point(s, flat, 0.0)
    assert np.allclose(p, (1.0, 0.0, 0.0), atol=1e-12)
    assert lam == pytest.approx(0.0, abs=1e-12)


def test_ring_point_is_the_one_row_half_circle_crossing(hills14):
    # ring_point gates no slope: on 34 deg terrain, past the curve's 30 deg
    # limit, it is still the kernel's one-row call
    for terrain in (hills14, generate_terrain(2, math.radians(34.0), 20, EXT)):
        sphere = Sphere(center=np.array([0.3, -0.2, terrain.height(0.3, -0.2)]),
                        radius=0.75)
        for azimuth in np.linspace(-math.pi, math.pi, 24, endpoint=False):
            point, lam = ring_point(sphere, terrain, float(azimuth))
            points, lams, errors = half_circle_crossings(
                sphere.center[None, :], [float(azimuth)], 0.75, terrain)
            assert not errors
            assert point.tobytes() == points[0].tobytes()
            assert lam == lams[0]


def test_trace_on_tilted_plane_is_the_analytic_circle(plane10):
    # sphere centered on the plane: the curve is a great circle
    cz = 0.5 * math.tan(math.radians(10.0))
    s = Sphere(center=np.array([0.5, 0.2, cz]), radius=0.9)
    ring = trace_ring(s, plane10, _azimuths(STEP), 1.0)
    d = ring.points - s.center
    assert np.max(np.abs(np.sqrt((d * d).sum(1)) - 0.9)) < 1e-9
    plane_resid = ring.points[:, 2] - ring.points[:, 0] * math.tan(math.radians(10.0))
    assert np.max(np.abs(plane_resid)) < 1e-9


def test_trace_off_center_sphere_circle_radius(plane10):
    # sphere center lifted off the plane by dist: circle radius sqrt(R^2-dist^2)
    slope = math.tan(math.radians(10.0))
    normal = np.array([-slope, 0.0, 1.0]) / math.hypot(slope, 1.0)
    dist = 0.12
    center = np.array([0.5, 0.2, 0.5 * slope]) + dist * normal
    s = Sphere(center=center, radius=0.9)
    ring = trace_ring(s, plane10, _azimuths(STEP), 1.0)
    circle_center = center - dist * normal
    r_want = math.sqrt(0.9**2 - dist**2)
    d = ring.points - circle_center
    assert np.max(np.abs(np.sqrt((d * d).sum(1)) - r_want)) < 1e-9


def test_trace_full_turn_closes(hills14):
    s = Sphere(center=np.array([0.2, -0.1, 0.35]), radius=0.8)
    ring = trace_ring(s, hills14, _azimuths(math.radians(0.5)), 1.0)
    # the traced polyline closes: its last point is its first
    assert np.linalg.norm(ring.points[-1] - ring.points[0]) < 1e-9 * s.radius
    assert abs(float(ring.latitudes[0]) - float(ring.latitudes[-1])) < 0.05
    p0, lam0 = ring.point_at(float(ring.azimuths[0]))
    p1, lam1 = ring.point_at(float(ring.azimuths[-1]))
    assert np.linalg.norm(p1 - p0) < 1e-9 * s.radius


def test_traced_invariants_on_terrain(hills14):
    s = Sphere(center=np.array([0.0, 0.0, 0.35]), radius=0.8)
    ring = trace_ring(s, hills14, _azimuths(math.radians(0.5)), 1.0)
    d = ring.points - s.center
    assert np.max(np.abs(np.sqrt((d * d).sum(axis=1)) - s.radius)) < 1e-9 * s.radius
    z = hills14.height(ring.points[:, 0], ring.points[:, 1])
    assert np.max(np.abs(ring.points[:, 2] - z)) < 1e-9
    assert np.max(np.abs(ring.latitudes)) < 2.0 * hills14.slope_bound
    assert np.all(np.diff(ring.azimuths) > 0)


def test_trace_step_cap_with_chord():
    s = Sphere(center=np.array([0.0, 0.0, 0.0]), radius=0.75)
    from wobble.terrain import flat_terrain
    with pytest.raises(DomainError, match="cap"):
        trace_ring(s, flat_terrain(EXT), _azimuths(math.radians(2.0)), 1.0)


@pytest.mark.parametrize("azimuths", [[0.0, math.nan], [-math.inf, 0.0], [1.0, 1.0],
                                      [1.0, 0.5], [0.5], [[0.0, 0.1]]])
def test_trace_needs_finite_increasing_azimuths(azimuths, flat):
    s = Sphere(center=np.array([0.0, 0.0, 0.0]), radius=1.0)
    with pytest.raises(DomainError, match="trace azimuths must be at least two finite"):
        trace_ring(s, flat, azimuths, 1.0)


def test_chord_advance_exact_on_flat_circle(flat):
    s = Sphere(center=np.array([0.0, 0.0, 0.0]), radius=1.0)
    ring = trace_ring(s, flat, _azimuths(STEP), 0.5)
    start, _ = ring.point_at(0.0)
    want = 2.0 * math.asin(0.5 / (2.0 * 1.0))
    p2, phi2, lam2 = chord_advance(ring, start, 0.0, 0.5, want)
    assert phi2 == pytest.approx(want, abs=1e-12)
    assert np.linalg.norm(p2 - start) == pytest.approx(0.5, abs=1e-12)


def test_chord_advance_refines_the_probe_cell_with_the_sign_change(hills14):
    s = Sphere(center=np.array([0.2, -0.1, 0.35]), radius=0.8)
    ring = trace_ring(s, hills14, _azimuths(STEP), 1.0)
    intrinsic = 2.0 * math.asin(1.0 / (2.0 * 0.8))
    for k in (0, 300, 900):
        phi, start = float(ring.azimuths[k]), ring.points[k]

        def gap(az):
            return float(np.linalg.norm(ring.point_at(az)[0] - start)) - 1.0

        lo, hi = phi + 0.5 * intrinsic, phi + 1.5 * intrinsic
        # a hint off the root by 0.7 of a step
        hint = bracketed_root(gap, lo, hi, gap(lo), gap(hi)) + 0.7 * ring.step
        seen = []
        solve = ring.point_at
        ring.point_at = lambda az, **kw: seen.append(az) or solve(az, **kw)
        try:
            _, phi2, _ = chord_advance(ring, start, phi, 1.0, hint)
        finally:
            del ring.point_at
        lo, hi = hint - 2.0 * ring.step, hint + 2.0 * ring.step
        probes = np.linspace(lo, hi, 5)
        vals = [gap(float(az)) for az in probes]
        j = int(np.flatnonzero(np.diff(np.array(vals) > 0.0))[0])
        # five probes, then Brent inside the probe cell with the sign change
        assert seen[:5] == [lo, hi, *probes[1:4]]
        assert all(probes[j] <= az <= probes[j + 1] for az in seen[5:])
        assert probes[j] <= phi2 <= probes[j + 1]
        assert abs(phi2 - bracketed_root(gap, lo, hi, vals[0], vals[-1])) < 1e-12


def test_chord_advance_blocked_outside_bracket(flat):
    s = Sphere(center=np.array([0.0, 0.0, 0.0]), radius=1.0)
    ring = trace_ring(s, flat, _azimuths(STEP), 0.5)
    start, _ = ring.point_at(0.0)
    bad_hint = 2.0 * math.asin(0.5 / (2.0 * 1.0)) + math.radians(10.0)
    with pytest.raises(BlockedMotion):
        chord_advance(ring, start, 0.0, 0.5, bad_hint)


def test_chord_advance_equal_steps_on_tilted_circle(plane10):
    cz = 0.5 * math.tan(math.radians(10.0))
    s = Sphere(center=np.array([0.5, 0.2, cz]), radius=0.9)
    chord = 0.5
    ring = trace_ring(s, plane10, _azimuths(STEP), chord)
    # equal chords on a circle of radius 0.9 subtend equal intrinsic angles
    intrinsic = 2.0 * math.asin(chord / (2.0 * 0.9))
    phi = float(ring.azimuths[0])
    p, _ = ring.point_at(phi)
    hint_gap = intrinsic
    for _ in range(5):
        p_next, phi_next, _ = chord_advance(ring, p, phi, chord,
                                            phi + hint_gap)
        assert np.linalg.norm(p_next - p) == pytest.approx(chord, abs=1e-10)
        cosang = float(np.dot(p - s.center, p_next - s.center)) / (0.9 * 0.9)
        angle = math.acos(min(1.0, max(-1.0, cosang)))
        assert angle == pytest.approx(intrinsic, abs=1e-9)
        hint_gap = phi_next - phi
        p, phi = p_next, phi_next


def test_circle_intersection_flat_sides(flat):
    q = circle_surface_intersection(np.zeros(3), np.array([1.0, 0, 0]), 0.7, flat)
    assert np.allclose(q, (0.0, 0.7, 0.0), atol=1e-11)
    # the right of the axis is the left of the reversed axis
    q = circle_surface_intersection(np.zeros(3), np.array([-1.0, 0, 0]), 0.7, flat)
    assert np.allclose(q, (0.0, -0.7, 0.0), atol=1e-11)


def test_circle_intersection_tilted_plane_closed_form(plane10):
    slope = math.tan(math.radians(10.0))
    center = np.array([0.5, 0.2, 0.5 * slope])
    axis = np.array([0.0, 1.0, 0.0])
    q = circle_surface_intersection(center, axis, 0.7, plane10)
    # the circle lies in the plane y = 0.2; its ground crossing satisfies
    # z = x tan(10) and |q - center| = 0.7
    assert q[1] == pytest.approx(0.2, abs=1e-12)
    assert q[2] == pytest.approx(q[0] * slope, abs=1e-11)
    assert np.linalg.norm(q - center) == pytest.approx(0.7, abs=1e-12)
    # left of the axis y-hat is the negative-x half plane
    assert q[0] < center[0]


def test_circle_intersection_four_crossings_flagged():
    # a tall thin ridge pokes through one side of the circle twice
    terrain = BumpTerrain([(0.0, 0.52, 0.62, 0.055)], EXT)
    with pytest.raises(ConditionViolation, match="times"):
        circle_surface_intersection(np.zeros(3), np.array([1.0, 0, 0]), 0.7, terrain)


def test_circle_intersection_vertical_axis_rejected(flat):
    with pytest.raises(DomainError):
        circle_surface_intersection(np.zeros(3), np.array([0.0, 0, 1.0]), 0.7, flat)


def _plane_circles(n, seed=0):
    # centers on the 10-degree plane z = x tan(10), axes up to 30 deg from
    # horizontal
    rng = np.random.default_rng(seed)
    slope = math.tan(math.radians(10.0))
    xy = rng.uniform(-3.0, 3.0, size=(n, 2))
    centers = np.column_stack([xy, xy[:, 0] * slope])
    az = rng.uniform(-math.pi, math.pi, n)
    el = rng.uniform(-math.radians(30.0), math.radians(30.0), n)
    axes = np.column_stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az),
                            np.sin(el)])
    return centers, axes


def test_circle_crossings_batch_matches_closed_form(plane10):
    slope = math.tan(math.radians(10.0))
    centers, axes = _plane_circles(50)
    radius = 0.7
    for side in (1, -1):
        # the crossing right of an axis is the left one about the reversed axis
        points, errors = circle_crossings(centers, side * axes, radius, plane10)
        assert not errors
        # the circle's plane meets the ground plane in a line through the
        # center; the crossings sit one radius along it either way
        normal = np.array([-slope, 0.0, 1.0])
        line = np.cross(axes, normal)
        line /= np.linalg.norm(line, axis=1)[:, None]
        left = np.cross(np.array([0.0, 0.0, 1.0]), axes)
        sign = np.sign((line * left).sum(axis=1)) * side
        want = centers + radius * sign[:, None] * line
        assert np.max(np.abs(points - want)) < 1e-10


def test_kernel_rows_equal_one_row_calls(hills14):
    centers, axes = _plane_circles(40, seed=1)
    centers[:, 2] = hills14.height(centers[:, 0], centers[:, 1])
    points, errors = circle_crossings(centers, axes, 0.9, hills14)
    assert not errors
    for k in range(len(centers)):
        one = circle_surface_intersection(centers[k], axes[k], 0.9, hills14)
        assert np.array_equal(one, points[k])
    psis = np.linspace(-math.pi, math.pi, 40)
    feet, betas, errors = half_circle_crossings(centers[0], psis, 0.9, hills14)
    assert not errors
    for k in range(psis.size):
        foot, beta, _ = half_circle_crossings(centers[0], psis[k:k + 1], 0.9, hills14)
        assert np.array_equal(foot[0], feet[k]) and beta[0] == betas[k]


def test_kernel_failures_keep_their_types_per_row():
    x_axis = np.array([1.0, 0.0, 0.0])
    # ground z = tan(60 deg) y: a circle about the x axis through
    # (0, 0, -1) pokes above the ground on one side of its top only
    steep = GridTerrain.from_function(lambda x, y: y * math.tan(math.radians(60.0)),
                                      EXT, 0.5)
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, 5.0]])
    points, errors = circle_crossings(centers, np.tile(x_axis, (3, 1)), 0.7, steep)
    assert sorted(errors) == [1, 2]
    assert isinstance(errors[1], GeometryViolation) and "top" in str(errors[1])
    assert isinstance(errors[2], GeometryViolation) and "at all" in str(errors[2])
    assert np.all(np.isfinite(points[0])) and np.all(np.isnan(points[1:]))
    with pytest.raises(GeometryViolation, match="top"):
        circle_surface_intersection(centers[1], x_axis, 0.7, steep)
    # a ridge through one side of the circle: four crossings
    ridge = BumpTerrain([(0.0, 0.52, 0.62, 0.055)], EXT)
    centers = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 0.0]])
    _, errors = circle_crossings(centers[::-1], np.tile(x_axis, (2, 1)), 0.7, ridge)
    assert sorted(errors) == [0, 1]
    assert isinstance(errors[0], ConditionViolation) and "4 times" in str(errors[0])
    assert isinstance(errors[1], GeometryViolation)


# ------------------------------------------- settled scan against every node


class CountingPoints:
    """Delegates to a terrain and counts the points of its array height
    calls."""

    def __init__(self, terrain):
        self.inner = terrain
        self.points = 0

    def height(self, x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            self.points += np.broadcast(x, y).size
        return self.inner.height(x, y)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _same_errors(got, want):
    assert sorted(got) == sorted(want)
    for k in want:
        assert type(got[k]) is type(want[k]) and str(got[k]) == str(want[k])


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _random_circles(terrain, n, spread, lift, seed):
    # centers around the ground, axes up to about 17 deg from horizontal
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-spread, spread, size=(n, 2))
    z = terrain.height(xy[:, 0], xy[:, 1]) + rng.uniform(-lift, lift, n)
    az = rng.uniform(-math.pi, math.pi, n)
    axes = np.column_stack([np.cos(az), np.sin(az), rng.uniform(-0.3, 0.3, n)])
    return np.column_stack([xy, z]), axes, az


def _steep_pair():
    # a steep bump and a thin ridge: circles that miss the ground, have
    # their top below it, or cross it four times
    return BumpTerrain([(0.0, 0.0, 1.5, 0.6), (0.0, 0.52, 0.62, 0.055)], EXT)


@pytest.mark.parametrize("name", ["hills14", "hills30", "single_bump", "flat", "steep"])
def test_settled_scan_equals_every_node_scan(name, request, every_node):
    if name == "single_bump":
        terrain = BumpTerrain([(0.4, -0.3, 0.5, 1.1)], EXT)
    elif name == "steep":
        terrain = _steep_pair()
    else:
        terrain = request.getfixturevalue(name)
    spread, lift = (1.5, 0.8) if name == "steep" else (5.0, 0.3)
    # 300 rows: two full blocks and a short one
    centers, axes, az = _random_circles(terrain, 300, spread, lift, seed=7)
    ref = every_node(terrain)
    counted = CountingPoints(terrain)
    for side in (1, -1):
        got = circle_crossings(centers, side * axes, 0.7, counted)
        want = circle_crossings(centers, side * axes, 0.7, ref)
        _same_bits(got[0], want[0])
        _same_errors(got[1], want[1])
    got = half_circle_crossings(centers, az, 0.7, terrain)
    want = half_circle_crossings(centers, az, 0.7, ref)
    for g, w in zip(got[:2], want[:2]):
        _same_bits(g, w)
    _same_errors(got[2], want[2])
    # the two sides' scans skipped most of their 2 x 361 nodes per circle
    assert counted.points < 300 * 2 * 361 // 3
    if name == "steep":
        kinds = {str(e).split(";")[0][:30] for e in want[2].values()}
        kinds |= {str(e)[:30] for e in
                  circle_crossings(centers, axes, 0.7, ref)[1].values()}
        assert {"circle does not cross the grou", "top of the foot circle is not ",
                "circle crosses the ground 4 ti",
                "vertical foot circle does not "} <= kinds
        return
    sphere = Sphere(center=np.array([0.3, -0.2, terrain.height(0.3, -0.2)]),
                    radius=0.75)
    got, want = (trace_ring(sphere, terrain, _azimuths(STEP), 1.0),
                 trace_ring(sphere, ref, _azimuths(STEP), 1.0))
    for attr in ("azimuths", "latitudes", "points"):
        _same_bits(getattr(got, attr), getattr(want, attr))
    assert got.warnings == want.warnings
    for azimuth in np.linspace(-math.pi, math.pi, 9):
        got, want = ring_point(sphere, terrain, azimuth), ring_point(sphere, ref, azimuth)
        _same_bits(got[0], want[0])
        assert got[1] == want[1]


class Uncapped:
    """A bump terrain whose gradient bound is the per-bump disc sum alone,
    without the cap by the certified slope. Everything else delegates."""

    def __init__(self, terrain):
        self.inner = terrain

    def gradient_bound(self, x, y, radius):
        return self.inner._disc_bound(np.asarray(x, float), np.asarray(y, float),
                                      np.asarray(radius, float))

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_slope_cap_settles_more_cells(hills30):
    # unit-table foot circles inside the extent, about the ground, axes
    # near horizontal
    centers, axes, az = _random_circles(hills30, 300, 5.0, 0.3, seed=7)
    capped, uncapped = CountingPoints(hills30), CountingPoints(Uncapped(hills30))
    got = circle_crossings(centers, axes, 1.0, capped)
    want = circle_crossings(centers, axes, 1.0, uncapped)
    _same_bits(got[0], want[0])
    _same_errors(got[1], want[1])
    got = half_circle_crossings(centers, az, 1.0, capped)
    want = half_circle_crossings(centers, az, 1.0, uncapped)
    for g, w in zip(got[:2], want[:2]):
        _same_bits(g, w)
    _same_errors(got[2], want[2])
    assert capped.points < uncapped.points


def test_existing_failing_rows_equal_every_node(every_node):
    x_axis = np.array([1.0, 0.0, 0.0])
    ridge = BumpTerrain([(0.0, 0.52, 0.62, 0.055)], EXT)
    centers = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 0.0], [0.0, 0.0, -5.0]])
    for terrain in (ridge, _steep_pair()):
        got = circle_crossings(centers, np.tile(x_axis, (3, 1)), 0.7, terrain)
        want = circle_crossings(centers, np.tile(x_axis, (3, 1)), 0.7, every_node(terrain))
        _same_bits(got[0], want[0])
        _same_errors(got[1], want[1])
    _, errors = circle_crossings(centers, np.tile(x_axis, (3, 1)), 0.7, ridge)
    assert "4 times" in str(errors[1]) and "at all" in str(errors[0])


def test_circle_leaving_the_extent_between_coarse_nodes_is_refused(flat):
    # every coarse node of this circle lies inside [-8, 8]^2 and its open
    # cells hold none outside, but its 1-degree grid reaches x = 8.00043
    # near -97 degrees: the scan names the first grid node outside
    with pytest.raises(DomainError) as info:
        circle_crossings(np.array([[7.3455, 0.0, 0.2]]), np.array([[0.4, 1.0, 0.35]]),
                         0.7, flat)
    assert str(info.value) == ("query point (8.00000092463479, -0.22535026067953232) "
                               "outside terrain extent [-8.0, 8.0] x [-8.0, 8.0]")


def test_scan_leaving_the_extent_names_the_first_outside_point(hills14, flat):
    # rows 0..149 walk toward x = 8, all in one block: the scan queries the
    # coarse nodes of every row first, so the error names the first of them
    # outside the extent in row order
    xs = np.linspace(0.0, 7.6, 150)
    centers = np.column_stack([xs, np.full(150, 0.3),
                               hills14.height(xs, np.full(150, 0.3))])
    axes = np.tile([0.3, 1.0, 0.1], (150, 1))
    with pytest.raises(DomainError) as info:
        circle_crossings(centers, axes, 0.7, hills14)
    assert str(info.value) == ("query point (8.00858904290278, 0.11301321461278757) "
                               "outside terrain extent [-8.0, 8.0] x [-8.0, 8.0]")
    with pytest.raises(DomainError) as info:
        half_circle_crossings(centers, np.linspace(1.0, 0.0, 150), 0.7, hills14)
    assert str(info.value) == ("query point (8.002380954595072, 0.32206917412574254) "
                               "outside terrain extent [-8.0, 8.0] x [-8.0, 8.0]")
    # a sphere half sunk under flat ground misses the latitude band at
    # every azimuth; near y = 8 its scan leaves the extent before any
    # certificate is read
    sunk = Sphere(center=np.array([0.0, 7.7, -0.5]), radius=0.75)
    with pytest.raises(DomainError) as info:
        trace_ring(sunk, flat, _azimuths(STEP), 1.0)
    assert str(info.value) == ("query point (0.6864836093395853, 8.002060017394053) "
                               "outside terrain extent [-8.0, 8.0] x [-8.0, 8.0]")
    with pytest.raises(GeometryViolation, match="scan band"):
        trace_ring(Sphere(center=np.array([0.0, 0.0, -0.5]), radius=0.75),
                   flat, _azimuths(STEP), 1.0)
    afloat = Sphere(center=np.array([0.0, 7.7, 0.1]), radius=0.75)
    with pytest.raises(DomainError, match="outside terrain extent"):
        trace_ring(afloat, flat, _azimuths(STEP), 1.0)


# ---------------------------------- sign-change list against a dense scan


def _circle_coefficients(centers, axes):
    # the rows of ring._solve_circles: center, e_cos and e_sin of each
    # circle about a non-vertical axis
    axes = axes / np.linalg.norm(axes, axis=1)[:, None]
    e_h = np.column_stack([-axes[:, 1], axes[:, 0], np.zeros(len(axes))])
    e_h /= np.linalg.norm(e_h, axis=1)[:, None]
    return np.ascontiguousarray(np.hstack([centers, np.cross(axes, e_h), e_h]).T)


def _half_circle_coefficients(centers, azimuths):
    n = len(azimuths)
    return np.vstack([np.broadcast_to(centers, (n, 3)).T, np.cos(azimuths),
                      np.sin(azimuths), np.zeros((3, n)), np.ones(n)])


def _dense_sign_changes(terrain, coef, radius, ts):
    """Every node's gap, and the (row, cell) of every sign change between
    neighbouring nodes, with the gaps at the cell's two ends."""
    cos, sin = np.cos(ts), np.sin(ts)
    x, y, z = ((cos * coef[3 + i][:, None] + sin * coef[6 + i][:, None]) * radius
               + coef[i][:, None] for i in range(3))
    gaps = z - terrain.height(x, y)
    signs = gaps > 0.0
    rows, cells = np.nonzero(signs[:, :-1] != signs[:, 1:])
    return gaps, rows, cells, gaps[rows, cells], gaps[rows, cells + 1]


def _assert_list_is_dense(terrain, coef, radius, grid, mask=None):
    gaps, rows, cells, lo, hi = _dense_sign_changes(terrain, coef, radius, grid.ts)
    flips = ring._settled_scan(terrain, coef, radius, grid)
    for got, want in ((flips.rows, rows), (flips.cells, cells),
                      (flips.lo, lo), (flips.hi, hi)):
        _same_bits(got, want)
    for node in [*range(0, len(grid.ts), ring._COARSE), -1]:
        _same_bits(flips.gap(node), gaps[:, node])
    counts = np.bincount(rows, minlength=len(gaps))
    assert np.array_equal(flips.counts(), counts)
    for cells_mask in (None, mask):
        first = flips.first(cells_mask)
        for k in range(len(gaps)):
            want = [c for r, c in zip(rows, cells) if r == k
                    and (cells_mask is None or cells_mask[c])]
            if want:
                assert flips.rows[first[k]] == k and flips.cells[first[k]] == want[0]
            else:
                assert first[k] == -1
    return counts


@pytest.mark.parametrize("name", ["hills14", "hills30", "flat", "steep"])
def test_sign_change_list_equals_the_dense_scan(name, request):
    terrain = _steep_pair() if name == "steep" else request.getfixturevalue(name)
    spread, lift = (1.5, 0.8) if name == "steep" else (5.0, 0.3)
    centers, axes, az = _random_circles(terrain, 200, spread, lift, seed=11)
    counts = _assert_list_is_dense(terrain, _circle_coefficients(centers, axes), 0.7,
                                   ring._CIRCLE, ring._CIRCLE_LEFT)
    _assert_list_is_dense(terrain, _half_circle_coefficients(centers, az), 0.7, ring._HALF)
    if name == "steep":
        assert {0, 2} <= set(counts.tolist())


def test_sign_change_list_on_a_band_with_a_short_last_cell():
    # a 45-node band over [-22, 22] deg: its last coarse cell, 18 to 22 deg,
    # holds 3 inner nodes; half-circles sunk under flat ground or a ridge
    # cross it at elevations all over the band, the short cell included
    grid = ring._angle_grid(np.linspace(-math.radians(22.0), math.radians(22.0), 45))
    assert grid.coarse[-1] - grid.coarse[-2] == 4
    betas = np.radians(np.concatenate([np.linspace(-21.5, 21.5, 40), [18.5, 20.5, 21.9]]))
    centers = np.column_stack([np.linspace(-1.0, 1.0, betas.size), np.zeros(betas.size),
                               -0.7 * np.sin(betas)])
    az = np.linspace(-math.pi, math.pi, betas.size)
    ridge = BumpTerrain([(0.0, 0.52, 0.62, 0.055)], EXT)
    for terrain in (BumpTerrain([], EXT), ridge):
        counts = _assert_list_is_dense(terrain, _half_circle_coefficients(centers, az),
                                       0.7, grid)
        assert np.all(counts >= 1)
    _, _, cells, _, _ = _dense_sign_changes(
        BumpTerrain([], EXT), _half_circle_coefficients(centers, az), 0.7, grid.ts)
    assert np.any(cells >= grid.coarse[-2])
    # one row per count of 0, 1, 2 and 4 crossings on the circle grid
    x_axis = np.tile([1.0, 0.0, 0.0], (3, 1))
    centers = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    counts = _assert_list_is_dense(ridge, _circle_coefficients(centers, x_axis), 0.7,
                                   ring._CIRCLE, ring._CIRCLE_LEFT)
    assert counts.tolist() == [0, 4, 2]
    one = _assert_list_is_dense(ridge, _half_circle_coefficients(centers[1:2], [0.0]),
                                0.7, ring._HALF)
    assert one.tolist() == [1]


def test_row_solves_the_same_in_any_call_size(every_node):
    # 700 rows, among them rows that fail each certificate: every row's
    # point, angle and error are the same solved with the other 699, in
    # calls of 7 rows, and alone, where they also equal a scan of every node
    terrain = _steep_pair()
    ref = every_node(terrain)
    centers, axes, az = _random_circles(terrain, 700, 1.5, 0.8, seed=5)
    points, errors = circle_crossings(centers, axes, 0.7, terrain)
    feet, betas, half_errors = half_circle_crossings(centers, az, 0.7, terrain)
    assert len(errors) > 50 and len(half_errors) > 50
    for size, terrains in ((7, [terrain]), (1, [terrain, ref])):
        for scanned in terrains:
            for start in range(0, 700, size):
                part = slice(start, start + size)
                got, got_errors = circle_crossings(centers[part], axes[part], 0.7, scanned)
                _same_bits(got, points[part])
                _same_errors({start + k: e for k, e in got_errors.items()},
                             {k: e for k, e in errors.items() if start <= k < start + size})
                got, got_betas, got_errors = half_circle_crossings(centers[part], az[part],
                                                                   0.7, scanned)
                _same_bits(got, feet[part])
                _same_bits(got_betas, betas[part])
                _same_errors({start + k: e for k, e in got_errors.items()},
                             {k: e for k, e in half_errors.items()
                              if start <= k < start + size})
