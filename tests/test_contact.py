import math

import numpy as np
import pytest

from wobble.contact import (
    FootSet,
    TableSpec,
    complete_fourth_feet,
    drop_rotate,
    settle_three_feet,
    signed_heights,
)
from wobble.errors import DomainError
from wobble.terrain import BumpTerrain, Extent, flat_terrain

EXT = Extent(-8.0, 8.0, -8.0, 8.0)
TABLE = TableSpec.square(1.0)


def test_square_as_circle():
    rho, angles = TABLE.as_circle
    assert rho == pytest.approx(1.0 / math.sqrt(2.0))
    assert [math.degrees(a) for a in angles] == pytest.approx([45, 135, 225, 315])


@pytest.mark.parametrize("size", [math.nan, math.inf, 0.0, -1.0])
def test_table_size_must_be_finite_and_positive(size):
    with pytest.raises(DomainError, match="table side must be finite and positive"):
        TableSpec.square(size)
    with pytest.raises(DomainError, match="radius must be finite and positive"):
        TableSpec.circle(size, [0.0, 1.0, 2.0, 3.0])


def test_circle_table_rejects_bad_angle_order():
    with pytest.raises(DomainError):
        TableSpec.circle(1.0, [0.0, 3.0, 1.0, 5.0])


def test_signed_heights_flat(flat):
    feet = FootSet(np.array([
        [-0.5, -0.5, 0.0], [0.5, -0.5, 0.0], [0.5, 0.5, 0.0], [-0.5, 0.5, 0.0],
    ]))
    state = signed_heights(feet, flat)
    assert state.heights == (0.0, 0.0, 0.0, 0.0)
    assert all(state.contact)


def test_signed_heights_raised_foot(flat):
    feet = FootSet(np.array([
        [-0.5, -0.5, 0.0], [0.5, -0.5, 0.0], [0.5, 0.5, 0.0], [-0.5, 0.5, 0.25],
    ]))
    state = signed_heights(feet, flat)
    assert state.h4 == 0.25
    assert state.heights[:3] == (0.0, 0.0, 0.0)


def test_signed_heights_matches_direct_subtraction(hills14):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, (4, 3))
    feet = FootSet(pts)
    state = signed_heights(feet, hills14)
    for i in range(4):
        want = pts[i, 2] - hills14.height(pts[i, 0], pts[i, 1])
        assert state.heights[i] == want


def test_settle_flat(flat):
    feet = settle_three_feet(TABLE, flat, (0.0, 0.0), 0.0)
    assert np.allclose(feet.points[:, 2], 0.0, atol=1e-12)
    assert signed_heights(feet, flat).h4 == pytest.approx(0.0, abs=1e-12)
    assert feet.rigidity_residual(TABLE) < 1e-12
    assert feet.orientation_ok()


def test_settle_tilted_plane_all_four_touch(plane10):
    feet = settle_three_feet(TABLE, plane10, (0.3, -0.2), 0.4)
    state = signed_heights(feet, plane10)
    assert max(abs(h) for h in state.heights) < 1e-9
    assert feet.rigidity_residual(TABLE) < 1e-9
    # gauge: horizontal centroid and yaw of edge 1->2 are pinned exactly
    assert feet.centroid()[:2] == pytest.approx([0.3, -0.2], abs=1e-12)
    e = feet.p2 - feet.p1
    assert math.atan2(e[1], e[0]) == pytest.approx(0.4, abs=1e-12)


def test_settle_bump_under_foot1_lifts_free_foot(flat):
    # foot 1 sits at (-0.5, -0.5) for center (0,0), yaw 0; a bump under it
    # tilts the contact plane so the free foot hovers
    terrain = BumpTerrain([(-0.5, -0.5, 0.05, 0.3)], EXT)
    feet = settle_three_feet(TABLE, terrain, (0.0, 0.0), 0.0)
    state = signed_heights(feet, terrain)
    assert max(abs(h) for h in state.heights[:3]) < 1e-9
    assert state.h4 > 0.04


def test_settle_bump_under_foot4_sinks_free_foot(flat):
    terrain = BumpTerrain([(-0.5, 0.5, 0.05, 0.3)], EXT)
    feet = settle_three_feet(TABLE, terrain, (0.0, 0.0), 0.0)
    state = signed_heights(feet, terrain)
    assert state.h4 < -0.04


def test_settle_residuals_across_seeds():
    from wobble.terrain import generate_terrain
    for seed in range(1, 7):
        terrain = generate_terrain(seed, math.radians(14.0), 20, EXT)
        feet = settle_three_feet(TABLE, terrain, (0.0, 0.0), 0.0)
        state = signed_heights(feet, terrain)
        assert max(abs(h) for h in state.heights[:3]) < 1e-9
        assert feet.rigidity_residual(TABLE) < 1e-9


def test_relabel_dichotomy_exactly_one_labeling_up():
    from wobble.terrain import generate_terrain
    tol = 1e-9
    for seed in range(1, 9):
        terrain = generate_terrain(seed, math.radians(14.0), 20, EXT)
        h_a = signed_heights(
            settle_three_feet(TABLE, terrain, (0.0, 0.0), 0.0), terrain).h4
        h_b = signed_heights(
            settle_three_feet(TABLE, terrain, (0.0, 0.0), math.pi / 2.0,
                              label_shift=1), terrain).h4
        both_zero = abs(h_a) <= tol and abs(h_b) <= tol
        assert both_zero or (h_a > -tol) != (h_b > -tol)


def _one_corner(p1, p2, p3):
    corners, errors = complete_fourth_feet(
        *(np.asarray(p, dtype=float)[None, :] for p in (p1, p2, p3)))
    return corners[0], errors


def test_complete_fourth_foot_trivial():
    p4, errors = _one_corner((0, 0, 0), (1, 0, 0), (1, 1, 0))
    assert not errors
    assert np.allclose(p4, (0, 1, 0), atol=1e-15)


def test_complete_fourth_foot_degenerate():
    _, errors = _one_corner((1, 1, 0), (1, 0, 0), (1, 1, 0))
    assert list(errors) == [0]
    assert isinstance(errors[0], DomainError)


def test_complete_fourth_foot_tilted_squares():
    from wobble.geometry import rotate_about_axis
    rng = np.random.default_rng(6)
    base = [np.array(p, float) for p in
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]]
    for _ in range(50):
        a = rng.normal(size=3)
        b = a + rng.normal(size=3)
        angle = float(rng.uniform(0, 2 * math.pi))
        pts = [rotate_about_axis(p, a, b, angle) for p in base]
        p4, errors = _one_corner(pts[0], pts[1], pts[2])
        assert not errors
        assert np.linalg.norm(p4 - pts[3]) < 1e-9
        assert np.linalg.norm(p4 - pts[2]) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(p4 - pts[0]) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(p4 - pts[1]) == pytest.approx(math.sqrt(2), abs=1e-9)


def _raised_footset(d: float) -> FootSet:
    # feet 1..3 on the plane z=0, foot 4 artificially raised (not rigid)
    return FootSet(np.array([
        [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 1.0, d],
    ]))


def test_drop_rotate_flat_closed_form(flat):
    d = 0.2
    feet = _raised_footset(d)
    result = drop_rotate(feet, flat, tol_scale=1.0)
    # axis is the y-axis; rotating (-1, 1, d) down to z = 0 solves
    # -x sin(t) + z cos(t) with x = -1: the root is t = atan(d)
    assert abs(result.angle) == pytest.approx(math.atan(d), abs=1e-9)
    assert result.landed[2] == pytest.approx(0.0, abs=1e-11)
    # rotation isometry about both axis points
    for src, dst in ((feet.p4, result.landed), (feet.p1, result.companion)):
        for ax in (feet.p2, feet.p3):
            assert np.linalg.norm(src - ax) == pytest.approx(
                np.linalg.norm(dst - ax), abs=1e-12)
    assert result.companion_height <= 1e-12


def test_drop_rotate_zero_height(flat):
    feet = _raised_footset(0.0)
    result = drop_rotate(feet, flat, tol_scale=1.0)
    assert result.angle == 0.0
    assert np.array_equal(result.landed, feet.p4)


def test_drop_rotate_negative_height(flat):
    feet = _raised_footset(-0.1)
    with pytest.raises(DomainError):
        drop_rotate(feet, flat, tol_scale=1.0)


def test_drop_rotate_on_terrain(hills14):
    feet = settle_three_feet(TABLE, hills14, (0.0, 0.0), math.pi / 2.0,
                             label_shift=1)
    state = signed_heights(feet, hills14)
    assert state.h4 > 0
    result = drop_rotate(feet, hills14, tol_scale=1.0)
    landed_h = result.landed[2] - hills14.height(result.landed[0], result.landed[1])
    assert abs(landed_h) < 1e-12
    assert np.linalg.norm(result.landed - feet.p3) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(result.landed - feet.p2) == pytest.approx(
        math.sqrt(2.0), abs=1e-9)
    assert result.companion_height <= 1e-9
