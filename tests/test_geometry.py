import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wobble.errors import CoplanarPoints, DomainError
from wobble.geometry import (
    SlopeThresholds,
    diagonal_intersection_ratios,
    inclination,
    orthotriple_inclination_residual,
    rotate_about_axis,
    sphere_through,
)


def test_inclination_horizontal():
    assert inclination((0, 0, 0), (1, 0, 0)) == 0.0


def test_inclination_vertical():
    assert inclination((0, 0, 0), (0, 0, 1)) == pytest.approx(math.pi / 2)


def test_inclination_ten_degree_ramp():
    q = (1.0, 0.0, math.tan(math.radians(10.0)))
    assert inclination((0, 0, 0), q) == pytest.approx(math.radians(10.0), abs=1e-12)


def test_inclination_coincident_points():
    with pytest.raises(DomainError):
        inclination((1, 2, 3), (1, 2, 3))


def test_sphere_through_symmetric_points():
    s = sphere_through((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert np.allclose(s.center, 0.0, atol=1e-12)
    assert s.radius == pytest.approx(1.0, abs=1e-12)


def test_sphere_through_coplanar_raises():
    with pytest.raises(CoplanarPoints):
        sphere_through((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))


def _elimination_circumcenter(pts):
    """Oracle: explicit Gaussian elimination on the bisector system."""
    a = [[0.0] * 3 for _ in range(3)]
    b = [0.0] * 3
    for i in range(3):
        for j in range(3):
            a[i][j] = 2.0 * (pts[i + 1][j] - pts[0][j])
        b[i] = sum(pts[i + 1][j] ** 2 - pts[0][j] ** 2 for j in range(3))
    for col in range(3):
        piv = max(range(col, 3), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, 3):
            f = a[r][col] / a[col][col]
            for c in range(col, 3):
                a[r][c] -= f * a[col][c]
            b[r] -= f * b[col]
    x = [0.0] * 3
    for r in (2, 1, 0):
        x[r] = (b[r] - sum(a[r][c] * x[c] for c in range(r + 1, 3))) / a[r][r]
    return np.array(x)


def test_sphere_through_random_tetrahedra_vs_elimination_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        pts = rng.normal(size=(4, 3))
        vol = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
        if vol < 1e-3:
            continue
        s = sphere_through(*pts)
        oracle_center = _elimination_circumcenter(pts)
        assert np.max(np.abs(s.center - oracle_center)) < 1e-9 * s.radius
        for p in pts:
            assert abs(np.linalg.norm(p - s.center) - s.radius) < 1e-12 * s.radius


def test_rotate_zero_angle_is_identity():
    p = np.array([0.3, -0.7, 2.2])
    q = rotate_about_axis(p, (0, 0, 0), (1, 1, 1), 0.0)
    assert np.allclose(p, q, atol=1e-15)


def test_rotate_quarter_turn_about_z():
    q = rotate_about_axis((1, 0, 0), (0, 0, 0), (0, 0, 1), math.pi / 2)
    assert np.allclose(q, (0, 1, 0), atol=1e-12)


def test_rotate_degenerate_axis():
    with pytest.raises(DomainError):
        rotate_about_axis((1, 0, 0), (1, 1, 1), (1, 1, 1), 0.3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_rotate_preserves_axis_distances(seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=3)
    a = rng.normal(size=3)
    b = a + rng.normal(size=3)
    if np.linalg.norm(b - a) < 1e-6:
        b = a + np.array([1.0, 0.0, 0.0])
    angle = float(rng.uniform(-math.pi, math.pi))
    q = rotate_about_axis(p, a, b, angle)
    for axis_point in (a, b):
        before = np.linalg.norm(p - axis_point)
        after = np.linalg.norm(q - axis_point)
        assert abs(before - after) <= 1e-12 * max(1.0, before)


def test_rotation_composition():
    rng = np.random.default_rng(4)
    p = rng.normal(size=3)
    a, b = np.array([0.0, 0.0, 0.0]), np.array([0.3, 1.0, -0.2])
    for _ in range(20):
        t1, t2 = rng.uniform(-2, 2, 2)
        q1 = rotate_about_axis(rotate_about_axis(p, a, b, t1), a, b, t2)
        q2 = rotate_about_axis(p, a, b, t1 + t2)
        assert np.max(np.abs(q1 - q2)) < 1e-12


def _random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def test_orthotriple_standard_basis():
    r = orthotriple_inclination_residual((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert r == 0.0


def test_orthotriple_random_rotations():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = _random_rotation(rng)
        r = orthotriple_inclination_residual(m[:, 0], m[:, 1], m[:, 2])
        assert r < 1e-9
        incls = [math.asin(min(1.0, abs(float(v[2])))) for v in m.T]
        assert max(incls) >= math.asin(1.0 / math.sqrt(3.0)) - 1e-12


def test_orthotriple_equal_inclination_case():
    # all three inclinations at the 35.264 deg threshold: third row (1,1,1)/sqrt(3)
    n = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    v = np.cross(n, u)
    m = np.column_stack([u, v, n]).T  # rows orthonormal, third row = n
    r = orthotriple_inclination_residual(m[:, 0], m[:, 1], m[:, 2])
    assert r < 1e-6
    incls = [math.degrees(math.asin(abs(float(c[2])))) for c in m.T]
    for inc in incls:
        assert inc == pytest.approx(35.264, abs=1e-3)


def test_orthotriple_rejects_non_orthogonal():
    tilted = (math.cos(math.radians(80.0)), math.sin(math.radians(80.0)), 0.0)
    with pytest.raises(DomainError, match="dot"):
        orthotriple_inclination_residual((1, 0, 0), tilted, (0, 0, 1))


def test_diagonal_ratios_square():
    a = [math.radians(v) for v in (0, 90, 180, 270)]
    alpha, beta = diagonal_intersection_ratios(*a)
    assert alpha == pytest.approx(0.5, abs=1e-12)
    assert beta == pytest.approx(0.5, abs=1e-12)


def test_diagonal_ratios_half_hexagon():
    a = [math.radians(v) for v in (0, 60, 120, 180)]
    alpha, beta = diagonal_intersection_ratios(*a)
    # oracle: explicit 2x2 solve gives exactly (2/3, 1/3)
    assert alpha == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert beta == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_diagonal_ratios_non_cyclic_order():
    a = [math.radians(v) for v in (0, 180, 90, 270)]
    with pytest.raises(DomainError):
        diagonal_intersection_ratios(*a)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_diagonal_ratios_weighted_points_coincide(seed):
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.15, 1.0, size=4)
    gaps *= 2.0 * math.pi / gaps.sum()
    start = float(rng.uniform(0, 2 * math.pi))
    angles = start + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    alpha, beta = diagonal_intersection_ratios(*angles)
    p = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    lhs = (1 - alpha) * p[0] + alpha * p[2]
    rhs = (1 - beta) * p[1] + beta * p[3]
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert 0.0 < alpha < 1.0 and 0.0 < beta < 1.0


def test_threshold_constants_to_three_decimals():
    th = SlopeThresholds()
    assert th.legs_clear_deg == pytest.approx(35.264, abs=5e-4)
    assert th.monotone_march_deg == pytest.approx(14.470, abs=5e-4)
    assert th.no_double_point_deg == pytest.approx(30.000, abs=5e-4)
    assert th.half_circle_unique_deg == pytest.approx(45.000, abs=5e-4)
