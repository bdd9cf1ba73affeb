"""Core 3-D primitives: inclinations, spheres, rotations, diagonal ratios.

Convention: z is vertical. Angles are radians internally; degrees appear only
at external interfaces. The inclination of a segment is the angle between the
segment and the horizontal plane, arcsin of its vertical fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoplanarPoints, DomainError

# relative volume below which four points count as coplanar
_DEGENERACY_EPS = 1e-9
# tolerance on the unit lengths and dot products of an orthonormal triple
_ORTHO_TOL = 1e-9


def norm(v) -> float:
    v = np.asarray(v, dtype=float)
    return float(math.sqrt(float(np.dot(v, v))))


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = norm(v)
    if n == 0.0:
        raise DomainError("cannot normalize a zero vector")
    return v / n


def inclination(p, q) -> float:
    """Angle of the chord p->q to the horizontal plane, in [0, pi/2]."""
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    n = norm(d)
    if n == 0.0:
        raise DomainError("inclination undefined for coincident points")
    s = min(1.0, abs(float(d[2])) / n)
    return math.asin(s)


@dataclass(frozen=True)
class Sphere:
    """Sphere with center and radius; built from four non-coplanar points."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", c)
        c.setflags(write=False)
        if not (self.radius > 0.0):
            raise DomainError(f"sphere radius must be positive, got {self.radius}")


def sphere_through(p1, p2, p3, p4) -> Sphere:
    """Unique sphere through four points.

    Raises CoplanarPoints when the tetrahedron volume falls below
    _DEGENERACY_EPS times the cube of the largest pairwise distance.
    """
    pts = [np.asarray(p, dtype=float) for p in (p1, p2, p3, p4)]
    scale = max(norm(a - b) for i, a in enumerate(pts) for b in pts[i + 1:])
    if scale == 0.0:
        raise DomainError("all four points coincide")
    e = np.array([pts[1] - pts[0], pts[2] - pts[0], pts[3] - pts[0]])
    vol = abs(float(np.linalg.det(e))) / 6.0
    if vol < _DEGENERACY_EPS * scale**3:
        raise CoplanarPoints(
            f"points are near-coplanar (volume {vol:.3e} < {_DEGENERACY_EPS:.0e}"
            f" * scale^3); no unique sphere"
        )
    # Plane-bisector system: 2*(p_i - p_1) . O = |p_i|^2 - |p_1|^2
    rhs = np.array([float(np.dot(p, p) - np.dot(pts[0], pts[0])) for p in pts[1:]])
    center = np.linalg.solve(2.0 * e, rhs)
    radius = norm(pts[0] - center)
    worst = max(abs(norm(p - center) - radius) for p in pts)
    if worst > 1e-9 * radius:
        raise CoplanarPoints(
            f"sphere solve ill-conditioned (distance residual {worst:.3e})"
        )
    return Sphere(center=center, radius=radius)


def rotate_about_axis(p, axis_a, axis_b, angle: float) -> np.ndarray:
    """Rotate a point about the line through axis_a and axis_b (Rodrigues)."""
    a = np.asarray(axis_a, dtype=float)
    b = np.asarray(axis_b, dtype=float)
    if norm(b - a) == 0.0:
        raise DomainError("degenerate rotation axis: endpoints coincide")
    u = unit(b - a)
    v = np.asarray(p, dtype=float) - a
    c, s = math.cos(angle), math.sin(angle)
    rotated = v * c + np.cross(u, v) * s + u * float(np.dot(u, v)) * (1.0 - c)
    return a + rotated


def orthotriple_inclination_residual(u, v, w) -> float:
    """|sin^2(th_u) + sin^2(th_v) + sin^2(th_w) - 1| for an orthonormal triple.

    The identity forces max inclination >= arcsin(1/sqrt(3)) = 35.264 deg:
    three mutually orthogonal directions cannot all hug the horizontal.
    """
    vs = [np.asarray(x, dtype=float) for x in (u, v, w)]
    for i, x in enumerate(vs):
        n = norm(x)
        if abs(n - 1.0) > _ORTHO_TOL:
            raise DomainError(f"vector {i + 1} is not unit length (|v| = {n!r})")
    for (i, a), (j, b) in (((0, vs[0]), (1, vs[1])),
                           ((0, vs[0]), (2, vs[2])),
                           ((1, vs[1]), (2, vs[2]))):
        d = float(np.dot(a, b))
        if abs(d) > _ORTHO_TOL:
            raise DomainError(
                f"vectors {i + 1} and {j + 1} are not orthogonal (dot = {d!r})"
            )
    total = sum(float(x[2]) ** 2 for x in vs)
    return abs(total - 1.0)


def diagonal_intersection_ratios(a1: float, a2: float, a3: float, a4: float):
    """Ratios (alpha, beta) splitting the chords 1-3 and 2-4 of a circle.

    Angles (radians) must be in strictly increasing cyclic order so the two
    chords cross inside the circle. The crossing point P satisfies
    P = (1-alpha)*p1 + alpha*p3 = (1-beta)*p2 + beta*p4.
    """
    angles = [float(a) for a in (a1, a2, a3, a4)]
    two_pi = 2.0 * math.pi
    gaps = [(angles[(i + 1) % 4] - angles[i]) % two_pi for i in range(4)]
    if any(g <= 1e-12 for g in gaps) or abs(sum(gaps) - two_pi) > 1e-9:
        raise DomainError(
            "foot angles are not in cyclic order; chords 1-3 and 2-4 do not cross"
        )
    p = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    u = p[2] - p[0]
    v = p[3] - p[1]
    m = np.array([[u[0], -v[0]], [u[1], -v[1]]])
    det = float(np.linalg.det(m))
    if abs(det) < 1e-14:
        raise DomainError("diagonals are parallel; no crossing point")
    alpha, beta = np.linalg.solve(m, p[1] - p[0])
    alpha, beta = float(alpha), float(beta)
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise DomainError(
            f"chords do not cross inside the circle (alpha={alpha}, beta={beta})"
        )
    gap_vec = (1 - alpha) * p[0] + alpha * p[2] - (1 - beta) * p[1] - beta * p[3]
    crossing_gap = float(np.hypot(gap_vec[0], gap_vec[1]))
    if crossing_gap > 1e-12:
        raise DomainError(f"diagonal crossing points disagree by {crossing_gap:.3e}")
    return alpha, beta


@dataclass(frozen=True)
class SlopeThresholds:
    """The slope limits (radians) under which each construction is certified.

    no_double_point: the sphere/ground curve is a graph over azimuth.
    monotone_march: chord continuation along that curve cannot stall.
    legs_clear: three orthogonal edges cannot all be near-horizontal, which
        keeps the third foot unique and the legs above ground.
    half_circle_unique: a vertical half-circle meets the ground exactly once.
    """

    no_double_point: float = math.pi / 6.0
    monotone_march: float = math.radians(14.47)
    legs_clear: float = math.atan(1.0 / math.sqrt(2.0))
    half_circle_unique: float = math.pi / 4.0

    @property
    def no_double_point_deg(self) -> float:
        return math.degrees(self.no_double_point)

    @property
    def monotone_march_deg(self) -> float:
        return math.degrees(self.monotone_march)

    @property
    def legs_clear_deg(self) -> float:
        return math.degrees(self.legs_clear)

    @property
    def half_circle_unique_deg(self) -> float:
        return math.degrees(self.half_circle_unique)
