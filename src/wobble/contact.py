"""Rigid-table placement against terrain.

A table is a rigid set of four foot tips. Settling puts feet 1-3 exactly on
the ground with the horizontal centroid and the azimuth of edge 1->2 held
fixed, leaving height, pitch and roll as the three unknowns. The free foot's
signed height then drives everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolation, DomainError, GeometryViolation, NumericalFailure
from .geometry import SlopeThresholds, rotate_about_axis
from .roots import bracketed_root

_TWO_PI = 2.0 * math.pi
# relative tolerance on a square corner's edge lengths and its right angle
_CORNER_TOL = 1e-6
# settling stops once every contact residual is below this fraction of the
# table's size, and fails after _SETTLE_MAX_ITER Newton steps
_SETTLE_TOL = 1e-12
_SETTLE_MAX_ITER = 100


@dataclass(frozen=True)
class TableSpec:
    """Rigid foot geometry: a square of side `side`, or four feet on a circle.

    A square is the circle case with radius side/sqrt(2) and feet at
    45, 135, 225, 315 degrees. Feet are labeled counterclockwise seen from
    above. leg_length is the leg segment used for clearance checks.
    """

    kind: str
    side: float | None = None
    circle_radius: float | None = None
    foot_angles: tuple[float, float, float, float] | None = None
    leg_length: float = 1.0

    @classmethod
    def square(cls, side: float, leg_length: float | None = None) -> "TableSpec":
        if not (math.isfinite(side) and side > 0):
            raise DomainError(f"table side must be finite and positive, got {side}")
        return cls(kind="square", side=float(side),
                   leg_length=float(leg_length if leg_length is not None else side))

    @classmethod
    def circle(cls, radius: float, foot_angles, leg_length: float | None = None) -> "TableSpec":
        if not (math.isfinite(radius) and radius > 0):
            raise DomainError(f"foot circle radius must be finite and positive, got {radius}")
        angles = tuple(float(a) for a in foot_angles)
        if len(angles) != 4:
            raise DomainError(f"need exactly 4 foot angles, got {len(angles)}")
        gaps = [(angles[(i + 1) % 4] - angles[i]) % _TWO_PI for i in range(4)]
        if any(g <= 1e-12 for g in gaps) or abs(sum(gaps) - _TWO_PI) > 1e-9:
            raise DomainError("foot angles must be strictly increasing mod 2*pi")
        return cls(kind="circle", circle_radius=float(radius), foot_angles=angles,
                   leg_length=float(leg_length if leg_length is not None else radius * math.sqrt(2.0)))

    @property
    def as_circle(self) -> tuple[float, tuple[float, float, float, float]]:
        if self.kind == "square":
            rho = self.side / math.sqrt(2.0)
            return rho, tuple(math.radians(a) for a in (45.0, 135.0, 225.0, 315.0))
        return self.circle_radius, self.foot_angles

    @property
    def char_length(self) -> float:
        """Length scale for tolerances: the side for squares, the side of the
        inscribed square for circle tables."""
        if self.kind == "square":
            return self.side
        return self.circle_radius * math.sqrt(2.0)

    def body_points(self) -> np.ndarray:
        """Foot tips in the body frame, z = 0, centroid at the origin. (4,3)"""
        rho, angles = self.as_circle
        pts = np.array([[rho * math.cos(a), rho * math.sin(a), 0.0] for a in angles])
        pts -= pts.mean(axis=0)
        return pts

    def reference_distances(self) -> np.ndarray:
        """(4,4) matrix of rigid pairwise foot distances."""
        b = self.body_points()
        d = b[:, None, :] - b[None, :, :]
        return np.sqrt((d * d).sum(axis=-1))


@dataclass(frozen=True)
class FootSet:
    """Four foot tip positions, labeled counterclockwise seen from above."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (4, 3) or not np.isfinite(pts).all():
            raise DomainError(f"foot set needs a finite (4,3) array, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)

    @property
    def p1(self) -> np.ndarray:
        return self.points[0]

    @property
    def p2(self) -> np.ndarray:
        return self.points[1]

    @property
    def p3(self) -> np.ndarray:
        return self.points[2]

    @property
    def p4(self) -> np.ndarray:
        return self.points[3]

    def pairwise_distances(self) -> np.ndarray:
        d = self.points[:, None, :] - self.points[None, :, :]
        return np.sqrt((d * d).sum(axis=-1))

    def rigidity_residual(self, table: TableSpec) -> float:
        return float(np.max(np.abs(self.pairwise_distances() - table.reference_distances())))

    def orientation_ok(self) -> bool:
        c = np.cross(self.p2 - self.p1, self.p3 - self.p2)
        return float(c[2]) > 0.0

    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)


@dataclass(frozen=True)
class ContactState:
    """Signed heights of the four feet above the ground beneath them."""

    heights: tuple[float, float, float, float]
    tolerance: float

    @property
    def h4(self) -> float:
        return self.heights[3]

    @property
    def contact(self) -> tuple[bool, bool, bool, bool]:
        return tuple(abs(h) <= self.tolerance for h in self.heights)

    def max_abs(self) -> float:
        return max(abs(h) for h in self.heights)


def signed_heights(feet: FootSet, terrain, tolerance: float = 1e-9) -> ContactState:
    """h_i = foot z minus terrain height beneath it; positive means airborne."""
    hs = tuple(
        float(feet.points[i, 2]) - terrain.height(float(feet.points[i, 0]), float(feet.points[i, 1]))
        for i in range(4)
    )
    return ContactState(heights=hs, tolerance=tolerance)


def _posed_points(body: np.ndarray, center_xy, yaw: float, z0: float,
                  pitch: float, roll: float) -> np.ndarray:
    """Rigid placement honoring the gauge exactly: horizontal centroid at
    center_xy, azimuth of (p2 - p1)'s horizontal projection equal to yaw,
    centroid height z0."""
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rot_y = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    q = body @ (rot_y @ rot_x).T
    edge = q[1] - q[0]
    spin = yaw - math.atan2(edge[1], edge[0])
    cz, sz = math.cos(spin), math.sin(spin)
    rot_z = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    q = q @ rot_z.T
    q[:, 0] += center_xy[0] - q[:, 0].mean()
    q[:, 1] += center_xy[1] - q[:, 1].mean()
    q[:, 2] += z0 - q[:, 2].mean()
    return q


def settle_three_feet(table: TableSpec, terrain, center_xy, yaw: float,
                      label_shift: int = 0) -> FootSet:
    """Place the table so feet 1, 2 and 3 rest exactly on the ground.

    Damped Newton iteration on (height, pitch, roll) from a horizontal guess
    at the local mean terrain height. label_shift rotates the foot labels
    cyclically before solving, which targets a different contact triple of
    the same physical table.
    """
    if terrain.slope_bound >= SlopeThresholds().half_circle_unique:
        raise ConditionViolation(
            f"settling needs terrain slope below 45.0000 deg, measured "
            f"{math.degrees(terrain.slope_bound):.4f} deg"
        )
    scale = table.char_length
    tol = _SETTLE_TOL * scale
    body = np.roll(table.body_points(), -label_shift, axis=0)
    cx, cy = float(center_xy[0]), float(center_xy[1])

    flat = _posed_points(body, (cx, cy), yaw, 0.0, 0.0, 0.0)
    z0 = float(np.mean([terrain.height(float(p[0]), float(p[1])) for p in flat]))
    u = np.array([z0, 0.0, 0.0])

    def residual(vec3):
        q = _posed_points(body, (cx, cy), yaw, vec3[0], vec3[1], vec3[2])
        return np.array([
            q[i, 2] - terrain.height(float(q[i, 0]), float(q[i, 1])) for i in range(3)
        ])

    r = residual(u)
    best = float(np.max(np.abs(r)))
    eps = 1e-7 * max(scale, 1.0)
    for _ in range(_SETTLE_MAX_ITER):
        if best < tol:
            break
        jac = np.empty((3, 3))
        for k in range(3):
            du = u.copy()
            du[k] += eps
            jac[:, k] = (residual(du) - r) / eps
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as e:
            raise NumericalFailure(f"settle Jacobian is singular: {e}", residual=best) from e
        step[1:] = np.clip(step[1:], -0.3, 0.3)
        for _halve in range(8):
            trial = u + step
            rt = residual(trial)
            m = float(np.max(np.abs(rt)))
            if m < best or m < tol:
                u, r, best = trial, rt, m
                break
            step = step * 0.5
        else:
            raise NumericalFailure(
                f"settle line search stalled at residual {best:.3e}", residual=best
            )
    else:
        raise NumericalFailure(
            f"settle did not converge in {_SETTLE_MAX_ITER} iterations "
            f"(last residual {best:.3e})", residual=best,
        )
    feet = FootSet(_posed_points(body, (cx, cy), yaw, u[0], u[1], u[2]))
    if not feet.orientation_ok():
        raise GeometryViolation("settled feet lost counterclockwise orientation")
    return feet


def complete_fourth_feet(p1, p2, p3):
    """Fourth corner of every row's square with consecutive corners p1[k],
    p2[k], p3[k]: (corners, errors by row).

    Diagonals of a square bisect each other, so p4 = p1 + p3 - p2. Each row
    must form two orthogonal equal-length edges meeting at p2; a row that
    does not gets a DomainError. A row with NaN input passes unchecked.
    """
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    c = np.asarray(p3, dtype=float)
    e1 = a - b
    e2 = c - b

    def lengths(e):
        return np.sqrt(e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1] + e[:, 2] * e[:, 2])

    l1, l2 = lengths(e1), lengths(e2)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosang = (e1[:, 0] * e2[:, 0] + e1[:, 1] * e2[:, 1]
                  + e1[:, 2] * e2[:, 2]) / (l1 * l2)
    degenerate = (l1 == 0.0) | (l2 == 0.0)
    unequal = np.abs(l1 - l2) > _CORNER_TOL * l1
    skew = np.abs(cosang) > _CORNER_TOL
    errors: dict[int, DomainError] = {}
    for k in np.flatnonzero(degenerate | unequal | skew):
        u, v = float(l1[k]), float(l2[k])
        if degenerate[k]:
            errors[int(k)] = DomainError(f"degenerate corner: edge lengths {u!r} and {v!r}")
        elif unequal[k]:
            errors[int(k)] = DomainError(
                f"edges meeting at p2 have unequal lengths {u!r} and {v!r}")
        else:
            errors[int(k)] = DomainError(
                f"edges meeting at p2 are not orthogonal "
                f"(cos angle = {float(cosang[k])!r})")
    return a + c - b, errors


@dataclass(frozen=True)
class DropRotation:
    """Result of rotating the free foot about the opposite edge to the ground."""

    landed: np.ndarray        # image of foot 4, on the ground
    companion: np.ndarray     # image of foot 1 under the same rotation
    angle: float
    companion_height: float


def drop_rotate(feet: FootSet, terrain, tol_scale: float | None = None,
                allow_below: bool = False) -> DropRotation:
    """Rotate foot 4 about the axis through feet 2-3 onto the ground.

    The rotation turns toward the ground: downward for an airborne free
    foot or, with allow_below, upward for a sunken one (the two cases are
    mirror images). The same rotation drags foot 1 along to the other side
    of the surface. The root is bracketed by a coarse angular scan, then
    refined with Brent's method until the landed foot's height falls under
    1e-12 of the table scale.
    """
    p1, p2, p3, p4 = feet.p1, feet.p2, feet.p3, feet.p4
    scale = tol_scale if tol_scale is not None else float(np.linalg.norm(p2 - p1))
    h4 = float(p4[2]) - terrain.height(float(p4[0]), float(p4[1]))
    if h4 < -1e-9 * scale and not allow_below:
        raise DomainError(
            f"free foot is below the ground (h4 = {h4:.3e}); drop rotation "
            f"needs it on or above"
        )
    if abs(h4) <= 1e-12 * scale:
        return DropRotation(landed=p4.copy(), companion=p1.copy(), angle=0.0,
                            companion_height=float(p1[2]) - terrain.height(float(p1[0]), float(p1[1])))
    sign0 = 1.0 if h4 > 0.0 else -1.0

    def height_at(angle: float) -> float:
        q = rotate_about_axis(p4, p2, p3, angle)
        return float(q[2]) - terrain.height(float(q[0]), float(q[1]))

    # pick the rotation sense that moves the free foot toward the ground
    probe = 1e-4
    sense = 1.0 if (height_at(probe) - h4) * sign0 < 0.0 else -1.0
    step = math.radians(1.0)
    lo, f_lo, hi = 0.0, None, None
    t = step
    while t <= math.pi + 1e-12:
        f = height_at(sense * t)
        if f * sign0 <= 0.0:
            hi = t
            break
        lo, f_lo = t, f
        t += step
    if hi is None:
        raise GeometryViolation(
            "drop rotation found no ground crossing within a half turn; "
            "the slope condition is likely violated"
        )
    angle = sense * bracketed_root(lambda a: height_at(sense * a), lo, hi,
                                   xtol=1e-15, ftol=1e-12 * scale,
                                   f_lo=f_lo, f_hi=f)
    landed = rotate_about_axis(p4, p2, p3, angle)
    companion = rotate_about_axis(p1, p2, p3, angle)
    # rotation isometry: distances to both axis points must be preserved
    for src, dst in ((p4, landed), (p1, companion)):
        for axis_pt in (p2, p3):
            before = float(np.linalg.norm(src - axis_pt))
            after = float(np.linalg.norm(dst - axis_pt))
            if abs(before - after) > 1e-12 * max(before, 1.0):
                raise GeometryViolation(
                    f"drop rotation broke axis distance ({before!r} -> {after!r})"
                )
    ch = float(companion[2]) - terrain.height(float(companion[0]), float(companion[1]))
    return DropRotation(landed=landed, companion=companion, angle=float(angle),
                        companion_height=ch)
