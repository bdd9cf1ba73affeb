"""The closed curve where a sphere meets the terrain, traced by azimuth.

Under a terrain slope below 30 degrees the curve is a graph over the azimuth
about the vertical axis through the sphere center: each vertical half-plane
meets it exactly once, so every point is a 1-D root in latitude. The trace
keeps a cached polyline for warm starts. Every root is refined inside a
certified bracket: a 1-degree sign scan ahead of each fresh bracket makes a
breach of the uniqueness conditions surface as an error instead of a wrong
answer, and Brent's method (roots.bracketed_root) refines the one crossing
the scan admits; the trace itself bisects all azimuths at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlockedMotion, ConditionViolation, DomainError, GeometryViolation
from .geometry import SlopeThresholds, Sphere, unit
from .roots import bracketed_root

_TWO_PI = 2.0 * math.pi
_DEG = math.radians(1.0)
_SLOPES = SlopeThresholds()
_CIRCLE_TS = np.linspace(-math.pi, math.pi, 361)
_CIRCLE_COS = np.cos(_CIRCLE_TS)
_CIRCLE_SIN = np.sin(_CIRCLE_TS)


def _scan_brackets(values: np.ndarray) -> list[int]:
    """Indices i where values[i] and values[i+1] straddle zero."""
    s = values > 0.0
    return [int(i) for i in np.nonzero(s[:-1] != s[1:])[0]]


def ring_point(sphere: Sphere, terrain, azimuth: float,
               enforce_slope: bool = True) -> tuple[np.ndarray, float]:
    """Point of the sphere/ground curve in the vertical half-plane at
    `azimuth`, with its latitude. Scans latitude at 1 degree, requires a
    single crossing, then refines it with Brent's method.
    """
    if enforce_slope:
        slope = terrain.slope_bound
        if slope >= _SLOPES.no_double_point:
            raise ConditionViolation(
                f"curve tracing needs terrain slope below 30.0000 deg for a "
                f"unique azimuth graph, measured {math.degrees(slope):.4f} deg"
            )
    ox, oy, oz = (float(v) for v in sphere.center)
    r = sphere.radius
    cphi, sphi = math.cos(azimuth), math.sin(azimuth)

    def height_gap(lam: float) -> float:
        cl = math.cos(lam)
        x = ox + r * cl * cphi
        y = oy + r * cl * sphi
        return oz + r * math.sin(lam) - terrain.height(x, y)

    lams = np.linspace(-math.pi / 2.0, math.pi / 2.0, 181)
    gaps = np.array([height_gap(float(l)) for l in lams])
    if gaps[0] >= 0.0 or gaps[-1] <= 0.0:
        raise GeometryViolation(
            "sphere does not straddle the ground along this azimuth "
            f"(bottom gap {gaps[0]:.3e}, top gap {gaps[-1]:.3e})"
        )
    cells = _scan_brackets(gaps)
    if len(cells) != 1:
        raise ConditionViolation(
            f"curve crosses this half-plane {len(cells)} times; the "
            f"no-double-point condition (slope < 30 deg) is violated"
        )
    c = cells[0]
    lam = bracketed_root(height_gap, float(lams[c]), float(lams[c + 1]),
                         f_lo=float(gaps[c]), f_hi=float(gaps[c + 1]))
    cl = math.cos(lam)
    point = np.array([ox + r * cl * cphi, oy + r * cl * sphi, oz + r * math.sin(lam)])
    return point, lam


@dataclass
class GroundRing:
    """Azimuth-parametrized polyline of the sphere/ground intersection,
    plus warm-started exact point solves at arbitrary azimuth.

    Covers either the full circle (closed = True, last grid point one step
    short of wrapping) or an azimuth arc.
    """

    sphere: Sphere
    terrain: object
    step: float
    azimuths: np.ndarray
    latitudes: np.ndarray
    points: np.ndarray
    latitude_bound: float
    closed: bool
    warnings: list[str] = field(default_factory=list)

    @property
    def max_abs_latitude(self) -> float:
        return float(np.max(np.abs(self.latitudes)))

    @property
    def max_sphere_residual(self) -> float:
        d = self.points - self.sphere.center
        return float(np.max(np.abs(np.sqrt((d * d).sum(axis=1)) - self.sphere.radius)))

    @property
    def max_surface_residual(self) -> float:
        z = self.terrain.height(self.points[:, 0], self.points[:, 1])
        return float(np.max(np.abs(self.points[:, 2] - z)))

    def _hint_latitude(self, azimuth: float) -> tuple[float, float]:
        """Interpolated latitude and a local bracket half-width."""
        n = self.azimuths.size
        a0 = float(self.azimuths[0])
        if self.closed:
            pos = ((azimuth - a0) % _TWO_PI) / self.step
            i = int(pos) % n
            j = (i + 1) % n
            frac = pos - int(pos)
        else:
            pos = (azimuth - a0) / self.step
            pos = min(max(pos, 0.0), n - 1.0)
            i = min(int(pos), n - 2)
            j = i + 1
            frac = pos - i
        li, lj = float(self.latitudes[i]), float(self.latitudes[j])
        hint = li + (lj - li) * frac
        k = (i - 1) % n if self.closed else max(i - 1, 0)
        m = (j + 1) % n if self.closed else min(j + 1, n - 1)
        local = max(
            abs(lj - li),
            abs(li - float(self.latitudes[k])),
            abs(float(self.latitudes[m]) - lj),
        )
        return hint, max(2.0 * local, 1e-7)

    def point_at(self, azimuth: float, lat_hint: tuple[float, float] | None = None):
        """Exact curve point at azimuth: (point, latitude)."""
        ox, oy, oz = (float(v) for v in self.sphere.center)
        r = self.sphere.radius
        cphi, sphi = math.cos(azimuth), math.sin(azimuth)
        terrain_height = self.terrain.height

        def height_gap(lam: float) -> float:
            cl = math.cos(lam)
            return (oz + r * math.sin(lam)
                    - terrain_height(ox + r * cl * cphi, oy + r * cl * sphi))

        hint, width = lat_hint if lat_hint is not None else self._hint_latitude(azimuth)
        lo = max(hint - width, -math.pi / 2.0)
        hi = min(hint + width, math.pi / 2.0)
        for _ in range(10):
            g_lo, g_hi = height_gap(lo), height_gap(hi)
            if g_lo < 0.0 < g_hi:
                break
            width *= 3.0
            lo = max(hint - width, -math.pi / 2.0)
            hi = min(hint + width, math.pi / 2.0)
        else:
            # warm bracketing failed; fall back to the certified full scan
            return ring_point(self.sphere, self.terrain, azimuth, enforce_slope=False)
        lam = bracketed_root(height_gap, lo, hi, f_lo=g_lo, f_hi=g_hi)
        cl = math.cos(lam)
        point = np.array([ox + r * cl * cphi, oy + r * cl * sphi, oz + r * math.sin(lam)])
        return point, lam


def trace_ring(sphere: Sphere, terrain, step: float,
               chord_length: float | None = None,
               latitude_bound: float | None = None,
               arc: tuple[float, float] | None = None,
               enforce: bool = True) -> GroundRing:
    """Trace the curve on a uniform azimuth grid (vectorized).

    step is the azimuth increment (radians); `arc` restricts the trace to an
    azimuth interval (default: the full circle). When chord_length is given
    the step must keep at least 100 samples per chord. latitude_bound
    defaults to twice the terrain slope bound; every traced latitude must
    stay strictly inside it (raise, or record a warning when enforce is
    False).
    """
    if step <= 0:
        raise DomainError(f"trace step must be positive, got {step}")
    slope = terrain.slope_bound
    if slope >= _SLOPES.no_double_point:
        msg = (f"curve tracing needs terrain slope below 30.0000 deg, "
               f"measured {math.degrees(slope):.4f} deg")
        if enforce:
            raise ConditionViolation(msg)
    if chord_length is not None:
        cap = 2.0 * math.asin(chord_length / (200.0 * sphere.radius))
        if step > cap * (1.0 + 1e-9):
            raise DomainError(
                f"step {math.degrees(step):.4f} deg exceeds the 100-samples-per-"
                f"chord cap {math.degrees(cap):.4f} deg"
            )
    if latitude_bound is None:
        latitude_bound = 2.0 * slope
    warnings: list[str] = []

    if arc is None:
        closed = True
        span = _TWO_PI
        n = int(math.ceil(span / step))
        phis = span * np.arange(n) / n
        grid_step = span / n
    else:
        closed = False
        lo_phi, hi_phi = float(arc[0]), float(arc[1])
        span = hi_phi - lo_phi
        if span <= 0:
            raise DomainError(f"empty azimuth arc {arc}")
        n = max(1, int(math.ceil(span / step)))
        phis = lo_phi + span * np.arange(n + 1) / n
        grid_step = span / n

    # crossings live inside |lat| < 2 * slope; scan a padded band at the
    # spec'd 1-degree resolution and pin the band edges to the pole signs
    band = min(math.pi / 2.0, max(2.0 * slope + math.radians(5.0), math.radians(10.0)))
    n_lam = max(int(math.ceil(2.0 * band / _DEG)) + 1, 11)
    lam_grid = np.linspace(-band, band, n_lam)
    ox, oy, oz = (float(v) for v in sphere.center)
    r = sphere.radius
    cl = np.cos(lam_grid)
    x = ox + r * np.outer(np.cos(phis), cl)
    y = oy + r * np.outer(np.sin(phis), cl)
    z = oz + r * np.sin(lam_grid)[None, :]
    gaps = z - terrain.height(x, y)

    if np.any(gaps[:, 0] >= 0.0) or np.any(gaps[:, -1] <= 0.0):
        if band < math.pi / 2.0 - 1e-9:
            msg = (f"curve latitude leaves the scan band of "
                   f"{math.degrees(band):.4f} deg; latitude bound breached")
        else:
            msg = "sphere does not straddle the ground over the traced azimuths"
        raise GeometryViolation(msg)
    signs = gaps > 0.0
    flips = signs[:, :-1] != signs[:, 1:]
    counts = flips.sum(axis=1)
    if np.any(counts != 1):
        bad = int(np.argmax(counts != 1))
        msg = (f"curve crosses the half-plane at azimuth "
               f"{math.degrees(phis[bad]):.4f} deg {int(counts[bad])} times; "
               f"no-double-point condition violated")
        if enforce:
            raise ConditionViolation(msg)
        warnings.append(msg)
    first = np.argmax(flips, axis=1)
    lo = lam_grid[first]
    hi = lam_grid[first + 1]
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        cm = np.cos(mid)
        gx = ox + r * cm * np.cos(phis)
        gy = oy + r * cm * np.sin(phis)
        gm = oz + r * np.sin(mid) - terrain.height(gx, gy)
        below = gm < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    lams = 0.5 * (lo + hi)
    cl = np.cos(lams)
    pts = np.column_stack([
        ox + r * cl * np.cos(phis),
        oy + r * cl * np.sin(phis),
        oz + r * np.sin(lams),
    ])

    worst_lat = float(np.max(np.abs(lams)))
    # flat ground degenerates to latitude == bound == 0; only a real excess counts
    if worst_lat >= latitude_bound and worst_lat > 1e-12:
        msg = (f"traced latitude {math.degrees(worst_lat):.4f} deg reaches the "
               f"bound {math.degrees(latitude_bound):.4f} deg (twice the slope)")
        if enforce:
            raise ConditionViolation(msg)
        warnings.append(msg)
    if closed:
        seg = np.diff(np.vstack([pts, pts[:1]]), axis=0)
    else:
        seg = np.diff(pts, axis=0)
    spacing = float(np.max(np.sqrt((seg * seg).sum(axis=1))))
    # the curve's tangent is tangent to the ground, so its inclination stays
    # under the slope bound; that caps the azimuthal speed at
    # R * max over |lat| <= 2*slope of cos(lat)^2 / sqrt(cos(lat)^2 - sin(slope)^2)
    s2 = math.sin(slope) ** 2
    speed_factor = 1.0 / math.cos(slope) if slope > 0 else 1.0
    c2 = math.cos(2.0 * slope) ** 2
    if c2 > s2:
        speed_factor = max(speed_factor, c2 / math.sqrt(c2 - s2))
    cap = 2.0 * r * math.sin(grid_step / 2.0) * speed_factor * (1.0 + 1e-3)
    if spacing > cap:
        msg = f"adjacent trace points spaced {spacing:.3e}, cap {cap:.3e}"
        if enforce:
            raise ConditionViolation(msg)
        warnings.append(msg)

    return GroundRing(sphere=sphere, terrain=terrain, step=grid_step,
                      azimuths=phis, latitudes=lams, points=pts,
                      latitude_bound=latitude_bound, closed=closed,
                      warnings=warnings)


def chord_advance(ring: GroundRing, from_point: np.ndarray, from_azimuth: float,
                  chord: float, hint_azimuth: float):
    """Next curve point at straight-line distance `chord`, ahead in azimuth.

    The root is isolated in a bracket of width at most 4 steps around the
    hint; no crossing there means the motion is blocked, more than one means
    the uniqueness-by-continuity assumption failed. Returns
    (point, azimuth, latitude).
    """
    fx, fy, fz = float(from_point[0]), float(from_point[1]), float(from_point[2])
    last_lat: list[tuple[float, float] | None] = [None]
    # bracketed_root returns an endpoint or a point it evaluated, so the
    # root's curve point is always among the ones solved here
    solved: dict[float, tuple[np.ndarray, float]] = {}

    def gap(phi: float) -> float:
        pt, lam = solved[phi] = ring.point_at(phi, lat_hint=last_lat[0])
        last_lat[0] = (lam, 5e-4)
        dx = float(pt[0]) - fx
        dy = float(pt[1]) - fy
        dz = float(pt[2]) - fz
        return math.sqrt(dx * dx + dy * dy + dz * dz) - chord

    lo = max(hint_azimuth - 2.0 * ring.step, from_azimuth + 1e-12)
    hi = hint_azimuth + 2.0 * ring.step
    g_lo, g_hi = gap(lo), gap(hi)
    if not (g_lo < 0.0 < g_hi):
        raise BlockedMotion(
            f"no chord root in the bracket around azimuth "
            f"{math.degrees(hint_azimuth):.4f} deg "
            f"(gap {g_lo:.3e} .. {g_hi:.3e}); the monotone-march condition "
            f"(slope <= 14.47 deg) may be violated"
        )
    probes = np.linspace(lo, hi, 5)
    vals = np.empty(5)
    vals[0], vals[4] = g_lo, g_hi
    for i in (1, 2, 3):
        vals[i] = gap(float(probes[i]))
    if len(_scan_brackets(vals)) != 1:
        raise ConditionViolation(
            "multiple chord roots detected in the continuation bracket; "
            "uniqueness-by-continuity failed"
        )
    phi2 = bracketed_root(gap, lo, hi, f_lo=g_lo, f_hi=g_hi)
    if phi2 <= from_azimuth:
        raise BlockedMotion("chord advance did not move forward in azimuth")
    point, lam = solved[phi2]
    return point, phi2, lam


def flat_chord_azimuth_gap(chord: float, radius: float) -> float:
    """Azimuth increment of a chord on a horizontal circle of that radius."""
    return 2.0 * math.asin(chord / (2.0 * radius))


def circle_surface_intersection(center: np.ndarray, axis_dir: np.ndarray,
                                radius: float, terrain, side: int = 1,
                                enforce_slope: bool = True) -> np.ndarray:
    """Where the circle about `axis_dir` through `center` meets the ground.

    The circle's top and bottom lie in the vertical plane containing the
    axis; each side of that plane holds exactly one ground crossing when the
    slope stays below 35.264 deg. `side` picks the crossing with
    (point - center) . (z x axis) of that sign: +1 is the left of the axis
    direction seen from above.
    """
    if enforce_slope:
        slope = terrain.slope_bound
        if slope >= _SLOPES.legs_clear:
            raise ConditionViolation(
                f"circle/ground intersection needs slope below 35.2644 deg, "
                f"measured {math.degrees(slope):.4f} deg"
            )
    axis = unit(np.asarray(axis_dir, dtype=float))
    horiz = np.array([-axis[1], axis[0], 0.0])
    h_norm = float(np.linalg.norm(horiz))
    if h_norm < 1e-12:
        raise DomainError("circle axis is vertical; side selection undefined")
    e_h = horiz / h_norm
    e_v = np.cross(axis, e_h)
    c = np.asarray(center, dtype=float)

    def gap(t: float) -> float:
        ct, st = math.cos(t), math.sin(t)
        x = c[0] + radius * (ct * e_v[0] + st * e_h[0])
        y = c[1] + radius * (ct * e_v[1] + st * e_h[1])
        z = c[2] + radius * (ct * e_v[2] + st * e_h[2])
        return z - terrain.height(x, y)

    px = c[0] + radius * (_CIRCLE_COS * e_v[0] + _CIRCLE_SIN * e_h[0])
    py = c[1] + radius * (_CIRCLE_COS * e_v[1] + _CIRCLE_SIN * e_h[1])
    pz = c[2] + radius * (_CIRCLE_COS * e_v[2] + _CIRCLE_SIN * e_h[2])
    gaps = pz - terrain.height(px, py)
    cells = _scan_brackets(gaps)
    if len(cells) == 0:
        raise GeometryViolation("circle does not cross the ground at all")
    if len(cells) > 2:
        raise ConditionViolation(
            f"circle crosses the ground {len(cells)} times; exactly 2 are "
            f"guaranteed only below 35.264 deg slope"
        )
    if gap(0.0) <= 0.0:
        raise GeometryViolation(
            "top of the foot circle is not above the ground; slope condition "
            "violated"
        )
    want_positive = side > 0
    for i in cells:
        mid = 0.5 * float(_CIRCLE_TS[i] + _CIRCLE_TS[i + 1])
        if (math.sin(mid) > 0.0) == want_positive:
            # the scanned signs certify the bracket
            t_root = bracketed_root(gap, float(_CIRCLE_TS[i]), float(_CIRCLE_TS[i + 1]),
                                    f_lo=float(gaps[i]), f_hi=float(gaps[i + 1]))
            ct, st = math.cos(t_root), math.sin(t_root)
            return c + radius * (ct * e_v + st * e_h)
    raise GeometryViolation(
        f"no ground crossing on the requested side ({'+' if side > 0 else '-'})"
    )
