"""The closed curve where a sphere meets the terrain, traced by azimuth, and
the ground crossings of the foot circles that close the table's square.

Under a terrain slope below 30 degrees the curve is a graph over the azimuth
about the vertical axis through the sphere center: each vertical half-plane
meets it exactly once, so every point is a 1-D root in latitude. The trace
keeps a cached polyline for warm starts. Every root is refined inside a
certified bracket: a 1-degree sign scan ahead of each fresh bracket makes a
breach of the uniqueness conditions surface as an error instead of a wrong
answer.

Every circle crossing here goes through one kernel, `_solve_circles`: it
scans many circles at once in blocks of _BLOCK_ROWS rows, checks each row's
certificates on its scan as array predicates, and refines every certified
crossing in one bracket vector (roots.bracketed_roots). The curve point at
an azimuth is the crossing of the vertical half-circle about the sphere
center, so `ring_point` (one row) and `trace_ring` (every grid azimuth) use
it, as do the foot circles that close the table's square: `circle_crossings`
for the circle about a table edge and `half_circle_crossings` for the
vertical half-circle about a pivot. In these two a row that fails a
certificate gets that certificate's error in the returned map and no point;
the other rows are unaffected, so a caller that walks the rows in order
raises the error of the first failing row. An error the terrain raises
during a scan or a refinement (a query outside its extent), or a NaN met
while refining, is raised for the whole call. `circle_surface_intersection`
is the one-row call of `circle_crossings`. The warm-started curve solves of
`GroundRing.point_at` and `chord_advance` refine one scalar root at a time
with Brent's method (roots.bracketed_root).

The scan evaluates a grid node only where it can change a sign. Each block
first evaluates its rows at the coarse nodes: every _COARSE-th grid node
and the last one. On a circle of radius r the gap g(t) = z(t) - f(x(t),
y(t)) changes at most at the rate L = r sqrt(1 + G^2), where G is the
terrain's `gradient_bound` over the disc of radius r about the circle
center (the circle lies above that disc). For t in a coarse cell [a, b],
|g(t)| >= |g(a)| - L (t - a) and |g(t)| >= |g(b)| - L (b - t), so
2 |g(t)| >= |g(a)| + |g(b)| - L (b - a). A cell is settled when its two
ends have one sign and |g(a)| + |g(b)| > L (b - a) + eps, where eps is four
times a bound of a computed gap's rounding error (the circle point, the
terrain's `height_rounding`, and the gradient times the point's error).
Then every exact gap in the cell exceeds that rounding bound in size, so
every computed gap inside has the sign of the cell's ends: a skipped node
takes that sign and cannot add or move a sign change. The nodes inside
unsettled cells are evaluated, in one array call per block. A NaN gap or
bound settles nothing, and a grid terrain's bound is +inf, so a grid
evaluates every node. The sign changes are therefore those of the full
scan, and so are the crossing cells; every gap that a certificate or the
refinement reads (the grid's ends, the circle's top, the two ends of each
crossing cell) is a real evaluation. Results, errors and their order are
the full scan's, bit for bit.

A block of fewer than _SETTLED_MIN_ROWS rows (a one-row resolve, or a
short last block) runs the full scan, which is cheaper there. A block whose
circles may leave the terrain's extent (by their continuous bounding box)
runs the full scan in blocks of _FULL_ROWS rows, so a query outside the
extent raises the same error, naming the same first point, after the same
earlier certificates. In serial 16-run pivot-slide campaigns (CPU time,
median of 5) the settled scan in 128-row blocks cut the time from 0.96 s to
0.64 s; 64-row blocks took 0.68 s and 256-row blocks 0.65 s, and _COARSE
from 6 to 12 took 0.63-0.67 s in two sets of runs against 0.68 s at 15
(2-core Xeon, numpy 2.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlockedMotion,
    ConditionViolation,
    DomainError,
    GeometryViolation,
    WobbleError,
)
from .geometry import SlopeThresholds, Sphere
from .roots import bracketed_root, bracketed_roots

_TWO_PI = 2.0 * math.pi
_DEG = math.radians(1.0)
_SLOPES = SlopeThresholds()
# rows per full-scan block: solving 600 foot circles on a 20-bump terrain
# took 333 us per row one row at a time, 69 us in 32-row blocks and 130 us
# with all rows in one scan (refinement included; 2-core Xeon, numpy 2.4),
# where the scan's temporaries no longer fit in cache
_FULL_ROWS = 32
# rows per settled-scan block, a multiple of _FULL_ROWS (see the measured
# campaigns in the module docstring)
_BLOCK_ROWS = 128
# a block of fewer rows runs the full scan: one 361-node row took 138 us
# settled (plus 12 us for the extent check) against 85 us full, 2 rows 157
# against 136 us and 4 rows 174 against 203 us (timeit, 20-bump terrain)
_SETTLED_MIN_ROWS = 4
# coarse node spacing of the settled scan, in grid steps; it divides 180,
# so the circle's top (index 180) and both ends are coarse nodes
_COARSE = 10
# relative rounding allowance of the settled scan's bounds, far above the
# few ulp that a circle point or a gradient bound is off by
_ROUNDING = 2.0 ** -40
# foot circle, 1-degree grid; linspace puts t = 0, the top, exactly at 180
_CIRCLE_TS = np.linspace(-math.pi, math.pi, 361)
_CIRCLE_TOP = 180
_CIRCLE_LEFT = np.sin(0.5 * (_CIRCLE_TS[:-1] + _CIRCLE_TS[1:])) > 0.0
# vertical half-circle, 1-degree elevation grid
_HALF_BETAS = np.linspace(-math.pi / 2.0, math.pi / 2.0, 181)


def _scan_brackets(values: np.ndarray) -> list[int]:
    """Indices i where values[i] and values[i+1] straddle zero."""
    s = values > 0.0
    return [int(i) for i in np.nonzero(s[:-1] != s[1:])[0]]


def ring_point(sphere: Sphere, terrain, azimuth: float,
               enforce_slope: bool = True) -> tuple[np.ndarray, float]:
    """Point of the sphere/ground curve in the vertical half-plane at
    `azimuth`, with its latitude: the crossing of the vertical half-circle
    about the sphere center, scanned at 1 degree of latitude, required to
    be single, then refined.
    """
    if enforce_slope:
        slope = terrain.slope_bound
        if slope >= _SLOPES.no_double_point:
            raise ConditionViolation(
                f"curve tracing needs terrain slope below 30.0000 deg for a "
                f"unique azimuth graph, measured {math.degrees(slope):.4f} deg"
            )

    def certify(gaps: np.ndarray, flips: np.ndarray):
        bottom, top = float(gaps[0, 0]), float(gaps[0, -1])
        if bottom >= 0.0 or top <= 0.0:
            raise GeometryViolation(
                "sphere does not straddle the ground along this azimuth "
                f"(bottom gap {bottom:.3e}, top gap {top:.3e})"
            )
        count = int(flips.sum())
        if count != 1:
            raise ConditionViolation(
                f"curve crosses this half-plane {count} times; the "
                f"no-double-point condition (slope < 30 deg) is violated"
            )
        return np.argmax(flips, axis=1), {}

    points, lams, _ = _vertical_half_circles(terrain, sphere.center, [azimuth],
                                             sphere.radius, _HALF_BETAS, certify)
    return points[0], float(lams[0])


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


def check_step(step: float) -> None:
    """Raise DomainError unless the sample step is finite and positive."""
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"trace step must be positive, got {step}")


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
    check_step(step)
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
    # the curve point at each azimuth is the crossing of the vertical
    # half-circle about the sphere center, scanned over the band
    block_counts = []

    def certify(gaps: np.ndarray, flips: np.ndarray):
        if np.any(gaps[:, 0] >= 0.0) or np.any(gaps[:, -1] <= 0.0):
            if band < math.pi / 2.0 - 1e-9:
                msg = (f"curve latitude leaves the scan band of "
                       f"{math.degrees(band):.4f} deg; latitude bound breached")
            else:
                msg = "sphere does not straddle the ground over the traced azimuths"
            raise GeometryViolation(msg)
        block_counts.append(flips.sum(axis=1))
        return np.argmax(flips, axis=1), {}

    pts, lams, _ = _vertical_half_circles(terrain, sphere.center, phis,
                                          sphere.radius, lam_grid, certify)
    counts = np.concatenate(block_counts)
    if np.any(counts != 1):
        bad = int(np.argmax(counts != 1))
        msg = (f"curve crosses the half-plane at azimuth "
               f"{math.degrees(phis[bad]):.4f} deg {int(counts[bad])} times; "
               f"no-double-point condition violated")
        if enforce:
            raise ConditionViolation(msg)
        warnings.append(msg)

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
    cap = 2.0 * sphere.radius * math.sin(grid_step / 2.0) * speed_factor * (1.0 + 1e-3)
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


def _circle_points(centers, e_cos, e_sin, radius: float, cos_t, sin_t):
    """x, y, z of center + radius (cos t e_cos + sin t e_sin), rows of
    centers and directions along axis 0 and angles along axis 1."""
    points = []
    tmp = None
    for i in range(3):
        p = cos_t * e_cos[:, i, None]
        tmp = np.multiply(sin_t, e_sin[:, i, None], out=tmp)
        p += tmp
        p *= radius
        p += centers[:, i, None]
        points.append(p)
    return tuple(points)


def _coarse_layout(m: int):
    """Coarse nodes of an m-node angle grid (every _COARSE-th node and the
    last one), the coarse node at or before each node, and the interior
    nodes of each coarse cell, padded with -1."""
    coarse = np.arange(0, m, _COARSE)
    if coarse[-1] != m - 1:
        coarse = np.append(coarse, m - 1)
    owner = np.searchsorted(coarse, np.arange(m), side="right") - 1
    inner = coarse[:-1, None] + np.arange(1, _COARSE)
    inner[inner >= coarse[1:, None]] = -1
    return coarse, owner, inner


def _inside_extent(terrain, centers, e_cos, e_sin, radius: float) -> bool:
    """Whether every point of each row's whole circle, rounding included,
    lies inside the terrain's extent: the circle's x spans center_x +-
    radius * sqrt(e_cos_x^2 + e_sin_x^2), and likewise y. NaN fails."""
    e = terrain.extent
    c = centers[:, :2]
    half = (radius * (1.0 + _ROUNDING) * np.hypot(e_cos[:, :2], e_sin[:, :2])
            + _ROUNDING * (1.0 + np.abs(c)))
    return bool(np.all(c - half >= (e.xmin, e.ymin)) and np.all(c + half <= (e.xmax, e.ymax)))


def _settled_scan(terrain, centers, e_cos, e_sin, radius: float, grid: np.ndarray,
                  cos_g: np.ndarray, sin_g: np.ndarray, layout):
    """One block's gaps on the angle grid, evaluated only where a node can
    change a sign, and every node's sign: (gaps, signs). Skipped nodes have
    a NaN gap and their cell's sign (see the module docstring)."""
    coarse, owner, inner = layout
    rows = len(centers)
    x, y, z = _circle_points(centers, e_cos, e_sin, radius, cos_g[coarse], sin_g[coarse])
    g_coarse = z - terrain.height(x, y)
    # |g'(t)| <= |dz/dt| + |grad f| |d(x, y)/dt| <= radius sqrt(1 + G^2)
    grad = terrain.gradient_bound(centers[:, 0], centers[:, 1],
                                  radius * (1.0 + _ROUNDING))
    lip = radius * np.sqrt(1.0 + grad * grad) * (1.0 + _ROUNDING)
    # four times a bound of a computed gap's rounding error
    scale = np.abs(centers).max(axis=1) + radius
    slack = 4.0 * (_ROUNDING * (1.0 + scale) * (1.0 + grad) + terrain.height_rounding())
    a, b = g_coarse[:, :-1], g_coarse[:, 1:]
    positive = g_coarse > 0.0
    settled = ((positive[:, :-1] == positive[:, 1:])
               & (np.abs(a) + np.abs(b) > lip[:, None] * np.diff(grid[coarse])
                  + slack[:, None]))
    open_rows, open_cells = np.nonzero(~settled)
    nodes = inner[open_cells]
    valid = nodes >= 0
    fine_rows = np.broadcast_to(open_rows[:, None], nodes.shape)[valid]
    fine_nodes = nodes[valid]
    gaps = np.full((rows, grid.size), np.nan)
    gaps[:, coarse] = g_coarse
    signs = positive[:, owner]
    if fine_nodes.size:
        x, y, z = _circle_points(centers[fine_rows], e_cos[fine_rows], e_sin[fine_rows],
                                 radius, cos_g[fine_nodes, None], sin_g[fine_nodes, None])
        g_fine = (z - terrain.height(x, y))[:, 0]
        gaps[fine_rows, fine_nodes] = g_fine
        signs[fine_rows, fine_nodes] = g_fine > 0.0
    return gaps, signs


def _full_scan(terrain, centers, e_cos, e_sin, radius: float,
               cos_g: np.ndarray, sin_g: np.ndarray):
    """One block's gaps at every grid node, and their signs."""
    x, y, z = _circle_points(centers, e_cos, e_sin, radius, cos_g, sin_g)
    gaps = z - terrain.height(x, y)
    return gaps, gaps > 0.0


def _solve_circles(terrain, centers, e_cos, e_sin, radius: float,
                   grid: np.ndarray, certify):
    """Ground crossing of the circle center + radius (cos t e_cos +
    sin t e_sin) of every row, with t in [grid[0], grid[-1]].

    Scans the rows in blocks over the angle grid; certify(gaps, flips)
    checks each block's rows on their ground gaps and the grid cells where
    the gap changes sign, and returns (cells, errors): the grid cell holding
    each row's crossing, and the rows that fail with their errors. A
    certificate may read the gaps at the coarse nodes only (the grid's ends
    and every _COARSE-th node, the circle's top among them); the others may
    be NaN. All certified crossings are then refined together. Returns
    (points, angles, errors); a failed row's point and angle are NaN.
    Errors from the terrain's height queries, and a NaN during refinement,
    propagate for all rows.
    """
    n = len(centers)
    cos_g, sin_g = np.cos(grid), np.sin(grid)
    layout = _coarse_layout(grid.size)
    cells = np.zeros(n, dtype=int)
    f_lo, f_hi = np.empty(n), np.empty(n)
    errors: dict[int, WobbleError] = {}

    def settle(start: int, gaps: np.ndarray, signs: np.ndarray) -> None:
        c, failed = certify(gaps, signs[:, :-1] != signs[:, 1:])
        k = np.arange(c.size)
        stop = start + c.size
        cells[start:stop], f_lo[start:stop], f_hi[start:stop] = c, gaps[k, c], gaps[k, c + 1]
        errors.update((start + j, exc) for j, exc in failed.items())

    for start in range(0, n, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        args = (terrain, centers[block], e_cos[block], e_sin[block], radius)
        if n - start >= _SETTLED_MIN_ROWS and _inside_extent(*args):
            settle(start, *_settled_scan(*args, grid, cos_g, sin_g, layout))
            continue
        # a short block, or a circle that may leave the extent: the full
        # scan in blocks of _FULL_ROWS raises the query error of the first
        # bad point, after the certificates of the blocks before it, as it
        # always has
        for sub in range(start, min(start + _BLOCK_ROWS, n), _FULL_ROWS):
            part = slice(sub, sub + _FULL_ROWS)
            settle(sub, *_full_scan(terrain, centers[part], e_cos[part], e_sin[part],
                                    radius, cos_g, sin_g))
    good = np.array([k for k in range(n) if k not in errors], dtype=int)

    def gap(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        g = good[rows]
        x, y, z = _circle_points(centers[g], e_cos[g], e_sin[g], radius,
                                 np.cos(t)[:, None], np.sin(t)[:, None])
        return (z - terrain.height(x, y))[:, 0]

    angles = np.full(n, np.nan)
    c = cells[good]
    angles[good] = bracketed_roots(gap, grid[c], grid[c + 1], f_lo[good], f_hi[good])
    x, y, z = _circle_points(centers, e_cos, e_sin, radius,
                             np.cos(angles)[:, None], np.sin(angles)[:, None])
    return np.column_stack([x[:, 0], y[:, 0], z[:, 0]]), angles, errors


def _vertical_half_circles(terrain, centers, azimuths, radius: float,
                           grid: np.ndarray, certify):
    """`_solve_circles` for the vertical half-circles of `radius` about each
    row's center in the half-plane at azimuths[k]: the angle is the
    elevation above the horizontal."""
    psi = np.asarray(azimuths, dtype=float)
    n = psi.size
    c = np.broadcast_to(np.asarray(centers, dtype=float), (n, 3))
    e_out = np.column_stack([np.cos(psi), np.sin(psi), np.zeros(n)])
    e_up = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (n, 3))
    return _solve_circles(terrain, c, e_out, e_up, radius, grid, certify)


def circle_crossings(centers, axes, radius: float, terrain,
                     side: int = 1) -> tuple[np.ndarray, dict[int, WobbleError]]:
    """Where each row's circle about axes[k] through centers[k] meets the
    ground: (points, errors by row). Rows are independent.

    The circle's top and bottom lie in the vertical plane containing the
    axis; each side of that plane holds exactly one ground crossing when the
    slope stays below 35.264 deg. `side` picks the crossing with
    (point - center) . (z x axis) of that sign: +1 is the left of the axis
    direction seen from above. A row's certificates, checked on its 1-degree
    scan in this order: the axis is not vertical, the circle crosses the
    ground at most twice and at least once, its top is above the ground,
    and a crossing lies on the requested side.
    """
    c = np.asarray(centers, dtype=float)
    a = np.asarray(axes, dtype=float)
    n = len(c)
    errors: dict[int, WobbleError] = {}
    length = np.sqrt(a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1] + a[:, 2] * a[:, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        axis = a / length[:, None]
        h_norm = np.sqrt(axis[:, 0] * axis[:, 0] + axis[:, 1] * axis[:, 1])
        e_h = np.column_stack([-axis[:, 1], axis[:, 0], np.zeros(n)]) / h_norm[:, None]
        e_v = np.cross(axis, e_h)
    for k in np.flatnonzero(~(h_norm >= 1e-12)):
        errors[int(k)] = (DomainError("cannot normalize a zero vector")
                          if length[k] == 0.0 else
                          DomainError("circle axis is vertical; side selection undefined"))
    wanted_cells = _CIRCLE_LEFT if side > 0 else ~_CIRCLE_LEFT

    def certify(gaps: np.ndarray, flips: np.ndarray):
        counts = flips.sum(axis=1)
        wanted = flips & wanted_cells
        has_wanted = wanted.any(axis=1)
        top = gaps[:, _CIRCLE_TOP]
        failed = {}
        for k in np.flatnonzero((counts == 0) | (counts > 2) | (top <= 0.0) | ~has_wanted):
            if counts[k] == 0:
                failed[int(k)] = GeometryViolation("circle does not cross the ground at all")
            elif counts[k] > 2:
                failed[int(k)] = ConditionViolation(
                    f"circle crosses the ground {int(counts[k])} times; exactly 2 "
                    f"are guaranteed only below 35.264 deg slope")
            elif top[k] <= 0.0:
                failed[int(k)] = GeometryViolation(
                    "top of the foot circle is not above the ground; slope "
                    "condition violated")
            else:
                failed[int(k)] = GeometryViolation(
                    f"no ground crossing on the requested side "
                    f"({'+' if side > 0 else '-'})")
        return np.argmax(wanted, axis=1), failed

    points = np.full((n, 3), np.nan)
    ok = np.array([k for k in range(n) if k not in errors], dtype=int)
    pts, _, failed = _solve_circles(terrain, c[ok], e_v[ok], e_h[ok], radius,
                                    _CIRCLE_TS, certify)
    points[ok] = pts
    errors.update((int(ok[j]), exc) for j, exc in failed.items())
    return points, errors


def half_circle_crossings(centers, azimuths, radius: float, terrain):
    """Ground crossing of the vertical half-circle of `radius` about each
    row's center, in the half-plane at azimuths[k]: (points, elevations,
    errors by row). A row's certificates, checked on its 1-degree scan in
    this order: the half-circle straddles the ground (bottom below, top
    above), and it crosses the ground exactly once.
    """
    def certify(gaps: np.ndarray, flips: np.ndarray):
        counts = flips.sum(axis=1)
        straddles = (gaps[:, -1] > 0.0) & (gaps[:, 0] < 0.0)
        failed = {}
        for k in np.flatnonzero(~straddles | (counts != 1)):
            if not straddles[k]:
                failed[int(k)] = GeometryViolation(
                    "vertical foot circle does not straddle the ground")
            else:
                failed[int(k)] = ConditionViolation(
                    f"vertical half-circle crosses the ground {int(counts[k])} "
                    f"times; uniqueness needs slope below 45 deg")
        return np.argmax(flips, axis=1), failed

    return _vertical_half_circles(terrain, centers, azimuths, radius, _HALF_BETAS,
                                  certify)


def circle_surface_intersection(center: np.ndarray, axis_dir: np.ndarray,
                                radius: float, terrain, side: int = 1,
                                enforce_slope: bool = True) -> np.ndarray:
    """Where the circle about `axis_dir` through `center` meets the ground,
    on the given side: the one-row call of `circle_crossings`, after the
    35.264 deg slope gate unless enforce_slope is False.
    """
    if enforce_slope:
        slope = terrain.slope_bound
        if slope >= _SLOPES.legs_clear:
            raise ConditionViolation(
                f"circle/ground intersection needs slope below 35.2644 deg, "
                f"measured {math.degrees(slope):.4f} deg"
            )
    points, errors = circle_crossings(np.asarray(center, dtype=float)[None, :],
                                      np.asarray(axis_dir, dtype=float)[None, :],
                                      radius, terrain, side)
    if errors:
        raise errors[0]
    return points[0]
