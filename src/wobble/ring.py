"""The curve where a sphere meets the terrain, traced over one azimuth arc,
and the ground crossings of the foot circles that close the table's square.

Under a terrain slope below 30 degrees the curve is a graph over the azimuth
about the vertical axis through the sphere center: each vertical half-plane
meets it exactly once, so every point is a 1-D root in latitude. No function
here gates the slope; the motions do, in `motion.py`. The trace solves the
curve at the azimuths it is given (the march's samples and a few nodes
either side), with every latitude inside twice the slope, and keeps the
polyline for warm starts. Every root is refined inside a certified bracket:
a 1-degree sign scan ahead of each fresh bracket makes a breach of the
uniqueness conditions surface as an error instead of a wrong answer.

Every circle crossing here goes through one kernel, `_solve_circles`: it
scans many circles at once in blocks of _BLOCK_ROWS rows, checks each row's
certificates on its scan as array predicates, and refines every certified
crossing in one bracket vector (roots.bracketed_roots). Two entry points
wrap it: `circle_crossings` for the circle about a table edge and
`half_circle_crossings` for the vertical half-circle about a pivot. In
these a row that fails a certificate gets that certificate's error in the
returned map and no point; the other rows are unaffected, so a caller that
walks the rows in order raises the error of the first failing row. An error
the terrain raises during a scan or a refinement (a query outside its
extent), or a NaN met while refining, is raised for the whole call. The
curve point at an azimuth is the crossing of the vertical half-circle about
the sphere center: `ring_point` is the one-row call of
`half_circle_crossings`, and `trace_ring` runs the kernel on every traced
azimuth with its own latitude band and certificate. The march reads each
foot 1 off those nodes; `GroundRing.node` is the one-row call of the same
band and certificate, so a re-solve at a traced azimuth gives that node's
point bit for bit. `circle_surface_intersection` is the one-row call of
`circle_crossings`; `contact.drop_rotate` lands the free foot with it.
These one-row calls raise their row's error. Only the march's chord search
still solves scalar roots: `chord_advance` probes its bracket at five
azimuths and refines the one probe cell that holds the sign change with
Brent's method (roots.bracketed_root), on curve points from the
warm-started scalar solve `GroundRing.point_at`.

The scan evaluates a grid node only where it can change a sign. Each block
first evaluates its rows at the coarse nodes: every _COARSE-th grid node
and the last one. On a circle of radius r the gap g(t) = z(t) - f(x(t),
y(t)) changes at most at the rate L = r sqrt(1 + G^2), where G is the
terrain's `gradient_bound` over the disc of radius r about the circle
center (the circle lies above that disc). For a bump terrain that bound is
the smaller of the per-bump disc bound and the certified slope's tangent
(a disc inside the extent), so a circle on a steep cluster of bumps is
bounded by the terrain's steepest slope rather than by the sum of its
bumps' slopes, and settles more cells. For t in a coarse cell [a, b],
|g(t)| >= |g(a)| - L (t - a) and |g(t)| >= |g(b)| - L (b - t), so
2 |g(t)| >= |g(a)| + |g(b)| - L (b - a). A cell is settled when its two
ends have one sign and |g(a)| + |g(b)| > L (b - a) + eps, where eps is four
times a bound of a computed gap's rounding error (the circle point, the
terrain's `height_rounding`, and the gradient times the point's error).
Then every exact gap in the cell exceeds that rounding bound in size, so
every computed gap inside has the sign of the cell's ends: a skipped node
takes that sign and cannot add or move a sign change. So every sign change
lies in an unsettled ("open") cell, and a block's inner nodes are evaluated
in open cells only, in one array call. A NaN gap or bound settles nothing,
and a grid terrain's bound is +inf, so a grid evaluates every node.

A scan hands its certificate a `_SignChanges`: the block's sign changes as
one list sorted by (row, cell), with the gaps at each changing cell's two
ends, plus every row's gaps at the coarse nodes. The scan builds the list
in one (open cells x 10) pass over each open cell's two ends and nine inner
nodes; a short last cell repeats its right end, which adds no change. A
certificate reads each row's number of changes, its first change
(optionally among some cells only, such as the circle's left side) and its
gaps at coarse nodes (the grid's ends, the circle's top); the refinement
reads the two end gaps of the picked change. Every one of these is a real
evaluation, the changes are those of a scan of every node, and no (rows x
grid) array is built, so the kernel's cost follows the nodes it evaluates.
A row's point, angle and certificate error are those of a scan of every
node, bit for bit, and do not depend on how rows are grouped into blocks.

Every block runs this scan, the one-row calls included. Timed alone on
one row, it took 204-221 us against 122-130 us for a scan of every node in
one array call (five foot circles on a 20-bump terrain at 35 degrees, best
of 9 x 300); the whole one-row call took 0.5-1.2 ms, most of it in the
refinement, so a solve does not show the difference. A query outside the
terrain's extent raises the terrain's DomainError, naming the first
outside point in the scan's order: the block's coarse nodes row by row,
then every grid node of each row whose circle's bounding box leaves the
extent (a settled cell's inner nodes are checked against the extent, never
queried), then the inner nodes of its open cells. The motions never get
there: the workspace check in `motion._start` keeps every foot circle
inside the extent. With _BLOCK_ROWS = 1024 a motion stage's rows (up to
about 600 samples) are one block. Serial 16-run pivot-slide campaigns at
35 degrees (CPU time, best and median of 9, sizes alternated in one
process) took 0.43/0.44 s in 128-row blocks, 0.40/0.41 s in 256-row,
0.39/0.41 s in 512-row, 0.39/0.40 s in 1024-row and 0.40/0.40 s in
4096-row blocks; on the earlier dense (rows x grid) gap, sign and change
arrays, 1024-row blocks gained nothing over 128-row ones. _COARSE from 6
to 12 took 0.63-0.67 s in two sets of runs against 0.68 s at 15, on the
dense arrays (2-core Xeon, numpy 2.4).
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

_DEG = math.radians(1.0)
# finest sample step: a motion stage or a ring trace over half a turn then
# holds about 2^18 samples, the cap of balance's height scan
_MIN_STEP = math.pi / 2.0 ** 18
_SLOPES = SlopeThresholds()
# rows per scan block: a motion stage's rows in one block (see the
# measured campaigns in the module docstring)
_BLOCK_ROWS = 1024
# coarse node spacing of the settled scan, in grid steps; it divides 180,
# so the circle's top (index 180) and both ends are coarse nodes
_COARSE = 10
# relative rounding allowance of the settled scan's bounds, far above the
# few ulp that a circle point or a gradient bound is off by
_ROUNDING = 2.0 ** -40


@dataclass(frozen=True)
class _AngleGrid:
    """An angle grid, its cos and sin, and the settled scan's layout: the
    coarse nodes (every _COARSE-th node and the last one), their cell
    widths, and the inner nodes of each coarse cell (a short last cell
    padded with the grid's last node)."""

    ts: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    coarse: np.ndarray
    widths: np.ndarray
    inner: np.ndarray


def _angle_grid(ts: np.ndarray) -> _AngleGrid:
    m = ts.size
    coarse = np.arange(0, m, _COARSE)
    if coarse[-1] != m - 1:
        coarse = np.append(coarse, m - 1)
    inner = np.minimum(coarse[:-1, None] + np.arange(1, _COARSE), m - 1)
    return _AngleGrid(ts, np.cos(ts), np.sin(ts), coarse, np.diff(ts[coarse]), inner)


# foot circle, 1-degree grid; linspace puts t = 0, the top, exactly at 180
_CIRCLE = _angle_grid(np.linspace(-math.pi, math.pi, 361))
_CIRCLE_TOP = 180
_CIRCLE_LEFT = np.sin(0.5 * (_CIRCLE.ts[:-1] + _CIRCLE.ts[1:])) > 0.0
# vertical half-circle, 1-degree elevation grid
_HALF = _angle_grid(np.linspace(-math.pi / 2.0, math.pi / 2.0, 181))


def ring_point(sphere: Sphere, terrain, azimuth: float) -> tuple[np.ndarray, float]:
    """Point of the sphere/ground curve in the vertical half-plane at
    `azimuth`, with its latitude: the one-row call of
    `half_circle_crossings` about the sphere center. It gates no slope; its
    scan's straddle and single-crossing certificates refuse a row they do
    not hold for.
    """
    points, lams, errors = half_circle_crossings(sphere.center, [azimuth],
                                                 sphere.radius, terrain)
    if errors:
        raise errors[0]
    return points[0], float(lams[0])


@dataclass
class GroundRing:
    """Azimuth-parametrized polyline of the sphere/ground intersection at the
    traced azimuths (increasing), plus two exact solves on it: `node`, the
    trace's own kernel at one azimuth, and `point_at`, a warm-started scalar
    solve for the chord search. step is the widest node spacing and
    latitude_bound twice the terrain's slope bound."""

    sphere: Sphere
    terrain: object
    step: float
    azimuths: np.ndarray
    latitudes: np.ndarray
    points: np.ndarray
    latitude_bound: float
    band: _AngleGrid
    enforce: bool = True
    warnings: list[str] = field(default_factory=list)

    def node(self, azimuth: float) -> tuple[np.ndarray, float]:
        """The curve point at one azimuth and its latitude: the one-row call
        of the trace's kernel, band and crossing count, so at a traced
        azimuth it is that node's point and latitude bit for bit."""
        points, lams, counts = _band_crossings(self.sphere, self.terrain, [azimuth],
                                               self.band)
        if counts[0] != 1 and self.enforce:
            raise ConditionViolation(_double_point(azimuth, int(counts[0])))
        return points[0], float(lams[0])

    def _hint_latitude(self, azimuth: float) -> tuple[float, float]:
        """Interpolated latitude and a local bracket half-width."""
        n = self.azimuths.size
        i = int(np.searchsorted(self.azimuths, azimuth, side="right")) - 1
        i = min(max(i, 0), n - 2)
        j = i + 1
        a_i, a_j = float(self.azimuths[i]), float(self.azimuths[j])
        frac = min(max((azimuth - a_i) / (a_j - a_i), 0.0), 1.0)
        li, lj = float(self.latitudes[i]), float(self.latitudes[j])
        hint = li + (lj - li) * frac
        k = max(i - 1, 0)
        m = min(j + 1, n - 1)
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
            # warm bracketing failed; fall back to the certified scan
            return ring_point(self.sphere, self.terrain, azimuth)
        lam = bracketed_root(height_gap, lo, hi, f_lo=g_lo, f_hi=g_hi)
        cl = math.cos(lam)
        point = np.array([ox + r * cl * cphi, oy + r * cl * sphi, oz + r * math.sin(lam)])
        return point, lam


def check_step(step: float) -> None:
    """Raise DomainError unless the sample step is finite, positive and at
    least _MIN_STEP."""
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"trace step must be positive, got {step}")
    if step < _MIN_STEP:
        raise DomainError(f"trace step {math.degrees(step):.4g} deg is below the floor "
                          f"of {math.degrees(_MIN_STEP):.4g} deg (pi/2^18 rad)")


def _double_point(azimuth: float, count: int) -> str:
    return (f"curve crosses the half-plane at azimuth "
            f"{math.degrees(azimuth):.4f} deg {count} times; "
            f"no-double-point condition violated")


def _band_crossings(sphere: Sphere, terrain, azimuths, band: _AngleGrid):
    """The curve point and latitude at each azimuth, and each azimuth's
    number of crossings: the vertical half-circles about the sphere center,
    scanned over the latitude band. Raise GeometryViolation when a
    half-circle does not straddle the ground inside the band."""
    counts = []

    def certify(flips: _SignChanges):
        if np.any(flips.gap(0) >= 0.0) or np.any(flips.gap(-1) <= 0.0):
            if band.ts[-1] < math.pi / 2.0 - 1e-9:
                msg = (f"curve latitude leaves the scan band of "
                       f"{math.degrees(band.ts[-1]):.4f} deg; latitude bound breached")
            else:
                msg = "sphere does not straddle the ground over the traced azimuths"
            raise GeometryViolation(msg)
        counts.append(flips.counts())
        return flips.first(), {}

    points, lams, _ = _vertical_half_circles(terrain, sphere.center, azimuths,
                                             sphere.radius, band, certify)
    return points, lams, np.concatenate(counts)


def trace_ring(sphere: Sphere, terrain, azimuths, chord_length: float,
               enforce: bool = True) -> GroundRing:
    """Trace the curve at the given azimuths (vectorized).

    The azimuths must be finite and strictly increasing, at least two, and
    no two neighbours may lie farther apart than keeps 100 samples per
    chord of chord_length. The trace gates no slope: its caller keeps the
    terrain's slope bound below 30 deg, where the curve is an azimuth
    graph. Every azimuth must cross the ground once in the latitude band,
    every traced latitude must stay strictly inside twice the terrain slope
    bound, and neighbouring points must lie within the spacing the slope
    allows (each breach raises ConditionViolation, or is recorded as a
    warning when enforce is False).
    """
    phis = np.array(azimuths, dtype=float)
    gaps = np.diff(phis)
    if not (phis.ndim == 1 and phis.size >= 2 and np.isfinite(phis).all()
            and (gaps > 0.0).all()):
        raise DomainError("trace azimuths must be at least two finite, strictly "
                          "increasing values")
    slope = terrain.slope_bound
    warnings: list[str] = []

    def breach(msg: str) -> None:
        if enforce:
            raise ConditionViolation(msg)
        warnings.append(msg)

    widest = float(gaps.max())
    cap = 2.0 * math.asin(chord_length / (200.0 * sphere.radius))
    if widest > cap * (1.0 + 1e-9):
        raise DomainError(
            f"azimuth spacing {math.degrees(widest):.4f} deg exceeds the "
            f"100-samples-per-chord cap {math.degrees(cap):.4f} deg"
        )

    # crossings live inside |lat| < 2 * slope; scan a padded band at the
    # spec'd 1-degree resolution and pin the band edges to the pole signs
    band = min(math.pi / 2.0, max(2.0 * slope + math.radians(5.0), math.radians(10.0)))
    n_lam = max(int(math.ceil(2.0 * band / _DEG)) + 1, 11)
    grid = _angle_grid(np.linspace(-band, band, n_lam))
    pts, lams, counts = _band_crossings(sphere, terrain, phis, grid)
    if np.any(counts != 1):
        bad = int(np.argmax(counts != 1))
        breach(_double_point(float(phis[bad]), int(counts[bad])))

    worst_lat = float(np.max(np.abs(lams)))
    latitude_bound = 2.0 * slope
    # flat ground degenerates to latitude == bound == 0; only a real excess counts
    if worst_lat >= latitude_bound and worst_lat > 1e-12:
        breach(f"traced latitude {math.degrees(worst_lat):.4f} deg reaches the "
               f"bound {math.degrees(latitude_bound):.4f} deg (twice the slope)")
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
    cap = 2.0 * sphere.radius * math.sin(widest / 2.0) * speed_factor * (1.0 + 1e-3)
    if spacing > cap:
        breach(f"adjacent trace points spaced {spacing:.3e}, cap {cap:.3e}")

    return GroundRing(sphere=sphere, terrain=terrain, step=widest,
                      azimuths=phis, latitudes=lams, points=pts,
                      latitude_bound=latitude_bound, band=grid, enforce=enforce,
                      warnings=warnings)


def chord_advance(ring: GroundRing, from_point: np.ndarray, from_azimuth: float,
                  chord: float, hint_azimuth: float):
    """Next curve point at straight-line distance `chord`, ahead in azimuth.

    The root is isolated in a bracket of width at most 4 steps around the
    hint, probed at five evenly spaced azimuths: no crossing there means the
    motion is blocked, more than one sign change among the probes means the
    uniqueness-by-continuity assumption failed. Brent's method then refines
    the one probe cell that holds the sign change. Returns (point, azimuth,
    latitude).
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
            f"(slope <= {_SLOPES.monotone_march_deg:.2f} deg) may be violated"
        )
    probes = [lo, *np.linspace(lo, hi, 5)[1:4].tolist(), hi]
    vals = [g_lo, *(gap(phi) for phi in probes[1:4]), g_hi]
    cells = [j for j in range(4) if (vals[j] > 0.0) != (vals[j + 1] > 0.0)]
    if len(cells) != 1:
        raise ConditionViolation(
            "multiple chord roots detected in the continuation bracket; "
            "uniqueness-by-continuity failed"
        )
    j = cells[0]
    phi2 = bracketed_root(gap, probes[j], probes[j + 1], f_lo=vals[j], f_hi=vals[j + 1])
    if phi2 <= from_azimuth:
        raise BlockedMotion("chord advance did not move forward in azimuth")
    point, lam = solved[phi2]
    return point, phi2, lam


def _circle_points(coef, radius: float, cos_t, sin_t):
    """x, y, z of center + radius (cos t e_cos + sin t e_sin), where coef
    holds each row's center, e_cos and e_sin as rows 0-2, 3-5 and 6-8 and
    broadcasts against cos_t and sin_t."""
    points = []
    tmp = None
    for i in range(3):
        p = cos_t * coef[3 + i]
        tmp = np.multiply(sin_t, coef[6 + i], out=tmp)
        p += tmp
        p *= radius
        p += coef[i]
        points.append(p)
    return tuple(points)


@dataclass
class _SignChanges:
    """A block's sign changes: one entry per grid cell whose two ends' gaps
    differ in sign, sorted by (row, cell), with the gaps `lo` and `hi` at
    the cell's two ends; and every row's `gaps` at the coarse nodes, every
    _COARSE-th grid node and the last one."""

    rows: np.ndarray
    cells: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    gaps: np.ndarray

    def counts(self) -> np.ndarray:
        """Each row's number of sign changes."""
        return np.bincount(self.rows, minlength=len(self.gaps))

    def first(self, cells: np.ndarray | None = None) -> np.ndarray:
        """Each row's first sign change, as its position in the list, among
        the grid cells where `cells` is True if given; -1 for none."""
        at = (np.arange(self.rows.size) if cells is None
              else np.flatnonzero(cells[self.cells]))
        rows = self.rows[at]
        lead = np.ones(rows.size, dtype=bool)
        lead[1:] = rows[1:] != rows[:-1]
        first = np.full(len(self.gaps), -1)
        first[rows[lead]] = at[lead]
        return first

    def gap(self, node: int) -> np.ndarray:
        """Every row's gap at a grid node that is a multiple of _COARSE, or
        at the last node (-1)."""
        return self.gaps[:, node // _COARSE]


def _settled_scan(terrain, coef, radius: float, grid: _AngleGrid) -> _SignChanges:
    """One block's sign changes on the angle grid, evaluating the inner
    nodes only of the coarse cells that can hold one (see the module
    docstring)."""
    coarse = grid.coarse
    x, y, z = _circle_points(coef[:, :, None], radius, grid.cos[coarse], grid.sin[coarse])
    g = z - terrain.height(x, y)
    # a circle may leave the extent between coarse nodes, at nodes that a
    # settled cell never queries: check every grid node of each row whose
    # circle's bounding box leaves the extent
    ext = terrain.extent
    half_x = radius * np.hypot(coef[3], coef[6])
    half_y = radius * np.hypot(coef[4], coef[7])
    out = ((coef[0] - half_x < ext.xmin) | (coef[0] + half_x > ext.xmax)
           | (coef[1] - half_y < ext.ymin) | (coef[1] + half_y > ext.ymax))
    if out.any():
        ext.require_inside(*_circle_points(coef[:, out, None], radius, grid.cos, grid.sin)[:2])
    # |g'(t)| <= |dz/dt| + |grad f| |d(x, y)/dt| <= radius sqrt(1 + G^2)
    grad = terrain.gradient_bound(coef[0], coef[1], radius * (1.0 + _ROUNDING))
    lip = radius * np.sqrt(1.0 + grad * grad) * (1.0 + _ROUNDING)
    # four times a bound of a computed gap's rounding error
    scale = np.maximum(np.maximum(np.abs(coef[0]), np.abs(coef[1])), np.abs(coef[2])) + radius
    slack = 4.0 * (_ROUNDING * (1.0 + scale) * (1.0 + grad) + terrain.height_rounding())
    positive = g > 0.0
    size = np.abs(g)
    rows, cells = np.nonzero(
        (positive[:, :-1] != positive[:, 1:])
        | ~(size[:, :-1] + size[:, 1:] > lip[:, None] * grid.widths + slack[:, None]))
    # each open cell's gaps at its two ends and its inner nodes
    vals = np.empty((rows.size, _COARSE + 1))
    vals[:, 0] = g[rows, cells]
    vals[:, -1] = g[rows, cells + 1]
    if rows.size:
        nodes = grid.inner[cells]
        x, y, z = _circle_points(coef[:, rows, None], radius, grid.cos[nodes], grid.sin[nodes])
        vals[:, 1:-1] = z - terrain.height(x, y)
    signs = vals > 0.0
    k, j = np.nonzero(signs[:, :-1] != signs[:, 1:])
    return _SignChanges(rows[k], coarse[cells[k]] + j, vals[k, j], vals[k, j + 1], g)


def _solve_circles(terrain, coef, radius: float, grid: _AngleGrid, certify):
    """Ground crossing of the circle center + radius (cos t e_cos +
    sin t e_sin) of every row, with t in [grid.ts[0], grid.ts[-1]]; coef
    holds the rows' centers, e_cos and e_sin as its rows 0-2, 3-5 and 6-8.

    Runs `_settled_scan` once per block of _BLOCK_ROWS rows;
    certify(flips) checks each block's rows on its `_SignChanges` and
    returns (picks, errors): the position in the list of the sign change
    holding each row's crossing, and the rows that fail with their errors.
    All certified crossings are then refined together. Returns (points,
    angles, errors); a failed row's point and angle are NaN. Errors from
    the terrain's height queries (see the module docstring for their
    order), and a NaN during refinement, propagate for all rows.
    """
    n = coef.shape[1]
    cells = np.zeros(n, dtype=int)
    f_lo, f_hi = np.full(n, np.nan), np.full(n, np.nan)
    errors: dict[int, WobbleError] = {}

    for start in range(0, n, _BLOCK_ROWS):
        flips = _settled_scan(terrain, coef[:, start:start + _BLOCK_ROWS], radius, grid)
        picks, failed = certify(flips)
        rows = np.flatnonzero(picks >= 0)
        at = picks[rows]
        rows += start
        cells[rows], f_lo[rows], f_hi[rows] = flips.cells[at], flips.lo[at], flips.hi[at]
        errors.update((start + j, exc) for j, exc in failed.items())
    good = np.ones(n, dtype=bool)
    good[list(errors)] = False
    good = np.flatnonzero(good)
    coef_good = coef[:, good]

    def gap(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        x, y, z = _circle_points(coef_good[:, rows], radius, np.cos(t), np.sin(t))
        return z - terrain.height(x, y)

    angles = np.full(n, np.nan)
    c = cells[good]
    angles[good] = bracketed_roots(gap, grid.ts[c], grid.ts[c + 1], f_lo[good], f_hi[good])
    x, y, z = _circle_points(coef, radius, np.cos(angles), np.sin(angles))
    return np.column_stack([x, y, z]), angles, errors


def _vertical_half_circles(terrain, centers, azimuths, radius: float,
                           grid: _AngleGrid, certify):
    """`_solve_circles` for the vertical half-circles of `radius` about each
    row's center in the half-plane at azimuths[k]: the angle is the
    elevation above the horizontal."""
    psi = np.asarray(azimuths, dtype=float)
    coef = np.zeros((9, psi.size))
    coef[:3] = np.asarray(centers, dtype=float).T.reshape(3, -1)
    coef[3], coef[4], coef[8] = np.cos(psi), np.sin(psi), 1.0
    return _solve_circles(terrain, coef, radius, grid, certify)


def circle_crossings(centers, axes, radius: float,
                     terrain) -> tuple[np.ndarray, dict[int, WobbleError]]:
    """Where each row's circle about axes[k] through centers[k] meets the
    ground left of the axis direction seen from above: (points, errors by
    row). Rows are independent.

    The circle's top and bottom lie in the vertical plane containing the
    axis; each side of that plane holds exactly one ground crossing when the
    slope stays below 35.264 deg. The crossing returned has (point - center)
    . (z x axis) > 0; the one on the right is the left crossing about -axis.
    A row's certificates, checked on its 1-degree scan in this order: the
    axis is not vertical, the circle crosses the ground at most twice and at
    least once, its top is above the ground, and a crossing lies left of the
    axis.
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
    level = h_norm >= 1e-12
    for k in np.flatnonzero(~level):
        errors[int(k)] = (DomainError("cannot normalize a zero vector")
                          if length[k] == 0.0 else
                          DomainError("circle axis is vertical; side selection undefined"))

    def certify(flips: _SignChanges):
        counts = flips.counts()
        first = flips.first(_CIRCLE_LEFT)
        top = flips.gap(_CIRCLE_TOP)
        failed = {}
        for k in np.flatnonzero((counts == 0) | (counts > 2) | (top <= 0.0) | (first < 0)):
            if counts[k] == 0:
                failed[int(k)] = GeometryViolation("circle does not cross the ground at all")
            elif counts[k] > 2:
                failed[int(k)] = ConditionViolation(
                    f"circle crosses the ground {int(counts[k])} times; exactly 2 "
                    f"are guaranteed only below {_SLOPES.legs_clear_deg:.3f} deg slope")
            elif top[k] <= 0.0:
                failed[int(k)] = GeometryViolation(
                    "top of the foot circle is not above the ground; slope "
                    "condition violated")
            else:
                failed[int(k)] = GeometryViolation(
                    "no ground crossing left of the axis")
        return first, failed

    points = np.full((n, 3), np.nan)
    ok = np.flatnonzero(level)
    coef = np.empty((9, ok.size))
    coef[:3], coef[3:6], coef[6:] = c[ok].T, e_v[ok].T, e_h[ok].T
    pts, _, failed = _solve_circles(terrain, coef, radius, _CIRCLE, certify)
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
    def certify(flips: _SignChanges):
        counts = flips.counts()
        straddles = (flips.gap(-1) > 0.0) & (flips.gap(0) < 0.0)
        failed = {}
        for k in np.flatnonzero(~straddles | (counts != 1)):
            if not straddles[k]:
                failed[int(k)] = GeometryViolation(
                    "vertical foot circle does not straddle the ground")
            else:
                failed[int(k)] = ConditionViolation(
                    f"vertical half-circle crosses the ground {int(counts[k])} "
                    f"times; uniqueness needs slope below "
                    f"{_SLOPES.half_circle_unique_deg:.0f} deg")
        return flips.first(), failed

    return _vertical_half_circles(terrain, centers, azimuths, radius, _HALF, certify)


def circle_surface_intersection(center: np.ndarray, axis_dir: np.ndarray,
                                radius: float, terrain) -> np.ndarray:
    """Where the circle about `axis_dir` through `center` meets the ground
    left of the axis direction seen from above: the one-row call of
    `circle_crossings`. It gates no slope; its scan's certificates refuse a
    row they do not hold for.
    """
    points, errors = circle_crossings(np.asarray(center, dtype=float)[None, :],
                                      np.asarray(axis_dir, dtype=float)[None, :],
                                      radius, terrain)
    if errors:
        raise errors[0]
    return points[0]
