"""Full-turn height scans for circle-footed tables.

Hold the table horizontal, spin it through a full turn about the circle
center, and record each foot's height over the ground. Every foot rides the
same circle, so the four height functions are shifts of one another and
share the same full-turn integral. The weighted combination pinned by the
diagonal crossing ratios then integrates to zero, and each of its roots
marks an angle where the four surface contact points turn coplanar: an
approximate rest placement. Also here: the large-sphere scan showing that
non-concyclic feet admit no such placement on a sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contact import TableSpec
from .errors import DomainError
from .geometry import diagonal_intersection_ratios
from .roots import bracketed_root
from .terrain import Extent, UncertifiedBounds, check_target_slope

_TWO_PI = 2.0 * math.pi
# half-width of the cap fit's grid of center offsets, as a fraction of the
# feet's extent
_CAP_CENTER_RANGE = 0.5


@dataclass(frozen=True)
class HeightScan:
    """Foot heights h_i(theta) on a uniform full-turn grid.

    Heights are measured as z0 minus the ground height under each foot; the
    reference height z0 cancels from every quantity of interest. When
    height_funcs is set (testing hook) it overrides the terrain lookup.
    """

    table: TableSpec
    terrain: object
    center: tuple[float, float]
    z0: float
    thetas: np.ndarray
    heights: np.ndarray          # shape (4, N)
    alpha: float
    beta: float
    height_funcs: tuple | None = None

    @property
    def n(self) -> int:
        return self.thetas.size

    def foot_xy(self, theta, index: int):
        rho, angles = self.table.as_circle
        a = angles[index]
        return (self.center[0] + rho * np.cos(theta + a),
                self.center[1] + rho * np.sin(theta + a))

    def heights_at(self, theta):
        """Continuous h_i(theta) for refinement; vectorized over theta."""
        if self.height_funcs is not None:
            return np.array([f(theta) for f in self.height_funcs])
        out = []
        for i in range(4):
            x, y = self.foot_xy(theta, i)
            out.append(self.z0 - self.terrain.height(x, y))
        return np.array(out)

    def g_at(self, theta):
        h = self.heights_at(theta)
        return ((1.0 - self.alpha) * h[0] + self.alpha * h[2]
                - (1.0 - self.beta) * h[1] - self.beta * h[3])

    @property
    def g_values(self) -> np.ndarray:
        h = self.heights
        return ((1.0 - self.alpha) * h[0] + self.alpha * h[2]
                - (1.0 - self.beta) * h[1] - self.beta * h[3])

    def integrals(self) -> np.ndarray:
        """Full-turn trapezoid integral of each foot's height (periodic grid)."""
        return self.heights.mean(axis=1) * _TWO_PI

    def integral_of_g(self) -> float:
        return float(self.g_values.mean() * _TWO_PI)


def height_scan(table: TableSpec, terrain, center=(0.0, 0.0), n: int = 4096,
                z0: float = 0.0) -> HeightScan:
    """Scan all four foot heights over a uniform theta grid of size n."""
    if n < 256 or (n & (n - 1)) != 0:
        raise DomainError(f"scan size must be a power of two >= 256, got {n}")
    rho, angles = table.as_circle
    cx, cy = float(center[0]), float(center[1])
    if not terrain.extent.contains_disc(cx, cy, rho):
        raise DomainError(
            f"foot circle of radius {rho} at ({cx}, {cy}) leaves the terrain extent"
        )
    alpha, beta = diagonal_intersection_ratios(*angles)
    thetas = _TWO_PI * np.arange(n) / n
    heights = np.empty((4, n))
    for i, a in enumerate(angles):
        x = cx + rho * np.cos(thetas + a)
        y = cy + rho * np.sin(thetas + a)
        heights[i] = z0 - terrain.height(x, y)
    return HeightScan(table=table, terrain=terrain, center=(cx, cy), z0=z0,
                      thetas=thetas, heights=heights, alpha=alpha, beta=beta)


def integral_equality_residual(scan: HeightScan) -> float:
    """Spread of the four full-turn integrals, relative to their size plus
    the table scale. All four must agree: a full turn sweeps every foot over
    the same circle."""
    ints = scan.integrals()
    spread = float(np.max(ints) - np.min(ints))
    return spread / (float(np.mean(np.abs(ints))) + scan.table.char_length)


@dataclass(frozen=True)
class BalanceAngles:
    roots: tuple[float, ...]
    slopes: tuple[int, ...]             # sign of dg/dtheta at each root
    degenerate: bool                    # g vanishes identically
    tangential: tuple[float, ...] = ()  # near-zero grid angles without a crossing


def find_balance_angles(scan: HeightScan) -> BalanceAngles:
    """All transversal roots of g over a full turn, each refined to 1e-12
    with Brent's method inside the grid cell where g changes sign.

    A continuous periodic function with zero mean either vanishes
    identically (degenerate: the table rests at every angle) or crosses zero
    an even number of times, at least twice.
    """
    g = scan.g_values
    scale = scan.table.char_length
    if float(np.max(np.abs(g))) <= 1e-10 * scale:
        return BalanceAngles(roots=(), slopes=(), degenerate=True)
    thetas = scan.thetas
    n = scan.n
    step = _TWO_PI / n
    roots = []
    slopes = []
    tangential = []
    touch_tol = 1e-10 * scale
    for i in range(n):
        a = float(g[i])
        b = float(g[(i + 1) % n])
        if a == 0.0:
            roots.append(float(thetas[i]))
            slopes.append(1 if b > 0 else -1)
            continue
        if a * b < 0.0:
            lo = float(thetas[i])
            # the grid signs certify the cell
            root = bracketed_root(lambda t: float(scan.g_at(t)), lo, lo + step,
                                  f_lo=a, f_hi=b)
            roots.append(root % _TWO_PI)
            slopes.append(1 if a < 0.0 else -1)
        elif abs(a) < touch_tol:
            tangential.append(float(thetas[i]))
    return BalanceAngles(roots=tuple(roots), slopes=tuple(slopes),
                         degenerate=False, tangential=tuple(tangential))


@dataclass(frozen=True)
class RestCandidate:
    theta: float
    surface_points: np.ndarray          # (4,3) contact points on the ground
    coplanarity_residual: float
    distortion: float
    fit_height_error: float             # max |h_i| after the best rigid fit


def _best_rigid_fit(body: np.ndarray, target: np.ndarray):
    """Least-squares rigid motion (Kabsch) taking body points onto target."""
    bc = body - body.mean(axis=0)
    tc = target - target.mean(axis=0)
    h = bc.T @ tc
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    corr = np.diag([1.0, 1.0, d])
    rot = vt.T @ corr @ u.T
    fitted = (rot @ bc.T).T + target.mean(axis=0)
    return fitted


def approximate_equilibrium(table: TableSpec, terrain, center,
                            theta_bar: float, z0: float = 0.0) -> RestCandidate:
    """Surface contact points at a balance angle, with their coplanarity
    residual and the shape distortion relative to the rigid table."""
    rho, angles = table.as_circle
    alpha, beta = diagonal_intersection_ratios(*angles)
    scale = table.char_length
    cx, cy = float(center[0]), float(center[1])
    q = np.empty((4, 3))
    for i, a in enumerate(angles):
        x = cx + rho * math.cos(theta_bar + a)
        y = cy + rho * math.sin(theta_bar + a)
        q[i] = (x, y, terrain.height(x, y))
    h = z0 - q[:, 2]
    g = ((1.0 - alpha) * h[0] + alpha * h[2]
         - (1.0 - beta) * h[1] - beta * h[3])
    tol = 1e-9 * scale
    if abs(g) > tol:
        raise DomainError(
            f"theta = {math.degrees(theta_bar):.4f} deg is not a balance angle "
            f"(|g| = {abs(g):.3e} > {tol:.1e})"
        )
    combo = ((1.0 - alpha) * q[0] + alpha * q[2]
             - (1.0 - beta) * q[1] - beta * q[3])
    coplanarity = float(np.linalg.norm(combo))
    ref = table.reference_distances()
    dq = q[:, None, :] - q[None, :, :]
    dist = np.sqrt((dq * dq).sum(axis=-1))
    distortion = float(np.max(np.abs(dist - ref))) / scale
    fitted = _best_rigid_fit(table.body_points(), q)
    errs = [abs(float(p[2]) - terrain.height(float(p[0]), float(p[1]))) for p in fitted]
    return RestCandidate(theta=float(theta_bar), surface_points=q,
                         coplanarity_residual=coplanarity,
                         distortion=distortion,
                         fit_height_error=float(max(errs)))


@dataclass(frozen=True)
class ScalingLevel:
    target_slope: float
    measured_slope: float
    theta_bar: float | None
    distortion: float | None
    fit_height_error: float | None
    note: str = ""


@dataclass(frozen=True)
class ScalingStudy:
    levels: tuple[ScalingLevel, ...]
    distortion_exponent: float
    distortion_fit_residual: float
    height_exponent: float
    height_fit_residual: float
    reference_exponent: float = 3.0     # cubic-order reference claim


def check_slope_levels(slope_levels) -> None:
    """Raise DomainError unless every slope level (radians) is in [0, pi/2):
    past 90 deg the tangent that scales the bumps turns negative."""
    for level in slope_levels:
        check_target_slope(float(level))


def distortion_scaling_study(table: TableSpec, terrain, slope_levels,
                             center=(0.0, 0.0), n: int = 4096) -> ScalingStudy:
    """Rescale one bump layout to each target slope, find a balance angle,
    and fit log(distortion) against log(slope). The height error of the best
    rigid fit gets its own exponent; both are reported next to the
    cubic-order reference without asserting it."""
    from .terrain import BumpTerrain

    levels = [float(s) for s in slope_levels]
    check_slope_levels(levels)
    if len(levels) < 3:
        raise DomainError(f"need at least 3 slope levels, got {len(levels)}")
    if not isinstance(terrain, BumpTerrain) or not terrain.bumps:
        raise DomainError("the scaling study needs a bump terrain with bumps")
    base_slope = terrain.slope_bound
    out = []
    for target in levels:
        if target <= 0.0:
            out.append(ScalingLevel(target, 0.0, None, None, None,
                                    note="flat level excluded"))
            continue
        s = math.tan(target) / math.tan(base_slope)
        scaled = BumpTerrain(
            [(b.cx, b.cy, b.amplitude * s, b.sigma) for b in terrain.bumps],
            terrain.extent)
        measured = scaled.slope_bound
        scan = height_scan(table, scaled, center, n)
        found = find_balance_angles(scan)
        if found.degenerate or not found.roots:
            out.append(ScalingLevel(target, measured, None, None, None,
                                    note="no balance angle"))
            continue
        cand = approximate_equilibrium(table, scaled, center, found.roots[0])
        out.append(ScalingLevel(target, measured, cand.theta,
                                cand.distortion, cand.fit_height_error))
    usable = [lv for lv in out if lv.distortion and lv.distortion > 0.0]
    if len(usable) < 3:
        raise DomainError(
            f"only {len(usable)} usable levels; the fit needs at least 3"
        )

    def fit(values):
        xs = np.log([lv.measured_slope for lv in usable])
        ys = np.log(values)
        coef = np.polyfit(xs, ys, 1)
        resid = ys - np.polyval(coef, xs)
        return float(coef[0]), float(np.sqrt(np.mean(resid * resid)))

    d_exp, d_res = fit([lv.distortion for lv in usable])
    h_exp, h_res = fit([max(lv.fit_height_error, 1e-300) for lv in usable])
    return ScalingStudy(levels=tuple(out), distortion_exponent=d_exp,
                        distortion_fit_residual=d_res,
                        height_exponent=h_exp, height_fit_residual=h_res)


class SphericalCapGround(UncertifiedBounds):
    """Analytic piece of a very large sphere, bulging upward, apex at the
    origin. Satisfies the terrain evaluation protocol; its bounds are the
    uncertified +inf ones."""

    kind = "cap"

    def __init__(self, radius: float, extent: Extent | None = None):
        if radius <= 0:
            raise DomainError(f"cap radius must be positive, got {radius}")
        self.radius = float(radius)
        half = 0.5 * self.radius
        self.extent = extent or Extent(-half, half, -half, half)
        self.sphere_center = np.array([0.0, 0.0, -self.radius])
        corner = math.hypot(max(abs(self.extent.xmin), abs(self.extent.xmax)),
                            max(abs(self.extent.ymin), abs(self.extent.ymax)))
        if corner >= self.radius:
            raise DomainError("extent reaches past the cap's equator")
        self._slope_cache = math.asin(corner / self.radius)

    def height(self, x, y):
        r = self.radius
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            self.extent.require_inside(x, y)
            return np.sqrt(r * r - np.square(x) - np.square(y)) - r
        e = self.extent
        if not (e.xmin <= x <= e.xmax and e.ymin <= y <= e.ymax):
            e.require_inside(x, y)
        return math.sqrt(r * r - x * x - y * y) - r

    def gradient(self, x, y):
        r = self.radius
        scalar = not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray))
        self.extent.require_inside(x, y)
        root = np.sqrt(r * r - np.square(np.asarray(x, float))
                       - np.square(np.asarray(y, float)))
        gx = -np.asarray(x, float) / root
        gy = -np.asarray(y, float) / root
        if scalar:
            return float(gx), float(gy)
        return gx, gy

    @property
    def slope_bound(self) -> float:
        return self._slope_cache


def concyclicity_defect(points_xy: np.ndarray) -> float:
    """Max deviation of four planar points from their best-fit circle."""
    # imported here, not at module level: scipy.optimize adds ~50 MB of
    # resident memory, and only the sphere-cap fits use it
    from scipy.optimize import least_squares

    p = np.asarray(points_xy, dtype=float)
    if p.shape != (4, 2):
        raise DomainError(f"need four planar points, got shape {p.shape}")
    # linear (Kasa) start, then geometric refinement
    a = np.column_stack([2.0 * p[:, 0], 2.0 * p[:, 1], np.ones(4)])
    b = (p * p).sum(axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy = sol[0], sol[1]
    r = math.sqrt(max(sol[2] + cx * cx + cy * cy, 0.0))

    def residuals(v):
        d = np.sqrt((p[:, 0] - v[0]) ** 2 + (p[:, 1] - v[1]) ** 2)
        return d - v[2]

    fit = least_squares(residuals, x0=[cx, cy, r], method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return float(np.max(np.abs(residuals(fit.x))))


@dataclass(frozen=True)
class CapFitReport:
    defect: float
    min_residual: float                  # best max-|on-sphere residual| over the scan
    best_theta: float
    best_center: tuple[float, float]
    placements: int
    cap_radius: float


def sphere_cap_fit_scan(feet_xy: np.ndarray, cap: SphericalCapGround,
                        theta_steps: int = 24, center_steps: int = 3) -> CapFitReport:
    """Scan rigid placements of a planar foot quadrilateral against the cap.

    For each horizontal placement (turn angle x center offset) the height and
    two tilts are optimized to fit all four feet onto the cap's sphere; the
    reported figure is the smallest max-|distance-to-sphere minus radius|
    seen. Concyclic feet reach machine zero; non-concyclic feet stay bounded
    away from it.
    """
    from scipy.optimize import least_squares

    p = np.asarray(feet_xy, dtype=float)
    if p.shape != (4, 2):
        raise DomainError(f"need four planar feet, got shape {p.shape}")
    body = np.column_stack([p, np.zeros(4)])
    body = body - body.mean(axis=0)
    defect = concyclicity_defect(p)
    c_sphere = cap.sphere_center
    r_sphere = cap.radius
    scale = float(np.max(np.abs(body))) or 1.0

    def placed(theta, cx, cy, z0, tx, ty):
        cz, sz = math.cos(theta), math.sin(theta)
        rot_z = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
        cxt, sxt = math.cos(tx), math.sin(tx)
        rot_x = np.array([[1.0, 0.0, 0.0], [0.0, cxt, -sxt], [0.0, sxt, cxt]])
        cyt, syt = math.cos(ty), math.sin(ty)
        rot_y = np.array([[cyt, 0.0, syt], [0.0, 1.0, 0.0], [-syt, 0.0, cyt]])
        q = body @ (rot_x @ rot_y @ rot_z).T
        q[:, 0] += cx
        q[:, 1] += cy
        q[:, 2] += z0
        return q

    best = math.inf
    best_theta = 0.0
    best_center = (0.0, 0.0)
    offsets = np.linspace(-_CAP_CENTER_RANGE * scale, _CAP_CENTER_RANGE * scale,
                          center_steps)
    thetas = _TWO_PI * np.arange(theta_steps) / theta_steps
    count = 0
    for theta in thetas:
        for cx in offsets:
            for cy in offsets:
                count += 1

                def residuals(v):
                    q = placed(theta, cx, cy, v[0], v[1], v[2])
                    d = q - c_sphere
                    return np.sqrt((d * d).sum(axis=1)) - r_sphere

                z_guess = cap.height(float(cx), float(cy))
                fit = least_squares(residuals, x0=[z_guess, 0.0, 0.0],
                                    method="lm", xtol=1e-15, ftol=1e-15,
                                    gtol=1e-15, max_nfev=400)
                worst = float(np.max(np.abs(residuals(fit.x))))
                if worst < best:
                    best = worst
                    best_theta = float(theta)
                    best_center = (float(cx), float(cy))
    return CapFitReport(defect=defect, min_residual=best, best_theta=best_theta,
                        best_center=best_center, placements=count,
                        cap_radius=r_sphere)
