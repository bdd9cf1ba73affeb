"""Full-turn height scans for circle-footed tables.

Hold the table horizontal, spin it through a full turn about the circle
center, and record each foot's height over the ground. Every foot rides the
same circle, so the four height functions are shifts of one another and
share the same full-turn integral. The weighted combination pinned by the
diagonal crossing ratios then integrates to zero, and each of its roots
marks an angle where the four surface contact points turn coplanar: an
approximate rest placement. The roots are the sign changes of the scanned
combination, refined together by roots.bracketed_roots.

The scan uses the shift on its grid of n angles 2 pi k / n. A foot whose
angle lies a whole number s of grid steps from an earlier foot's, to within
1e-13 rad, joins that foot's class and reads its row rolled by s; the
terrain evaluates one row per class. The square table has one class, since
its quarter turns are n/4 steps, and the half-hexagon (0, 60, 120 and
180 deg) three.

Also here: the large-sphere scan showing that non-concyclic feet admit no
such placement on a sphere, every placement fitted in one batched
Levenberg-Marquardt call with closed-form Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contact import TableSpec
from .errors import DomainError
from .roots import bracketed_roots
from .terrain import BumpTerrain, Extent, UncertifiedBounds, check_target_slope

_TWO_PI = 2.0 * math.pi
# two feet share a scan row when their angles differ by a whole number of
# grid steps to within this many radians: a fixed tolerance, far below any
# grid step (2 pi / 2^18 = 2.4e-5) and above the rounding of a_i - a_r
_SHARED_ROW_TOL = 1e-13
# largest scan: `wobble scan --n 2^18` peaks at 100 MB on a 20-bump terrain.
# On a 321 x 321 grid, whose height call gathers 16 (rows, n) arrays, it
# peaks at 107 MB for the square (one shared row), 245 MB for the
# half-hexagon (three rows) and 313 MB for four feet that share no row
_MAX_SCAN = 1 << 18
# half-width of the cap fit's grid of center offsets, as a fraction of the
# feet's extent
_CAP_CENTER_RANGE = 0.5
# the cap fits' Levenberg-Marquardt: step cap, relative step that stops a row
_LM_MAX_ITER = 400
_LM_XTOL = 1e-15
# largest cap scan, fitted in one batch: 2^16 placements peak at 117 MB in 1.5 s
_MAX_PLACEMENTS = 1 << 16
# relative size, in units of the feet's extent about their centroid, below
# which two feet coincide or the circle fit's linear (Kasa) design matrix
# has rank < 3 (collinear feet): then no best-fit circle exists
_DEGENERATE_FEET = 1e-9


def _balance_combination(v, alpha: float, beta: float):
    """(1 - alpha) v[0] + alpha v[2] - (1 - beta) v[1] - beta v[3]: the
    weights that the diagonal crossing ratios pin, applied to the feet's
    heights (the balance function g) or to their points."""
    return ((1.0 - alpha) * v[0] + alpha * v[2]
            - (1.0 - beta) * v[1] - beta * v[3])


@dataclass(frozen=True)
class HeightScan:
    """Foot heights h_i(theta) on a uniform full-turn grid.

    A foot's height is minus the ground height under it, for the table held
    level at height zero: a common height would cancel from every quantity
    of interest.
    """

    table: TableSpec
    terrain: object
    center: tuple[float, float]
    thetas: np.ndarray
    heights: np.ndarray          # shape (4, N)
    alpha: float
    beta: float

    @property
    def n(self) -> int:
        return self.thetas.size

    def heights_at(self, theta):
        """Continuous h_i(theta), shape (4,) + theta's; vectorized over theta."""
        rho, angles = self.table.as_circle
        cx, cy = self.center
        # all four feet in one terrain call: every step is elementwise, so
        # each foot's heights are those of a call on its own
        t = np.add.outer(angles, theta)
        # 0.0 - h keeps level ground at +0.0
        return 0.0 - self.terrain.height(cx + rho * np.cos(t), cy + rho * np.sin(t))

    def g_at(self, theta):
        return _balance_combination(self.heights_at(theta), self.alpha, self.beta)

    @property
    def g_values(self) -> np.ndarray:
        return _balance_combination(self.heights, self.alpha, self.beta)

    def integrals(self) -> np.ndarray:
        """Full-turn trapezoid integral of each foot's height (periodic grid)."""
        return self.heights.mean(axis=1) * _TWO_PI

    def integral_of_g(self) -> float:
        return float(self.g_values.mean() * _TWO_PI)


def _shared_rows(angles, n: int):
    """The scan's classes of feet: (representatives, [(class, shift)] per
    foot). Foot i joins the class of the first earlier representative r
    with a_i - a_r = s * 2 pi / n, s whole, to within _SHARED_ROW_TOL rad;
    otherwise it starts a class of its own, with shift 0."""
    step = _TWO_PI / n
    reps, members = [], []
    for a in angles:
        for c, r in enumerate(reps):
            s = np.rint((a - r) / step)
            # False for a non-finite angle, which then starts its own class
            if abs(a - r - s * step) <= _SHARED_ROW_TOL:
                members.append((c, int(s)))
                break
        else:
            members.append((len(reps), 0))
            reps.append(a)
    return reps, members


def height_scan(table: TableSpec, terrain, center=(0.0, 0.0),
                n: int = 4096) -> HeightScan:
    """Scan all four foot heights over a uniform theta grid of size n.

    Feet whose angles differ by a whole number s of grid steps 2 pi / n, to
    within 1e-13 rad, share one row: one terrain call evaluates the row of
    each class's first foot r at theta_k + a_r, and a member foot i reads
    np.roll(row_r, -s), its heights at theta_k + a_r + s 2 pi / n. So the
    square table costs n terrain points, the half-hexagon (0, 60, 120 and
    180 deg, where 0 and 180 share) 3n. A member's row can differ from its
    own evaluation at theta_k + a_i by a few ulp, since the two sums of
    angles round differently."""
    if n < 256 or (n & (n - 1)) != 0:
        raise DomainError(f"scan size must be a power of two >= 256, got {n}")
    if n > _MAX_SCAN:
        raise DomainError(f"scan size must be at most 2^18, got {n}")
    rho, angles = table.as_circle
    cx, cy = float(center[0]), float(center[1])
    if not terrain.extent.contains_disc(cx, cy, rho):
        raise DomainError(
            f"foot circle of radius {rho} at ({cx}, {cy}) leaves the terrain extent"
        )
    alpha, beta = table.diagonal_ratios
    thetas = _TWO_PI * np.arange(n) / n
    reps, members = _shared_rows(angles, n)
    # the same elementwise steps as HeightScan.heights_at, one row per class
    t = np.add.outer(reps, thetas)
    rows = 0.0 - terrain.height(cx + rho * np.cos(t), cy + rho * np.sin(t))
    heights = np.empty((4, n))
    for i, (c, s) in enumerate(members):
        heights[i] = np.roll(rows[c], -s)
    return HeightScan(table=table, terrain=terrain, center=(cx, cy),
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
    """All transversal roots of g over a full turn, in grid order: each grid
    node where g is exactly zero, and each grid cell where g changes sign,
    refined to 1e-12 inside the cell (roots.bracketed_roots, all cells at
    once).

    A continuous periodic function with zero mean either vanishes
    identically (degenerate: the table rests at every angle) or crosses zero
    an even number of times, at least twice.
    """
    g = scan.g_values
    scale = scan.table.char_length
    if float(np.max(np.abs(g))) <= 1e-10 * scale:
        return BalanceAngles(roots=(), slopes=(), degenerate=True)
    following = np.roll(g, -1)           # g at the next node, wrapping round
    zero = g == 0.0
    # the grid signs certify each cell that changes sign
    crossing = g * following < 0.0
    at = np.flatnonzero(zero | crossing)
    lo = scan.thetas[at]
    roots = bracketed_roots(lambda t, rows: scan.g_at(t), lo, lo + _TWO_PI / scan.n,
                            g[at], following[at])
    slopes = np.where(zero[at], np.where(following[at] > 0.0, 1, -1),
                      np.where(g[at] < 0.0, 1, -1))
    touching = ~zero & ~crossing & (np.abs(g) < 1e-10 * scale)
    return BalanceAngles(roots=tuple((roots % _TWO_PI).tolist()),
                         slopes=tuple(slopes.tolist()), degenerate=False,
                         tangential=tuple(scan.thetas[touching].tolist()))


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
                            theta_bar: float) -> RestCandidate:
    """Surface contact points at a balance angle, with their coplanarity
    residual and the shape distortion relative to the rigid table."""
    rho, angles = table.as_circle
    alpha, beta = table.diagonal_ratios
    scale = table.char_length
    cx, cy = float(center[0]), float(center[1])
    q = np.empty((4, 3))
    for i, a in enumerate(angles):
        x = cx + rho * math.cos(theta_bar + a)
        y = cy + rho * math.sin(theta_bar + a)
        q[i] = (x, y, terrain.height(x, y))
    combo = _balance_combination(q, alpha, beta)
    # the feet's heights are minus the ground heights: g is -combo[2]
    g = abs(float(combo[2]))
    tol = 1e-9 * scale
    if g > tol:
        raise DomainError(
            f"theta = {math.degrees(theta_bar):.4f} deg is not a balance angle "
            f"(|g| = {g:.3e} > {tol:.1e})"
        )
    coplanarity = float(np.linalg.norm(combo))
    ref = table.reference_distances
    dq = q[:, None, :] - q[None, :, :]
    dist = np.sqrt((dq * dq).sum(axis=-1))
    distortion = float(np.max(np.abs(dist - ref))) / scale
    fitted = _best_rigid_fit(table.body_points, q)
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


def check_study(terrain, slope_levels) -> None:
    """Raise DomainError unless distortion_scaling_study can start: every
    slope level (radians) in [0, pi/2), since past 90 deg the tangent that
    scales the bumps turns negative; at least 3 levels; and a bump terrain
    with bumps to rescale."""
    for level in slope_levels:
        check_target_slope(float(level))
    if len(slope_levels) < 3:
        raise DomainError(f"need at least 3 slope levels, got {len(slope_levels)}")
    if not isinstance(terrain, BumpTerrain) or not terrain.bumps:
        raise DomainError("the scaling study needs a bump terrain with bumps")


def distortion_scaling_study(table: TableSpec, terrain, slope_levels,
                             center=(0.0, 0.0), n: int = 4096) -> ScalingStudy:
    """Rescale one bump layout to each target slope, find a balance angle,
    and fit log(distortion) against log(slope). The height error of the best
    rigid fit gets its own exponent; both are reported next to the
    cubic-order reference without asserting it."""
    levels = [float(s) for s in slope_levels]
    check_study(terrain, levels)
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
    origin. It answers `height` (scalar or array) inside its `extent`, a
    closed-form `slope_bound`, and the uncertified +inf `gradient_bound` and
    `height_rounding`; it has no gradient, which nothing asks of a cap."""

    kind = "cap"
    slope_bound_kind = "closed form"

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

    @property
    def slope_bound(self) -> float:
        return self._slope_cache


def _levenberg_marquardt(fun, x0):
    """Levenberg-Marquardt (Moré 1978) of every row: fun(x, rows) returns
    the residuals (len(rows), m) at rows' points x and their Jacobian
    (len(rows), m, n). A row has its own damping, takes only steps that
    lower its sum of squares, and stops once a step moves no coordinate by
    more than _LM_XTOL relative, or after _LM_MAX_ITER steps. Returns each
    row's best point and residuals. fun sees only open rows and the normal
    equations add term by term, so a row fits the same bits in any batch."""
    x = np.array(x0, dtype=float)
    rows = np.arange(len(x))
    res, jac = fun(x, rows)
    out_x, out_res = x.copy(), res.copy()
    cost = sum(r * r for r in res.T)
    damping = np.full(len(x), 1e-3)
    diag = np.arange(x.shape[1])
    for _ in range(_LM_MAX_ITER):
        jtj = sum(j[:, :, None] * j[:, None, :] for j in jac.transpose(1, 0, 2))
        jtr = sum(j * r[:, None] for j, r in zip(jac.transpose(1, 0, 2), res.T))
        # Marquardt's diagonal scaling; a zero column takes 1, as in MINPACK
        scale = jtj[:, diag, diag]
        jtj[:, diag, diag] += damping[:, None] * np.where(scale > 0.0, scale, 1.0)
        step = np.linalg.solve(jtj, -jtr[..., None])[..., 0]
        trial = x + step
        res_t, jac_t = fun(trial, rows)
        cost_t = sum(r * r for r in res_t.T)
        b = cost_t < cost
        x[b], res[b], jac[b], cost[b] = trial[b], res_t[b], jac_t[b], cost_t[b]
        damping = np.where(b, 0.1 * damping, 10.0 * damping)
        out_x[rows], out_res[rows] = x, res
        live = ~(np.abs(step) <= _LM_XTOL * (np.abs(x) + _LM_XTOL)).all(axis=1)
        if not live.any():
            break
        rows, x, res, jac, cost, damping = (
            a[live] for a in (rows, x, res, jac, cost, damping))
    return out_x, out_res


def concyclicity_defect(points_xy: np.ndarray) -> float:
    """Max deviation of four planar points from their best-fit circle.

    Refuses (DomainError) points with a coincident pair or on one line,
    which have no best-fit circle: the fit would run off towards the line's
    infinite radius and stop anywhere. Both tests are relative to the
    points' extent (_DEGENERATE_FEET)."""
    p = np.asarray(points_xy, dtype=float)
    if p.shape != (4, 2):
        raise DomainError(f"need four planar points, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise DomainError(f"planar points must be finite, got {p.tolist()}")
    q = p - p.mean(axis=0)
    scale = float(np.max(np.abs(q)))
    q = q / scale if scale > 0.0 else q
    d = q[:, None, :] - q[None, :, :]
    gaps = np.hypot(d[..., 0], d[..., 1])[np.triu_indices(4, 1)]
    if not np.min(gaps) > _DEGENERATE_FEET:
        raise DomainError(f"two of the planar points coincide, so no circle fits "
                          f"them: {p.tolist()}")
    sv = np.linalg.svd(np.column_stack([2.0 * q, np.ones(4)]), compute_uv=False)
    if not sv[-1] > _DEGENERATE_FEET * sv[0]:
        raise DomainError(f"the planar points are collinear, so no circle fits "
                          f"them: {p.tolist()}")
    # linear (Kasa) start, then the geometric fit of |p - c| - r
    a = np.column_stack([2.0 * p[:, 0], 2.0 * p[:, 1], np.ones(4)])
    b = (p * p).sum(axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy = sol[0], sol[1]
    r = math.sqrt(max(sol[2] + cx * cx + cy * cy, 0.0))

    def fun(v, rows):
        d = p - v[:, None, :2]
        dist = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
        return dist - v[:, 2:], np.dstack([-d / dist[..., None], -np.ones_like(dist)])

    _, res = _levenberg_marquardt(fun, [[cx, cy, r]])
    return float(np.max(np.abs(res)))


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
    """Scan rigid placements of a planar foot quadrilateral against the cap:
    each horizontal placement (turn angle x center offset) gets the height
    and two tilts that best put all four feet on the cap's sphere, all in
    one batched Levenberg-Marquardt call. Reports the smallest max-|distance
    to sphere minus radius|, at the first placement reaching it (turn angle
    outermost, then the x and y offsets): machine zero for concyclic feet,
    bounded away from it for non-concyclic ones."""
    count = theta_steps * center_steps * center_steps
    if min(theta_steps, center_steps) < 1 or count > _MAX_PLACEMENTS:
        raise DomainError(f"a cap scan takes 1 to 2^16 placements, got {theta_steps} "
                          f"turn angles x {center_steps}^2 center offsets")
    defect = concyclicity_defect(feet_xy)
    body = np.asarray(feet_xy, dtype=float)
    body = body - body.mean(axis=0)
    scale = float(np.max(np.abs(body))) or 1.0
    offsets = np.linspace(-_CAP_CENTER_RANGE * scale, _CAP_CENTER_RANGE * scale,
                          center_steps)
    thetas = _TWO_PI * np.arange(theta_steps) / theta_steps
    theta, cx, cy = (a.ravel() for a in np.meshgrid(thetas, offsets, offsets, indexing="ij"))
    cos_t, sin_t = np.cos(theta)[:, None], np.sin(theta)[:, None]
    # the feet turned by theta: w = R_z(theta) b, whose z is 0
    wx = cos_t * body[:, 0] - sin_t * body[:, 1]
    wy = sin_t * body[:, 0] + cos_t * body[:, 1]

    def fun(v, rows):
        # |q - sphere center| - radius, q = R_x(tx) R_y(ty) w + (cx, cy, z0)
        z0, tx, ty = v[:, 0, None], v[:, 1, None], v[:, 2, None]
        ctx, stx, cty, sty = np.cos(tx), np.sin(tx), np.cos(ty), np.sin(ty)
        x, y = wx[rows], wy[rows]
        uz = -sty * x                        # u = R_y(ty) w = (cty x, y, uz)
        d = np.stack([cty * x + cx[rows, None], ctx * y - stx * uz + cy[rows, None],
                      stx * y + ctx * uz + z0], axis=-1) - cap.sphere_center
        dist = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2])
        nx, ny, nz = (d[..., i] / dist for i in range(3))
        # (d/|d|) . dq/dv: dq/dz0 = e_z, R_x'(tx) u, R_x(tx) R_y'(ty) w
        jac = np.stack([nz, ny * (-stx * y - ctx * uz) + nz * (ctx * y - stx * uz),
                        -x * (nx * sty - ny * stx * cty + nz * ctx * cty)], axis=-1)
        return dist - cap.radius, jac

    _, res = _levenberg_marquardt(fun, np.column_stack([cap.height(cx, cy),
                                                        np.zeros((count, 2))]))
    worst = np.abs(res).max(axis=1)
    k = int(np.argmin(worst))
    return CapFitReport(defect=defect, min_residual=float(worst[k]),
                        best_theta=float(theta[k]), best_center=(float(cx[k]), float(cy[k])),
                        placements=count, cap_radius=cap.radius)
