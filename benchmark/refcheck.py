"""Output checks made apart from the program.

Nothing here imports `wobble`. Terrain heights come from a reference
evaluator written from the terrain file alone: the Gaussian sum for a bump
terrain and bicubic Hermite interpolation of the node heights for a grid.
Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

CONTACT_TOL = 1e-9          # feet on the ground, as a share of the table side
RIGID_TOL = 1e-9            # pairwise foot distances against the rigid square
INTEGRAL_TOL = 1e-6         # spread of the four full-turn integrals
G_TOL = 1e-9                # balance function at a reported root
COPLANAR_TOL = 1e-9         # determinant of the four ground points
SIGN_PROBE = 1e-8           # half-width of the interval g must change sign on
SLOPE_MARGIN_DEG = 1e-9


class BumpReference:
    """z = sum A exp(-r^2 / (2 s^2)) over the file's bump list."""

    def __init__(self, bumps):
        b = np.asarray(bumps, dtype=float).reshape(-1, 4)
        self.cx, self.cy, self.amp, self.sigma = b.T

    def height(self, x, y):
        x = np.asarray(x, dtype=float)[..., None]
        y = np.asarray(y, dtype=float)[..., None]
        r2 = (x - self.cx) ** 2 + (y - self.cy) ** 2
        return (self.amp * np.exp(-r2 / (2.0 * self.sigma ** 2))).sum(axis=-1)


def _node_slopes(a: np.ndarray, axis: int) -> np.ndarray:
    """Node derivative per unit cell: central differences inside, one-sided
    at the two edges."""
    a = np.moveaxis(a, axis, 0)
    d = np.empty_like(a)
    d[1:-1] = 0.5 * (a[2:] - a[:-2])
    d[0] = a[1] - a[0]
    d[-1] = a[-1] - a[-2]
    return np.moveaxis(d, 0, axis)


def _hermite(t, p0, p1, m0, m1):
    t2 = t * t
    t3 = t2 * t
    return ((2 * t3 - 3 * t2 + 1) * p0 + (3 * t2 - 2 * t3) * p1
            + (t3 - 2 * t2 + t) * m0 + (t3 - t2) * m1)


class GridReference:
    """C1 bicubic Hermite surface through row-major node heights: along x
    within each of the cell's two node rows first, then along y."""

    def __init__(self, origin, spacing: float, heights):
        self.ox, self.oy = float(origin[0]), float(origin[1])
        self.d = float(spacing)
        self.h = np.asarray(heights, dtype=float)
        self.hx = _node_slopes(self.h, 1)
        self.hy = _node_slopes(self.h, 0)
        self.hxy = _node_slopes(self.hx, 0)

    def height(self, x, y):
        rows, cols = self.h.shape
        tx = (np.asarray(x, dtype=float) - self.ox) / self.d
        ty = (np.asarray(y, dtype=float) - self.oy) / self.d
        j = np.clip(np.floor(tx).astype(int), 0, cols - 2)
        i = np.clip(np.floor(ty).astype(int), 0, rows - 2)
        u, v = tx - j, ty - i
        rows_z = []
        rows_dz = []
        for r in (i, i + 1):
            rows_z.append(_hermite(u, self.h[r, j], self.h[r, j + 1],
                                   self.hx[r, j], self.hx[r, j + 1]))
            rows_dz.append(_hermite(u, self.hy[r, j], self.hy[r, j + 1],
                                    self.hxy[r, j], self.hxy[r, j + 1]))
        return _hermite(v, rows_z[0], rows_z[1], rows_dz[0], rows_dz[1])


def reference_from_text(text: str):
    """Reference evaluator for a terrain file in the program's JSON format."""
    doc = json.loads(text)
    if doc["type"] == "bumps":
        return BumpReference([(b["cx"], b["cy"], b["amplitude"], b["sigma"])
                              for b in doc["bumps"]])
    if doc["type"] == "grid":
        h = np.asarray(doc["heights"], dtype=float).reshape(doc["rows"], doc["cols"])
        return GridReference(doc["origin"], doc["spacing"], h)
    raise ValueError(f"unknown terrain type {doc['type']!r}")


# ---------------------------------------------------------------- march

_FOOT = re.compile(r"^\s+(\d):\s+\(([^,]+),\s*([^,]+),\s*([^)]+)\)\s*$")
_FIELD = re.compile(r"^([a-z |_]+?):\s+(.*)$")


def parse_solve_report(text: str):
    """Fields and feet of the report `wobble solve` prints."""
    fields = {}
    feet = {}
    for line in text.splitlines():
        m = _FOOT.match(line)
        if m:
            feet[int(m.group(1))] = [float(m.group(k)) for k in (2, 3, 4)]
            continue
        m = _FIELD.match(line)
        if m:
            fields[m.group(1).strip()] = m.group(2).strip()
    pts = np.array([feet[k] for k in sorted(feet)]) if feet else np.empty((0, 3))
    return fields, pts


def _first_number(text: str) -> float:
    return float(text.split()[0])


def _square_distance_errors(pts: np.ndarray, side: float) -> np.ndarray:
    """|d_ij - rigid d_ij| over the six pairs of a square labeled in order."""
    pairs = ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0),
             (0, 2, math.sqrt(2.0)), (1, 3, math.sqrt(2.0)))
    return np.array([abs(float(np.linalg.norm(pts[a] - pts[b])) - side * k)
                     for a, b, k in pairs])


def check_march(report: str, csv_text: str, ground, side: float,
                step_deg: float) -> list[str]:
    """One `wobble solve --motion gamma` output: the printed report and the
    trace CSV, against the reference ground."""
    problems = []
    fields, feet = parse_solve_report(report)
    if fields.get("equilibrium") != "found":
        return [f"no equilibrium found ({fields.get('equilibrium')!r})"]
    if feet.shape != (4, 3):
        return [f"report lists {feet.shape[0]} feet, expected 4"]
    gap = np.abs(feet[:, 2] - ground.height(feet[:, 0], feet[:, 1]))
    if float(gap.max()) > CONTACT_TOL * side:
        problems.append(f"equilibrium foot {int(gap.argmax()) + 1} is "
                        f"{gap.max():.3e} off the ground")
    rigid = _square_distance_errors(feet, side)
    if float(rigid.max()) > RIGID_TOL * side:
        problems.append(f"equilibrium feet are {rigid.max():.3e} off the rigid square")
    sweep = _first_number(fields.get("azimuth sweep", "nan"))
    if not (0.0 <= sweep <= 90.0 + step_deg):
        problems.append(f"sweep {sweep} deg exceeds a quarter turn plus one step")

    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) < 2:
        return problems + [f"trace CSV has {len(rows)} samples"]
    col = {name: k for k, name in enumerate(header)}
    params = np.array([float(r[col["param_deg"]]) for r in rows])
    pts = np.array([[[float(r[col[f"{c}{i}"]]) for c in "xyz"] for i in range(1, 5)]
                    for r in rows])
    if params[0] != 0.0 or np.any(np.diff(params) <= 0.0):
        problems.append("trace parameters do not start at 0 and increase")
    on_ground = np.abs(pts[:, :3, 2] - ground.height(pts[:, :3, 0], pts[:, :3, 1]))
    if float(on_ground.max()) > CONTACT_TOL * side:
        problems.append(f"a traced grounded foot is {on_ground.max():.3e} off the ground")
    worst = max(float(_square_distance_errors(p, side).max()) for p in pts)
    if worst > RIGID_TOL * side:
        problems.append(f"a traced placement is {worst:.3e} off the rigid square")
    return problems


# ------------------------------------------------------------- campaign

CAMPAIGN_COLUMNS = (
    "index,seed,theta_target_deg,theta_measured_deg,motion,found,degenerate,"
    "relabeled,sweep_deg,table_rot_deg,residual,r_over_l,lat_max_deg,"
    "lat_bound_deg,sphere_resid,surface_resid,monotone_ok,legs_clear,"
    "sign_changes,drop_angle_deg,warnings,error"
).split(",")


def campaign_seeds(master_seed: int, n: int) -> list[int]:
    """The per-run seeds a campaign draws from its master seed (PCG64)."""
    rng = np.random.default_rng(master_seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n)]


def check_campaign(csv_text: str, seeds: list[int], theta_deg: float,
                   motion: str) -> list[str]:
    lines = csv_text.strip().splitlines()
    if not lines or lines[0].split(",") != CAMPAIGN_COLUMNS:
        return ["campaign CSV header differs from the documented columns"]
    rows = [dict(zip(CAMPAIGN_COLUMNS, line.split(","))) for line in lines[1:]]
    if len(rows) != len(seeds):
        return [f"campaign CSV has {len(rows)} rows for {len(seeds)} seeds"]
    problems = []
    for k, (row, seed) in enumerate(zip(rows, seeds)):
        where = f"row {k}"
        if row["index"] != str(k) or row["seed"] != str(seed):
            problems.append(f"{where}: index/seed {row['index']}/{row['seed']}, "
                            f"expected {k}/{seed}")
            continue
        if row["motion"] != motion or row["found"] != "1" or row["error"]:
            problems.append(f"{where}: not found (error {row['error']!r})")
            continue
        if not float(row["residual"]) < 1e-9:
            problems.append(f"{where}: residual {row['residual']}")
        if row["legs_clear"] != "1":
            problems.append(f"{where}: legs not clear")
        if not float(row["theta_measured_deg"]) <= theta_deg + SLOPE_MARGIN_DEG:
            problems.append(f"{where}: measured slope {row['theta_measured_deg']} deg")
    return problems


# ----------------------------------------------------------------- scan

def diagonal_ratios(angles) -> tuple[float, float]:
    """(alpha, beta) with (1-alpha) p1 + alpha p3 = (1-beta) p2 + beta p4
    for four points on the unit circle, by Cramer's rule."""
    p = [(math.cos(a), math.sin(a)) for a in angles]
    ux, uy = p[2][0] - p[0][0], p[2][1] - p[0][1]
    vx, vy = p[3][0] - p[1][0], p[3][1] - p[1][1]
    rx, ry = p[1][0] - p[0][0], p[1][1] - p[0][1]
    det = -ux * vy + vx * uy
    alpha = (-rx * vy + vx * ry) / det
    beta = (ux * ry - uy * rx) / det
    return alpha, beta


def foot_points(ground, center, rho: float, angles, theta: float) -> np.ndarray:
    """Ground points under the four feet of a horizontal table turned by theta."""
    a = theta + np.asarray(angles, dtype=float)
    x = center[0] + rho * np.cos(a)
    y = center[1] + rho * np.sin(a)
    return np.column_stack([x, y, ground.height(x, y)])


def balance_g(ground, center, rho, angles, theta) -> float:
    alpha, beta = diagonal_ratios(angles)
    h = -foot_points(ground, center, rho, angles, theta)[:, 2]
    return float((1 - alpha) * h[0] + alpha * h[2] - (1 - beta) * h[1] - beta * h[3])


def check_scan(ground, center, rho: float, angles, heights: np.ndarray,
               roots, points) -> list[str]:
    """One full-turn scan of one table: the (4, N) foot heights with z0 = 0,
    the balance roots and the ground points reported at each root."""
    problems = []
    n = heights.shape[1]
    thetas = 2.0 * math.pi * np.arange(n) / n
    expect = np.array([-ground.height(center[0] + rho * np.cos(thetas + a),
                                      center[1] + rho * np.sin(thetas + a))
                       for a in angles])
    if float(np.abs(heights - expect).max()) > CONTACT_TOL:
        problems.append(f"scan heights are {np.abs(heights - expect).max():.3e} "
                        f"off the reference")
    integrals = heights.mean(axis=1) * 2.0 * math.pi
    if float(integrals.max() - integrals.min()) > INTEGRAL_TOL:
        problems.append(f"full-turn integrals spread by "
                        f"{integrals.max() - integrals.min():.3e}")
    if len(roots) < 2 or len(roots) % 2:
        problems.append(f"{len(roots)} balance roots; expected an even count >= 2")
    if len(points) != len(roots):
        problems.append(f"{len(points)} rest candidates for {len(roots)} roots")
        return problems
    for theta, q in zip(roots, points):
        where = f"root {math.degrees(theta):.6f} deg"
        g = balance_g(ground, center, rho, angles, theta)
        if abs(g) > G_TOL:
            problems.append(f"{where}: |g| = {abs(g):.3e}")
        lo = balance_g(ground, center, rho, angles, theta - SIGN_PROBE)
        hi = balance_g(ground, center, rho, angles, theta + SIGN_PROBE)
        if not lo * hi < 0.0:
            problems.append(f"{where}: g does not change sign across it")
        q = np.asarray(q, dtype=float)
        ref = foot_points(ground, center, rho, angles, theta)
        if float(np.abs(q - ref).max()) > CONTACT_TOL:
            problems.append(f"{where}: ground points {np.abs(q - ref).max():.3e} "
                            f"off the reference")
        det = float(np.linalg.det(np.array([q[1] - q[0], q[2] - q[0], q[3] - q[0]])))
        if abs(det) > COPLANAR_TOL:
            problems.append(f"{where}: ground points not coplanar (det {det:.3e})")
    return problems
