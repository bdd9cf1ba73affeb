"""Continuous motions that carry three grounded feet to the next labeling.

Both motions settle the table, keep three feet exactly on the ground, and
end with feet 1 and 2 on the original positions of feet 2 and 3. Along the
way the free foot's signed height changes sign, so the intermediate value
theorem hands us a placement with all four feet grounded.

Both motions run on one driver and differ only in their path: `_start`
gates the slope, checks the workspace, settles and drops the free foot;
`_record` flags each sample and `_check_endpoints` checks that the path ends
one labeling further; `_breach` raises each condition breach, or records it
as a warning under override. Each motion's sample loop and its resolver
place the table through the same function.

Motion "march" follows the curve where the circumsphere of the settled feet
and the dropped free foot meets the ground, certified up to a 14.47 deg
slope. Motion "pivot_slide" rotates the leading edge about foot 2, then
slides it within a vertical plane onto edge 2-3, certified up to 35.264 deg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .contact import (
    ContactState,
    DropRotation,
    FootSet,
    TableSpec,
    complete_fourth_foot,
    drop_rotate,
    settle_three_feet,
    signed_heights,
)
from .errors import (
    BlockedMotion,
    ConditionViolation,
    DomainError,
    GeometryViolation,
)
from .geometry import SlopeThresholds, Sphere, sphere_through, unit
from .ring import (
    GroundRing,
    chord_advance,
    circle_surface_intersection,
    trace_ring,
)
from .roots import bracketed_root

_TWO_PI = 2.0 * math.pi
_SLOPES = SlopeThresholds()
DEFAULT_STEP = math.radians(0.25)


@dataclass(frozen=True)
class MotionSample:
    param: float
    feet: FootSet
    contact: ContactState
    stage: str
    azimuth2: float | None = None       # azimuth of foot 2 about the sphere axis
    latitude1: float | None = None
    latitude2: float | None = None
    sphere_residual: float = 0.0
    surface_residual: float = 0.0
    flags: tuple[str, ...] = ()


@dataclass
class MotionTrace:
    kind: str                           # "march" or "pivot_slide"
    table: TableSpec
    terrain: object
    samples: list[MotionSample]
    start_feet: FootSet
    center_xy: tuple[float, float]
    yaw: float
    step: float
    override: bool
    slope_bound: float
    relabeled: bool = False
    sphere: Sphere | None = None
    drop: DropRotation | None = None
    degenerate_start: bool = False
    warnings: list[str] = field(default_factory=list)
    resolver: object = None             # param -> MotionSample, for refinement
    ring: GroundRing | None = None

    @property
    def params(self) -> np.ndarray:
        return np.array([s.param for s in self.samples])

    @property
    def h4_values(self) -> np.ndarray:
        return np.array([s.contact.h4 for s in self.samples])

    def table_rotation(self, sample: MotionSample) -> float:
        """Horizontal azimuth change of edge 1->2 since the start."""
        e0 = self.start_feet.p2 - self.start_feet.p1
        e1 = sample.feet.p2 - sample.feet.p1
        a0 = math.atan2(float(e0[1]), float(e0[0]))
        a1 = math.atan2(float(e1[1]), float(e1[0]))
        return abs((a1 - a0 + math.pi) % _TWO_PI - math.pi)


@dataclass(frozen=True)
class EquilibriumResult:
    found: bool
    parameter: float | None
    feet: FootSet | None
    max_abs_height: float | None
    sweep: float                          # parameter distance traversed
    table_rotation: float
    legs_clear: bool | None
    sign_changes: int
    intervals: tuple[tuple[float, float], ...]
    degenerate: bool = False
    min_abs_h4: float | None = None


@dataclass(frozen=True)
class EquilibriumChecks:
    heights_ok: bool
    max_abs_height: float
    rigidity_ok: bool
    rigidity_residual: float
    legs_clear: bool
    min_leg_clearance: float

    @property
    def all_ok(self) -> bool:
        return self.heights_ok and self.rigidity_ok and self.legs_clear


def _contact_tolerance(table: TableSpec) -> float:
    return 1e-9 * table.char_length


# motion kind -> (name, slope limit, name of the limit); the march limit
# admits the certified bound plus 1e-12
_GATES = {
    "march": ("marching", _SLOPES.monotone_march + 1e-12, "monotone-march"),
    "pivot_slide": ("pivot-slide", _SLOPES.legs_clear, "pivot-slide"),
}


def _breach(trace: MotionTrace, error: type, msg: str,
            warning: str | None = None) -> None:
    """Raise `error(msg)`, or under override record the breach as a warning
    (`warning` when given, else `msg`) and carry on."""
    if not trace.override:
        raise error(msg)
    trace.warnings.append(msg if warning is None else warning)


def _start(kind: str, table: TableSpec, terrain, center_xy, yaw: float,
           step: float, override: bool) -> tuple[MotionTrace, float]:
    """Gate the slope, check the workspace, settle and drop the free foot.

    Settling prefers a labeling whose free foot starts on or above the
    ground (an odd relabel usually swaps the rocking diagonal), but accepts
    a below-ground start: the motion argument is symmetric in the sign.
    Returns the trace and the free foot's starting height; a start with all
    four feet down gets one settled sample and no drop."""
    name, limit, limit_name = _GATES[kind]
    if table.kind != "square":
        raise DomainError(f"the {name} motion is defined for square tables")
    slope = terrain.slope_bound
    trace = MotionTrace(kind=kind, table=table, terrain=terrain, samples=[],
                        start_feet=None,
                        center_xy=(float(center_xy[0]), float(center_xy[1])),
                        yaw=yaw, step=step, override=override, slope_bound=slope)
    if slope >= limit:
        _breach(trace, ConditionViolation,
                f"terrain slope {math.degrees(slope):.4f} deg exceeds the "
                f"{limit_name} limit {math.degrees(limit):.4f} deg")
    reach = 4.0 * table.side
    if not terrain.extent.contains_disc(float(center_xy[0]), float(center_xy[1]), reach):
        raise DomainError(
            f"workspace of radius {reach} around ({center_xy[0]}, {center_xy[1]}) "
            f"does not fit inside the terrain extent with the required margin"
        )
    tol = _contact_tolerance(table)
    feet0 = settle_three_feet(table, terrain, center_xy, yaw)
    state0 = signed_heights(feet0, terrain, tolerance=tol)
    if state0.h4 < -tol:
        feet1 = settle_three_feet(table, terrain, center_xy, yaw + math.pi / 2.0,
                                  label_shift=1)
        state1 = signed_heights(feet1, terrain, tolerance=tol)
        if state1.h4 >= -tol:
            feet0, state0 = feet1, state1
            trace.relabeled = True
    trace.start_feet = feet0
    if abs(state0.h4) <= tol:
        trace.degenerate_start = True
        trace.samples.append(MotionSample(param=0.0, feet=feet0, contact=state0,
                                          stage="settled"))
    else:
        trace.drop = drop_rotate(feet0, terrain, tol_scale=table.side, allow_below=True)
    return trace, state0.h4


def _record(trace: MotionTrace, i: int, sample: MotionSample, where: str,
            own_flags=()) -> None:
    """Flag sample i (contact, rigidity, own_flags, continuity with the last
    sample), raise or warn on any flag (the error names `where`), append it."""
    table = trace.table
    side = table.side
    flags = []
    if max(abs(h) for h in sample.contact.heights[:3]) > _contact_tolerance(table):
        flags.append("contact")
    if sample.feet.rigidity_residual(table) > 1e-9 * side:
        flags.append("rigidity")
    flags.extend(own_flags)
    if trace.samples and abs(sample.contact.h4 - trace.samples[-1].contact.h4) > 0.2 * side:
        flags.append("continuity")
    if flags:
        _breach(trace, ConditionViolation,
                f"{trace.kind.replace('_', '-')} sample {i} {where} failed "
                f"checks {flags}",
                f"sample {i} ({sample.stage}): {','.join(flags)}")
        sample = replace(sample, flags=tuple(flags))
    trace.samples.append(sample)


def _check_endpoints(trace: MotionTrace) -> None:
    """The first sample is the settled start; the last puts feet 1, 2 and 3
    on the start feet 2 and 3 and on the dropped free foot."""
    feet0 = trace.start_feet
    first = trace.samples[0].feet
    last = trace.samples[-1].feet
    pairs = ((last.p1, feet0.p2), (last.p2, feet0.p3),
             (last.p3, trace.drop.landed), (first.points, feet0.points))
    checks = [float(np.linalg.norm(a - b)) for a, b in pairs]
    if max(checks) > 1e-9 * trace.table.side:
        _breach(trace, GeometryViolation,
                f"endpoint identity violated: residuals {['%.2e' % c for c in checks]}")


def _march_sample(ring: GroundRing, table: TableSpec, param: float, phi: float,
                  hint_gap: float) -> MotionSample:
    """The marching square at azimuth phi (march parameter `param`): foot 1
    on the curve, foot 2 a chord ahead, foot 3 by the orthogonal foot circle,
    foot 4 closed by the parallelogram rule."""
    terrain = ring.terrain
    side = table.side
    p1, lat1 = ring.point_at(phi)
    p2, phi2, lat2 = chord_advance(ring, p1, phi, side, phi + hint_gap)
    p3 = circle_surface_intersection(p2, unit(p2 - p1), side, terrain, side=1,
                                     enforce_slope=False)
    feet = FootSet(np.array([p1, p2, p3, complete_fourth_foot(p1, p2, p3)]))
    sph = ring.sphere
    sres = max(abs(float(np.linalg.norm(p - sph.center)) - sph.radius)
               for p in (p1, p2))
    surf = max(abs(float(p[2]) - terrain.height(float(p[0]), float(p[1])))
               for p in (p1, p2, p3))
    contact = signed_heights(feet, terrain, tolerance=_contact_tolerance(table))
    return MotionSample(param=param, feet=feet, contact=contact, stage="march",
                        azimuth2=phi2, latitude1=lat1, latitude2=lat2,
                        sphere_residual=sres, surface_residual=surf)


def run_march(table: TableSpec, terrain, center_xy=(0.0, 0.0), yaw: float = 0.0,
              step: float = DEFAULT_STEP, override: bool = False) -> MotionTrace:
    """Carry the table along the sphere/ground curve until foot 1 reaches the
    starting azimuth of foot 2. Certified for slopes up to 14.47 deg; the
    override flag demotes condition breaches to recorded warnings.
    """
    trace, h4 = _start("march", table, terrain, center_xy, yaw, step, override)
    if trace.degenerate_start:
        return trace
    side = table.side
    feet0, drop = trace.start_feet, trace.drop
    if drop.companion_height * (1.0 if h4 > 0.0 else -1.0) > _contact_tolerance(table):
        _breach(trace, ConditionViolation,
                f"dragged foot ended on the free foot's starting side "
                f"(h = {drop.companion_height:.3e}) after the drop rotation; "
                f"slope condition breach")
    sphere = sphere_through(feet0.p1, feet0.p2, feet0.p3, drop.landed)
    trace.sphere = sphere
    ratio = sphere.radius / side
    if not (1.0 / math.sqrt(2.0) < ratio < math.sqrt(3.0) / 2.0):
        _breach(trace, ConditionViolation,
                f"sphere radius ratio R/L = {ratio:.6f} outside (1/sqrt2, sqrt3/2)")

    def azimuth_about_center(p) -> float:
        return math.atan2(float(p[1] - sphere.center[1]),
                          float(p[0] - sphere.center[0]))

    phi_start = azimuth_about_center(feet0.p1)
    gap12 = (azimuth_about_center(feet0.p2) - phi_start) % _TWO_PI
    gap23 = (azimuth_about_center(feet0.p3) - azimuth_about_center(feet0.p2)) % _TWO_PI
    if not (0.0 < gap12 < math.pi and 0.0 < gap23 < math.pi):
        raise GeometryViolation(
            f"feet subtend azimuth gaps of {math.degrees(gap12):.4f} and "
            f"{math.degrees(gap23):.4f} deg about the sphere axis; expected "
            f"forward gaps below 180 deg"
        )
    # the march only visits this azimuth arc (foot 1 from its start to foot
    # 2's start, foot 2 one chord further), padded for bracketing
    arc = (phi_start - 4.0 * step, phi_start + gap12 + gap23 + 6.0 * step)
    slope = trace.slope_bound
    ring = trace_ring(sphere, terrain, step, chord_length=side,
                      latitude_bound=2.0 * slope if slope > 0 else 1e-12,
                      arc=arc, enforce=not override)
    trace.warnings.extend(ring.warnings)
    trace.ring = ring

    n = max(1, int(math.ceil(gap12 / step)))
    # we know where foot 2 sits; later samples reuse the last gap
    hint_gap = gap12
    for i in range(n + 1):
        phi = phi_start + gap12 * i / n
        s = _march_sample(ring, table, phi - phi_start, phi, hint_gap)
        hint_gap = s.azimuth2 - phi
        own = []
        lat = max(abs(s.latitude1), abs(s.latitude2))
        if lat >= ring.latitude_bound and lat > 1e-12:
            own.append("latitude")
        if trace.samples and s.azimuth2 <= trace.samples[-1].azimuth2:
            own.append("monotone")
        _record(trace, i, s, f"at azimuth {math.degrees(phi):.4f} deg", own)
    _check_endpoints(trace)

    sample_params = trace.params
    sample_phi2 = np.array([s.azimuth2 for s in trace.samples])

    def resolver(param: float) -> MotionSample:
        phi = phi_start + param
        gap_hint = float(np.interp(param, sample_params, sample_phi2)) - phi
        return _march_sample(ring, table, param, phi, gap_hint)

    trace.resolver = resolver
    return trace


_HALF_BETAS = np.linspace(-math.pi / 2.0, math.pi / 2.0, 181)
_HALF_COS = np.cos(_HALF_BETAS)
_HALF_SIN = np.sin(_HALF_BETAS)


def _half_circle_foot(terrain, pivot: np.ndarray, radius: float,
                      psi: float) -> tuple[np.ndarray, float]:
    """Unique ground crossing of the vertical half-circle of `radius` about
    `pivot`, in the half-plane with azimuth `psi`. Returns (point, elevation).
    """
    ux, uy = math.cos(psi), math.sin(psi)
    px, py, pz = (float(v) for v in pivot)

    def gap(beta: float) -> float:
        c = math.cos(beta)
        return (pz + radius * math.sin(beta)
                - terrain.height(px + radius * c * ux, py + radius * c * uy))

    vals = (pz + radius * _HALF_SIN
            - terrain.height(px + radius * _HALF_COS * ux,
                             py + radius * _HALF_COS * uy))
    if vals[-1] <= 0.0 or vals[0] >= 0.0:
        raise GeometryViolation(
            "vertical foot circle does not straddle the ground"
        )
    s = vals > 0.0
    cells = np.nonzero(s[:-1] != s[1:])[0]
    if cells.size != 1:
        raise ConditionViolation(
            f"vertical half-circle crosses the ground {cells.size} times; "
            f"uniqueness needs slope below 45 deg"
        )
    k = int(cells[0])
    # the scanned signs certify the bracket
    beta = bracketed_root(gap, float(_HALF_BETAS[k]), float(_HALF_BETAS[k + 1]),
                          f_lo=float(vals[k]), f_hi=float(vals[k + 1]))
    c = math.cos(beta)
    return (np.array([px + radius * c * ux, py + radius * c * uy,
                      pz + radius * math.sin(beta)]), beta)


def _section_point(terrain, anchor: np.ndarray, direction_xy: np.ndarray,
                   u: float) -> np.ndarray:
    x = float(anchor[0]) + u * float(direction_xy[0])
    y = float(anchor[1]) + u * float(direction_xy[1])
    return np.array([x, y, terrain.height(x, y)])


def _section_chord(terrain, anchor, direction_xy, u_from: float, chord: float,
                   hint: float, step: float) -> float:
    """Parameter of the point on the vertical-plane section curve at distance
    `chord` ahead of the point at u_from."""
    base = _section_point(terrain, anchor, direction_xy, u_from)

    def gap(u: float) -> float:
        p = _section_point(terrain, anchor, direction_xy, u)
        d = p - base
        return float(math.sqrt(float(np.dot(d, d)))) - chord

    width = max(4.0 * step, 1e-6)
    lo = max(hint - width, u_from + 1e-12)
    hi = hint + width
    g_lo, g_hi = gap(lo), gap(hi)
    tries = 0
    while not (g_lo < 0.0 < g_hi):
        width *= 2.0
        lo = max(hint - width, u_from + 1e-12)
        hi = hint + width
        g_lo, g_hi = gap(lo), gap(hi)
        tries += 1
        if tries > 8 or width > 2.0 * chord:
            raise BlockedMotion(
                "section-curve chord found no bracket; the slide cannot advance"
            )
    probes = np.linspace(lo, hi, 9)
    signs = np.array([gap(float(p)) for p in probes]) > 0.0
    if int(np.count_nonzero(signs[:-1] != signs[1:])) != 1:
        raise ConditionViolation(
            "multiple section-curve chord roots in the bracket"
        )
    return bracketed_root(gap, lo, hi, f_lo=g_lo, f_hi=g_hi)


def run_pivot_slide(table: TableSpec, terrain, center_xy=(0.0, 0.0),
                    yaw: float = 0.0, step: float = DEFAULT_STEP,
                    override: bool = False) -> MotionTrace:
    """Rotate edge 1-2 about foot 2 until it enters the vertical plane of
    feet 2-3, then slide it within that plane onto 2-3. Feet 1 and 3 track
    the ground throughout; certified for slopes up to 35.264 deg.
    """
    trace, _ = _start("pivot_slide", table, terrain, center_xy, yaw, step, override)
    if trace.degenerate_start:
        return trace
    side = table.side
    tol = _contact_tolerance(table)
    feet0 = trace.start_feet
    pivot = feet0.p2
    psi_a = math.atan2(float(feet0.p1[1] - pivot[1]), float(feet0.p1[0] - pivot[0]))
    psi_b = math.atan2(float(pivot[1] - feet0.p3[1]), float(pivot[0] - feet0.p3[0]))
    sweep1 = (psi_b - psi_a) % _TWO_PI
    if not (0.0 < sweep1 < math.pi):
        raise GeometryViolation(
            f"pivot stage sweep {math.degrees(sweep1):.4f} deg out of range"
        )
    # slide stage: both edge endpoints ride the section curve of the vertical
    # plane through feet 2-3 until the edge lands on (p2, p3)
    dir_xy = np.array([math.cos(psi_b + math.pi), math.sin(psi_b + math.pi)])

    def place(param: float, stage: str, foot1: np.ndarray,
              foot2: np.ndarray) -> MotionSample:
        p3 = circle_surface_intersection(foot2, unit(foot2 - foot1), side,
                                         terrain, side=1, enforce_slope=False)
        feet = FootSet(np.array([foot1, foot2, p3,
                                 complete_fourth_foot(foot1, foot2, p3)]))
        return MotionSample(param=param, feet=feet, stage=stage,
                            contact=signed_heights(feet, terrain, tolerance=tol))

    def pivot_at(param: float) -> tuple[MotionSample, float]:
        """Edge 1-2 turned by `param` about foot 2, and foot 1's elevation."""
        foot1, beta = _half_circle_foot(terrain, pivot, side, psi_a + param)
        return place(param, "pivot", foot1, pivot), beta

    def slide_at(param: float, u_lead: float, hint: float,
                 width: float) -> tuple[MotionSample, float]:
        """Foot 1 at section parameter u_lead and foot 2 one side length
        ahead (searched around `hint`), and foot 2's section parameter."""
        front = _section_chord(terrain, pivot, dir_xy, u_lead, side, hint, width)
        foot1 = _section_point(terrain, pivot, dir_xy, u_lead)
        foot2 = _section_point(terrain, pivot, dir_xy, front)
        return place(param, "slide", foot1, foot2), front

    n1 = max(1, int(math.ceil(sweep1 / step)))
    for i in range(n1 + 1):
        s, beta_end = pivot_at(sweep1 * i / n1)
        _record(trace, i, s, "(pivot)")
    u0 = -side * math.cos(beta_end)
    n2 = max(1, int(math.ceil(abs(u0) / (side * math.sin(step) if step < math.pi / 2 else side))))
    param_scale = (math.pi / 2.0) / max(abs(u0), 1e-12)
    front = 0.0
    for i in range(1, n2 + 1):
        u_lead = u0 * (1.0 - i / n2)
        s, front = slide_at(sweep1 + (u_lead - u0) * param_scale, u_lead, front,
                            abs(u0) / n2)
        _record(trace, n1 + i, s, "(slide)")
    _check_endpoints(trace)

    def resolver(param: float) -> MotionSample:
        if param <= sweep1:
            return pivot_at(param)[0]
        u_lead = min(u0 + (param - sweep1) / param_scale, 0.0)
        # the chord's far end sits between 0.65 and 1.0 side lengths ahead
        # for any slope below 45 deg
        return slide_at(param, u_lead, u_lead + 0.825 * side, 0.05 * side)[0]

    trace.resolver = resolver
    return trace


def find_equilibrium(trace: MotionTrace, terrain) -> EquilibriumResult:
    """First parameter where the free foot's height crosses zero, refined by
    re-solving the full placement at parameters chosen by Brent's method.

    The refined placement is the visited sample with the smallest |h4|. A
    crossing whose far end already lies inside the contact band, with no
    sign change, is not refined: its endpoint sample is the placement.
    """
    tol = _contact_tolerance(trace.table)
    samples = trace.samples
    if not samples:
        raise DomainError("empty motion trace")
    h4 = trace.h4_values
    params = trace.params

    if trace.degenerate_start or abs(h4[0]) <= tol:
        s = samples[0]
        checks = verify_equilibrium(s.feet, trace.table, terrain)
        return EquilibriumResult(
            found=True, parameter=float(params[0]), feet=s.feet,
            max_abs_height=checks.max_abs_height, sweep=0.0,
            table_rotation=0.0, legs_clear=checks.legs_clear, sign_changes=0,
            intervals=(), degenerate=True)

    crossings = []
    for i in range(len(samples) - 1):
        a, b = float(h4[i]), float(h4[i + 1])
        if (a > tol and b <= tol) or (a < -tol and b >= -tol) or a * b < 0.0:
            crossings.append(i)
    if not crossings:
        return EquilibriumResult(
            found=False, parameter=None, feet=None, max_abs_height=None,
            sweep=float(params[-1] - params[0]),
            table_rotation=trace.table_rotation(samples[-1]),
            legs_clear=None, sign_changes=0, intervals=(),
            min_abs_h4=float(np.min(np.abs(h4))))

    intervals = tuple((float(params[i]), float(params[i + 1])) for i in crossings)
    i0 = crossings[0]
    if trace.resolver is None:
        raise DomainError("trace has no resolver; cannot refine the crossing")
    a, b = float(h4[i0]), float(h4[i0 + 1])
    best = samples[i0] if abs(a) < abs(b) else samples[i0 + 1]
    if (a > 0.0) != (b > 0.0):
        def h4_at(param: float) -> float:
            nonlocal best
            s = trace.resolver(param)
            if abs(s.contact.h4) < abs(best.contact.h4):
                best = s
            return s.contact.h4

        bracketed_root(h4_at, float(params[i0]), float(params[i0 + 1]),
                       xtol=1e-15, ftol=0.1 * tol, f_lo=a, f_hi=b)
    checks = verify_equilibrium(best.feet, trace.table, terrain)
    return EquilibriumResult(
        found=True, parameter=float(best.param), feet=best.feet,
        max_abs_height=checks.max_abs_height,
        sweep=float(best.param - params[0]),
        table_rotation=trace.table_rotation(best),
        legs_clear=checks.legs_clear, sign_changes=len(crossings),
        intervals=intervals)


def verify_equilibrium(feet: FootSet, table: TableSpec, terrain,
                       leg_samples: int = 50) -> EquilibriumChecks:
    """Independent pass/fail report: contact residuals, rigidity, and leg
    clearance sampled along each leg from the foot up to the tabletop."""
    tol = _contact_tolerance(table)
    state = signed_heights(feet, terrain, tolerance=tol)
    max_h = state.max_abs()
    rig = feet.rigidity_residual(table)
    normal = np.cross(feet.p3 - feet.p1, feet.p4 - feet.p2)
    n = normal / np.linalg.norm(normal)
    if n[2] < 0:
        n = -n
    min_clear = math.inf
    for i in range(4):
        foot = feet.points[i]
        for k in range(1, leg_samples + 1):
            q = foot + n * (table.leg_length * k / leg_samples)
            clear = float(q[2]) - terrain.height(float(q[0]), float(q[1]))
            min_clear = min(min_clear, clear)
    return EquilibriumChecks(
        heights_ok=max_h < tol,
        max_abs_height=max_h,
        rigidity_ok=rig < 1e-9 * table.char_length,
        rigidity_residual=rig,
        legs_clear=min_clear > 0.0,
        min_leg_clearance=min_clear,
    )
