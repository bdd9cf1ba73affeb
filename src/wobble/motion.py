"""Continuous motions that carry three grounded feet to the next labeling.

Both motions settle the table, keep three feet exactly on the ground, and
end with feet 1 and 2 on the original positions of feet 2 and 3. Along the
way the free foot's signed height changes sign, so the intermediate value
theorem hands us a placement with all four feet grounded.

Both motions run on one driver and differ only in their path: `_start`
checks the step and the yaw, gates the slope, checks the workspace, settles
and drops the free foot; `_squares` flags every sample's contact and
rigidity, `_record` adds the motion's own flags and continuity and records
each sample, and `_check_endpoints` checks that the path ends one labeling
further; `_breach` raises each condition breach, or records it as a warning
under override.

Each stage places all its samples before recording any. Feet 1 and 2 come
first. The pivot stage solves every foot 1 at once with the blocked
half-circle kernel (ring.half_circle_crossings). The slide stage traces its
section curve once as a polyline, takes every chord's hint from it and
solves all its chords together (`_slide_chords`). Only the march chords are
still solved in order, each searched from the last: batching them waits
until the `march` benchmark stops holding every op's output, or a faster
march would read there as a memory regression (ROADMAP item 3). Then
`_squares` closes every sample's square in one pass: every foot 3 by the
blocked circle kernel (ring.circle_crossings), every foot 4, and every
contact height in one array call. A placement failure that a row reports
(a failed circle certificate, corner check or chord search) does not raise
at once: it stops the stage at that sample, the samples before it are
flagged and recorded in order, and only then is it raised. So the first
breach in sample order, a flag or such a failure, raises the same error as
a sample-by-sample solve would, and override runs record the same
warnings. An error raised by the terrain inside a batched call (a query
outside its extent) or a NaN met while refining belongs to no one row: it
aborts the stage before any of its samples is recorded. The workspace
check in `_start` keeps every reachable foot circle inside the extent.
Each motion's resolver is the one-sample call of the same stage functions.

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
    complete_fourth_feet,
    drop_rotate,
    settle_three_feet,
    signed_heights,
)
from .errors import (
    BlockedMotion,
    ConditionViolation,
    DomainError,
    GeometryViolation,
    WobbleError,
)
from .geometry import SlopeThresholds, Sphere, sphere_through
from .ring import (
    GroundRing,
    check_step,
    chord_advance,
    circle_crossings,
    half_circle_crossings,
    trace_ring,
)
from .roots import bracketed_root, bracketed_roots

_TWO_PI = 2.0 * math.pi
_SLOPES = SlopeThresholds()
DEFAULT_STEP = math.radians(0.25)
# rows per block of the chord-hint search, which holds a (rows, window)
# distance matrix; the window grows as the step shrinks
_HINT_BLOCK = 64


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
    """Check the step and the yaw, gate the slope, check the workspace,
    settle and drop the free foot.

    Settling prefers a labeling whose free foot starts on or above the
    ground (an odd relabel usually swaps the rocking diagonal), but accepts
    a below-ground start: the motion argument is symmetric in the sign.
    Returns the trace and the free foot's starting height; a start with all
    four feet down gets one settled sample and no drop."""
    check_step(step)
    if not math.isfinite(yaw):
        raise DomainError(f"yaw must be finite, got {yaw}")
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
    """Add own_flags and continuity with the last sample to sample i's flags
    (contact and rigidity, set by `_squares`), raise or warn on any flag
    (the error names `where`), append it."""
    flags = [*sample.flags, *own_flags]
    if (trace.samples and abs(sample.contact.h4 - trace.samples[-1].contact.h4)
            > 0.2 * trace.table.side):
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


_SQUARE_FLAGS = ("contact", "rigidity")


def _squares(table: TableSpec, terrain, stage: str, params, foot1: np.ndarray,
             foot2: np.ndarray):
    """Close the square on edge 1-2 of every row in one pass: foot 3 where
    the circle about the edge through foot 2 meets the ground, foot 4 by the
    parallelogram rule, then all four contact heights, and flag every row
    whose feet 1-3 leave the ground ("contact") or whose pairwise distances
    leave the table's ("rigidity").

    Returns the samples (at params[k], in `stage`) of the rows before the
    first row that fails, and that row's error (None when every row
    stands)."""
    p3, errors = circle_crossings(foot2, foot2 - foot1, table.side, terrain, side=1)
    p4, corner_errors = complete_fourth_feet(foot1, foot2, p3)
    for k, exc in corner_errors.items():
        errors.setdefault(k, exc)
    m = min(errors, default=len(foot1))
    pts = np.stack([foot1[:m], foot2[:m], p3[:m], p4[:m]], axis=1)
    heights = pts[:, :, 2] - terrain.height(pts[:, :, 0], pts[:, :, 1])
    tol = _contact_tolerance(table)
    d = pts[:, :, None, :] - pts[:, None, :, :]
    rigidity = np.max(np.abs(np.sqrt((d * d).sum(axis=-1))
                             - table.reference_distances()), axis=(1, 2))
    flags = np.stack([np.max(np.abs(heights[:, :3]), axis=1) > tol,
                      rigidity > 1e-9 * table.side], axis=1)
    samples = [MotionSample(param=float(params[k]), feet=FootSet(pts[k]), stage=stage,
                            contact=ContactState(tuple(heights[k].tolist()), tol),
                            flags=tuple(f for f, on in zip(_SQUARE_FLAGS, flags[k]) if on))
               for k in range(m)]
    return samples, errors.get(m)


def _only(samples: list[MotionSample], failure: WobbleError | None) -> MotionSample:
    """The sample of a one-row solve, or its error."""
    if failure is not None:
        raise failure
    return samples[0]


def _march_samples(ring: GroundRing, table: TableSpec, params, phis,
                   hint_gap: float):
    """The marching square at each azimuth phis[k] (march parameter
    params[k]): foot 1 on the curve, foot 2 a chord ahead, searched
    `hint_gap` ahead of the first sample and then one last gap ahead, feet 3
    and 4 by `_squares`. The chords are solved in order; a failure stops
    them, and later rows wait for the earlier ones to be recorded. Returns
    the samples before the first failing row and that row's error."""
    chords, failure = [], None
    try:
        for phi in phis:
            p1, lat1 = ring.point_at(phi)
            p2, phi2, lat2 = chord_advance(ring, p1, phi, table.side, phi + hint_gap)
            hint_gap = phi2 - phi
            chords.append((p1, lat1, p2, phi2, lat2))
    except WobbleError as exc:
        failure = exc
    samples, square_failure = _squares(
        table, ring.terrain, "march", params,
        np.array([c[0] for c in chords]).reshape(-1, 3),
        np.array([c[2] for c in chords]).reshape(-1, 3))
    sph = ring.sphere
    marched = []
    for s, (p1, lat1, p2, phi2, lat2) in zip(samples, chords):
        sres = max(abs(float(np.linalg.norm(p - sph.center)) - sph.radius)
                   for p in (p1, p2))
        marched.append(replace(
            s, azimuth2=phi2, latitude1=lat1, latitude2=lat2, sphere_residual=sres,
            surface_residual=max(abs(h) for h in s.contact.heights[:3])))
    return marched, square_failure or failure


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
    phis = [phi_start + gap12 * i / n for i in range(n + 1)]
    # we know where foot 2 sits; later samples reuse the last gap
    samples, failure = _march_samples(ring, table, [phi - phi_start for phi in phis],
                                      phis, gap12)
    for i, s in enumerate(samples):
        own = []
        lat = max(abs(s.latitude1), abs(s.latitude2))
        if lat >= ring.latitude_bound and lat > 1e-12:
            own.append("latitude")
        if trace.samples and s.azimuth2 <= trace.samples[-1].azimuth2:
            own.append("monotone")
        _record(trace, i, s, f"at azimuth {math.degrees(phis[i]):.4f} deg", own)
    if failure is not None:
        raise failure
    _check_endpoints(trace)

    sample_params = trace.params
    sample_phi2 = np.array([s.azimuth2 for s in trace.samples])

    def resolver(param: float) -> MotionSample:
        phi = phi_start + param
        gap_hint = float(np.interp(param, sample_params, sample_phi2)) - phi
        return _only(*_march_samples(ring, table, [param], [phi], gap_hint))

    trace.resolver = resolver
    return trace


def _section_points(terrain, anchor: np.ndarray, direction_xy: np.ndarray,
                    u) -> np.ndarray:
    """Points of the vertical-plane section curve at parameters u, an array
    of any shape: one array height call. (..., 3)"""
    u = np.asarray(u, dtype=float)
    x = float(anchor[0]) + u * float(direction_xy[0])
    y = float(anchor[1]) + u * float(direction_xy[1])
    return np.stack([x, y, terrain.height(x, y)], axis=-1)


def _chord_hints(line_u: np.ndarray, line: np.ndarray, u_leads: np.ndarray,
                 base: np.ndarray, chord: float) -> np.ndarray:
    """Where the section polyline (points `line` at the sorted parameters
    `line_u`) first reaches distance `chord` from base[k] ahead of
    u_leads[k], interpolated on the segment that crosses it; the polyline's
    end when it never does."""
    m = len(u_leads)
    hints = np.full(m, line_u[-1])
    first = np.searchsorted(line_u, u_leads, side="right")
    # a point is at least as far from the base as it is along the section,
    # so each row's window ends one point past u_lead + chord
    last = np.searchsorted(line_u, u_leads + chord, side="right") + 1
    for b in range(0, m, _HINT_BLOCK):
        rows = slice(b, b + _HINT_BLOCK)
        span = int(np.max(last[rows] - first[rows])) + 1
        idx = first[rows, None] + np.arange(span)
        valid = idx < len(line_u)
        idx = np.minimum(idx, len(line_u) - 1)
        dist = np.linalg.norm(line[idx] - base[rows, None, :], axis=-1)
        over = valid & (dist >= chord)
        hit = np.flatnonzero(over.any(axis=1))
        j = np.argmax(over[hit], axis=1)
        u_j, d_j = line_u[idx[hit, j]], dist[hit, j]
        # the point before the crossing: the last polyline point, or the
        # base itself at u_lead when the first point ahead already crosses
        prev = j > 0
        jp = np.maximum(j - 1, 0)
        u_p = np.where(prev, line_u[idx[hit, jp]], u_leads[rows][hit])
        d_p = np.where(prev, dist[hit, jp], 0.0)
        hints[b + hit] = u_p + (chord - d_p) / (d_j - d_p) * (u_j - u_p)
    return hints


def _slide_chords(terrain, anchor, direction_xy, u_leads: np.ndarray,
                  base: np.ndarray, chord: float, hints: np.ndarray, step: float):
    """Parameter and point of the section curve at distance `chord` ahead of
    each row's base point (the section point at u_leads[k]), searched around
    hints[k], all rows at once.

    Each row's bracket starts max(4 step, 1e-6) either side of its hint,
    clipped just ahead of u_lead, and doubles while it holds no sign change;
    9 probes across it must show exactly one. Returns (u, points, errors):
    NaN rows for the rows that fail, and errors maps each of those to its
    BlockedMotion (no bracket) or ConditionViolation (several roots)."""
    m = len(u_leads)

    def gaps(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Chord gaps at u[j, i], a parameter of row rows[j]."""
        d = _section_points(terrain, anchor, direction_xy, u) - base[rows, None, :]
        return np.sqrt(np.sum(d * d, axis=-1)) - chord

    floor = u_leads + 1e-12
    width = max(4.0 * step, 1e-6)
    lo = np.maximum(hints - width, floor)
    hi = hints + width
    ends = gaps(np.stack([lo, hi], axis=1), np.arange(m))
    g_lo, g_hi = ends[:, 0], ends[:, 1]
    errors: dict[int, WobbleError] = {}
    open_ = np.flatnonzero(~((g_lo < 0.0) & (g_hi > 0.0)))
    solvable = np.ones(m, dtype=bool)
    tries = 0
    while open_.size:
        width *= 2.0
        tries += 1
        if tries > 8 or width > 2.0 * chord:
            solvable[open_] = False
            for k in open_.tolist():
                errors[k] = BlockedMotion(
                    "section-curve chord found no bracket; the slide cannot advance")
            break
        lo[open_] = np.maximum(hints[open_] - width, floor[open_])
        hi[open_] = hints[open_] + width
        ends = gaps(np.stack([lo[open_], hi[open_]], axis=1), open_)
        g_lo[open_], g_hi[open_] = ends[:, 0], ends[:, 1]
        open_ = open_[~((g_lo[open_] < 0.0) & (g_hi[open_] > 0.0))]
    rows = np.flatnonzero(solvable)
    probes = np.linspace(lo[rows], hi[rows], 9, axis=1)
    vals = np.empty((rows.size, 9))
    vals[:, 0], vals[:, 8] = g_lo[rows], g_hi[rows]
    vals[:, 1:8] = gaps(probes[:, 1:8], rows)
    signs = vals > 0.0
    several = np.count_nonzero(signs[:, :-1] != signs[:, 1:], axis=1) != 1
    for k in rows[several].tolist():
        errors[k] = ConditionViolation("multiple section-curve chord roots in the bracket")
    rows = rows[~several]
    u = np.full(m, np.nan)
    u[rows] = bracketed_roots(lambda x, r: gaps(x[:, None], rows[r])[:, 0],
                              lo[rows], hi[rows], g_lo[rows], g_hi[rows])
    points = np.full((m, 3), np.nan)
    points[rows] = _section_points(terrain, anchor, direction_xy, u[rows])
    return u, points, errors


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

    def pivots(params: np.ndarray):
        """Edge 1-2 turned by each of `params` about foot 2, foot 1 on the
        vertical half-circle about it: (samples before the first failing
        row, its error, foot 1's elevation per row)."""
        foot1, betas, errors = half_circle_crossings(pivot, psi_a + params, side,
                                                     terrain)
        m = min(errors, default=len(params))
        samples, failure = _squares(table, terrain, "pivot", params, foot1[:m],
                                    np.broadcast_to(pivot, (m, 3)))
        return samples, failure or errors.get(m), betas

    n1 = max(1, int(math.ceil(sweep1 / step)))
    samples, failure, betas = pivots(sweep1 * np.arange(n1 + 1) / n1)
    for i, s in enumerate(samples):
        _record(trace, i, s, "(pivot)")
    if failure is not None:
        raise failure
    u0 = -side * math.cos(float(betas[n1]))
    spacing = side * math.sin(step) if step < math.pi / 2 else side
    n2 = max(1, int(math.ceil(abs(u0) / spacing)))
    param_scale = (math.pi / 2.0) / max(abs(u0), 1e-12)
    u_leads = np.array([u0 * (1.0 - i / n2) for i in range(1, n2 + 1)])
    # the section curve from the first foot 1 to beyond the last foot 2, one
    # side length past the pivot, traced once on the stage's grid
    line_u = np.concatenate([u_leads, spacing * np.arange(1, math.ceil(side / spacing) + 2)])
    line = _section_points(terrain, pivot, dir_xy, line_u)

    def slides(params, u_leads: np.ndarray, foot1: np.ndarray):
        """Foot 1 at each section parameter u_leads[k] (point foot1[k]) and
        foot 2 one side length ahead, searched around the crossing of the
        stage's section polyline: (samples before the first failing row,
        its error)."""
        hints = _chord_hints(line_u, line, u_leads, foot1, side)
        _, foot2, errors = _slide_chords(terrain, pivot, dir_xy, u_leads, foot1,
                                         side, hints, abs(u0) / n2)
        m = min(errors, default=len(u_leads))
        samples, failure = _squares(table, terrain, "slide", params, foot1[:m],
                                    foot2[:m])
        return samples, failure or errors.get(m)

    samples, failure = slides([sweep1 + (u - u0) * param_scale for u in u_leads.tolist()],
                              u_leads, line[:n2])
    for i, s in enumerate(samples, start=n1 + 1):
        _record(trace, i, s, "(slide)")
    if failure is not None:
        raise failure
    _check_endpoints(trace)

    def resolver(param: float) -> MotionSample:
        if param <= sweep1:
            samples, failure, _ = pivots(np.array([param]))
            return _only(samples, failure)
        u_lead = np.array([min(u0 + (param - sweep1) / param_scale, 0.0)])
        return _only(*slides([param], u_lead,
                             _section_points(terrain, pivot, dir_xy, u_lead)))

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
    # every leg's sample points, foot by foot, in one height call
    rise = table.leg_length * np.arange(1, leg_samples + 1) / leg_samples
    q = feet.points[:, None, :] + n * rise[:, None]
    clear = q[..., 2] - terrain.height(q[..., 0], q[..., 1])
    min_clear = float(np.min(clear, initial=math.inf))
    return EquilibriumChecks(
        heights_ok=max_h < tol,
        max_abs_height=max_h,
        rigidity_ok=rig < 1e-9 * table.char_length,
        rigidity_residual=rig,
        legs_clear=min_clear > 0.0,
        min_leg_clearance=min_clear,
    )
