"""Continuous motions that carry three grounded feet to the next labeling.

Both motions settle the table, keep three feet exactly on the ground, and
end with feet 1 and 2 on the original positions of feet 2 and 3. Along the
way the free foot's signed height changes sign, so the intermediate value
theorem hands us a placement with all four feet grounded.

Both motions run on one driver and differ only in their path: `_start`
checks the step and the yaw, gates the slope, checks the workspace, settles
and drops the free foot; `_squares` flags every sample's contact and
rigidity, `_record` adds the motion's own flags and continuity and records
a stage's samples, and `_check_endpoints` checks that the path ends one
labeling further; `_breach` raises each condition breach, or records it as
a warning under override.

Each stage places all its samples before recording any. Feet 1 and 2 come
first. The pivot stage solves every foot 1 at once with the blocked
half-circle kernel (ring.half_circle_crossings). The slide stage puts each
foot 1 on the section curve of the vertical plane through feet 2-3; its
foot 2 stays one side length ahead in that plane, where the forward
vertical half-circle about foot 1 meets the ground, so one call of the same
kernel places every foot 2. The half-circle always straddles the ground
(its ends lie one side length below and above foot 1), so the only
placement failure of a foot 2 is a ConditionViolation (exit code 3) when
the kernel's 1-degree scan of the whole half-circle counts other than one
crossing. The march traces its ring (ring.trace_ring, the same kernel) on
a grid that holds every sample's azimuth and reads each foot 1 off its
node; only its chords are still solved in order, each searched from the
last. Batching them as well waits until the `march` benchmark stops
holding every op's output, or a faster march would read there as a memory
regression. Then `_squares` closes every sample's square in one pass:
every foot 3 by the blocked circle kernel
(ring.circle_crossings), every foot 4, and every contact height in one
array call. A placement failure that a row reports (a failed circle
certificate or corner check) does not raise at once: it stops the stage at
that sample, the samples before it are flagged and recorded in order, and
only then is it raised. So the first breach in sample order, a flag or such
a failure, raises the same error as a sample-by-sample solve would, and
override runs record the same warnings. An error raised by the terrain
inside a batched call (a query outside its extent) or a NaN met while
refining belongs to no one row: it aborts the stage before any of its
samples is recorded. The workspace check in `_start` keeps every reachable
foot circle inside the extent. Each motion's resolver is the one-sample
call of the same stage functions.

A trace keeps its samples as columns, one row per sample: the parameters,
the feet (n, 4, 3), the four signed heights (n, 4), a stage code (an index
into STAGES), a flag bitmask (bit k set for FLAGS[k]) and, for the march,
foot 2's azimuth and both latitudes; residuals follow from the feet, the
heights and the sphere. A stage's rows are flagged, checked and appended in
array passes; `MotionTrace.sample(i)` builds one MotionSample on demand.

Motion "march" follows the curve where the circumsphere of the settled feet
and the dropped free foot meets the ground, certified up to a 14.47 deg
slope. Motion "pivot_slide" rotates the leading edge about foot 2, then
slides it within a vertical plane onto edge 2-3, certified up to 35.264 deg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .roots import bracketed_root

_TWO_PI = 2.0 * math.pi
_SLOPES = SlopeThresholds()
DEFAULT_STEP = math.radians(0.25)
# points sampled along each leg by the clearance check
_LEG_SAMPLES = 50


# a sample's stage, by its code in the trace's stage column
STAGES = ("settled", "march", "pivot", "slide")
# the breached checks, bit k of a row's flag mask for FLAGS[k], in the
# order a sample lists them
FLAGS = ("contact", "rigidity", "latitude", "monotone", "continuity")
_CONTACT, _RIGIDITY, _LATITUDE, _MONOTONE, _CONTINUITY = (1 << k for k in range(5))
# the march's own columns; None in a trace of the other motion
_MARCH_COLUMNS = ("azimuth2", "latitude1", "latitude2")


def flag_names(mask: int) -> tuple[str, ...]:
    """The names of the checks set in a row's flag mask, in FLAGS order."""
    return tuple(name for k, name in enumerate(FLAGS) if mask >> k & 1)


@dataclass(frozen=True)
class MotionSample:
    param: float
    feet: FootSet
    contact: ContactState
    stage: str
    azimuth2: float | None = None       # azimuth of foot 2 about the sphere axis
    latitude1: float | None = None
    latitude2: float | None = None
    flags: tuple[str, ...] = ()


def _row_sample(rows, k: int, tolerance: float) -> MotionSample:
    """Row k of a mapping of sample columns, as a MotionSample."""
    march = ({name: float(rows[name][k]) for name in _MARCH_COLUMNS}
             if rows.get("azimuth2") is not None else {})
    return MotionSample(param=float(rows["params"][k]), feet=FootSet(rows["feet"][k]),
                        contact=ContactState(tuple(rows["heights"][k].tolist()),
                                             tolerance),
                        stage=STAGES[rows["stages"][k]],
                        flags=flag_names(int(rows["flags"][k])), **march)


@dataclass
class MotionTrace:
    kind: str                           # "march" or "pivot_slide"
    table: TableSpec
    terrain: object
    start_feet: FootSet
    step: float
    override: bool
    relabeled: bool = False
    sphere: Sphere | None = None
    drop: DropRotation | None = None
    degenerate_start: bool = False
    warnings: list[str] = field(default_factory=list)
    resolver: object = None             # param -> MotionSample, for refinement
    ring: GroundRing | None = None
    # the samples, one row each
    params: np.ndarray = field(default_factory=lambda: np.empty(0))
    feet: np.ndarray = field(default_factory=lambda: np.empty((0, 4, 3)))
    heights: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    stages: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))
    flags: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint8))
    # the march's columns (see _MARCH_COLUMNS)
    azimuth2: np.ndarray | None = None
    latitude1: np.ndarray | None = None
    latitude2: np.ndarray | None = None

    def __len__(self) -> int:
        return self.params.size

    def sample(self, i: int) -> MotionSample:
        return _row_sample(vars(self), i, _contact_tolerance(self.table))

    @property
    def samples(self) -> list[MotionSample]:
        return [self.sample(i) for i in range(len(self))]

    @property
    def h4_values(self) -> np.ndarray:
        return self.heights[:, 3]

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
    trace = MotionTrace(kind=kind, table=table, terrain=terrain, start_feet=None,
                        step=step, override=override)
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
        trace.params = np.zeros(1)
        trace.feet = feet0.points[None]
        trace.heights = np.array([state0.heights])
        trace.stages = np.zeros(1, dtype=np.int8)
        trace.flags = np.zeros(1, dtype=np.uint8)
    else:
        trace.drop = drop_rotate(feet0, terrain)
    return trace, state0.h4


def _record(trace: MotionTrace, rows: dict, where, own_flags=0) -> None:
    """Add own_flags (a mask per row) and continuity with the previous
    sample to the flags of a stage's rows (contact and rigidity, set by
    `_squares`), raise on the first flagged row or, under override, record
    a warning for each, and append the rows' columns to the trace. The
    error names where(k) of row k, or `where` itself if it is a string."""
    flags = rows["flags"] | own_flags
    h4 = np.concatenate([trace.heights[-1:, 3], rows["heights"][:, 3]])
    jump = np.abs(np.diff(h4)) > 0.2 * trace.table.side
    flags[flags.size - jump.size:] |= jump * np.uint8(_CONTINUITY)
    start = len(trace)
    for k in np.flatnonzero(flags).tolist():
        names = list(flag_names(int(flags[k])))
        _breach(trace, ConditionViolation,
                f"{trace.kind.replace('_', '-')} sample {start + k} "
                f"{where if isinstance(where, str) else where(k)} failed checks {names}",
                f"sample {start + k} ({STAGES[rows['stages'][k]]}): {','.join(names)}")
    rows["flags"] = flags
    for name, column in rows.items():
        old = getattr(trace, name)
        setattr(trace, name, column if old is None else np.concatenate([old, column]))


def _check_endpoints(trace: MotionTrace) -> None:
    """The first sample is the settled start; the last puts feet 1, 2 and 3
    on the start feet 2 and 3 and on the dropped free foot."""
    feet0 = trace.start_feet
    first, last = trace.feet[0], trace.feet[-1]
    pairs = ((last[0], feet0.p2), (last[1], feet0.p3),
             (last[2], trace.drop.landed), (first, feet0.points))
    checks = [float(np.linalg.norm(a - b)) for a, b in pairs]
    if max(checks) > 1e-9 * trace.table.side:
        _breach(trace, GeometryViolation,
                f"endpoint identity violated: residuals {['%.2e' % c for c in checks]}")


def _squares(table: TableSpec, terrain, stage: str, params, foot1: np.ndarray,
             foot2: np.ndarray):
    """Close the square on edge 1-2 of every row in one pass: foot 3 where
    the circle about the edge through foot 2 meets the ground, foot 4 by the
    parallelogram rule, then all four contact heights, and flag every row
    whose feet 1-3 leave the ground ("contact") or whose pairwise distances
    leave the table's ("rigidity").

    Returns the sample columns (at params[k], in `stage`) of the rows before
    the first row that fails, and that row's error (None when every row
    stands)."""
    p3, errors = circle_crossings(foot2, foot2 - foot1, table.side, terrain)
    p4, corner_errors = complete_fourth_feet(foot1, foot2, p3)
    for k, exc in corner_errors.items():
        errors.setdefault(k, exc)
    m = min(errors, default=len(foot1))
    pts = np.stack([foot1[:m], foot2[:m], p3[:m], p4[:m]], axis=1)
    # the check that FootSet makes of each placement
    if not np.isfinite(pts).all():
        raise DomainError("foot set needs a finite (4,3) array, got shape (4, 3)")
    heights = pts[:, :, 2] - terrain.height(pts[:, :, 0], pts[:, :, 1])
    tol = _contact_tolerance(table)
    d = pts[:, :, None, :] - pts[:, None, :, :]
    rigidity = np.max(np.abs(np.sqrt((d * d).sum(axis=-1))
                             - table.reference_distances()), axis=(1, 2))
    flags = (np.where(np.max(np.abs(heights[:, :3]), axis=1) > tol, _CONTACT, 0)
             | np.where(rigidity > 1e-9 * table.side, _RIGIDITY, 0)).astype(np.uint8)
    rows = {"params": np.asarray(params, dtype=float)[:m], "feet": pts,
            "heights": heights, "stages": np.full(m, STAGES.index(stage), dtype=np.int8),
            "flags": flags}
    return rows, errors.get(m)


def _only(rows: dict, failure: WobbleError | None, table: TableSpec) -> MotionSample:
    """The sample of a one-row solve, or its error."""
    if failure is not None:
        raise failure
    return _row_sample(rows, 0, _contact_tolerance(table))


def _march_rows(ring: GroundRing, table: TableSpec, params, phis, foot1: np.ndarray,
                lat1: np.ndarray, hint_gap: float):
    """The marching square at each azimuth phis[k] (march parameter
    params[k]): foot 1 at foot1[k] on the curve (latitude lat1[k]), foot 2 a
    chord ahead, searched `hint_gap` ahead of the first sample and then one
    last gap ahead, feet 3 and 4 by `_squares`. The chords are solved in
    order; a failure stops them, and later rows wait for the earlier ones to
    be recorded. Returns the sample columns, the march's among them, of the
    rows before the first failing row and that row's error."""
    chords, failure = [], None
    try:
        for phi, p1 in zip(phis, foot1):
            p2, phi2, lat2 = chord_advance(ring, p1, phi, table.side, phi + hint_gap)
            hint_gap = phi2 - phi
            chords.append((p2, phi2, lat2))
    except WobbleError as exc:
        failure = exc
    rows, square_failure = _squares(
        table, ring.terrain, "march", params, foot1[:len(chords)],
        np.array([c[0] for c in chords]).reshape(-1, 3))
    m = len(rows["params"])
    phi2, lat2 = np.array([c[1:] for c in chords[:m]], float).reshape(m, 2).T
    rows.update(azimuth2=phi2, latitude1=np.array(lat1[:m], dtype=float), latitude2=lat2)
    return rows, square_failure or failure


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
    # foot 1 visits n + 1 samples from its start to foot 2's start; the ring
    # is traced on the samples' grid, from 4 nodes below the first to 6
    # beyond foot 2's last chord (one gap23 ahead), so every foot 1 is a
    # ring node and every chord search has nodes around it. The ring bounds
    # its latitudes by twice the slope. Its spacing keeps the step floor,
    # which bounds the number of nodes, and a sample's azimuth is phi_start
    # plus its parameter, bit for bit, as in the resolver
    n = max(1, int(math.ceil(gap12 / step)))
    check_step(gap12 / n)
    top = n + int(math.ceil(gap23 * n / gap12)) + 6
    offsets = gap12 * np.arange(-4, top + 1) / n
    azimuths = phi_start + offsets
    ring = trace_ring(sphere, terrain, azimuths, side, enforce=not override)
    trace.warnings.extend(ring.warnings)
    trace.ring = ring

    samples = slice(4, n + 5)
    phis = azimuths[samples]
    rows, failure = _march_rows(ring, table, offsets[samples], phis.tolist(),
                                ring.points[samples], ring.latitudes[samples], gap12)
    lat = np.maximum(np.abs(rows["latitude1"]), np.abs(rows["latitude2"]))
    azimuth2 = rows["azimuth2"]
    own = (np.where((lat >= ring.latitude_bound) & (lat > 1e-12), _LATITUDE, 0)
           | np.where(np.append(False, azimuth2[1:] <= azimuth2[:-1]), _MONOTONE, 0))
    _record(trace, rows, lambda k: f"at azimuth {math.degrees(phis[k]):.4f} deg",
            own.astype(np.uint8))
    if failure is not None:
        raise failure
    _check_endpoints(trace)

    sample_params, sample_gaps = trace.params, trace.azimuth2 - phis

    def resolver(param: float) -> MotionSample:
        # the chord search starts one gap ahead, that of the last sample
        # before `param`, as the march's own loop would: at a sample's
        # parameter this reproduces its row
        k = int(np.searchsorted(sample_params, param)) - 1
        phi = phi_start + param
        p1, lat1 = ring.node(phi)
        return _only(*_march_rows(ring, table, [param], [phi], p1[None], [lat1],
                                  gap12 if k < 0 else float(sample_gaps[k])), table)

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
    psi_slide = psi_b + math.pi
    dir_xy = np.array([math.cos(psi_slide), math.sin(psi_slide)])

    def pivots(params: np.ndarray):
        """Edge 1-2 turned by each of `params` about foot 2, foot 1 on the
        vertical half-circle about it: (the sample columns of the rows
        before the first failing row, its error, foot 1's elevation per
        row)."""
        foot1, betas, errors = half_circle_crossings(pivot, psi_a + params, side,
                                                     terrain)
        m = min(errors, default=len(params))
        rows, failure = _squares(table, terrain, "pivot", params, foot1[:m],
                                 np.broadcast_to(pivot, (m, 3)))
        return rows, failure or errors.get(m), betas

    n1 = max(1, int(math.ceil(sweep1 / step)))
    rows, failure, betas = pivots(sweep1 * np.arange(n1 + 1) / n1)
    _record(trace, rows, "(pivot)")
    if failure is not None:
        raise failure
    u0 = -side * math.cos(float(betas[n1]))
    spacing = side * math.sin(step) if step < math.pi / 2 else side
    n2 = max(1, int(math.ceil(abs(u0) / spacing)))
    param_scale = (math.pi / 2.0) / max(abs(u0), 1e-12)
    u_leads = np.array([u0 * (1.0 - i / n2) for i in range(1, n2 + 1)])

    def slides(params, foot1: np.ndarray):
        """Foot 1 at each point foot1[k] of the section and foot 2 one side
        length ahead, where the forward vertical half-circle about foot 1
        meets the ground: (the sample columns of the rows before the first
        failing row, its error)."""
        foot2, _, errors = half_circle_crossings(
            foot1, np.full(len(foot1), psi_slide), side, terrain)
        m = min(errors, default=len(foot1))
        rows, failure = _squares(table, terrain, "slide", params, foot1[:m], foot2[:m])
        return rows, failure or errors.get(m)

    rows, failure = slides([sweep1 + (u - u0) * param_scale for u in u_leads.tolist()],
                           _section_points(terrain, pivot, dir_xy, u_leads))
    _record(trace, rows, "(slide)")
    if failure is not None:
        raise failure
    _check_endpoints(trace)

    def resolver(param: float) -> MotionSample:
        if param <= sweep1:
            rows, failure, _ = pivots(np.array([param]))
            return _only(rows, failure, table)
        u_lead = np.array([min(u0 + (param - sweep1) / param_scale, 0.0)])
        return _only(*slides([param], _section_points(terrain, pivot, dir_xy, u_lead)),
                     table)

    trace.resolver = resolver
    return trace


def _interpolated_root(trace: MotionTrace, i0: int) -> float | None:
    """Where the inverse interpolant through the samples i0 - 2 .. i0 + 3
    (those in the trace) puts the free foot's zero, if it lies strictly
    inside the bracket (params[i0], params[i0 + 1]); None when the samples
    leave the bracket's stage or h4 is not strictly monotone over them."""
    lo, hi = max(i0 - 2, 0), min(i0 + 4, len(trace))
    h = trace.heights[lo:hi, 3]
    x = trace.params[lo:hi]
    step = np.diff(h)
    if (np.any(trace.stages[lo:hi] != trace.stages[i0])
            or not (np.all(step > 0.0) or np.all(step < 0.0))):
        return None
    # Neville's scheme for the polynomial x(h) through the samples, at h = 0
    p = x.tolist()
    h = h.tolist()
    for m in range(1, len(p)):
        for i in range(len(p) - m):
            p[i] = (h[i + m] * p[i] - h[i] * p[i + 1]) / (h[i + m] - h[i])
    x0 = p[0]
    return x0 if trace.params[i0] < x0 < trace.params[i0 + 1] else None


def find_equilibrium(trace: MotionTrace, terrain) -> EquilibriumResult:
    """First parameter where the free foot's height crosses zero, refined by
    re-solving the full placement.

    The refinement starts from the trace's own samples: the inverse
    interpolant of h4 through up to six samples around the crossing (see
    `_interpolated_root`) picks the first re-solve. If its |h4| is within a
    tenth of the contact tolerance, that is the placement; otherwise Brent's
    method refines the part of the bracket that keeps the sign change. When
    the samples leave the bracket's stage (a crossing at the pivot-slide
    boundary), h4 is not strictly monotone over them, or the interpolated
    root falls outside the bracket, Brent's method refines the whole
    bracket. Either way it stops at a bracket of about 1e-15 or an |h4| of
    at most a tenth of the contact tolerance.

    The refined placement is the visited sample with the smallest |h4|. A
    crossing whose far end already lies inside the contact band, with no
    sign change, is not refined: its endpoint sample is the placement.
    """
    tol = _contact_tolerance(trace.table)
    if not len(trace):
        raise DomainError("empty motion trace")
    h4 = trace.h4_values
    params = trace.params

    if trace.degenerate_start or abs(h4[0]) <= tol:
        s = trace.sample(0)
        checks = verify_equilibrium(s.feet, trace.table, terrain)
        return EquilibriumResult(
            found=True, parameter=float(params[0]), feet=s.feet,
            max_abs_height=checks.max_abs_height, sweep=0.0,
            table_rotation=0.0, legs_clear=checks.legs_clear, sign_changes=0,
            intervals=(), degenerate=True)

    a, b = h4[:-1], h4[1:]
    crossings = np.flatnonzero(((a > tol) & (b <= tol)) | ((a < -tol) & (b >= -tol))
                               | (a * b < 0.0)).tolist()
    if not crossings:
        return EquilibriumResult(
            found=False, parameter=None, feet=None, max_abs_height=None,
            sweep=float(params[-1] - params[0]),
            table_rotation=trace.table_rotation(trace.sample(-1)),
            legs_clear=None, sign_changes=0, intervals=(),
            min_abs_h4=float(np.min(np.abs(h4))))

    intervals = tuple((float(params[i]), float(params[i + 1])) for i in crossings)
    i0 = crossings[0]
    if trace.resolver is None:
        raise DomainError("trace has no resolver; cannot refine the crossing")
    a, b = float(h4[i0]), float(h4[i0 + 1])
    best = trace.sample(i0 if abs(a) < abs(b) else i0 + 1)
    if (a > 0.0) != (b > 0.0):
        def h4_at(param: float) -> float:
            nonlocal best
            s = trace.resolver(param)
            if abs(s.contact.h4) < abs(best.contact.h4):
                best = s
            return s.contact.h4

        lo, hi = float(params[i0]), float(params[i0 + 1])
        x0 = _interpolated_root(trace, i0)
        if x0 is not None:
            h0 = h4_at(x0)
            # the sub-bracket that keeps the sign change
            if (h0 > 0.0) == (a > 0.0):
                lo, a = x0, h0
            else:
                hi, b = x0, h0
        if x0 is None or not abs(h0) <= 0.1 * tol:
            bracketed_root(h4_at, lo, hi, xtol=1e-15, ftol=0.1 * tol, f_lo=a, f_hi=b)
    checks = verify_equilibrium(best.feet, trace.table, terrain)
    return EquilibriumResult(
        found=True, parameter=float(best.param), feet=best.feet,
        max_abs_height=checks.max_abs_height,
        sweep=float(best.param - params[0]),
        table_rotation=trace.table_rotation(best),
        legs_clear=checks.legs_clear, sign_changes=len(crossings),
        intervals=intervals)


def verify_equilibrium(feet: FootSet, table: TableSpec, terrain) -> EquilibriumChecks:
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
    rise = table.leg_length * np.arange(1, _LEG_SAMPLES + 1) / _LEG_SAMPLES
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
