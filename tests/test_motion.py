import math

import numpy as np
import pytest

from wobble.contact import (
    ContactState,
    FootSet,
    TableSpec,
    settle_three_feet,
    signed_heights,
)
from wobble.errors import ConditionViolation, DomainError
from wobble.geometry import SlopeThresholds
from wobble.motion import (
    MotionSample,
    MotionTrace,
    _record,
    _squares,
    find_equilibrium,
    flag_names,
    run_march,
    run_pivot_slide,
    verify_equilibrium,
)
from wobble.ring import half_circle_crossings
from wobble.roots import bracketed_root
from wobble.terrain import BumpTerrain, Extent, flat_terrain, generate_terrain

EXT = Extent(-8.0, 8.0, -8.0, 8.0)
TABLE = TableSpec.square(1.0)


def test_march_flat_degenerate_equilibrium(flat):
    trace = run_march(TABLE, flat)
    assert trace.degenerate_start
    result = find_equilibrium(trace, flat)
    assert result.found and result.degenerate
    assert result.sweep == 0.0
    assert result.max_abs_height < 1e-12


def test_march_self_consistency(hills14):
    trace = run_march(TABLE, hills14)
    h4 = trace.h4_values
    assert h4[0] > 0
    assert h4[-1] <= 1e-9
    params = trace.params
    assert np.all(np.diff(params) > 0)
    for s in trace.samples:
        assert not s.flags
        assert max(abs(h) for h in s.contact.heights[:3]) < 1e-9
        assert s.feet.rigidity_residual(TABLE) < 1e-9
    # endpoint identity: final feet 1,2 on initial feet 2,3
    last = trace.samples[-1].feet
    assert np.linalg.norm(last.p1 - trace.start_feet.p2) < 1e-9
    assert np.linalg.norm(last.p2 - trace.start_feet.p3) < 1e-9
    # sphere radius bound
    ratio = trace.sphere.radius / TABLE.side
    assert 1.0 / math.sqrt(2.0) < ratio < math.sqrt(3.0) / 2.0
    # azimuths of both marching feet strictly increase
    phi2 = [s.azimuth2 for s in trace.samples]
    assert all(b > a for a, b in zip(phi2, phi2[1:]))


def test_march_finds_equilibrium(hills14):
    trace = run_march(TABLE, hills14)
    result = find_equilibrium(trace, hills14)
    assert result.found
    assert result.max_abs_height < 1e-9
    assert result.sign_changes >= 1
    assert math.degrees(result.sweep) <= 90.0 + math.degrees(trace.step)
    checks = verify_equilibrium(result.feet, TABLE, hills14)
    assert checks.all_ok


def test_march_steep_slope_refused():
    steep = generate_terrain(2, math.radians(20.0), 20, EXT)
    with pytest.raises(ConditionViolation, match="14.47"):
        run_march(TABLE, steep)


_MARCH_PAST = "terrain slope {} deg exceeds the monotone-march limit 14.4700 deg"


@pytest.mark.parametrize("run, seed, degrees, warnings", [
    (run_march, 7, 16.0, [_MARCH_PAST.format("16.0000")]),
    (run_pivot_slide, 1, 36.0,
     ["terrain slope 36.0000 deg exceeds the pivot-slide limit 35.2644 deg"]),
    # past the curve's 30 deg gate too, which run_march records in turn
    (run_march, 5, 32.0,
     [_MARCH_PAST.format("32.0000"),
      "curve tracing needs terrain slope below 30.0000 deg, measured 32.0000 deg"]),
], ids=["march", "pivot_slide", "march_past_curve_gate"])
def test_override_runs_past_limit(run, seed, degrees, warnings):
    steep = generate_terrain(seed, math.radians(degrees), 20, EXT)
    trace = run(TABLE, steep, override=True)
    assert trace.warnings == warnings
    result = find_equilibrium(trace, steep)
    assert result.found


def test_march_rejects_circle_tables(flat):
    table = TableSpec.circle(1.0, [math.radians(a) for a in (0, 60, 120, 180)])
    with pytest.raises(DomainError):
        run_march(table, flat)


def test_march_workspace_must_fit(hills14):
    with pytest.raises(DomainError, match="margin"):
        run_march(TABLE, hills14, center_xy=(6.0, 0.0))


def test_pivot_slide_self_consistency(hills30):
    trace = run_pivot_slide(TABLE, hills30)
    h4 = trace.h4_values
    assert h4[0] > 0
    assert h4[-1] <= 1e-9
    assert np.all(np.diff(trace.params) > 0)
    stages = {s.stage for s in trace.samples}
    assert stages == {"pivot", "slide"}
    for s in trace.samples:
        assert max(abs(h) for h in s.contact.heights[:3]) < 1e-9
        assert s.feet.rigidity_residual(TABLE) < 1e-9
    last = trace.samples[-1].feet
    assert np.linalg.norm(last.p1 - trace.start_feet.p2) < 1e-9
    assert np.linalg.norm(last.p2 - trace.start_feet.p3) < 1e-9
    assert np.linalg.norm(last.p3 - trace.drop.landed) < 1e-9


def test_pivot_slide_finds_equilibrium_with_clear_legs(hills30):
    trace = run_pivot_slide(TABLE, hills30)
    result = find_equilibrium(trace, hills30)
    assert result.found
    assert result.max_abs_height < 1e-9
    assert result.legs_clear
    checks = verify_equilibrium(result.feet, TABLE, hills30)
    assert checks.all_ok
    assert checks.min_leg_clearance > 0.0


def test_pivot_slide_steep_slope_refused():
    steep = generate_terrain(2, math.radians(40.0), 20, EXT)
    with pytest.raises(ConditionViolation, match="35.26"):
        run_pivot_slide(TABLE, steep)


def test_inverted_start_when_no_labeling_floats():
    # on this steep terrain every labeling settles with the free foot below
    # ground; the motion then runs from negative to positive free height
    terrain = generate_terrain(7852234893926765442, math.radians(35.0), 20, EXT)
    trace = run_pivot_slide(TABLE, terrain)
    h4 = trace.h4_values
    assert h4[0] < 0
    assert h4[-1] >= -1e-9
    result = find_equilibrium(trace, terrain)
    assert result.found and result.max_abs_height < 1e-9


def test_relabel_path_taken_when_free_foot_sinks():
    # bump under nominal foot 4 forces the odd relabel
    terrain = BumpTerrain([(-0.5, 0.5, 0.04, 0.35)], EXT)
    trace = run_march(TABLE, terrain)
    assert trace.relabeled
    result = find_equilibrium(trace, terrain)
    assert result.found and result.max_abs_height < 1e-9


def _synthetic_trace(flat, h4_values):
    # one settled placement repeated, with the given free-foot heights
    feet = settle_three_feet(TABLE, flat, (0.0, 0.0), 0.0)
    n = len(h4_values)
    return MotionTrace(kind="march", table=TABLE, terrain=flat,
                       start_feet=feet, step=1.0, override=False,
                       params=np.arange(n, dtype=float),
                       feet=np.repeat(feet.points[None], n, axis=0),
                       heights=np.column_stack([np.zeros((n, 3)), h4_values]),
                       stages=np.zeros(n, dtype=np.int8),
                       flags=np.zeros(n, dtype=np.uint8))


def test_find_equilibrium_no_sign_change(flat):
    trace = _synthetic_trace(flat, [0.5, 0.4, 0.3])
    result = find_equilibrium(trace, flat)
    assert not result.found
    assert result.min_abs_h4 == pytest.approx(0.3)


def test_find_equilibrium_all_zero(flat):
    trace = _synthetic_trace(flat, [0.0, 0.0, 0.0])
    result = find_equilibrium(trace, flat)
    assert result.found and result.degenerate
    assert result.parameter == 0.0


def test_find_equilibrium_refines_on_bump_terrain():
    terrain = BumpTerrain([(-0.5, -0.5, 0.05, 0.4)], EXT)
    trace = run_march(TABLE, terrain)
    result = find_equilibrium(trace, terrain)
    assert result.found
    lo, hi = result.intervals[0]
    assert lo <= result.parameter <= hi
    assert result.max_abs_height < 1e-9


def test_verify_equilibrium_flags_lifted_foot(flat):
    feet = settle_three_feet(TABLE, flat, (0.0, 0.0), 0.0)
    lifted = feet.points.copy()
    lifted[3, 2] += 1e-3
    checks = verify_equilibrium(FootSet(lifted), TABLE, flat)
    assert not checks.heights_ok
    assert checks.max_abs_height == pytest.approx(1e-3)
    assert checks.legs_clear


def test_verify_equilibrium_passes_on_flat(flat):
    feet = settle_three_feet(TABLE, flat, (0.0, 0.0), 0.0)
    checks = verify_equilibrium(feet, TABLE, flat)
    assert checks.all_ok
    assert checks.min_leg_clearance > 0.9 * TABLE.leg_length / 50.0


@pytest.mark.parametrize("run, terrain_name",
                         [(run_march, "hills14"), (run_pivot_slide, "hills30")],
                         ids=["march", "pivot_slide"])
def test_trace_resolver_matches_samples(run, terrain_name, request):
    terrain = request.getfixturevalue(terrain_name)
    trace = run(TABLE, terrain)
    # the middle sample of each stage, re-solved from its parameter alone
    for stage in sorted({s.stage for s in trace.samples}):
        staged = [s for s in trace.samples if s.stage == stage]
        mid = staged[len(staged) // 2]
        re = trace.resolver(mid.param)
        assert re.stage == stage
        assert np.max(np.abs(re.feet.points - mid.feet.points)) < 1e-9
        assert re.contact.h4 == pytest.approx(mid.contact.h4, abs=1e-9)


def test_march_reads_foot1_off_its_ring_nodes(hills14):
    trace = run_march(TABLE, hills14)
    ring = trace.ring
    # every row's foot 1 and latitude are a ring node's, bit for bit, at
    # consecutive nodes whose azimuths are the start's plus the parameters
    centre = trace.sphere.center
    foot1 = trace.feet[:, 0]
    azimuths = np.arctan2(foot1[:, 1] - centre[1], foot1[:, 0] - centre[0])
    nodes = np.abs(ring.azimuths[None, :] - azimuths[:, None]).argmin(axis=1)
    assert np.array_equal(nodes, nodes[0] + np.arange(len(trace)))
    assert ring.points[nodes].tobytes() == foot1.tobytes()
    assert ring.latitudes[nodes].tobytes() == trace.latitude1.tobytes()
    assert ring.azimuths[nodes].tobytes() == (ring.azimuths[nodes[0]]
                                              + trace.params).tobytes()
    # the one-node call of the trace reproduces a node
    point, lat = ring.node(float(ring.azimuths[nodes[7]]))
    assert point.tobytes() == ring.points[nodes[7]].tobytes()
    assert lat == ring.latitudes[nodes[7]]


def test_march_resolver_reproduces_its_rows(hills14):
    trace = run_march(TABLE, hills14)
    for i in (0, 1, len(trace) // 2, len(trace) - 1):
        re = trace.resolver(float(trace.params[i]))
        assert re.feet.points.tobytes() == trace.feet[i].tobytes()
        assert re.contact.heights == tuple(trace.heights[i].tolist())
        assert (re.azimuth2, re.latitude1, re.latitude2) == (
            trace.azimuth2[i], trace.latitude1[i], trace.latitude2[i])


def _pinned_flat(slope):
    terrain = flat_terrain(EXT)
    terrain._slope_cache = slope
    return terrain


def test_slope_gates_at_their_limits():
    # each gate refuses slope >= limit; the march limit admits 1e-12 above
    # the certified 14.47 deg
    th = SlopeThresholds()
    with pytest.raises(ConditionViolation, match="35.26"):
        run_pivot_slide(TABLE, _pinned_flat(th.legs_clear))
    trace = run_march(TABLE, _pinned_flat(th.monotone_march))
    assert trace.degenerate_start and not trace.warnings
    with pytest.raises(ConditionViolation, match="14.47"):
        run_march(TABLE, _pinned_flat(th.monotone_march + 2e-12))
    # settling's 45 deg gate refuses even under override
    for run in (run_march, run_pivot_slide):
        with pytest.raises(ConditionViolation, match="settling needs terrain slope "
                                                     "below 45.0000 deg, measured 45.0000"):
            run(TABLE, _pinned_flat(th.half_circle_unique), override=True)


@pytest.mark.parametrize("step, message", [
    (0.0, "trace step must be positive"),
    (-0.25, "trace step must be positive"),
    (math.nan, "trace step must be positive"),
    # far below the floor: a missing guard fails at once in numpy's allocator
    (1e-15, r"trace step 5.73e-14 deg is below the floor of 0.0006866 deg \(pi/2\^18 rad\)"),
], ids=["0.0", "-0.25", "nan", "1e-15"])
@pytest.mark.parametrize("run", [run_march, run_pivot_slide],
                         ids=["march", "pivot_slide"])
def test_step_must_be_finite_and_positive(run, step, message, hills14):
    with pytest.raises(DomainError, match=message):
        run(TABLE, hills14, step=step)


class CountingTerrain:
    """Delegates to a terrain and counts its scalar and array height calls,
    and the points of the array calls."""

    def __init__(self, terrain):
        self.inner = terrain
        self.scalar = 0
        self.array = 0
        self.points = 0

    def height(self, x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            self.array += 1
            self.points += np.broadcast(x, y).size
        else:
            self.scalar += 1
        return self.inner.height(x, y)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_pivot_slide_solves_each_stage_in_array_passes(hills30):
    # with one scan and one scalar refinement per sample and per foot, this
    # solve made 944 array and 10,551 scalar height calls; with the foot
    # circles batched but one scalar chord search per slide sample, 3,227
    # scalar calls
    terrain = CountingTerrain(hills30)
    result = find_equilibrium(run_pivot_slide(TABLE, terrain), terrain)
    assert result.found
    assert terrain.array <= 944 // 4
    assert terrain.scalar <= 10_551 // 2
    assert terrain.scalar <= 3_227 // 5
    # with every foot-circle scan point evaluated, 285,238 array points
    assert terrain.points <= 285_238 // 3


def _sample_bits(s: MotionSample):
    return (repr((s.param, s.contact.heights, s.contact.tolerance, s.stage,
                  s.azimuth2, s.latitude1, s.latitude2, s.flags)),
            s.feet.points.tobytes())


@pytest.mark.parametrize("run, terrain_name", [
    (run_pivot_slide, "hills30"), (run_pivot_slide, "hills14"),
    (run_march, "hills14"), (run_march, "hills12"),
], ids=["pivot_slide-hills30", "pivot_slide-hills14", "march-hills14", "march-hills12"])
def test_trace_equals_every_node_trace(run, terrain_name, request, every_node):
    terrain = request.getfixturevalue(terrain_name)
    got = run(TABLE, terrain)
    want = run(TABLE, every_node(terrain))
    assert [_sample_bits(s) for s in got.samples] == [_sample_bits(s) for s in want.samples]
    assert got.warnings == want.warnings and got.relabeled == want.relabeled
    a, b = find_equilibrium(got, terrain), find_equilibrium(want, every_node(terrain))
    assert a.found and b.found
    assert a.parameter == b.parameter
    assert a.feet.points.tobytes() == b.feet.points.tobytes()


def test_verify_equilibrium_checks_legs_in_one_array_call(hills30):
    result = find_equilibrium(run_pivot_slide(TABLE, hills30), hills30)
    terrain = CountingTerrain(hills30)
    checks = verify_equilibrium(result.feet, TABLE, terrain)
    # the 4 x 50 leg points are one array call; the four foot heights stay
    # the scalar calls of signed_heights, so the reported max |h_i| keeps
    # its bits
    assert terrain.array == 1
    assert terrain.scalar == 4
    assert checks.max_abs_height == result.max_abs_height
    # the same leg points queried one at a time
    n = np.cross(result.feet.p3 - result.feet.p1, result.feet.p4 - result.feet.p2)
    n = n / np.linalg.norm(n)
    if n[2] < 0:
        n = -n
    clear = [float(q[2]) - hills30.height(float(q[0]), float(q[1]))
             for foot in result.feet.points for k in range(1, 51)
             for q in [foot + n * (TABLE.leg_length * k / 50)]]
    assert checks.legs_clear == (min(clear) > 0.0)
    assert abs(checks.min_leg_clearance - min(clear)) < 1e-12


@pytest.mark.parametrize("yaw", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("run", [run_march, run_pivot_slide],
                         ids=["march", "pivot_slide"])
def test_yaw_must_be_finite(run, yaw, hills14):
    with pytest.raises(DomainError, match="yaw must be finite"):
        run(TABLE, hills14, yaw=yaw)


def test_half_circle_crossings_on_tilted_plane(plane10):
    # from a base on z = x tan 10deg, the crossing at azimuth psi sits at
    # elevation gamma with tan gamma = tan 10deg cos psi
    rng = np.random.default_rng(10)
    xy = rng.uniform(-5.0, 5.0, (20, 2))
    base = np.column_stack([xy, xy[:, 0] * math.tan(math.radians(10.0))])
    psi = rng.uniform(-math.pi, math.pi, 20)
    points, _, errors = half_circle_crossings(base, psi, 1.0, plane10)
    assert not errors
    gamma = np.arctan(math.tan(math.radians(10.0)) * np.cos(psi))
    expected = base + np.column_stack([np.cos(gamma) * np.cos(psi),
                                       np.cos(gamma) * np.sin(psi), np.sin(gamma)])
    assert np.max(np.abs(points - expected)) < 1e-11


def test_half_circle_crossings_map_failing_rows_and_solve_the_rest():
    # a narrow steep bump at x = 1.9 crosses row 2's half-circle three
    # times; rows 0, 1 and 3 meet flat ground one unit ahead
    terrain = BumpTerrain([(1.9, 0.0, 0.6, 0.02)], EXT)
    u_leads = np.array([-4.0, -2.0, 1.0, 4.0])
    base = np.column_stack([u_leads, np.zeros(4),
                            terrain.height(u_leads, np.zeros(4))])
    points, _, errors = half_circle_crossings(base, np.zeros(4), 1.0, terrain)
    assert sorted(errors) == [2]
    assert isinstance(errors[2], ConditionViolation)
    assert "3 times" in str(errors[2])
    assert np.all(np.isnan(points[2]))
    for k in (0, 1, 3):
        assert np.max(np.abs(points[k] - [u_leads[k] + 1.0, 0.0, 0.0])) < 1e-12


def test_slide_foot2_one_side_ahead_in_the_slide_plane(hills30):
    trace = run_pivot_slide(TABLE, hills30)
    p2, p3 = trace.start_feet.p2, trace.start_feet.p3
    ahead = (p3 - p2)[:2] / np.linalg.norm((p3 - p2)[:2])
    normal = np.array([-ahead[1], ahead[0]])
    slides = [s for s in trace.samples if s.stage == "slide"]
    assert slides
    for s in slides:
        edge = s.feet.p2 - s.feet.p1
        assert abs(np.linalg.norm(edge) - TABLE.side) < 1e-9
        assert abs(float(np.dot(s.feet.p2[:2] - p2[:2], normal))) < 1e-9
        assert float(np.dot(edge[:2], ahead)) > 0.0


def _expected_square_flags(feet, terrain, table):
    heights = signed_heights(feet, terrain).heights
    flags = []
    if max(abs(h) for h in heights[:3]) > 1e-9 * table.side:
        flags.append("contact")
    if feet.rigidity_residual(table) > 1e-9 * table.side:
        flags.append("rigidity")
    return flags


@pytest.mark.parametrize("run, terrain_name",
                         [(run_march, "hills14"), (run_pivot_slide, "hills30")],
                         ids=["march", "pivot_slide"])
def test_recorded_flags_match_per_sample_checks(run, terrain_name, request):
    terrain = request.getfixturevalue(terrain_name)
    trace = run(TABLE, terrain)
    for s in trace.samples:
        recorded = [f for f in s.flags if f in ("contact", "rigidity")]
        assert recorded == _expected_square_flags(s.feet, terrain, TABLE)


def test_square_flags_match_per_sample_checks(flat):
    # edge 1-2 one side long on a table 1e-7 longer: every row breaks
    # rigidity; row 1 also lifts foot 1 off the ground
    table = TableSpec.square(1.0 + 1e-7)
    foot1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-6], [0.2, 0.1, 0.0]])
    foot2 = foot1 * [1.0, 1.0, 0.0] + [1.0, 0.0, 0.0]
    rows, failure = _squares(table, flat, "pivot", [0.0, 1.0, 2.0], foot1, foot2)
    assert failure is None and len(rows["params"]) == 3
    flags = [flag_names(int(mask)) for mask in rows["flags"]]
    assert flags == [("rigidity",), ("contact", "rigidity"), ("rigidity",)]
    for names, feet in zip(flags, rows["feet"]):
        assert list(names) == _expected_square_flags(FootSet(feet), flat, table)


def test_pivot_slide_builds_no_foot_set_per_row(hills30, monkeypatch):
    # the trace keeps its samples as columns, so a FootSet is built only at
    # the start, the drop, the re-solves and the result; with one per row
    # this solve built about 590
    built = [0]
    post_init = FootSet.__post_init__

    def counting(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(FootSet, "__post_init__", counting)
    trace = run_pivot_slide(TABLE, hills30)
    result = find_equilibrium(trace, hills30)
    assert result.found and len(trace) > 500
    assert built[0] <= 40


def test_record_raises_the_first_flagged_row_or_warns_each(flat):
    # the rows of test_square_flags_match_per_sample_checks: every row
    # breaks rigidity and row 1 also contact
    table = TableSpec.square(1.0 + 1e-7)
    foot1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-6], [0.2, 0.1, 0.0]])
    foot2 = foot1 * [1.0, 1.0, 0.0] + [1.0, 0.0, 0.0]
    rows, _ = _squares(table, flat, "pivot", [0.0, 1.0, 2.0], foot1, foot2)
    # the same rows again with the free foot 0.5 higher: continuity breaks
    # between the two blocks only
    lifted = {name: column.copy() for name, column in rows.items()}
    lifted["heights"][:, 3] += 0.5

    def empty_trace(override):
        return MotionTrace(kind="pivot_slide", table=table, terrain=flat,
                           start_feet=None, step=1.0, override=override)

    with pytest.raises(ConditionViolation) as err:
        _record(empty_trace(False), rows, "(pivot)")
    assert str(err.value) == "pivot-slide sample 0 (pivot) failed checks ['rigidity']"
    trace = empty_trace(True)
    _record(trace, rows, "(pivot)")
    _record(trace, lifted, "(pivot)")
    assert trace.warnings == [
        "sample 0 (pivot): rigidity", "sample 1 (pivot): contact,rigidity",
        "sample 2 (pivot): rigidity", "sample 3 (pivot): rigidity,continuity",
        "sample 4 (pivot): contact,rigidity", "sample 5 (pivot): rigidity"]
    assert len(trace) == 6 and trace.params.tolist() == [0.0, 1.0, 2.0] * 2
    assert trace.sample(3).flags == ("rigidity", "continuity")


# ------------------------------------- refinement started from the samples


def _counted_resolves(trace):
    """Wrap the trace's resolver; returns the list of resolved params."""
    params = []
    resolver = trace.resolver

    def counted(param):
        params.append(param)
        return resolver(param)

    trace.resolver = counted
    return params


def test_pivot_slide_refines_in_about_one_resolve_per_solve():
    # plain Brent on the whole bracket made 26 resolves on these 12 solves
    tol = 1e-9 * TABLE.char_length
    total = 0
    for seed in range(1, 13):
        terrain = generate_terrain(seed, math.radians(35.0), 20, EXT)
        trace = run_pivot_slide(TABLE, terrain)
        resolved = _counted_resolves(trace)
        result = find_equilibrium(trace, terrain)
        assert result.found
        assert result.max_abs_height <= 0.1 * tol
        total += len(resolved)
    assert total <= 14


def test_march_refines_in_one_resolve(hills14):
    trace = run_march(TABLE, hills14)
    resolved = _counted_resolves(trace)
    result = find_equilibrium(trace, hills14)
    assert result.found and len(resolved) == 1
    assert result.parameter == resolved[0]
    lo, hi = result.intervals[0]
    assert lo < result.parameter < hi
    assert result.max_abs_height <= 0.1e-9 * TABLE.char_length


# the stub trace's sample step, about a default step of a motion
_STUB_STEP = 0.004


def _free_foot(x):
    # a smooth, strictly falling free-foot height with its zero near 0.0135
    return 0.5 * (0.0134 - x) + 0.5 * (0.0134 - x) ** 2 + 1e-3 * math.sin(3.0 * x)


def _stub_trace(flat):
    """Eight samples of `_free_foot`, _STUB_STEP apart from 0, crossing
    between samples 3 and 4, with a resolver that evaluates it."""
    params = _STUB_STEP * np.arange(8)
    trace = _synthetic_trace(flat, [_free_foot(x) for x in params])
    trace.params = params
    feet = trace.start_feet
    tol = 1e-9 * TABLE.char_length

    def resolver(param):
        return MotionSample(param=param, feet=feet,
                            contact=ContactState((0.0, 0.0, 0.0, _free_foot(param)), tol),
                            stage="settled")

    trace.resolver = resolver
    return trace


def _plain_brent_resolves():
    calls = []

    def f(x):
        calls.append(x)
        return _free_foot(x)

    lo, hi = 3 * _STUB_STEP, 4 * _STUB_STEP
    bracketed_root(f, lo, hi, xtol=1e-15, ftol=0.1e-9 * TABLE.char_length,
                   f_lo=_free_foot(lo), f_hi=_free_foot(hi))
    return calls


def _spoil(trace, case):
    if case == "not-monotone":
        # sample 1 drops below sample 2, still above the ground; the
        # interpolant through the samples would still land in the bracket
        trace.heights[1, 3] = 0.9 * trace.heights[2, 3]
    elif case == "flat-step":
        trace.heights[6, 3] = trace.heights[5, 3]
    elif case == "bracket-spans-two-stages":
        trace.stages[4:] = 1
    elif case == "sample-in-another-stage":
        trace.stages[6:] = 1


def test_stub_trace_with_monotone_samples_starts_inside_the_bracket(flat):
    trace = _stub_trace(flat)
    resolved = _counted_resolves(trace)
    result = find_equilibrium(trace, flat)
    assert len(resolved) == 1 and len(_plain_brent_resolves()) == 3
    assert result.parameter == resolved[0]
    assert 3 * _STUB_STEP < result.parameter < 4 * _STUB_STEP
    assert abs(_free_foot(result.parameter)) <= 0.1e-9 * TABLE.char_length


@pytest.mark.parametrize("case", ["not-monotone", "flat-step", "bracket-spans-two-stages",
                                  "sample-in-another-stage"])
def test_stub_trace_falls_back_to_plain_brent(flat, case):
    trace = _stub_trace(flat)
    _spoil(trace, case)
    resolved = _counted_resolves(trace)
    result = find_equilibrium(trace, flat)
    assert resolved == _plain_brent_resolves()
    assert result.found and result.intervals[0] == (3 * _STUB_STEP, 4 * _STUB_STEP)
