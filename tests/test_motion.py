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
from wobble.errors import BlockedMotion, ConditionViolation, DomainError
from wobble.geometry import SlopeThresholds
from wobble.motion import (
    MotionSample,
    MotionTrace,
    _chord_hints,
    _section_points,
    _slide_chords,
    _squares,
    find_equilibrium,
    run_march,
    run_pivot_slide,
    verify_equilibrium,
)
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


@pytest.mark.parametrize("run, seed, degrees",
                         [(run_march, 7, 16.0), (run_pivot_slide, 1, 36.0)],
                         ids=["march", "pivot_slide"])
def test_override_runs_past_limit(run, seed, degrees):
    steep = generate_terrain(seed, math.radians(degrees), 20, EXT)
    trace = run(TABLE, steep, override=True)
    assert any("exceeds" in w for w in trace.warnings)
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
    feet = settle_three_feet(TABLE, flat, (0.0, 0.0), 0.0)
    samples = [
        MotionSample(param=float(i), feet=feet,
                     contact=ContactState((0.0, 0.0, 0.0, h), 1e-9),
                     stage="synthetic")
        for i, h in enumerate(h4_values)
    ]
    return MotionTrace(kind="march", table=TABLE, terrain=flat, samples=samples,
                       start_feet=feet, center_xy=(0.0, 0.0), yaw=0.0,
                       step=1.0, override=False, slope_bound=0.0)


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


@pytest.mark.parametrize("step", [0.0, -0.25, math.nan])
@pytest.mark.parametrize("run", [run_march, run_pivot_slide],
                         ids=["march", "pivot_slide"])
def test_step_must_be_finite_and_positive(run, step, hills14):
    with pytest.raises(DomainError, match="trace step must be positive"):
        run(TABLE, hills14, step=step)


class CountingTerrain:
    """Delegates to a terrain and counts its scalar and array height calls."""

    def __init__(self, terrain):
        self.inner = terrain
        self.scalar = 0
        self.array = 0

    def height(self, x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            self.array += 1
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


@pytest.mark.parametrize("yaw", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("run", [run_march, run_pivot_slide],
                         ids=["march", "pivot_slide"])
def test_yaw_must_be_finite(run, yaw, hills14):
    with pytest.raises(DomainError, match="yaw must be finite"):
        run(TABLE, hills14, yaw=yaw)


def _section_rows(terrain, anchor, direction, u_leads, line_u, chord=1.0):
    """Foot 1 at each u_lead, the polyline on line_u, and each row's chord
    hint from it."""
    base = _section_points(terrain, anchor, direction, u_leads)
    line = _section_points(terrain, anchor, direction, line_u)
    return base, line, _chord_hints(line_u, line, u_leads, base, chord)


def test_slide_chords_alone_equal_batch(hills30):
    anchor, direction = np.array([0.3, -0.2]), np.array([math.cos(0.7), math.sin(0.7)])
    u_leads = np.linspace(-1.0, 0.0, 12)
    line_u = np.arange(-1.0, 1.5, 0.01)
    base, line, hints = _section_rows(hills30, anchor, direction, u_leads, line_u)
    u, points, errors = _slide_chords(hills30, anchor, direction, u_leads, base,
                                      1.0, hints, 0.01)
    assert not errors
    assert np.all(np.abs(np.linalg.norm(points - base, axis=1) - 1.0) < 1e-9)
    for k in range(len(u_leads)):
        one = slice(k, k + 1)
        assert _chord_hints(line_u, line, u_leads[one], base[one], 1.0)[0] == hints[k]
        u1, p1, e1 = _slide_chords(hills30, anchor, direction, u_leads[one],
                                   base[one], 1.0, hints[one], 0.01)
        assert not e1
        assert u1[0] == u[k]
        assert np.array_equal(p1[0], points[k])


def test_slide_chords_on_flat_ground(flat):
    anchor, direction = np.array([0.5, 0.25]), np.array([0.6, -0.8])
    u_leads = np.linspace(-2.0, 1.0, 7)
    base, _, hints = _section_rows(flat, anchor, direction, u_leads,
                                   np.arange(-2.0, 3.0, 0.05))
    u, _, errors = _slide_chords(flat, anchor, direction, u_leads, base, 1.0,
                                 hints, 0.05)
    assert not errors
    assert np.max(np.abs(u - (u_leads + 1.0))) < 1e-12


def test_slide_chords_map_failing_rows_and_solve_the_rest():
    # a narrow steep bump at x = 1.9 puts three chord roots in row 2's
    # bracket; row 1's hint sits far beyond its root; rows 0 and 3 are flat
    terrain = BumpTerrain([(1.9, 0.0, 0.6, 0.02)], EXT)
    anchor, direction = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    u_leads = np.array([-4.0, -2.0, 1.0, 4.0])
    base = _section_points(terrain, anchor, direction, u_leads)
    u, points, errors = _slide_chords(terrain, anchor, direction, u_leads, base,
                                      1.0, np.array([-3.0, 2.0, 2.0, 5.0]), 0.05)
    assert sorted(errors) == [1, 2]
    assert isinstance(errors[1], BlockedMotion)
    assert "found no bracket" in str(errors[1])
    assert isinstance(errors[2], ConditionViolation)
    assert "multiple section-curve chord roots" in str(errors[2])
    assert np.all(np.isnan(u[[1, 2]])) and np.all(np.isnan(points[[1, 2]]))
    assert abs(u[0] + 3.0) < 1e-12 and abs(u[3] - 5.0) < 1e-12


def _expected_square_flags(sample, terrain, table):
    heights = signed_heights(sample.feet, terrain).heights
    flags = []
    if max(abs(h) for h in heights[:3]) > 1e-9 * table.side:
        flags.append("contact")
    if sample.feet.rigidity_residual(table) > 1e-9 * table.side:
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
        assert recorded == _expected_square_flags(s, terrain, TABLE)


def test_square_flags_match_per_sample_checks(flat):
    # edge 1-2 one side long on a table 1e-7 longer: every row breaks
    # rigidity; row 1 also lifts foot 1 off the ground
    table = TableSpec.square(1.0 + 1e-7)
    foot1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-6], [0.2, 0.1, 0.0]])
    foot2 = foot1 * [1.0, 1.0, 0.0] + [1.0, 0.0, 0.0]
    samples, failure = _squares(table, flat, "test", [0.0, 1.0, 2.0], foot1, foot2)
    assert failure is None and len(samples) == 3
    assert [s.flags for s in samples] == [("rigidity",), ("contact", "rigidity"),
                                          ("rigidity",)]
    for s in samples:
        assert list(s.flags) == _expected_square_flags(s, flat, table)
