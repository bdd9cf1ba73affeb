import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wobble import terrain as terrain_mod
from wobble.contact import TableSpec
from wobble.errors import ConditionViolation, DomainError, ParseError, ValidationError
from wobble.motion import run_march
from wobble.terrain import (
    BumpTerrain,
    Extent,
    GridTerrain,
    estimate_slope_bound,
    flat_terrain,
    generate_terrain,
    parse_terrain,
    serialize_terrain,
)

EXT = Extent(-8.0, 8.0, -8.0, 8.0)


def test_flat_height_is_zero_everywhere():
    t = flat_terrain()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(-90, 90, 2)
        assert t.height(float(x), float(y)) == 0.0


def test_single_bump_peak_value():
    t = BumpTerrain([(0.0, 0.0, 0.37, 1.1)], EXT)
    assert t.height(0.0, 0.0) == 0.37


def test_height_deterministic_bit_identical(hills14):
    a = hills14.height(0.123456, -0.654321)
    b = hills14.height(0.123456, -0.654321)
    assert a == b


def test_grid_reproduces_node_values():
    rng = np.random.default_rng(7)
    heights = rng.normal(size=(9, 11))
    g = GridTerrain((-2.0, -1.0), 0.5, heights)
    # oracle: direct table lookup
    for r in range(9):
        for c in range(11):
            x = -2.0 + 0.5 * c
            y = -1.0 + 0.5 * r
            assert g.height(x, y) == pytest.approx(heights[r, c], abs=1e-12)


def test_gradient_flat(flat):
    assert flat.gradient(1.0, 2.0) == (0.0, 0.0)


def test_gradient_tilted_plane(plane10):
    want = math.tan(math.radians(10.0))
    gx, gy = plane10.gradient(1.23, -0.77)
    assert gx == pytest.approx(want, abs=1e-12)
    assert gy == pytest.approx(0.0, abs=1e-12)


def test_gradient_matches_finite_differences(hills14):
    rng = np.random.default_rng(1)
    sigma = min(b.sigma for b in hills14.bumps)
    h = 1e-4 * sigma
    for _ in range(1000):
        x, y = rng.uniform(-7, 7, 2)
        gx, gy = hills14.gradient(float(x), float(y))
        fx = (hills14.height(x + h, y) - hills14.height(x - h, y)) / (2 * h)
        fy = (hills14.height(x, y + h) - hills14.height(x, y - h)) / (2 * h)
        scale = max(1.0, abs(gx), abs(gy))
        assert abs(gx - fx) / scale < 1e-5
        assert abs(gy - fy) / scale < 1e-5


def test_slope_bound_flat(flat):
    assert estimate_slope_bound(flat) == 0.0


def test_slope_bound_tilted_plane(plane10):
    got = estimate_slope_bound(plane10)
    assert abs(got - math.radians(10.0)) < 1e-6


def test_slope_bound_single_bump_closed_form():
    amp, sigma = 0.8, 1.7
    t = BumpTerrain([(0.0, 0.0, amp, sigma)], Extent(-20, 20, -20, 20))
    got = estimate_slope_bound(t)
    want = math.atan(amp * math.exp(-0.5) / sigma)
    # oracle: dense 1-D scan of the radial profile derivative
    rs = np.linspace(0.0, 6 * sigma, 200001)
    slopes = np.abs(amp * rs / sigma**2 * np.exp(-0.5 * (rs / sigma) ** 2))
    dense = math.atan(float(np.max(slopes)))
    assert abs(want - dense) < 1e-9
    assert abs(got - want) < 1e-9


def test_slope_bound_needs_enough_samples(flat):
    with pytest.raises(DomainError):
        estimate_slope_bound(flat, samples=100)
    # 10^12 samples would be an 8 TB grid: the count is refused before
    # anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="at most 10\\^8 samples, got 1000000000000"):
            estimate_slope_bound(flat, samples=10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bump_count_over_the_cap_is_refused_before_any_bump_is_drawn():
    # 10^8 bumps would take hours to draw one by one; the count is refused
    # before the first draw
    tracemalloc.start()
    try:
        with pytest.raises(DomainError,
                           match="at most 10\\^4 bumps, got 100000000"):
            generate_terrain(1, math.radians(10.0), 10**8, EXT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a bumps file's list is counted before any bump is read
    text = json.dumps({"type": "bumps", "bumps": [{}] * (terrain_mod.MAX_BUMPS + 1)})
    with pytest.raises(DomainError, match="at most 10\\^4 bumps, got 10001"):
        parse_terrain(text)


@pytest.mark.parametrize("bounds", [
    (-math.inf, math.inf, -8.0, 8.0),
    (-8.0, 8.0, -8.0, math.inf),
    (-1e308, 1e308, -8.0, 8.0),
    (-8.0, 8.0, -1e308, 1e308),
])
def test_extent_must_have_a_finite_width_and_height(bounds):
    with pytest.raises(ValidationError, match="finite width and height"):
        Extent(*bounds)


def test_file_and_grid_extents_must_have_a_finite_width():
    # finite bounds 2e308 apart in a bumps file, and a grid whose far edge
    # lies 2e308 from its origin
    text = json.dumps({"type": "bumps", "extent": [-1e308, 1e308, -8, 8], "bumps": []})
    with pytest.raises(ValidationError, match="finite width and height"):
        parse_terrain(text)
    with pytest.raises(ValidationError, match="finite width and height"):
        GridTerrain((-1e308, 0.0), 1e308, np.zeros((2, 3)))


@pytest.mark.parametrize("seed", [1, 2, 3, 9])
def test_generate_respects_target_slope(seed):
    target = math.radians(14.0)
    t = generate_terrain(seed, target, 20, EXT)
    assert estimate_slope_bound(t) <= target


def test_generate_slope_certified_with_dense_sampling():
    target = math.radians(10.0)
    t = generate_terrain(4, target, 20, EXT)
    assert estimate_slope_bound(t, samples=1_000_000) <= target + 1e-12


def test_generate_zero_bumps_is_flat():
    t = generate_terrain(5, math.radians(10.0), 0, EXT)
    assert t.height(0.3, 0.4) == 0.0
    assert t.slope_bound == 0.0


def test_generate_zero_target_is_flat():
    t = generate_terrain(5, 0.0, 20, EXT)
    assert all(b.amplitude == 0.0 for b in t.bumps)
    assert t.height(1.0, 1.0) == 0.0


def test_generate_deterministic_same_seed():
    a = serialize_terrain(generate_terrain(42, math.radians(12.0), 20, EXT))
    b = serialize_terrain(generate_terrain(42, math.radians(12.0), 20, EXT))
    assert a == b


def test_roundtrip_heights_identical(hills14):
    t2 = parse_terrain(serialize_terrain(hills14))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-7, 7, (100, 2))
    za = hills14.height(pts[:, 0], pts[:, 1])
    zb = t2.height(pts[:, 0], pts[:, 1])
    assert np.array_equal(za, zb)


def test_roundtrip_grid():
    rng = np.random.default_rng(11)
    g = GridTerrain((-3.0, -2.0), 0.25, rng.normal(size=(17, 13)))
    g2 = parse_terrain(serialize_terrain(g))
    pts = rng.uniform(-2.0, -1.0, (50, 2))
    assert np.array_equal(g.height(pts[:, 0], pts[:, 1]),
                          g2.height(pts[:, 0], pts[:, 1]))


def test_parse_missing_amplitude_names_field():
    text = '{"type": "bumps", "bumps": [{"cx": 0, "cy": 0, "sigma": 1}]}'
    with pytest.raises(ParseError, match="amplitude"):
        parse_terrain(text)


def test_parse_grid_size_mismatch():
    text = ('{"type": "grid", "origin": [0, 0], "spacing": 1.0, '
            '"rows": 3, "cols": 3, "heights": [0, 0, 0, 0]}')
    with pytest.raises(ValidationError, match="9"):
        parse_terrain(text)


def test_negative_width_rejected():
    with pytest.raises(ValidationError):
        BumpTerrain([(0.0, 0.0, 1.0, -0.5)], EXT)


def test_out_of_extent_names_coordinate(hills14):
    with pytest.raises(DomainError, match="9.5"):
        hills14.height(9.5, 0.0)
    with pytest.raises(DomainError):
        hills14.gradient(0.0, -123.0)


def test_grid_gradient_continuous_across_cells():
    rng = np.random.default_rng(13)
    g = GridTerrain((-4.0, -4.0), 0.5, rng.normal(size=(17, 17)))
    worst = 0.0
    for _ in range(1000):
        k = rng.integers(1, 16)
        boundary = -4.0 + 0.5 * float(k)
        other = float(rng.uniform(-3.9, 3.9))
        if rng.uniform() < 0.5:
            a = g.gradient(boundary, other)
            b = g.gradient(np.nextafter(boundary, -np.inf), other)
        else:
            a = g.gradient(other, boundary)
            b = g.gradient(other, np.nextafter(boundary, -np.inf))
        worst = max(worst, abs(a[0] - b[0]), abs(a[1] - b[1]))
    assert worst < 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_grid_interpolates_its_own_nodes(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 8))
    cols = int(rng.integers(2, 8))
    heights = rng.normal(size=(rows, cols))
    g = GridTerrain((0.0, 0.0), 1.0, heights)
    r = int(rng.integers(0, rows))
    c = int(rng.integers(0, cols))
    assert g.height(float(c), float(r)) == pytest.approx(heights[r, c], abs=1e-12)


def test_flat_terrain_default_extent():
    t = flat_terrain()
    assert t.height(50.0, -50.0) == 0.0
    with pytest.raises(DomainError):
        t.height(101.0, 0.0)


@pytest.mark.parametrize("seed, degrees", [(0, 6.0), (3, 14.0), (11, 30.0), (39, 35.0)])
def test_generated_slope_bound_needs_no_second_estimate(seed, degrees):
    t = generate_terrain(seed, math.radians(degrees), 20, EXT)
    # set by generate_terrain from its own search, not searched again
    assert t._search is not None
    fresh = BumpTerrain(t.bumps, t.extent).slope_search()
    assert abs(t.slope_bound - fresh.upper) <= 1e-12


# ---------------------------------------------------------------- kernels
#
# The array kernels evaluate one bump at a time on large calls and all bumps
# in one (bumps, points) pass on small ones. Both must give each point
# exactly the floating-point operations of the plain per-bump expression
# below, in the same order, so every result is compared for equality.


def _reference_height(t, x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    z = np.zeros(np.broadcast(x, y).shape)
    for b in t.bumps:
        neg_half_inv = -0.5 / (b.sigma * b.sigma)
        dx = x - b.cx
        dy = y - b.cy
        z += b.amplitude * np.exp((dx * dx + dy * dy) * neg_half_inv)
    return z


def _reference_gradient(t, x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    shape = np.broadcast(x, y).shape
    gx = np.zeros(shape)
    gy = np.zeros(shape)
    for b in t.bumps:
        neg_half_inv = -0.5 / (b.sigma * b.sigma)
        dx = x - b.cx
        dy = y - b.cy
        w = (b.amplitude * (-2.0 * neg_half_inv)) * np.exp((dx * dx + dy * dy) * neg_half_inv)
        gx -= w * dx
        gy -= w * dy
    return gx, gy


def _same_bits(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_kernels_match(t, x, y):
    assert _same_bits(t.height(x, y), _reference_height(t, x, y))
    got = t.gradient(x, y)
    want = _reference_gradient(t, x, y)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


# points at which a 20-bump call switches from the one-pass layout to the
# per-bump loop
_CROSSOVER = terrain_mod._SMALL_KERNEL // 20


@pytest.mark.parametrize("name", ["hills14", "hills30", "flat"])
@pytest.mark.parametrize("n", [0, 1, _CROSSOVER - 1, _CROSSOVER, _CROSSOVER + 1, 11_552])
def test_kernels_match_per_bump_reference(name, n, request):
    t = request.getfixturevalue(name)
    rng = np.random.default_rng(n)
    x = rng.uniform(-8.0, 8.0, n)
    y = rng.uniform(-8.0, 8.0, n)
    _assert_kernels_match(t, x, y)
    # a row against a column, as the slope grid queries
    _assert_kernels_match(t, x[None, :], y[: max(1, n // 100), None])


@pytest.mark.parametrize("name", ["hills14", "hills30", "flat"])
def test_kernels_match_reference_on_stencil_and_grid_shapes(name, request):
    t = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    _assert_kernels_match(t, rng.uniform(-8, 8, (560, 8)), rng.uniform(-8, 8, (560, 8)))
    xs = np.linspace(-8.0, 8.0, 200)
    _assert_kernels_match(t, xs[None, :], xs[:81, None])
    _assert_kernels_match(t, xs[None, :5], xs[:3, None])
    _assert_kernels_match(t, np.float64(0.25), xs[:7])
    _assert_kernels_match(t, np.asarray(0.25), np.asarray(-1.5))
    # the columns of one (k, 2) point array, as foot positions are passed
    pts = rng.uniform(-8, 8, (300, 2))
    _assert_kernels_match(t, pts[:, 0], pts[:, 1])


def _row_loop(rows):
    z = np.zeros(rows.shape[1:])
    for row in rows:
        z += row
    return z


@pytest.mark.parametrize("shape", [(20, 1), (20,), (20, 1, 1), (4, 8), (20, 4, 8),
                                   (1024, 37), (20, 1024, 37), (0, 1), (0, 4, 8)])
def test_bump_sum_equals_the_row_loop(shape):
    # rows of mixed signs and magnitudes, so the order of the additions
    # shows in the last bits; a row of -0.0 must not leave a -0.0 sum
    rng = np.random.default_rng(len(shape) + shape[0])
    rows = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
    assert _same_bits(terrain_mod._bump_sum(rows), _row_loop(rows))
    if shape[0]:
        rows[:] = -0.0
        assert _same_bits(terrain_mod._bump_sum(rows), _row_loop(rows))


@pytest.mark.parametrize("shape", [(1,), (1, 1), (4, 8)])
def test_one_call_bump_sum_on_zero_bumps_and_a_negative_zero_amplitude(shape):
    rng = np.random.default_rng(9)
    x, y = rng.uniform(-8.0, 8.0, (2,) + shape)
    no_bumps = BumpTerrain([], EXT)
    assert _same_bits(no_bumps.height(x, y), np.zeros(shape))
    # -0.0 * exp(...) is -0.0: alone it sums to 0.0, after a bump it adds nothing
    for bumps in ([(0.5, 0.5, -0.0, 1.0)],
                  [(0.5, 0.5, -0.0, 1.0), (-1.0, 2.0, 0.3, 1.7), (1.0, 0.0, -0.0, 0.4)]):
        t = BumpTerrain(bumps, EXT)
        assert _same_bits(t.height(x, y), _reference_height(t, x, y))
    assert _same_bits(BumpTerrain([(0.5, 0.5, -0.0, 1.0)], EXT).height(x, y),
                      np.zeros(shape))


@pytest.mark.parametrize("name", ["hills14", "hills30", "flat", "grid"])
def test_scalar_gradient_equals_one_point_array(name, request):
    rng = np.random.default_rng(3)
    if name == "grid":
        t = GridTerrain((-8.0, -8.0), 0.5, rng.standard_normal((33, 33)))
    else:
        t = request.getfixturevalue(name)
    for x, y in rng.uniform(-8.0, 8.0, (200, 2)):
        gx, gy = t.gradient(np.array([x]), np.array([y]))
        assert _same_bits(t.gradient(float(x), float(y)), (gx[0], gy[0]))


@pytest.mark.parametrize("n", [40, 11_552])
def test_point_alone_equals_point_in_batch(hills30, n):
    rng = np.random.default_rng(17)
    x = rng.uniform(-8.0, 8.0, n)
    y = rng.uniform(-8.0, 8.0, n)
    z = hills30.height(x, y)
    gx, gy = hills30.gradient(x, y)
    for k in (0, n // 2, n - 1):
        one_x, one_y = x[k:k + 1], y[k:k + 1]
        assert _same_bits(hills30.height(one_x, one_y), z[k:k + 1])
        ax, ay = hills30.gradient(one_x, one_y)
        assert _same_bits(ax, gx[k:k + 1]) and _same_bits(ay, gy[k:k + 1])


@pytest.mark.parametrize("n", [4, 11_552])
def test_array_query_outside_extent_names_first_bad_point(hills14, n):
    x = np.zeros((2, n // 2))
    y = np.zeros((2, n // 2))
    # ravel order: (0, 1) comes before (1, 0), and (1, 0) is further out
    x[1, 0] = 9.5
    y[0, 1] = -8.25
    for query in (hills14.height, hills14.gradient):
        with pytest.raises(DomainError, match=r"\(0\.0, -8\.25\)"):
            query(x, y)


def test_nan_and_empty_queries_pass_the_extent_check(hills14):
    z = hills14.height(np.array([np.nan, 0.0]), np.array([0.0, 0.0]))
    assert np.isnan(z[0]) and np.isfinite(z[1])
    gx, gy = hills14.gradient(np.array([0.0]), np.array([np.nan]))
    assert np.isnan(gx[0]) and np.isnan(gy[0])
    empty = np.array([])
    assert hills14.height(empty, empty).shape == (0,)
    assert hills14.gradient(empty, 0.0)[0].shape == (0,)


# --------------------------------------------------------- slope estimate


def _reference_refine(terrain, ext, xs, ys, spacing, levels=14):
    """The 9-point pattern search, every stencil point evaluated anew."""
    px = np.array(xs, dtype=float)
    py = np.array(ys, dtype=float)
    offs = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
    h = spacing
    for _ in range(levels):
        cx = np.clip(px[:, None] + offs[:, 0] * h, ext.xmin, ext.xmax)
        cy = np.clip(py[:, None] + offs[:, 1] * h, ext.ymin, ext.ymax)
        gx, gy = terrain.gradient(cx, cy)
        g2 = gx * gx + gy * gy
        pick = np.argmax(g2, axis=1)
        rows = np.arange(px.size)
        px = cx[rows, pick]
        py = cy[rows, pick]
        h *= 0.5
    gx, gy = terrain.gradient(px, py)
    return float(np.max(gx * gx + gy * gy))


@pytest.mark.parametrize("name", ["hills14", "hills30", "plane10", "single_bump"])
def test_slope_estimate_equals_nine_point_search(name, request, monkeypatch):
    if name == "single_bump":
        t = BumpTerrain([(0.0, 0.0, 0.8, 1.7)], Extent(-20, 20, -20, 20))
    else:
        t = request.getfixturevalue(name)
    got = estimate_slope_bound(t)
    monkeypatch.setattr(terrain_mod, "_refine_candidates", _reference_refine)
    assert got == estimate_slope_bound(t)


@pytest.mark.parametrize("seed", [1, 5, 39])
def test_generated_terrain_unchanged_by_carried_centre(seed, monkeypatch):
    # generation runs the certified search and never the sampled estimate,
    # so the estimate's refinement (its carried centre included) cannot
    # change a generated terrain
    got = serialize_terrain(generate_terrain(seed, math.radians(20.0), 20, EXT))

    def refuse(*args, **kwargs):
        raise AssertionError("generate_terrain ran the sampled slope estimate")

    monkeypatch.setattr(terrain_mod, "estimate_slope_bound", refuse)
    monkeypatch.setattr(terrain_mod, "_refine_candidates", refuse)
    assert got == serialize_terrain(generate_terrain(seed, math.radians(20.0), 20, EXT))


# ------------------------------------------------- certified slope search


def _steepest_samples(t, n=1000, top=40):
    """|grad f| on an n x n grid over the extent, and the largest |grad f|
    found by zooming three times, on 101 x 101 stencils, around each of the
    `top` steepest grid points."""
    e = t.extent
    xs = np.linspace(e.xmin, e.xmax, n)
    ys = np.linspace(e.ymin, e.ymax, n)
    gx, gy = t.gradient(xs[None, :], ys[:, None])
    grid = np.hypot(gx, gy)
    best = float(np.max(grid))
    for k in np.argsort(grid.ravel())[-top:]:
        px, py = xs[k % n], ys[k // n]
        for half in (2e-2, 2e-4, 2e-6):
            u = np.linspace(-half, half, 101)
            x, y = np.meshgrid(np.clip(px + u, e.xmin, e.xmax),
                               np.clip(py + u, e.ymin, e.ymax))
            gx, gy = t.gradient(x, y)
            s = np.hypot(gx, gy)
            m = int(np.argmax(s))
            px, py = x.ravel()[m], y.ravel()[m]
            best = max(best, float(s.ravel()[m]))
    return best


@pytest.mark.parametrize("seed", [39, 1, 2, 5])
def test_generated_slope_bound_is_above_every_sample(seed):
    # at seed 39 the sampled estimate once read 13.99999999 deg while a
    # gradient near the steepest point reads 14.0000036 deg
    target = math.radians(14.0)
    t = generate_terrain(seed, target, 20, EXT)
    assert t.slope_bound <= target
    assert _steepest_samples(t) <= math.tan(t.slope_bound)


def test_slope_search_brackets_one_bump():
    amp, sigma = -0.8, 1.7
    t = BumpTerrain([(0.5, -0.4, amp, sigma)], Extent(-20, 20, -20, 20))
    closed = abs(amp) * math.exp(-0.5) / sigma
    s = t.slope_search()
    assert closed <= math.tan(s.upper) <= closed * (1.0 + terrain_mod._SEARCH_RHO)
    assert math.tan(s.lower) <= closed * (1.0 + 1e-12)
    assert t.slope_bound == s.upper


@pytest.mark.parametrize("seed", range(20))
def test_slope_search_is_above_the_dense_estimate(seed):
    degrees = 6.0 + 29.0 * seed / 19
    t = generate_terrain(seed, math.radians(degrees), 20, EXT)
    fresh = BumpTerrain(t.bumps, t.extent).slope_search()
    est = estimate_slope_bound(t, samples=10**6)
    assert est <= fresh.upper and est <= t.slope_bound
    # the search's gap is the relative tolerance in tan, no more
    assert math.tan(fresh.upper) <= math.tan(fresh.lower) * (1.0 + terrain_mod._SEARCH_RHO)


@pytest.mark.parametrize("bumps", [
    [(0.3, 0.2, 1e-3, 1e-3)],
    # an isolated bump: its steepest points form a whole circle
    [(-4.0, -4.0, 0.6, 0.8), (5.0, 5.0, 1e-3, 0.5)],
], ids=["needle", "isolated"])
def test_slope_search_stops_within_its_caps(bumps):
    t = BumpTerrain(bumps, EXT)
    s = t.slope_search()
    closed = max(abs(a) * math.exp(-0.5) / sigma for _, _, a, sigma in bumps)
    assert s.levels <= terrain_mod._SEARCH_LEVELS
    assert s.points <= s.levels * terrain_mod._SEARCH_CELLS
    assert math.tan(s.upper) >= closed


def test_slope_search_of_flat_ground_is_zero(flat):
    assert BumpTerrain(flat.bumps, flat.extent).slope_search() == (0.0, 0.0, 0, 0)


# --------------------------------------------------------- gradient bound


def test_gradient_bound_covers_dense_samples(hills30):
    rng = np.random.default_rng(11)
    xy = rng.uniform(-6.0, 6.0, size=(200, 2))
    radii = rng.uniform(0.05, 2.0, 200)
    bounds = hills30.gradient_bound(xy[:, 0], xy[:, 1], radii)
    # every disc lies inside the extent: the bound is at most the per-bump
    # sum and the certified slope, and the slope caps some of them
    sums = hills30._disc_bound(xy[:, 0], xy[:, 1], radii)
    cap = math.tan(hills30.slope_search().upper) * (1.0 + terrain_mod._BOUND_MARGIN)
    assert np.all(bounds <= sums) and np.all(bounds <= cap)
    assert np.any(bounds < sums)
    # 20 radii x 72 angles per disc, centre included
    rho = np.linspace(0.0, 1.0, 20)[:, None] * radii
    phi = np.linspace(0.0, 2.0 * math.pi, 72, endpoint=False)
    for k in range(200):
        x = xy[k, 0] + np.outer(rho[:, k], np.cos(phi))
        y = xy[k, 1] + np.outer(rho[:, k], np.sin(phi))
        gx, gy = hills30.gradient(x, y)
        assert np.max(np.hypot(gx, gy)) <= bounds[k]


def test_gradient_bound_of_a_disc_leaving_the_extent_is_uncapped(hills30):
    # the certified slope holds over the extent only: the first three discs
    # reach outside it and keep their sums, which lie above the cap; the
    # last two lie inside (one touches its edge) and get the cap
    x = np.array([7.5, 0.0, 3.0, 0.0, 2.0])
    y = np.array([0.0, 0.0, 3.0, 0.0, -1.0])
    radius = np.array([6.0, 9.0, 6.0, 8.0, 5.0])
    sums = hills30._disc_bound(x, y, radius)
    cap = math.tan(hills30.slope_search().upper) * (1.0 + terrain_mod._BOUND_MARGIN)
    assert np.all(sums > cap)
    assert np.array_equal(hills30.gradient_bound(x, y, radius), [*sums[:3], cap, cap])


def test_gradient_bound_exact_for_one_bump_on_its_ring():
    amp, sigma = -0.8, 1.7
    t = BumpTerrain([(0.5, -0.4, amp, sigma)], Extent(-20, 20, -20, 20))
    ring_slope = abs(amp) * math.exp(-0.5) / sigma
    # discs that hold a point of the ring r = sigma: centre at distance d,
    # radius at least |d - sigma|
    for d, radius in [(0.0, 1.7), (0.0, 3.0), (1.7, 0.01), (1.0, 0.8),
                      (3.0, 1.4), (2.5, 10.0)]:
        got = float(t.gradient_bound(0.5 + d * 0.6, -0.4 + d * 0.8, radius))
        assert ring_slope <= got <= ring_slope * (1.0 + 2e-9)
    # a disc inside the ring sees less
    assert float(t.gradient_bound(0.5, -0.4, 1.0)) < ring_slope


def test_gradient_bound_zero_on_flat_ground(flat):
    assert np.array_equal(flat.gradient_bound(np.array([0.0, 3.0]), 1.0, 2.0), [0.0, 0.0])


def test_grid_bounds_settle_nothing(plane10):
    assert np.all(plane10.gradient_bound(np.zeros(3), np.zeros(3), 1.0) == math.inf)
    assert plane10.height_rounding() == math.inf


# ----------------------------------------------------------- file errors


@pytest.mark.parametrize("text, error", [
    ('{"type": "bumps", "bumps": [{"cx": null, "cy": 0, "amplitude": 1, "sigma": 1}]}',
     ParseError),
    ('{"type": "bumps", "extent": [-1, "x", -1, 1], "bumps": []}', ParseError),
    ('{"type": "bumps", "extent": 4, "bumps": []}', ParseError),
    ('{"type": "bumps", "bumps": [3]}', ParseError),
    ('{"type": "bumps", "bumps": {"cx": 0}}', ParseError),
    ('{"type": "grid", "origin": [0], "spacing": 1, "rows": 2, "cols": 2, '
     '"heights": [0, 0, 0, 0]}', ParseError),
    ('{"type": "grid", "origin": [0, 0], "spacing": null, "rows": 2, "cols": 2, '
     '"heights": [0, 0, 0, 0]}', ParseError),
    ('{"type": "grid", "origin": [0, 0], "spacing": 1, "rows": "x", "cols": 2, '
     '"heights": [0, 0, 0, 0]}', ParseError),
    ('{"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 2.7, "cols": 2, '
     '"heights": [0, 0, 0, 0]}', ParseError),
    ('{"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 2, "cols": 2, '
     '"heights": [0, "x", 0, 0]}', ParseError),
    ('{"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 2, "cols": 2, '
     '"heights": [0, [1], 0, 0]}', ParseError),
    ('{"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 1, "cols": 2, '
     '"heights": [[0, 1], [2, 3]]}', ParseError),
    # strict JSON: no NaN or Infinity literals, no number that overflows,
    # no byte-order mark and no lone surrogate escape
    ('{"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 2, "cols": 2, '
     '"heights": [0, NaN, 0, 0]}', ParseError),
    ('{"type": "bumps", "bumps": [{"cx": 0, "cy": 0, "amplitude": Infinity, '
     '"sigma": 1}]}', ParseError),
    ('{"type": "bumps", "bumps": [{"cx": 0, "cy": 0, "amplitude": 1, '
     '"sigma": -Infinity}]}', ParseError),
    ('{"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 2, "cols": 2, '
     '"heights": [0, 1e400, 0, 0]}', ParseError),
    ('\ufeff{"type": "bumps", "bumps": []}', ParseError),
    ('{"type": "bumps", "bumps": [], "note": "\\ud800"}', ParseError),
    ('{"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 2, "cols": 2, '
     '"heights": [0, null, 0, 0]}', ValidationError),
    ('{"type": "grid", "origin": [0, 0], "spacing": 1, "rows": -1, "cols": -1, '
     '"heights": [0]}', ValidationError),
])
def test_malformed_terrain_fields_are_typed_errors(text, error):
    with pytest.raises(error):
        parse_terrain(text)


def test_whole_float_grid_counts_parse():
    g = parse_terrain('{"type": "grid", "origin": [0, 0], "spacing": 1, '
                      '"rows": 2.0, "cols": 2, "heights": [0, 1, 2, 3]}')
    assert g.heights.shape == (2, 2)


def test_grid_heights_convert_as_float_does():
    text = ('{"type": "grid", "origin": [0, "1"], "spacing": 1, "rows": 2, "cols": 2, '
            '"heights": [0, true, "2", 3.5]}')
    g = parse_terrain(text)
    assert g.origin == (0.0, 1.0)
    assert g.heights.tolist() == [[0.0, 1.0], [2.0, 3.5]]


@pytest.mark.parametrize("sigma", ["1e-200", "1e-160", "1e200"])
def test_bump_width_whose_square_is_not_normal_is_refused(sigma):
    # the kernels divide by sigma^2, which underflows or overflows here
    text = ('{"type": "bumps", "extent": [-1, 1, -1, 1], "bumps": '
            f'[{{"cx": 0, "cy": 0, "amplitude": 1, "sigma": {sigma}}}]}}')
    with pytest.raises(ValidationError, match="its square is not a normal float"):
        parse_terrain(text)


# a JSON number token with a finite value: the shortest repr, a rounded
# exponent form, or up to 40 digits with any exponent a double can reach
_finite = st.floats(allow_nan=False, allow_infinity=False)
_number_token = st.one_of(
    _finite.map(repr),
    st.tuples(_finite, st.integers(0, 25)).map(lambda t: f"{t[0]:.{t[1]}e}"),
    st.integers(-2**70, 2**70).map(str),
    st.tuples(st.from_regex(r"-?[0-9]\.[0-9]{1,39}", fullmatch=True),
              st.integers(-360, 310)).map(lambda t: f"{t[0]}e{t[1]}"),
).filter(lambda s: math.isfinite(float(s)))


@settings(max_examples=200, deadline=None)
@given(tokens=st.lists(_number_token, min_size=4, max_size=40),
       as_bytes=st.booleans())
def test_grid_heights_parse_as_json_does(tokens, as_bytes):
    tokens = tokens[:len(tokens) // 2 * 2]
    text = ('{"type": "grid", "origin": [0, 0], "spacing": 1, "rows": 2, '
            f'"cols": {len(tokens) // 2}, "heights": [{", ".join(tokens)}]}}')
    # the parsed heights go to a stand-in for the grid: huge heights
    # overflow the node derivatives, which the grid refuses (tested below)
    with mock.patch.object(terrain_mod, "GridTerrain", lambda origin, d, h: h):
        heights = parse_terrain(text.encode() if as_bytes else text)
    expected = np.array(json.loads(text)["heights"], dtype=float)
    assert heights.ravel().tobytes() == expected.tobytes()


def _hermite_reference(g, x, y):
    """Height and gradient of grid terrain g at points inside its extent,
    reading every corner value as a two-index h[i, j]."""
    rows, cols = g.heights.shape
    tx = (np.asarray(x, float) - g.origin[0]) / g.spacing
    ty = (np.asarray(y, float) - g.origin[1]) / g.spacing
    j = np.clip(np.floor(tx).astype(int), 0, cols - 2)
    i = np.clip(np.floor(ty).astype(int), 0, rows - 2)
    u, v = tx - j, ty - i
    corners = [tuple(a[r, c] for r, c in ((i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)))
               for a in (g.heights, g._fx, g._fy, g._fxy)]
    bu, bv, du, dv = g._basis(u), g._basis(v), g._dbasis(u), g._dbasis(v)
    return (g._tensor(bu, bv, *corners),
            g._tensor(du, bv, *corners) / g.spacing,
            g._tensor(bu, dv, *corners) / g.spacing)


def test_grid_flat_gather_matches_two_index_reads():
    rng = np.random.default_rng(11)
    g = GridTerrain((-3.0, 2.0), 0.25, rng.standard_normal((13, 17)))
    ext = g.extent
    # random points, the nodes, and the extent's far edges, which clip to
    # the last cell
    x = np.concatenate([rng.uniform(ext.xmin, ext.xmax, 500),
                        ext.xmin + 0.25 * np.arange(17), np.full(3, ext.xmax)])
    y = np.concatenate([rng.uniform(ext.ymin, ext.ymax, 500),
                        np.full(17, ext.ymax), ext.ymin + np.array([0.0, 1.0, 3.0])])
    z, gx, gy = _hermite_reference(g, x, y)
    assert g.height(x, y).tobytes() == z.tobytes()
    ax, ay = g.gradient(x, y)
    assert ax.tobytes() == gx.tobytes() and ay.tobytes() == gy.tobytes()
    for k in range(0, x.size, 7):
        assert g.height(float(x[k]), float(y[k])) == float(z[k])
        assert g.gradient(float(x[k]), float(y[k])) == (float(gx[k]), float(gy[k]))


@pytest.mark.parametrize("shape", [(321, 321), (2, 2), (2, 7), (5, 2)])
def test_grid_node_derivatives_equal_np_gradient(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    h = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    d = 0.025
    g = GridTerrain((0.0, 0.0), d, h)
    fx = np.gradient(h, d, axis=1) * d
    expected = (fx, np.gradient(h, d, axis=0) * d, np.gradient(fx, d, axis=0) * d)
    for got, want in zip((g._fx, g._fy, g._fxy), expected):
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
    # the raveled node arrays are views of them
    assert all(np.shares_memory(a, b) for a, b in
               zip(g._flat, (g.heights, g._fx, g._fy, g._fxy)))


def test_grid_refuses_heights_that_overflow_the_node_derivatives():
    # finite heights of +-1.7e308 overflow the node differences, which
    # would make every height NaN; the grid is refused with no
    # RuntimeWarning first
    heights = np.random.default_rng(0).choice([-1.7e308, 1.7e308], (41, 41))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="overflow their node derivatives"):
            GridTerrain((0.0, 0.0), 1.0, heights)


def test_overflowed_grid_gradient_reads_as_the_steepest_slope():
    # the node derivatives are finite but the sampled |grad f|^2 overflows
    # to inf; a NaN estimate would pass every `slope >= limit` gate
    g = GridTerrain((0.0, 0.0), 1.0, [[1e200, -1e200], [-1e200, 1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert estimate_slope_bound(g) == math.pi / 2
        assert g.slope_bound == math.pi / 2
    with pytest.raises(ConditionViolation, match="exceeds"):
        run_march(TableSpec.square(0.1), g, (0.5, 0.5), 0.0)
