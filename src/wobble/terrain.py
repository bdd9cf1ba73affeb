"""Continuous ground surfaces with a certified slope bound.

Two variants: a sum of radial Gaussian bumps (analytic, smooth everywhere)
and a sampled grid with C1 bicubic Hermite interpolation. Both evaluate a
height and a gradient anywhere inside their extent; queries outside the
extent raise rather than extrapolate, because silent extrapolation would
break the slope certification the solver relies on.

All lengths share one arbitrary unit. Angles are radians internally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParseError, ValidationError

_DEFAULT_SLOPE_SAMPLES = 40_000
# the sample grid is held whole: 10^8 samples take 800 MB
_MAX_SLOPE_SAMPLES = 10**8
_SLOPE_BLOCK = 16384
# largest points x bumps product that a bump-terrain array call evaluates
# in one (bumps, points) pass; larger calls loop over the bumps (see
# BumpTerrain for the measured crossover)
_SMALL_KERNEL = 16384
# relative margin on the gradient and curvature bounds: it covers the
# rounding of their own evaluation, which is some 1e-12 relative at worst
_BOUND_MARGIN = 1e-9
_EPS = float(np.finfo(float).eps)
# relative margin of the slope search's drop test: far above the rounding
# of a computed |grad|^2
_PRUNE_MARGIN = 2.0 ** -20
# halvings of the slope search's stencil step
_REFINE_LEVELS = 14


@dataclass(frozen=True)
class Extent:
    """Axis-aligned rectangle the terrain is certified over."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValidationError(
                f"extent must have min < max on both axes, got "
                f"[{self.xmin}, {self.xmax}] x [{self.ymin}, {self.ymax}]"
            )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def contains_disc(self, cx: float, cy: float, r: float) -> bool:
        return (
            cx - r >= self.xmin
            and cx + r <= self.xmax
            and cy - r >= self.ymin
            and cy + r <= self.ymax
        )

    def require_inside(self, x, y) -> None:
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        # one min/max pass settles the common case; a NaN fails it and
        # then passes the elementwise test below, as it always has
        if (xa.size and ya.size
                and self.xmin <= xa.min() and xa.max() <= self.xmax
                and self.ymin <= ya.min() and ya.max() <= self.ymax):
            return
        xa, ya = np.broadcast_arrays(xa, ya)
        bad = (xa < self.xmin) | (xa > self.xmax) | (ya < self.ymin) | (ya > self.ymax)
        if np.any(bad):
            i = int(np.argmax(bad.ravel()))
            raise DomainError(
                f"query point ({float(xa.ravel()[i])!r}, {float(ya.ravel()[i])!r}) "
                f"outside terrain extent "
                f"[{self.xmin}, {self.xmax}] x [{self.ymin}, {self.ymax}]"
            )

    def as_list(self) -> list[float]:
        return [self.xmin, self.xmax, self.ymin, self.ymax]


class Bump(NamedTuple):
    cx: float
    cy: float
    amplitude: float
    sigma: float


class BumpTerrain:
    """Sum of radial Gaussian bumps: z = sum A_k * exp(-r_k^2 / (2 s_k^2)).

    The profile is smooth, has an analytic gradient, and its single-bump
    slope maximum sits on the ring r = sigma with value |A| e^{-1/2} / sigma.
    Immutable after construction; evaluation is side-effect free.

    Array calls use one of two layouts. Both give every point exactly the
    floating-point operations of the loop ``z += A * exp((dx * dx + dy * dy)
    * (-0.5 / (s * s)))`` over the bumps in order from z = 0.0 (and its
    gradient counterpart), so a point's value depends neither on the layout
    nor on the other points of the call:

    - small calls (points x bumps <= _SMALL_KERNEL) evaluate every bump in
      one (bumps, points) pass, which saves the per-bump numpy calls that
      dominate a call on a few points. The rows are added one by one in
      bump order: a reduction over the bump axis such as ``sum`` may add
      pairwise and move the last bit.
    - larger calls loop over the bumps and write each step into buffers
      allocated once per call: past about 16k elements a (bumps, points)
      array costs more than the per-bump calls it saves. The offsets
      x - cx and y - cy keep their inputs' own shapes, so a row-by-column
      grid query computes them on its row and column only.

    Measured on 20 bumps (2-core Xeon, numpy 2.4 with AVX-512, best of 7 in
    each of three runs), one-pass against loop, in us: one point 29-67
    against 160-308 for a height and 53-105 against 177-194 for a
    gradient; 819 points 127-138 against 146-182 and 159-164 against
    198-249; 1,024 points 314-334 against 166-176 and 357-370 against
    215-232. Hence _SMALL_KERNEL = 16384, 819 points on 20 bumps.
    """

    kind = "bumps"

    def __init__(self, bumps, extent: Extent):
        self.bumps = tuple(Bump(*map(float, b)) for b in bumps)
        for b in self.bumps:
            if b.sigma <= 0.0:
                raise ValidationError(f"bump width must be positive, got {b.sigma}")
            if not all(math.isfinite(v) for v in b):
                raise ValidationError(f"bump has non-finite field: {b}")
        self.extent = extent
        # per-bump (cx, cy, amplitude, -1 / (2 sigma^2)); 1 / sigma^2 is
        # exactly -2 times the last entry
        self._packed = tuple(
            (b.cx, b.cy, b.amplitude, -0.5 / (b.sigma * b.sigma)) for b in self.bumps
        )
        # the same constants as columns, plus the gradient's amplitude *
        # (1 / sigma^2), for the small-call layout
        cx, cy, amp, neg_half_inv = np.array(self._packed, dtype=float).reshape(-1, 4).T
        self._columns = (cx, cy, amp, neg_half_inv, amp * (-2.0 * neg_half_inv))
        # sigma and |A| / sigma, a bump's slope scale, for gradient_bound
        self._sigma = np.array([b.sigma for b in self.bumps], dtype=float)
        self._slope_scale = np.abs(amp) / self._sigma
        self._slope_cache: float | None = None

    def height(self, x, y):
        """Terrain height; accepts scalars or broadcastable arrays."""
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            self.extent.require_inside(x, y)
            return self._height_array(np.asarray(x, float, order="C"),
                                      np.asarray(y, float, order="C"))
        e = self.extent
        if not (e.xmin <= x <= e.xmax and e.ymin <= y <= e.ymax):
            e.require_inside(x, y)
        z = 0.0
        mexp = math.exp
        for cx, cy, amp, neg_half_inv in self._packed:
            dx = x - cx
            dy = y - cy
            z += amp * mexp((dx * dx + dy * dy) * neg_half_inv)
        return z

    def _height_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        shape = np.broadcast(x, y).shape
        if len(self._packed) * math.prod(shape) <= _SMALL_KERNEL:
            _, _, e, lead = self._bump_rows(x, y, shape)
            e *= self._columns[2].reshape(lead)
            z = np.zeros(shape)
            for row in e:
                z += row
            return z
        z = np.zeros(shape)
        t = np.empty(shape)
        sx = np.empty(x.shape)
        sy = np.empty(y.shape)
        for cx, cy, amp, neg_half_inv in self._packed:
            np.subtract(x, cx, out=sx)
            sx *= sx
            np.subtract(y, cy, out=sy)
            sy *= sy
            np.add(sx, sy, out=t)
            t *= neg_half_inv
            np.exp(t, out=t)
            t *= amp
            z += t
        return z

    def _bump_rows(self, x: np.ndarray, y: np.ndarray, shape):
        """x - cx, y - cy and exp(r^2 * (-1 / (2 sigma^2))) with a leading
        bump axis, and that axis's column shape; the differences keep
        their inputs' own shapes."""
        lead = (-1,) + (1,) * len(shape)
        cx, cy, _, neg_half_inv, _ = self._columns
        dx = x - cx.reshape(lead)
        dy = y - cy.reshape(lead)
        e = dx * dx + dy * dy
        e *= neg_half_inv.reshape(lead)
        np.exp(e, out=e)
        return dx, dy, e, lead

    def gradient(self, x, y):
        """(df/dx, df/dy); accepts scalars or broadcastable arrays."""
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            self.extent.require_inside(x, y)
            return self._gradient_array(np.asarray(x, float, order="C"),
                                        np.asarray(y, float, order="C"))
        e = self.extent
        if not (e.xmin <= x <= e.xmax and e.ymin <= y <= e.ymax):
            e.require_inside(x, y)
        gx = 0.0
        gy = 0.0
        for cx, cy, amp, neg_half_inv in self._packed:
            inv = -2.0 * neg_half_inv
            dx = x - cx
            dy = y - cy
            w = amp * math.exp(-0.5 * (dx * dx + dy * dy) * inv)
            gx -= w * dx * inv
            gy -= w * dy * inv
        return gx, gy

    def _gradient_array(self, x: np.ndarray, y: np.ndarray):
        shape = np.broadcast(x, y).shape
        if len(self._packed) * math.prod(shape) <= _SMALL_KERNEL:
            dx, dy, w, lead = self._bump_rows(x, y, shape)
            w *= self._columns[4].reshape(lead)
            gx = np.zeros(shape)
            gy = np.zeros(shape)
            for row in w * dx:
                gx -= row
            for row in w * dy:
                gy -= row
            return gx, gy
        gx = np.zeros(shape)
        gy = np.zeros(shape)
        t = np.empty(shape)
        u = np.empty(shape)
        dx = np.empty(x.shape)
        dy = np.empty(y.shape)
        sx = np.empty(x.shape)
        sy = np.empty(y.shape)
        for cx, cy, amp, neg_half_inv in self._packed:
            np.subtract(x, cx, out=dx)
            np.multiply(dx, dx, out=sx)
            np.subtract(y, cy, out=dy)
            np.multiply(dy, dy, out=sy)
            np.add(sx, sy, out=t)
            t *= neg_half_inv
            np.exp(t, out=t)
            t *= amp * (-2.0 * neg_half_inv)
            gx -= np.multiply(t, dx, out=u)
            gy -= np.multiply(t, dy, out=u)
        return gx, gy

    def gradient_bound(self, x, y, radius):
        """Upper bound of |grad f| over the disc of `radius` about each (x, y).

        Bump k's slope is |A_k| / s_k * phi(d / s_k) at distance d from its
        centre, with phi(u) = u exp(-u^2 / 2) rising up to u = 1 and falling
        after it. Over the disc, d ranges over [max(0, d_k - radius),
        d_k + radius], so the bump's largest slope there is phi at the point
        of that range nearest to 1; the bound is the sum over the bumps,
        times 1 + _BOUND_MARGIN. It is exact for one bump on a disc that
        holds its ring d = s, and 0 on flat ground. A NaN input gives NaN.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        radius = np.asarray(radius, dtype=float)
        shape = np.broadcast(x, y, radius).shape
        lead = (-1,) + (1,) * len(shape)
        cx, cy = self._columns[0], self._columns[1]
        sigma = self._sigma.reshape(lead)
        d = np.hypot(x - cx.reshape(lead), y - cy.reshape(lead))
        u = np.minimum(np.maximum(np.maximum(d - radius, 0.0) / sigma, 1.0),
                       (d + radius) / sigma)
        bound = (self._slope_scale.reshape(lead) * u * np.exp(-0.5 * u * u)).sum(axis=0)
        return bound * (1.0 + _BOUND_MARGIN)

    def curvature_bound(self) -> float:
        """Upper bound of the Hessian's operator norm anywhere: sum |A_k| /
        s_k^2, times 1 + _BOUND_MARGIN. A bump's Hessian has the eigenvalues
        A / s^2 (u^2 - 1) e^{-u^2/2} and -A / s^2 e^{-u^2/2}, both at most
        |A| / s^2 in size, so |grad f| is Lipschitz with this constant."""
        return (1.0 + _BOUND_MARGIN) * sum(
            abs(b.amplitude) / (b.sigma * b.sigma) for b in self.bumps)

    def height_rounding(self) -> float:
        """Upper bound of the rounding error of any height this terrain
        computes, array or scalar.

        A bump term A exp(q) is off by at most 12 ulp of |A|: q carries a
        few ulp of relative error and |q| e^q <= 1/e. Each of the n
        additions adds one ulp of the running sum, at most sum |A_k|. The
        bound is 64 times (n + 12) ulp of sum |A_k|.
        """
        return 64.0 * (len(self.bumps) + 12) * _EPS * sum(
            abs(b.amplitude) for b in self.bumps)

    @property
    def slope_bound(self) -> float:
        """Cached sampled slope bound (radians); a lower-bound estimate."""
        if self._slope_cache is None:
            self._slope_cache = estimate_slope_bound(self)
        return self._slope_cache


class UncertifiedBounds:
    """The bound methods of the terrain protocol for a terrain without
    certified bounds: each answer is +inf, which settles nothing, so its
    callers evaluate every point."""

    def gradient_bound(self, x, y, radius):
        """+inf for every (x, y): no certified slope bound."""
        return np.full(np.broadcast(np.asarray(x), np.asarray(y),
                                    np.asarray(radius)).shape, math.inf)

    def curvature_bound(self) -> float:
        """+inf: no certified curvature bound."""
        return math.inf

    def height_rounding(self) -> float:
        """+inf: no rounding analysis of the height kernel."""
        return math.inf


class GridTerrain(UncertifiedBounds):
    """Row-major height samples with C1 piecewise-bicubic interpolation.

    Node x = origin_x + col * spacing, node y = origin_y + row * spacing.
    Node derivatives come from central finite differences (one-sided at the
    edges), which makes the interpolant reproduce node values exactly and
    keeps the gradient continuous across cell boundaries. Bilinear would be
    merely C0 and the solver needs a tangent plane everywhere.

    A certified bound of the interpolant's slope needs each cell's bicubic
    coefficients (ROADMAP item 4); until then the bounds are +inf.
    """

    kind = "grid"

    def __init__(self, origin, spacing: float, heights):
        h = np.asarray(heights, dtype=float)
        if h.ndim != 2 or h.shape[0] < 2 or h.shape[1] < 2:
            raise ValidationError(
                f"grid heights must be a 2-D array with at least 2x2 nodes, got {h.shape}"
            )
        if not np.all(np.isfinite(h)):
            raise ValidationError("grid heights contain non-finite values")
        if not (spacing > 0.0):
            raise ValidationError(f"grid spacing must be positive, got {spacing}")
        self.origin = (float(origin[0]), float(origin[1]))
        self.spacing = float(spacing)
        self.heights = h
        self.heights.setflags(write=False)
        d = self.spacing
        # per-cell Hermite data uses derivatives scaled to the unit cell
        self._fx = np.gradient(h, d, axis=1) * d
        self._fy = np.gradient(h, d, axis=0) * d
        self._fxy = np.gradient(self._fx, d, axis=0) * d
        for a in (self._fx, self._fy, self._fxy):
            a.setflags(write=False)
        rows, cols = h.shape
        self.extent = Extent(
            self.origin[0],
            self.origin[0] + (cols - 1) * d,
            self.origin[1],
            self.origin[1] + (rows - 1) * d,
        )
        self._slope_cache: float | None = None

    @classmethod
    def from_function(cls, fn, extent: Extent, spacing: float) -> "GridTerrain":
        """Sample fn(x, y) on a regular grid covering the extent."""
        nx = int(math.ceil(extent.width / spacing)) + 1
        ny = int(math.ceil(extent.height / spacing)) + 1
        xs = extent.xmin + spacing * np.arange(nx)
        ys = extent.ymin + spacing * np.arange(ny)
        grid = np.array([[float(fn(x, y)) for x in xs] for y in ys])
        return cls((extent.xmin, extent.ymin), spacing, grid)

    @staticmethod
    def _basis(t: np.ndarray):
        t2 = t * t
        t3 = t2 * t
        return (
            2.0 * t3 - 3.0 * t2 + 1.0,
            -2.0 * t3 + 3.0 * t2,
            t3 - 2.0 * t2 + t,
            t3 - t2,
        )

    @staticmethod
    def _dbasis(t: np.ndarray):
        t2 = t * t
        return (
            6.0 * t2 - 6.0 * t,
            -6.0 * t2 + 6.0 * t,
            3.0 * t2 - 4.0 * t + 1.0,
            3.0 * t2 - 2.0 * t,
        )

    def _locate(self, x, y):
        rows, cols = self.heights.shape
        tx = (np.asarray(x, float) - self.origin[0]) / self.spacing
        ty = (np.asarray(y, float) - self.origin[1]) / self.spacing
        j = np.clip(np.floor(tx).astype(int), 0, cols - 2)
        i = np.clip(np.floor(ty).astype(int), 0, rows - 2)
        return i, j, tx - j, ty - i

    def _corner_data(self, i, j):
        h, fx, fy, fxy = self.heights, self._fx, self._fy, self._fxy
        i1, j1 = i + 1, j + 1
        return (
            (h[i, j], h[i, j1], h[i1, j], h[i1, j1]),
            (fx[i, j], fx[i, j1], fx[i1, j], fx[i1, j1]),
            (fy[i, j], fy[i, j1], fy[i1, j], fy[i1, j1]),
            (fxy[i, j], fxy[i, j1], fxy[i1, j], fxy[i1, j1]),
        )

    def _tensor(self, bu, bv, f, fx, fy, fxy):
        f00, f10, f01, f11 = f
        x00, x10, x01, x11 = fx
        y00, y10, y01, y11 = fy
        k00, k10, k01, k11 = fxy
        return (
            bv[0] * (bu[0] * f00 + bu[1] * f10 + bu[2] * x00 + bu[3] * x10)
            + bv[1] * (bu[0] * f01 + bu[1] * f11 + bu[2] * x01 + bu[3] * x11)
            + bv[2] * (bu[0] * y00 + bu[1] * y10 + bu[2] * k00 + bu[3] * k10)
            + bv[3] * (bu[0] * y01 + bu[1] * y11 + bu[2] * k01 + bu[3] * k11)
        )

    def _cell(self, x: float, y: float):
        e = self.extent
        if not (e.xmin <= x <= e.xmax and e.ymin <= y <= e.ymax):
            e.require_inside(x, y)
        rows, cols = self.heights.shape
        tx = (x - self.origin[0]) / self.spacing
        ty = (y - self.origin[1]) / self.spacing
        j = min(int(tx), cols - 2)
        i = min(int(ty), rows - 2)
        return i, j, tx - j, ty - i

    def height(self, x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            self.extent.require_inside(x, y)
            i, j, u, v = self._locate(x, y)
            f, fx, fy, fxy = self._corner_data(i, j)
            return self._tensor(self._basis(u), self._basis(v), f, fx, fy, fxy)
        i, j, u, v = self._cell(float(x), float(y))
        f, fx, fy, fxy = self._corner_data(i, j)
        return float(self._tensor(self._basis(u), self._basis(v), f, fx, fy, fxy))

    def gradient(self, x, y):
        scalar = not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray))
        if scalar:
            i, j, u, v = self._cell(float(x), float(y))
        else:
            self.extent.require_inside(x, y)
            i, j, u, v = self._locate(x, y)
        f, fx, fy, fxy = self._corner_data(i, j)
        bu, bv = self._basis(u), self._basis(v)
        du, dv = self._dbasis(u), self._dbasis(v)
        gx = self._tensor(du, bv, f, fx, fy, fxy) / self.spacing
        gy = self._tensor(bu, dv, f, fx, fy, fxy) / self.spacing
        if scalar:
            return float(gx), float(gy)
        return gx, gy

    @property
    def slope_bound(self) -> float:
        if self._slope_cache is None:
            self._slope_cache = estimate_slope_bound(self)
        return self._slope_cache


Terrain = BumpTerrain | GridTerrain


def flat_terrain(extent: Extent | None = None) -> BumpTerrain:
    return BumpTerrain((), extent or Extent(-100.0, 100.0, -100.0, 100.0))


def _refine_candidates(terrain: Terrain, ext: Extent, xs, ys, spacing: float) -> float:
    """Pattern-search refinement of |grad|^2 around candidate points.

    Each level moves every candidate to the best of its 3 x 3 stencil. The
    stencil's centre is the point picked at the level before, so its
    |grad|^2 is carried over, not evaluated again: after the first level
    only the 8 off-centre points are.

    A candidate that cannot win is dropped. Its carried |grad|^2 never
    falls, and its later stencils stay within 2h of it on each axis, where
    h is the next level's step (h + h/2 + ... < 2h; the clip to the extent
    only shortens a move). |grad f| is Lipschitz with the constant H of
    `curvature_bound`, so no later value of the candidate exceeds
    (sqrt(g2) + 2 sqrt(2) H h)^2. When that, with a relative margin, is
    below the best carried value, the candidate keeps its carried value
    and is not evaluated again. The rows are independent (a point's
    kernel value does not depend on the call), so the result is the one
    the full search returns, bit for bit.
    """
    px = np.array(xs, dtype=float)
    py = np.array(ys, dtype=float)
    offs = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
    off_centre = np.array([k for k in range(9) if k != 4])
    reach = 2.0 * math.sqrt(2.0) * terrain.curvature_bound()
    carried = np.empty(px.size)
    live = np.arange(px.size)
    g2 = np.empty((px.size, 9))
    h = spacing
    for level in range(_REFINE_LEVELS):
        cx = np.clip(px[:, None] + offs[:, 0] * h, ext.xmin, ext.xmax)
        cy = np.clip(py[:, None] + offs[:, 1] * h, ext.ymin, ext.ymax)
        cols = slice(None) if level == 0 else off_centre
        gx, gy = terrain.gradient(cx[:, cols], cy[:, cols])
        g2[:, cols] = gx * gx + gy * gy
        rows = np.arange(px.size)
        pick = np.argmax(g2, axis=1)
        px = cx[rows, pick]
        py = cy[rows, pick]
        g2[:, 4] = carried[live] = g2[rows, pick]
        h *= 0.5
        # a NaN reach or value never drops a candidate
        top = np.sqrt(g2[:, 4]) + reach * h
        keep = ~(top * top * (1.0 + _PRUNE_MARGIN) < np.max(carried))
        live, px, py, g2 = live[keep], px[keep], py[keep], g2[keep]
    return float(np.max(carried))


def estimate_slope_bound(terrain: Terrain, extent: Extent | None = None,
                         samples: int = _DEFAULT_SLOPE_SAMPLES) -> float:
    """Sampled supremum of arctan |grad f| over the extent, refined locally.

    Uniform grid of about `samples` points, then pattern-search refinement
    around the top 1% (and, for bump terrain, around each bump's slope ring).
    The result is a lower bound on the true supremum and is reported as an
    estimate. The grid is held whole, so a count above 10^8 is refused
    before anything is allocated.
    """
    if samples < 10_000:
        raise DomainError(f"slope estimation needs at least 10^4 samples, got {samples}")
    if samples > _MAX_SLOPE_SAMPLES:
        raise DomainError(f"slope estimation takes at most 10^8 samples, got {samples}")
    ext = extent or terrain.extent
    n = max(int(math.isqrt(samples)), 100)
    xs = np.linspace(ext.xmin, ext.xmax, n)
    ys = np.linspace(ext.ymin, ext.ymax, n)
    # the grid in blocks of rows of about _SLOPE_BLOCK points, so the
    # temporaries stay small at any sample count
    g2 = np.empty((n, n))
    rows = max(1, _SLOPE_BLOCK // n)
    for i in range(0, n, rows):
        gx, gy = terrain.gradient(xs[None, :], ys[i:i + rows, None])
        g2[i:i + rows] = gx * gx + gy * gy
    g2 = g2.ravel()
    if float(np.max(g2)) == 0.0:
        if not (isinstance(terrain, BumpTerrain) and any(b.amplitude for b in terrain.bumps)):
            return 0.0
    k = max(1, g2.size // 100)
    top = np.argpartition(g2, g2.size - k)[g2.size - k:]
    cand_x = list(xs[top % n])
    cand_y = list(ys[top // n])
    if isinstance(terrain, BumpTerrain):
        ring = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        for b in terrain.bumps:
            for a in ring:
                cx = min(max(b.cx + b.sigma * math.cos(a), ext.xmin), ext.xmax)
                cy = min(max(b.cy + b.sigma * math.sin(a), ext.ymin), ext.ymax)
                cand_x.append(cx)
                cand_y.append(cy)
    spacing = max(ext.width, ext.height) / (n - 1)
    best = _refine_candidates(terrain, ext, cand_x, cand_y, spacing)
    return math.atan(math.sqrt(best))


def check_target_slope(target_slope: float) -> None:
    """Raise DomainError unless the target slope (radians) is in [0, pi/2)."""
    if not (0.0 <= target_slope < math.pi / 2):
        raise DomainError(f"target slope must be in [0, pi/2), got {target_slope}")


def check_bump_count(bump_count: int) -> None:
    """Raise DomainError unless the bump count is non-negative."""
    if bump_count < 0:
        raise DomainError(f"bump count must be non-negative, got {bump_count}")


def generate_terrain(seed: int, target_slope: float, bump_count: int,
                     extent: Extent) -> BumpTerrain:
    """Seeded random bump terrain with slope bound at most target_slope.

    Deterministic in the seed (PCG64). Amplitudes are rescaled after
    generation so the sampled slope bound lands just under the target;
    bump_count = 0 or target 0 yields flat terrain.
    """
    check_target_slope(target_slope)
    check_bump_count(bump_count)
    rng = np.random.default_rng(seed)
    span = min(extent.width, extent.height)
    sigma_lo, sigma_hi = 0.035 * span, 0.10 * span
    margin = 2.0 * sigma_hi
    bumps = []
    for _ in range(bump_count):
        cx = rng.uniform(extent.xmin + margin, extent.xmax - margin)
        cy = rng.uniform(extent.ymin + margin, extent.ymax - margin)
        sigma = rng.uniform(sigma_lo, sigma_hi)
        amp = rng.uniform(0.2, 1.0) * sigma
        if rng.uniform() < 0.5:
            amp = -amp
        bumps.append(Bump(cx, cy, amp, sigma))
    if bump_count == 0 or target_slope == 0.0:
        scaled = [Bump(b.cx, b.cy, 0.0, b.sigma) for b in bumps]
        t = BumpTerrain(scaled, extent)
        t._slope_cache = 0.0
        return t
    raw = BumpTerrain(bumps, extent)
    est = estimate_slope_bound(raw)
    if est == 0.0:
        return raw
    scale = (1.0 - 1e-9) * math.tan(target_slope) / math.tan(est)
    scaled = [Bump(b.cx, b.cy, b.amplitude * scale, b.sigma) for b in bumps]
    t = BumpTerrain(scaled, extent)
    # scaling every amplitude scales the gradient field by the same factor,
    # so the scaled terrain's estimate follows without sampling it again
    t._slope_cache = math.atan(scale * math.tan(est))
    return t


def serialize_terrain(terrain: Terrain) -> str:
    """UTF-8 text form; round-trips through parse_terrain bit-identically."""
    if isinstance(terrain, BumpTerrain):
        doc = {
            "type": "bumps",
            "extent": terrain.extent.as_list(),
            "bumps": [
                {"cx": b.cx, "cy": b.cy, "amplitude": b.amplitude, "sigma": b.sigma}
                for b in terrain.bumps
            ],
        }
    elif isinstance(terrain, GridTerrain):
        rows, cols = terrain.heights.shape
        doc = {
            "type": "grid",
            "origin": [terrain.origin[0], terrain.origin[1]],
            "spacing": terrain.spacing,
            "rows": rows,
            "cols": cols,
            "heights": [float(v) for v in terrain.heights.ravel()],
        }
    else:
        raise ValidationError(f"cannot serialize terrain of type {type(terrain)!r}")
    return json.dumps(doc, indent=1) + "\n"


def _require_field(doc: dict, name: str, where: str):
    if name not in doc:
        raise ParseError(f"missing field '{name}' in {where}")
    return doc[name]


def _number(value, what: str) -> float:
    """float(value), with a value it cannot convert reported as a ParseError."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{what} must be a number, got {value!r}") from None


def _count(value, what: str) -> int:
    """A whole number of grid nodes; 2.0 reads as 2, 2.7 is a ParseError."""
    number = _number(value, what)
    if not number.is_integer():
        raise ParseError(f"{what} must be a whole number, got {value!r}")
    return int(number)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {value!r}")
    return value


def parse_terrain(text: str) -> Terrain:
    """Parse the terrain file format; see serialize_terrain for the schema."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"terrain file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("terrain file must contain a JSON object")
    kind = _require_field(doc, "type", "terrain file")
    if kind == "bumps":
        raw = _list(_require_field(doc, "bumps", "bumps terrain"), "bumps")
        bumps = []
        for idx, b in enumerate(raw):
            where = f"bump {idx + 1}"
            if not isinstance(b, dict):
                raise ParseError(f"{where} must be an object, got {b!r}")
            bumps.append(Bump(*(
                _number(_require_field(b, name, where), f"{where} {name}")
                for name in Bump._fields)))
        if "extent" in doc:
            e = _list(doc["extent"], "extent")
            if len(e) != 4:
                raise ValidationError(f"extent must have 4 entries, got {len(e)}")
            extent = Extent(*(_number(v, "extent entry") for v in e))
        elif bumps:
            pad = 8.0 * max(b.sigma for b in bumps)
            extent = Extent(
                min(b.cx for b in bumps) - pad,
                max(b.cx for b in bumps) + pad,
                min(b.cy for b in bumps) - pad,
                max(b.cy for b in bumps) + pad,
            )
        else:
            extent = Extent(-100.0, 100.0, -100.0, 100.0)
        return BumpTerrain(bumps, extent)
    if kind == "grid":
        origin = _list(_require_field(doc, "origin", "grid terrain"), "grid origin")
        if len(origin) != 2:
            raise ParseError(f"grid origin must have 2 entries, got {len(origin)}")
        spacing = _number(_require_field(doc, "spacing", "grid terrain"), "grid spacing")
        rows = _count(_require_field(doc, "rows", "grid terrain"), "grid rows")
        cols = _count(_require_field(doc, "cols", "grid terrain"), "grid cols")
        heights = _list(_require_field(doc, "heights", "grid terrain"), "grid heights")
        if min(rows, cols) < 0 or rows * cols != len(heights):
            raise ValidationError(
                f"grid declares {rows} x {cols} = {rows * cols} nodes but "
                f"carries {len(heights)} heights"
            )
        # one conversion pass: a null height reads as NaN, which the grid
        # rejects as non-finite
        flat = "grid heights must be a flat list of numbers"
        try:
            h = np.array(heights, dtype=float)
        except (TypeError, ValueError):
            raise ParseError(flat) from None
        if h.ndim != 1:
            raise ParseError(flat)
        return GridTerrain((_number(origin[0], "grid origin entry"),
                            _number(origin[1], "grid origin entry")),
                           spacing, h.reshape(rows, cols))
    raise ParseError(f"unknown terrain type {kind!r}")
