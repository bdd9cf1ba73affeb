"""Continuous ground surfaces with a slope bound.

Two variants: a sum of radial Gaussian bumps (analytic, smooth everywhere)
and a sampled grid with C1 bicubic Hermite interpolation. Both evaluate a
height and a gradient anywhere inside their extent; queries outside the
extent raise rather than extrapolate, because silent extrapolation would
break the slope certification the solver relies on.

A bump terrain's slope bound is certified: a branch-and-bound over square
cells (`BumpTerrain.slope_search`) proves it is at least the slope anywhere
in the extent. A grid terrain's slope bound is still the sampled estimate
of `estimate_slope_bound`, a lower bound of the true slope (ROADMAP item 6).

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
# largest points x bumps product of one (bumps, points) pass of a bump
# terrain: larger height calls loop over the bumps (see BumpTerrain for the
# measured crossover), and gradients and the slope search go in blocks
_SMALL_KERNEL = 16384
# relative margin on the gradient bound and the slope search's bounds: it
# covers the rounding of their own evaluation, some 1e-12 relative at worst
_BOUND_MARGIN = 1e-9
_EPS = float(np.finfo(float).eps)
_MIN_NORMAL = float(np.finfo(float).tiny)
# halvings of the sampled slope estimate's stencil step
_REFINE_LEVELS = 14
# the certified slope search starts from _SEARCH_START x _SEARCH_START cells
# and drops a cell once its bound of |grad f| is at most 1 + _SEARCH_RHO
# times the best sampled |grad f|. The tolerance is relative, so the search
# makes the same decisions on a terrain with every amplitude scaled.
_SEARCH_START = 16
_SEARCH_RHO = 1e-8
# caps of the certified slope search: live cells in one level, and levels.
# A terrain whose steepest points form a curve (one isolated bump's ring)
# keeps more cells alive at each level; at a cap the search stops with the
# largest live cell bound, which is looser but still certified
_SEARCH_CELLS = 1 << 15
_SEARCH_LEVELS = 40
# max over s of |3 s - s^3| exp(-s^2 / 2) = 1.380119..., rounded up: a unit
# Gaussian's largest third directional derivative
_THIRD_DERIVATIVE = 1.3802


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
        # an infinite bound, or finite ones 1e308 apart, overflows numpy's
        # uniform draws and every width-based scale
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ValidationError(
                f"extent must have a finite width and height, got "
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


class SlopeSearch(NamedTuple):
    """Outcome of `BumpTerrain.slope_search`: the best sampled slope (a
    lower bound) and the certified upper bound, both in radians, the
    subdivision levels run and the gradient-and-Hessian points evaluated."""

    lower: float
    upper: float
    levels: int
    points: int


class BumpTerrain:
    """Sum of radial Gaussian bumps: z = sum A_k * exp(-r_k^2 / (2 s_k^2)).

    The profile is smooth, has an analytic gradient, and its single-bump
    slope maximum sits on the ring r = sigma with value |A| e^{-1/2} / sigma.
    Immutable after construction; evaluation is side-effect free.

    Array height calls use one of two layouts. Both give every point exactly
    the floating-point operations of the loop ``z += A * exp((dx * dx + dy *
    dy) * (-0.5 / (s * s)))`` over the bumps in order from z = 0.0, so a
    point's value depends neither on the layout nor on the other points of
    the call:

    - small calls (points x bumps <= _SMALL_KERNEL) evaluate every bump in
      one (bumps, points) pass, which saves the per-bump numpy calls that
      dominate a call on a few points. `_bump_sum` adds the rows in one
      call, in bump order from 0.0: numpy reduces over a leading axis one
      row at a time while a row has two or more elements, but sums a
      one-element row pairwise, which moves the last bit, so a one-point
      call adds its bump terms in Python. Against the per-row ``z += row``
      loop it replaces (20 bumps, best of 27, alternated in one process):
      one point 14.2 against 28.9 us, 8 points 15.8 against 23.3 us, 64
      points 21.5 against 29.4 us, 300 points 52.8 against 58.5 us.
    - larger calls loop over the bumps and write each step into buffers
      allocated once per call: past about 16k elements a (bumps, points)
      array costs more than the per-bump calls it saves. The offsets
      x - cx and y - cy keep their inputs' own shapes, so a row-by-column
      grid query computes them on its row and column only.

    Measured on 20 bumps (2-core Xeon, numpy 2.4 with AVX-512, best of 7 in
    each of three runs), one-pass against loop, in us: one point 29-67 against
    160-308; 819 points 127-138 against 146-182; 1,024 points 314-334 against
    166-176. Hence _SMALL_KERNEL = 16384, 819 points on 20 bumps.

    The gradient has one layout, the one-pass rows in blocks of
    _SMALL_KERNEL entries, for scalars and arrays alike: no program path
    asks a bump terrain for its gradient (its slope comes from
    `slope_search`), so a second layout would not pay for its code.
    """

    kind = "bumps"
    # what `slope_bound` is, as reports print it
    slope_bound_kind = "certified upper bound"

    def __init__(self, bumps, extent: Extent):
        self.bumps = tuple(Bump(*map(float, b)) for b in bumps)
        for b in self.bumps:
            if b.sigma <= 0.0:
                raise ValidationError(f"bump width must be positive, got {b.sigma}")
            if not all(math.isfinite(v) for v in b):
                raise ValidationError(f"bump has non-finite field: {b}")
            # the kernels divide by sigma^2: it must not underflow to a
            # subnormal or 0, nor overflow
            if not _MIN_NORMAL <= b.sigma * b.sigma < math.inf:
                raise ValidationError(
                    f"bump width {b.sigma!r} is out of range: its square is "
                    f"not a normal float")
        self.extent = extent
        # per-bump (cx, cy, amplitude, -1 / (2 sigma^2)); 1 / sigma^2 is
        # exactly -2 times the last entry
        self._packed = tuple(
            (b.cx, b.cy, b.amplitude, -0.5 / (b.sigma * b.sigma)) for b in self.bumps
        )
        # the same constants as columns, plus the gradient's amplitude *
        # (1 / sigma^2), for the one-pass rows
        cx, cy, amp, neg_half_inv = np.array(self._packed, dtype=float).reshape(-1, 4).T
        self._columns = (cx, cy, amp, neg_half_inv, amp * (-2.0 * neg_half_inv))
        # sigma and |A| / sigma, a bump's slope scale, for _disc_bound
        self._sigma = np.array([b.sigma for b in self.bumps], dtype=float)
        self._slope_scale = np.abs(amp) / self._sigma
        # points per one-pass block of the gradient and the slope search
        self._block = max(1, _SMALL_KERNEL // max(1, len(self.bumps)))
        self._slope_cache: float | None = None
        self._search: SlopeSearch | None = None

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
            return _bump_sum(e)
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
        """(df/dx, df/dy); a scalar query gets numpy floats, with the bits
        the same point has in any array query."""
        self.extent.require_inside(x, y)
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))

        def rows(x, y):
            dx, dy, w, lead = self._bump_rows(x, y, x.shape)
            w *= self._columns[4].reshape(lead)
            gx, gy = np.zeros((2,) + x.shape)
            for rx, ry in zip(w * dx, w * dy):
                gx -= rx
                gy -= ry
            return gx, gy

        gx, gy = _blocked(rows, self._block, x.ravel(), y.ravel())
        return gx.reshape(x.shape)[()], gy.reshape(x.shape)[()]

    def gradient_bound(self, x, y, radius):
        """Upper bound of |grad f| over the disc of `radius` about each (x, y).

        The smaller of two bounds: the per-bump sum of `_disc_bound`, and,
        for a disc inside the extent, the certified slope of `slope_search`
        as a gradient, tan(upper) times 1 + _BOUND_MARGIN (the search's
        bound holds over the extent only, so a disc reaching outside it
        keeps the sum). The slope search runs on the first call if it has
        not run yet. 0 on flat ground; a NaN input gives NaN.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        radius = np.asarray(radius, dtype=float)
        bound = self._disc_bound(x, y, radius)
        cap = math.tan(self.slope_search().upper) * (1.0 + _BOUND_MARGIN)
        e = self.extent
        inside = ((x - radius >= e.xmin) & (x + radius <= e.xmax)
                  & (y - radius >= e.ymin) & (y + radius <= e.ymax))
        return np.where(inside, np.minimum(bound, cap), bound)

    def _disc_bound(self, x: np.ndarray, y: np.ndarray, radius: np.ndarray) -> np.ndarray:
        """The per-bump bound of |grad f| over the disc of `radius` about
        each (x, y), which `slope_search` uses.

        Bump k's slope is |A_k| / s_k * phi(d / s_k) at distance d from its
        centre, with phi(u) = u exp(-u^2 / 2) rising up to u = 1 and falling
        after it. Over the disc, d ranges over [max(0, d_k - radius),
        d_k + radius], so the bump's largest slope there is phi at the point
        of that range nearest to 1; the bound is the sum over the bumps,
        times 1 + _BOUND_MARGIN. It is exact for one bump on a disc that
        holds its ring d = s, and 0 on flat ground. A NaN input gives NaN.
        """
        shape = np.broadcast(x, y, radius).shape
        lead = (-1,) + (1,) * len(shape)
        cx, cy = self._columns[0], self._columns[1]
        sigma = self._sigma.reshape(lead)
        d = np.hypot(x - cx.reshape(lead), y - cy.reshape(lead))
        u = np.minimum(np.maximum(np.maximum(d - radius, 0.0) / sigma, 1.0),
                       (d + radius) / sigma)
        bound = (self._slope_scale.reshape(lead) * u * np.exp(-0.5 * u * u)).sum(axis=0)
        return bound * (1.0 + _BOUND_MARGIN)

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
        """Certified upper bound of the slope arctan |grad f| over the
        extent (radians): the upper bound of `slope_search`, cached."""
        if self._slope_cache is None:
            self._slope_cache = self.slope_search().upper
        return self._slope_cache

    def slope_search(self) -> SlopeSearch:
        """Branch-and-bound for the largest |grad f| over the extent, run
        once and cached.

        The extent is cut into _SEARCH_START^2 equal cells. Each level
        evaluates the gradient g and Hessian H at every live cell's centre c,
        in (bumps, cells) array passes of at most _SMALL_KERNEL entries. The
        best |g| seen is the lower bound. Over the disc of radius r about c,
        which holds the cell,

            |grad f| <= sqrt(|g|^2 + 2 r |H g| + ||H||^2 r^2) + M3 r^2 / 2,

        because grad f(c + d) = g + H d + R with |R| <= M3 |d|^2 / 2, and
        |g + H d|^2 = |g|^2 + 2 (H g).d + |H d|^2 as H is symmetric. M3 bounds
        the third-derivative tensor; for a symmetric tensor its norm is the
        largest |T(v, v, v)| over unit v (Banach 1938), which for a bump is
        |A| / s^3 max |3 t - t^3| e^{-t^2/2}, so M3 = _THIRD_DERIVATIVE
        sum |A_k| / s_k^3. Near a maximum H g is about 0 and the bound closes
        on |g| like r^2. The cell bound is the smaller of this and the
        per-bump disc bound (`_disc_bound`, the uncapped part of
        `gradient_bound`), which settles cells far from the steep places.

        A cell whose bound is at most best * (1 + _SEARCH_RHO) is dropped;
        the rest are quartered. The upper bound is the largest bound of a
        dropped cell, so tan(upper) <= tan(lower) * (1 + _SEARCH_RHO). At the
        cap of _SEARCH_CELLS live cells or _SEARCH_LEVELS levels the search
        stops with the largest live bound instead; a NaN or infinite bound
        is never dropped, so it ends there as an infinite upper bound.

        Rounding. A computed centre is within a few ulp of max |coordinate|
        of the true one, so r is the half-diagonal times 1 + _BOUND_MARGIN
        plus 8 ulp of that coordinate. As in `height_rounding`, each bump's
        gradient term is off by a few ulp of |A| / s and each Hessian term
        by a few ulp of |A| / s^2, and the sums add n ulp of the sums of
        their sizes. The Taylor bound moves by at most twice the gradient
        error plus 2 r times the Hessian error, so it gets 64 (n + 12) ulp
        of sum |A_k| / s_k + r sum |A_k| / s_k^2 added, after a relative
        _BOUND_MARGIN for its own few roundings and the arctan. Every term
        of the bound, and the best sample, scale with the amplitudes.
        """
        if self._search is not None:
            return self._search
        amp = np.abs(self._columns[2])
        if not amp.any():
            self._search = SlopeSearch(0.0, 0.0, 0, 0)
            return self._search
        sigma = self._sigma
        third = _THIRD_DERIVATIVE * float(np.sum(amp / sigma ** 3))
        ulps = 64.0 * (len(self.bumps) + 12) * _EPS
        rounding = (ulps * float(np.sum(self._slope_scale)),
                    ulps * float(np.sum(amp / (sigma * sigma))))
        ext = self.extent
        pad = 8.0 * _EPS * max(abs(v) for v in ext.as_list())
        n = _SEARCH_START
        i, j = (a.ravel() for a in np.indices((n, n)))
        best = top = 0.0
        points = 0
        for level in range(1, _SEARCH_LEVELS + 1):
            w, h = ext.width / n, ext.height / n
            x = ext.xmin + (i + 0.5) * w
            y = ext.ymin + (j + 0.5) * h
            r = 0.5 * math.hypot(w, h) * (1.0 + _BOUND_MARGIN) + pad
            slope, bound = _blocked(
                lambda x, y: self._taylor_bound(x, y, r, third, rounding),
                self._block, x, y)
            points += i.size
            best = max(best, float(np.max(slope)))
            limit = best * (1.0 + _SEARCH_RHO)
            # the gradient bound only for the cells the Taylor bound keeps;
            # a NaN bound is never dropped
            wide = ~(bound <= limit)
            (grad,) = _blocked(lambda x, y: (self._disc_bound(x, y, r),),
                               self._block, x[wide], y[wide])
            bound[wide] = np.minimum(bound[wide], grad)
            keep = ~(bound <= limit)
            if not keep.all():
                top = max(top, float(np.max(bound[~keep])))
            i, j, bound = i[keep], j[keep], bound[keep]
            if not i.size:
                break
            if 4 * i.size > _SEARCH_CELLS or level == _SEARCH_LEVELS:
                live = float(np.max(bound))
                top = max(top, live) if live < math.inf else math.inf
                break
            i = (2 * i[:, None] + np.array([0, 1, 0, 1])).ravel()
            j = (2 * j[:, None] + np.array([0, 0, 1, 1])).ravel()
            n *= 2
        self._search = SlopeSearch(math.atan(best), math.atan(max(top, best)),
                                   level, points)
        return self._search

    def _taylor_bound(self, x: np.ndarray, y: np.ndarray, r: float,
                      third: float, rounding):
        """|grad f| at the cell centres (x, y), 1-D arrays, and the
        second-order bound of `slope_search` over the discs of radius r
        about them; `third` is M3 and `rounding` the ulps of sum |A| / s
        and sum |A| / s^2."""
        dx, dy, w, lead = self._bump_rows(x, y, x.shape)
        # A / s^2 exp(-r^2 / (2 s^2)) per bump and centre
        w *= self._columns[4].reshape(lead)
        wx = w * dx
        wy = w * dy
        gx = -wx.sum(axis=0)
        gy = -wy.sum(axis=0)
        # times 1 / s^2
        inv = -2.0 * self._columns[3].reshape(lead)
        wx *= inv
        wy *= inv
        diag = w.sum(axis=0)
        hxx = (wx * dx).sum(axis=0) - diag
        hxy = (wx * dy).sum(axis=0)
        hyy = (wy * dy).sum(axis=0) - diag
        slope = np.hypot(gx, gy)
        hg = np.hypot(hxx * gx + hxy * gy, hxy * gx + hyy * gy)
        hnorm = 0.5 * np.abs(hxx + hyy) + np.hypot(0.5 * (hxx - hyy), hxy)
        bound = np.sqrt(slope * slope + 2.0 * r * hg + np.square(hnorm * r))
        bound += 0.5 * third * r * r
        bound *= 1.0 + _BOUND_MARGIN
        bound += rounding[0] + r * rounding[1]
        return slope, bound


def _bump_sum(rows: np.ndarray) -> np.ndarray:
    """0.0 plus the rows of a (bumps, ...) array in bump order, bit for bit
    the loop ``z = zeros; z += row`` (see `BumpTerrain`)."""
    shape = rows.shape[1:]
    if math.prod(shape) != 1:
        return np.add.reduce(rows, axis=0, initial=0.0)
    z = 0.0
    for term in rows.ravel().tolist():
        z += term
    return np.full(shape, z)


def _blocked(fn, size: int, x: np.ndarray, y: np.ndarray):
    """The outputs of fn(x, y), evaluated on slices of `size` entries and
    concatenated, so the (bumps, points) temporaries stay small; empty
    arrays make one call."""
    parts = [fn(x[k:k + size], y[k:k + size])
             for k in range(0, x.size or 1, size)]
    return tuple(np.concatenate(p) for p in zip(*parts))


class UncertifiedBounds:
    """The bound methods of the terrain protocol for a terrain without
    certified bounds: each answer is +inf, which settles nothing, so its
    callers evaluate every point.

    The contract: gradient_bound(x, y, radius) is an upper bound of
    |grad f| over the disc of `radius` about each (x, y), and
    height_rounding() one of the rounding error of any computed height.
    The foot-circle scans (`ring`) give the same bits for any valid
    bounds; tighter ones only let them skip more points."""

    def gradient_bound(self, x, y, radius):
        """+inf for every (x, y): no certified slope bound."""
        return np.full(np.broadcast(np.asarray(x), np.asarray(y),
                                    np.asarray(radius)).shape, math.inf)

    def height_rounding(self) -> float:
        """+inf: no rounding analysis of the height kernel."""
        return math.inf


def _node_derivative(f: np.ndarray, d: float, axis: int) -> np.ndarray:
    """np.gradient(f, d, axis=axis) * d, bit for bit, in place in one new
    C-contiguous array: central differences (f[k+1] - f[k-1]) / (2 d)
    inside, one-sided (f[1] - f[0]) / d and (f[-1] - f[-2]) / d at the
    edges (edge_order=1), then scaled by d. f has at least 2 nodes along
    axis."""
    g = f if axis == 1 else f.T
    out = np.empty_like(f)
    o = out if axis == 1 else out.T
    np.subtract(g[:, 2:], g[:, :-2], out=o[:, 1:-1])
    o[:, 1:-1] /= 2.0 * d
    np.subtract(g[:, 1], g[:, 0], out=o[:, 0])
    o[:, 0] /= d
    np.subtract(g[:, -1], g[:, -2], out=o[:, -1])
    o[:, -1] /= d
    out *= d
    return out


class GridTerrain(UncertifiedBounds):
    """Row-major height samples with C1 piecewise-bicubic interpolation.

    Node x = origin_x + col * spacing, node y = origin_y + row * spacing.
    Node derivatives come from central finite differences (one-sided at the
    edges), which makes the interpolant reproduce node values exactly and
    keeps the gradient continuous across cell boundaries. Bilinear would be
    merely C0 and the solver needs a tangent plane everywhere.

    A query gathers its cell's 16 Hermite values (height, x, y and cross
    derivatives at the four corners) from the node arrays raveled in row
    order, at k = i * cols + j, k + 1, k + cols and k + cols + 1 for cell
    (i, j). A flat take costs about half of a two-index fancy read. The
    raveled arrays are views, so they add no memory.

    A certified bound of the interpolant's slope needs each cell's bicubic
    coefficients (ROADMAP item 6); until then the bounds are +inf.
    """

    kind = "grid"
    slope_bound_kind = "sampled lower bound"

    def __init__(self, origin, spacing: float, heights):
        h = np.ascontiguousarray(heights, dtype=float)
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
        # per-cell Hermite data uses derivatives scaled to the unit cell;
        # heights near +-1.7e308 overflow them, which would make every height NaN
        with np.errstate(over="ignore", invalid="ignore"):
            self._fx = _node_derivative(h, d, 1)
            self._fy = _node_derivative(h, d, 0)
            self._fxy = _node_derivative(self._fx, d, 0)
        for a in (self._fx, self._fy, self._fxy):
            # min and max, NaN if any entry is, need no temporary array
            if not (math.isfinite(a.min()) and math.isfinite(a.max())):
                raise ValidationError("grid heights overflow their node derivatives")
            a.setflags(write=False)
        # row-order views of the node data, in the order _tensor takes them
        self._flat = tuple(a.ravel() for a in (h, self._fx, self._fy, self._fxy))
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
        cols = self.heights.shape[1]
        k = i * cols + j
        k1, k2 = k + 1, k + cols
        k3 = k2 + 1
        if isinstance(k, np.ndarray):
            return [(a.take(k), a.take(k1), a.take(k2), a.take(k3)) for a in self._flat]
        # a scalar query indexes: a take costs about 1 us more on an int
        return [(a[k], a[k1], a[k2], a[k3]) for a in self._flat]

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
        """(df/dx, df/dy); a scalar query gets numpy floats, with the bits
        the same point has in any array query."""
        self.extent.require_inside(x, y)
        i, j, u, v = self._locate(x, y)
        f, fx, fy, fxy = self._corner_data(i, j)
        bu, bv = self._basis(u), self._basis(v)
        du, dv = self._dbasis(u), self._dbasis(v)
        return (self._tensor(du, bv, f, fx, fy, fxy) / self.spacing,
                self._tensor(bu, dv, f, fx, fy, fxy) / self.spacing)

    @property
    def slope_bound(self) -> float:
        """Cached sampled slope (radians), a lower bound of the true slope
        until cells get certified bounds (ROADMAP item 6)."""
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
    only the 8 off-centre points are. A point's kernel value does not
    depend on the call, so the result is the one the search evaluating
    all 9 points returns, bit for bit.
    """
    px = np.array(xs, dtype=float)
    py = np.array(ys, dtype=float)
    offs = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
    off_centre = np.array([k for k in range(9) if k != 4])
    rows = np.arange(px.size)
    g2 = np.empty((px.size, 9))
    h = spacing
    for level in range(_REFINE_LEVELS):
        cx = np.clip(px[:, None] + offs[:, 0] * h, ext.xmin, ext.xmax)
        cy = np.clip(py[:, None] + offs[:, 1] * h, ext.ymin, ext.ymax)
        cols = slice(None) if level == 0 else off_centre
        gx, gy = terrain.gradient(cx[:, cols], cy[:, cols])
        g2[:, cols] = gx * gx + gy * gy
        pick = np.argmax(g2, axis=1)
        px = cx[rows, pick]
        py = cy[rows, pick]
        g2[:, 4] = g2[rows, pick]
        h *= 0.5
    return float(np.max(g2[:, 4]))


def estimate_slope_bound(terrain: Terrain, samples: int = _DEFAULT_SLOPE_SAMPLES) -> float:
    """Sampled supremum of arctan |grad f| over the extent, refined locally.

    Uniform grid of about `samples` points, then pattern-search refinement
    around the top 1%. The result is a lower bound on the true supremum and
    is reported as an estimate: at the default count it is a grid terrain's
    slope bound. The grid is held whole, so a count above 10^8 is refused
    before anything is allocated.
    If any sampled |grad f|^2 is NaN or inf the result is pi/2.
    """
    check_slope_samples(samples)
    ext = terrain.extent
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
        return 0.0
    k = max(1, g2.size // 100)
    top = np.argpartition(g2, g2.size - k)[g2.size - k:]
    spacing = max(ext.width, ext.height) / (n - 1)
    best = _refine_candidates(terrain, ext, xs[top % n], ys[top // n], spacing)
    # an overflowed gradient reads as the steepest slope, so every slope
    # gate refuses the terrain. A NaN or inf sample is among the top 1%
    # (the partition puts NaN last) and stays the best through the
    # refinement (argmax picks NaN first), so `best` is NaN or inf then
    return math.atan(math.sqrt(best)) if best < math.inf else math.pi / 2


def check_slope_samples(samples: int) -> None:
    """Raise DomainError unless a slope estimate can take `samples`
    samples: at least 10^4, and at most the 10^8 its grid can hold."""
    if samples < 10_000:
        raise DomainError(f"slope estimation needs at least 10^4 samples, got {samples}")
    if samples > _MAX_SLOPE_SAMPLES:
        raise DomainError(f"slope estimation takes at most 10^8 samples, got {samples}")


def check_target_slope(target_slope: float) -> None:
    """Raise DomainError unless the target slope (radians) is in [0, pi/2)."""
    if not (0.0 <= target_slope < math.pi / 2):
        raise DomainError(f"target slope must be in [0, pi/2), got {target_slope}")


# most bumps a terrain takes: generate_terrain(1, 10 deg, n, [-8, 8]^2)
# took 1.1 s at 10^3 bumps and 12.9 s at 10^4, at 47 MB peak RSS (2-core
# Xeon, numpy 2.4); 10^5 bumps took over 3 minutes
MAX_BUMPS = 10 ** 4


def check_bump_count(bump_count: int) -> None:
    """Raise DomainError unless 0 <= bump count <= MAX_BUMPS."""
    if bump_count < 0:
        raise DomainError(f"bump count must be non-negative, got {bump_count}")
    if bump_count > MAX_BUMPS:
        raise DomainError(f"a terrain takes at most 10^4 bumps, got {bump_count}")


def check_seed(seed: int) -> None:
    """Raise DomainError unless the seed is non-negative (numpy's PCG64
    takes no negative seed)."""
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")


def generate_terrain(seed: int, target_slope: float, bump_count: int,
                     extent: Extent) -> BumpTerrain:
    """Seeded random bump terrain with slope bound at most target_slope.

    Deterministic in the seed (PCG64). Amplitudes are rescaled after
    generation so the certified slope bound (`BumpTerrain.slope_search`)
    lands just under the target; bump_count = 0 or target 0 yields flat
    terrain. The returned terrain carries its search, scaled, so it is not
    searched again.
    """
    check_target_slope(target_slope)
    check_bump_count(bump_count)
    check_seed(seed)
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
        return BumpTerrain([Bump(b.cx, b.cy, 0.0, b.sigma) for b in bumps], extent)
    raw = BumpTerrain(bumps, extent)
    search = raw.slope_search()
    if search.upper == 0.0:
        return raw
    scale = (1.0 - 1e-9) * math.tan(target_slope) / math.tan(search.upper)
    scaled = [Bump(b.cx, b.cy, b.amplitude * scale, b.sigma) for b in bumps]
    t = BumpTerrain(scaled, extent)
    # scaling every amplitude scales the gradient field and every bound of
    # the search by the same factor, so the scaled terrain's search follows
    # without running it again; 4 ulp cover the rounding of the scaled
    # amplitudes
    t._search = search._replace(
        lower=math.atan(scale * math.tan(search.lower)),
        upper=math.atan(scale * math.tan(search.upper) * (1.0 + 4.0 * _EPS)))
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


def parse_terrain(text: str | bytes) -> Terrain:
    """Parse the terrain file format; see serialize_terrain for the schema.

    `text` is the file's text or its raw bytes, which must be UTF-8 without
    a byte-order mark. The parse is strict JSON (RFC 8259): the literals
    NaN and Infinity, a number that overflows to infinity (1e400) and a
    lone surrogate escape are all ParseErrors. Every finite number parses
    to the same float as Python's `json` would give.
    """
    # imported here, not at module level: campaigns and gen-terrain never
    # parse a file, and orjson adds about 0.3 MB. It parses a 321 x 321
    # grid some 4x faster than `json`
    import orjson

    try:
        doc = orjson.loads(text)
    except orjson.JSONDecodeError as e:
        raise ParseError(f"terrain file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("terrain file must contain a JSON object")
    kind = _require_field(doc, "type", "terrain file")
    if kind == "bumps":
        raw = _list(_require_field(doc, "bumps", "bumps terrain"), "bumps")
        check_bump_count(len(raw))
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
        try:
            h = np.fromiter(heights, float, count=len(heights))
        except (TypeError, ValueError):
            raise ParseError("grid heights must be a flat list of numbers") from None
        return GridTerrain((_number(origin[0], "grid origin entry"),
                            _number(origin[1], "grid origin entry")),
                           spacing, h.reshape(rows, cols))
    raise ParseError(f"unknown terrain type {kind!r}")
