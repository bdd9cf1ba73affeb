"""Bracketed root finders for every 1-D refinement in the solver.

Callers certify each bracket first (a sign scan that proves exactly one
crossing); these only refine inside it.

`bracketed_root` refines one scalar root by Brent's method (Brent 1973,
"Algorithms for Minimization without Derivatives", ch. 4), step for step as
in scipy's brentq.c: inverse quadratic or secant steps while they shrink the
bracket fast enough, and bisection when they do not, so it converges
superlinearly near a simple root and never stalls.

`bracketed_roots` refines a vector of brackets at once by Chandrupatla's
method (Chandrupatla 1997, Adv. Eng. Softw. 28(3)): inverse quadratic
interpolation when the last three points make it safe, bisection otherwise.
Rows converge independently, each step evaluates only the rows still open,
and every operation is elementwise, so a row's root is the same bit for bit
whether it is solved alone or in a batch.

Both are pure Python and numpy on purpose: scipy's brentq wraps the
objective in a closure that refers to itself, and the reference cycle keeps
the objective, and whatever it holds, alive until the cyclic garbage
collector runs; importing scipy.optimize also costs about 50 MB of memory.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, NumericalFailure

# relative step floor, as in brentq: every step moves the iterate by at
# least one float spacing
_RTOL = 4.0 * sys.float_info.epsilon
_MAX_ITER = 200
# absolute bracket width at which a row of bracketed_roots stops
_XTOL = 1e-12


def bracketed_root(fn, lo: float, hi: float, xtol: float = 1e-12,
                   ftol: float = 0.0, f_lo: float | None = None,
                   f_hi: float | None = None) -> float:
    """Root of fn in [lo, hi], where fn(lo) and fn(hi) differ in sign.

    Stops when the bracket is narrower than about xtol or |fn| <= ftol at the
    current best point. Pass f_lo / f_hi when the caller already holds those
    values; the endpoints are then not evaluated again. An endpoint whose
    value is within ftol is returned as it is.
    """
    xpre, xcur = float(lo), float(hi)
    fpre = fn(xpre) if f_lo is None else f_lo
    if abs(fpre) <= ftol:
        return xpre
    fcur = fn(xcur) if f_hi is None else f_hi
    if abs(fcur) <= ftol:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError(
            f"root bracket [{lo!r}, {hi!r}] does not straddle a sign change "
            f"(f = {fpre!r} .. {fcur!r})"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + _RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if abs(fcur) <= ftol or abs(sbis) < delta:
            return xcur
        stry = math.inf  # no interpolation: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # the slopes underflowed
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = fn(xcur)
    raise NumericalFailure(
        f"root refinement did not converge in {_MAX_ITER} steps "
        f"(last |f| = {abs(fcur):.3e})", residual=abs(fcur)
    )


def bracketed_roots(fn, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Root of every row's bracket [lo[k], hi[k]], where f_lo[k] and f_hi[k]
    are the function's values there and differ in sign.

    fn(x, rows) returns the values at x[j] of the functions of rows[j]; it
    is called only for rows that have not converged. A row stops when its
    bracket is narrower than about _XTOL or its best value is exactly zero;
    an endpoint whose value is zero is returned as it is. The first row
    without a sign change, or with a NaN, raises an error naming it.
    """
    x1 = np.array(lo, dtype=float)          # the newest point
    x2 = np.array(hi, dtype=float)          # the point across the root from x1
    f1 = np.array(f_lo, dtype=float)
    f2 = np.array(f_hi, dtype=float)
    out = np.where(f1 == 0.0, x1, x2)
    open_ = (f1 != 0.0) & (f2 != 0.0)
    bad = open_ & (np.isnan(f1) | np.isnan(f2) | ((f1 < 0.0) == (f2 < 0.0)))
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError(
            f"row {k}: root bracket [{float(x1[k])!r}, {float(x2[k])!r}] does "
            f"not straddle a sign change (f = {float(f1[k])!r} .. {float(f2[k])!r})"
        )
    rows = np.flatnonzero(open_)
    x1, x2, f1, f2 = x1[rows], x2[rows], f1[rows], f2[rows]
    t = np.full(rows.size, 0.5)             # next point, as a share of x1 -> x2
    steps = 0
    while rows.size:
        if steps == _MAX_ITER:
            k = int(rows[0])
            raise NumericalFailure(
                f"row {k}: root refinement did not converge in {_MAX_ITER} "
                f"steps (last |f| = {abs(float(f1[0])):.3e})",
                residual=abs(float(f1[0])))
        steps += 1
        xt = x1 + t * (x2 - x1)
        ft = np.asarray(fn(xt, rows), dtype=float)
        nan = np.isnan(ft)
        if nan.any():
            k = int(rows[np.argmax(nan)])
            raise NumericalFailure(f"row {k}: root refinement met a NaN value")
        # x3 is the point the bracket just dropped
        keep = (ft < 0.0) == (f1 < 0.0)
        x3 = np.where(keep, x1, x2)
        f3 = np.where(keep, f1, f2)
        x2 = np.where(keep, x2, x1)
        f2 = np.where(keep, f2, f1)
        x1, f1 = xt, ft
        best1 = np.abs(f1) < np.abs(f2)
        xm = np.where(best1, x1, x2)
        width = np.abs(x2 - x1)
        tol = 0.5 * (_XTOL + _RTOL * np.abs(xm))
        done = (width < 2.0 * tol) | (np.where(best1, f1, f2) == 0.0)
        if done.any():
            out[rows[done]] = xm[done]
            if done.all():
                break
            live = ~done
            rows, x1, x2, x3, f1, f2, f3, width, tol = (
                a[live] for a in (rows, x1, x2, x3, f1, f2, f3, width, tol))
        # inverse quadratic interpolation through the last three points when
        # they bound a monotone curve between x1 and x2, else bisection
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            d12, d32 = f1 - f2, f3 - f2
            phi = d12 / d32
            alpha = (x3 - x1) / (x2 - x1)
            iqi = f1 / d12 * f3 / d32 - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
            safe = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
        # every step lands at least tol inside the bracket (np.clip's
        # arithmetic, without its dispatch)
        t_min = tol / width
        t = np.minimum(np.maximum(np.where(safe, iqi, 0.5), t_min), 1.0 - t_min)
    return out
