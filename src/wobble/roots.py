"""One bracketed scalar root finder for every 1-D refinement in the solver.

Brent's method (Brent 1973, "Algorithms for Minimization without
Derivatives", ch. 4), step for step as in scipy's brentq.c: inverse
quadratic or secant steps while they shrink the bracket fast enough, and
bisection when they do not, so it converges superlinearly near a simple
root and never stalls. Callers certify the bracket first (a sign scan that
proves exactly one crossing); this only refines inside it.

Pure Python on purpose: scipy's brentq wraps the objective in a closure that
refers to itself, and the reference cycle keeps the objective, and whatever
it holds, alive until the cyclic garbage collector runs.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, NumericalFailure

# relative step floor, as in brentq: every step moves the iterate by at
# least one float spacing
_RTOL = 4.0 * sys.float_info.epsilon
_MAX_ITER = 200


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
