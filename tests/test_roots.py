import gc
import math
import weakref

import numpy as np
import pytest

from wobble.errors import DomainError, NumericalFailure
from wobble.roots import bracketed_root, bracketed_roots


def counted(fn):
    calls = []

    def wrapper(x):
        calls.append(x)
        return fn(x)

    return wrapper, calls


def root(fn, lo, hi, **kwargs):
    """bracketed_root with the endpoint values taken from fn."""
    return bracketed_root(fn, lo, hi, fn(lo), fn(hi), **kwargs)


def test_endpoint_root_returned_as_is():
    assert root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert root(lambda x: x - 3.0, 1.0, 3.0) == 3.0
    # an endpoint inside the value tolerance is already a root
    assert root(lambda x: x - 1.0, 1.0 + 1e-10, 3.0, ftol=1e-9) == 1.0 + 1e-10
    assert root(lambda x: x - 3.0, 1.0, 3.0 - 1e-10, ftol=1e-9) == 3.0 - 1e-10


def test_cos_root_superlinear():
    fn, calls = counted(math.cos)
    x = root(fn, 1.0, 2.0, xtol=1e-12)
    assert abs(x - math.pi / 2.0) <= 1e-12
    # bisection needs 40 halvings of [1, 2] to reach 1e-12
    assert len(calls) <= 15


def test_value_tolerance_stops_early():
    fn, calls = counted(lambda x: x * x * x - 2.0)
    x = root(fn, 0.0, 2.0, xtol=1e-15, ftol=1e-6)
    assert abs(x ** 3 - 2.0) <= 1e-6
    fn_tight, calls_tight = counted(lambda x: x * x * x - 2.0)
    root(fn_tight, 0.0, 2.0, xtol=1e-15)
    assert len(calls) < len(calls_tight)


def test_known_endpoint_values_are_not_evaluated():
    fn, calls = counted(math.cos)
    x = bracketed_root(fn, 1.0, 2.0, f_lo=math.cos(1.0), f_hi=math.cos(2.0))
    assert abs(x - math.pi / 2.0) <= 1e-12
    assert 1.0 not in calls and 2.0 not in calls


def test_bracket_without_sign_change_raises():
    with pytest.raises(DomainError):
        root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        bracketed_root(math.cos, 1.0, 2.0, f_lo=1.0, f_hi=2.0)
    with pytest.raises(DomainError):
        root(lambda x: math.nan, 0.0, 1.0)


def test_no_reference_cycle_keeps_the_objective_alive():
    class Payload:
        offset = 0.25

    enabled = gc.isenabled()
    gc.disable()
    try:
        payload = Payload()
        ref = weakref.ref(payload)

        def objective(x, payload=payload):
            return x - payload.offset

        assert abs(root(objective, 0.0, 1.0) - 0.25) <= 1e-12
        del payload, objective
        # freed by reference counting alone, with the cyclic collector off
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _cubes(n=50):
    # row k: x^3 - a_k on [0, 2], root cbrt(a_k)
    a = np.linspace(0.5, 7.5, n)
    return a, np.zeros(n), np.full(n, 2.0), -a, 8.0 - a


def test_array_roots_analytic():
    a, lo, hi, f_lo, f_hi = _cubes()
    roots = bracketed_roots(lambda x, rows: x ** 3 - a[rows], lo, hi, f_lo, f_hi)
    assert np.max(np.abs(roots - np.cbrt(a))) <= 1e-12
    cos_root = bracketed_roots(lambda x, rows: np.cos(x), [1.0], [2.0],
                               [math.cos(1.0)], [math.cos(2.0)])
    assert abs(cos_root[0] - math.pi / 2.0) <= 1e-12


def test_array_root_same_alone_or_in_a_batch():
    a, lo, hi, f_lo, f_hi = _cubes()
    batch = bracketed_roots(lambda x, rows: x ** 3 - a[rows], lo, hi, f_lo, f_hi)
    for k in range(a.size):
        one = slice(k, k + 1)
        alone = bracketed_roots(lambda x, rows: x ** 3 - a[k], lo[one], hi[one],
                                f_lo[one], f_hi[one])
        assert alone[0] == batch[k]


def test_array_bracket_without_sign_change_names_the_row():
    a, lo, hi, f_lo, f_hi = _cubes(5)
    f_hi[3] = -1.0
    with pytest.raises(DomainError, match="row 3"):
        bracketed_roots(lambda x, rows: x ** 3 - a[rows], lo, hi, f_lo, f_hi)
    a, lo, hi, f_lo, f_hi = _cubes(5)
    f_lo[2] = math.nan
    with pytest.raises(DomainError, match="row 2"):
        bracketed_roots(lambda x, rows: x ** 3 - a[rows], lo, hi, f_lo, f_hi)

    def nan_in_row_4(x, rows):
        return np.where(rows == 4, math.nan, x ** 3 - a[rows])

    a, lo, hi, f_lo, f_hi = _cubes(5)
    with pytest.raises(NumericalFailure, match="row 4"):
        bracketed_roots(nan_in_row_4, lo, hi, f_lo, f_hi)


def test_array_roots_evaluate_only_open_rows():
    a, lo, hi, f_lo, f_hi = _cubes(8)
    a[0] = 1.0      # the first midpoint is row 0's exact root
    seen = []

    def fn(x, rows):
        seen.append(rows.copy())
        return x ** 3 - a[rows]

    bracketed_roots(fn, lo, hi, -a, 8.0 - a)
    assert 0 in seen[0] and all(0 not in rows for rows in seen[1:])
    for before, after in zip(seen, seen[1:]):
        assert set(after) <= set(before)
    assert len(seen[-1]) < 8
    # an endpoint that is already a root is never evaluated
    seen.clear()
    assert bracketed_roots(fn, [1.0], [2.0], [0.0], [7.0])[0] == 1.0
    assert not seen


def test_array_roots_leave_no_reference_cycle():
    class Payload:
        offset = 0.25

    enabled = gc.isenabled()
    gc.disable()
    try:
        payload = Payload()
        ref = weakref.ref(payload)

        def objective(x, rows, payload=payload):
            return x - payload.offset

        root = bracketed_roots(objective, [0.0], [1.0], [-0.25], [0.75])
        assert abs(root[0] - 0.25) <= 1e-12
        del payload, objective
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
