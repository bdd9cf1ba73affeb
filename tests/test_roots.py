import gc
import math
import weakref

import pytest

from wobble.errors import DomainError
from wobble.roots import bracketed_root


def counted(fn):
    calls = []

    def wrapper(x):
        calls.append(x)
        return fn(x)

    return wrapper, calls


def test_endpoint_root_returned_as_is():
    assert bracketed_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert bracketed_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0
    # an endpoint inside the value tolerance is already a root
    assert bracketed_root(lambda x: x - 1.0, 1.0 + 1e-10, 3.0, ftol=1e-9) == 1.0 + 1e-10
    assert bracketed_root(lambda x: x - 3.0, 1.0, 3.0 - 1e-10, ftol=1e-9) == 3.0 - 1e-10


def test_cos_root_superlinear():
    fn, calls = counted(math.cos)
    root = bracketed_root(fn, 1.0, 2.0, xtol=1e-12)
    assert abs(root - math.pi / 2.0) <= 1e-12
    # bisection needs 40 halvings of [1, 2] to reach 1e-12
    assert len(calls) <= 15


def test_value_tolerance_stops_early():
    fn, calls = counted(lambda x: x * x * x - 2.0)
    root = bracketed_root(fn, 0.0, 2.0, xtol=1e-15, ftol=1e-6)
    assert abs(root ** 3 - 2.0) <= 1e-6
    fn_tight, calls_tight = counted(lambda x: x * x * x - 2.0)
    bracketed_root(fn_tight, 0.0, 2.0, xtol=1e-15)
    assert len(calls) < len(calls_tight)


def test_known_endpoint_values_are_not_evaluated():
    fn, calls = counted(math.cos)
    root = bracketed_root(fn, 1.0, 2.0, f_lo=math.cos(1.0), f_hi=math.cos(2.0))
    assert abs(root - math.pi / 2.0) <= 1e-12
    assert 1.0 not in calls and 2.0 not in calls


def test_bracket_without_sign_change_raises():
    with pytest.raises(DomainError):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        bracketed_root(math.cos, 1.0, 2.0, f_lo=1.0, f_hi=2.0)
    with pytest.raises(DomainError):
        bracketed_root(lambda x: math.nan, 0.0, 1.0)


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

        assert abs(bracketed_root(objective, 0.0, 1.0) - 0.25) <= 1e-12
        del payload, objective
        # freed by reference counting alone, with the cyclic collector off
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
