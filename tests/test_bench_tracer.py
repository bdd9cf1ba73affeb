"""The benchmark tracer still finds every name it patches in `wobble`.

`benchmark/spans.py` wraps functions and methods of `wobble` by name. A
refactor that renames or drops one of them would break the traced benchmark
runs, so this test installs the tracer, runs one of each motion and a small
campaign, and checks the spans it recorded and that uninstalling restores
every patched attribute.
"""

import importlib
import math
from pathlib import Path

import pytest

import wobble
from wobble.cli import main
from wobble.contact import TableSpec
from wobble.motion import find_equilibrium, run_march, run_pivot_slide
from wobble.terrain import Extent, generate_terrain

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    return importlib.import_module("spans")


def _namespaces(tracer):
    """Every attribute of the wobble modules and the patched classes."""
    owners = list(tracer._modules())
    w = wobble
    owners += [w.ring.GroundRing, w.balance.HeightScan,
               w.terrain.BumpTerrain, w.terrain.GridTerrain]
    return {(id(owner), attr): id(value) for owner in owners
            for attr, value in vars(owner).items()}


def test_tracer_patch_points_resolve_and_restore(spans, monkeypatch, tmp_path):
    monkeypatch.setenv("WOBBLE_THREADS", "1")
    tracer = spans.Tracer()
    before = _namespaces(tracer)
    tracer.install()
    try:
        saved = list(tracer._saved)
        assert saved
        table = TableSpec.square(1.0)
        terrain = generate_terrain(2, math.radians(10.0), 6, Extent(-8.0, 8.0, -8.0, 8.0))
        motion = wobble.motion
        motion.find_equilibrium(motion.run_pivot_slide(table, terrain), terrain)
        motion.run_march(table, terrain)
        assert main(["montecarlo", "--n", "2", "--motion", "rt", "--theta", "10",
                     "--bumps", "6", "--out", str(tmp_path / "campaign.csv")]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"motion.run_pivot_slide", "motion.run_march", "cli.run"} <= names
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original
    assert _namespaces(tracer) == before
    assert wobble.motion.run_march is run_march
    assert wobble.motion.run_pivot_slide is run_pivot_slide
    assert wobble.motion.find_equilibrium is find_equilibrium
