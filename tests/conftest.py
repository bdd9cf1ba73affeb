import math

import numpy as np
import pytest

from wobble.terrain import Extent, GridTerrain, flat_terrain, generate_terrain

EXTENT = Extent(-8.0, 8.0, -8.0, 8.0)


@pytest.fixture(scope="session")
def ext():
    return EXTENT


@pytest.fixture(scope="session")
def flat():
    return flat_terrain(EXTENT)


@pytest.fixture(scope="session")
def plane10():
    slope = math.tan(math.radians(10.0))
    return GridTerrain.from_function(lambda x, y: x * slope, EXTENT, 0.5)


@pytest.fixture(scope="session")
def hills14():
    return generate_terrain(1, math.radians(14.0), 20, EXTENT)


@pytest.fixture(scope="session")
def hills12():
    return generate_terrain(3, math.radians(12.0), 20, EXTENT)


@pytest.fixture(scope="session")
def hills30():
    return generate_terrain(5, math.radians(30.0), 20, EXTENT)


class EveryNode:
    """A terrain whose gradient bound is +inf, so the foot-circle scans
    settle no cell and evaluate every grid node: the full scan that the
    settled scan must reproduce bit for bit. Everything else delegates."""

    def __init__(self, terrain):
        self.inner = terrain

    def gradient_bound(self, x, y, radius):
        return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, math.inf)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture(scope="session")
def every_node():
    return EveryNode
