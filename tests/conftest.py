import numpy as np
import pytest

from plval import plfunction as pf
from plval import polytope as pt


@pytest.fixture
def square():
    return pt.cube(2)


@pytest.fixture
def cone_square(square):
    return pf.cone_function(square)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def counted_densities(monkeypatch):
    """A list that grows by one each time the engine builds segment
    densities."""
    from plval import integration

    build = integration._segment_density
    calls = []

    def counting(V):
        calls.append(len(V))
        return build(V)

    monkeypatch.setattr(integration, "_segment_density", counting)
    return calls


@pytest.fixture
def counted_hulls(monkeypatch):
    """A list that grows by one each time convex.hull runs, with the
    number of points it was given."""
    from plval import convex

    hull = convex.hull
    calls = []

    def counting(points):
        calls.append(len(points))
        return hull(points)

    monkeypatch.setattr(convex, "hull", counting)
    return calls
