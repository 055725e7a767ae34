"""Hulls, volumes, polars, support data, triangulations, transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plval import polytope as pt
from plval.errors import ConstructionFailure, Degenerate, NonFinite, OriginNotInterior, PLValError

import oracles

SQRT_HALF = 0.7071067811865475  # derived: brute H-enumeration of conv{±e_1, ±e_2}


def test_hull_square_facets(square):
    assert square.dim == 2
    assert len(square.vertices) == 4
    assert len(square.facets) == 4
    for facet in square.facets:
        assert facet.support == pytest.approx(1.0, abs=1e-12)
        assert sorted(np.abs(facet.normal)) == pytest.approx([0.0, 1.0], abs=1e-12)


def test_hull_cross_polytope_facets():
    P = pt.hull_from_points([[1, 0], [-1, 0], [0, 1], [0, -1]])
    assert len(P.facets) == 4
    for facet in P.facets:
        assert facet.support == pytest.approx(SQRT_HALF, abs=1e-12)
        assert np.abs(facet.normal) == pytest.approx([SQRT_HALF, SQRT_HALF], abs=1e-12)


def test_hull_drops_interior_point():
    P = pt.hull_from_points([[1, 1], [-1, 1], [1, -1], [-1, -1], [0, 0]])
    assert len(P.vertices) == 4
    assert pt.volume(P) == pytest.approx(4.0, abs=1e-12)


def test_hull_rejects_degenerate_and_offset_inputs():
    with pytest.raises(Degenerate):
        pt.hull_from_points([[0, 0], [1, 0], [2, 0]])  # collinear
    with pytest.raises(OriginNotInterior):
        pt.hull_from_points([[1, 1], [2, 1], [1, 2]])


def test_volume_square_and_cross(square):
    assert pt.volume(square) == pytest.approx(4.0, abs=1e-12)
    cross = pt.cross_polytope(2)
    assert pt.volume(cross) == pytest.approx(2.0, abs=1e-12)


def test_volume_matches_monte_carlo():
    P = pt.random_polytope(seed=3, n=2, k=7)
    mc = oracles.mc_volume(P.vertices, 10**6, seed=0)
    assert pt.volume(P) == pytest.approx(mc, rel=1e-2)


def test_polar_square_is_cross(square):
    Q = pt.polar(square)
    assert pt.volume(Q) == pytest.approx(2.0, abs=1e-12)
    expected = {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    got = {tuple(np.round(v, 12)) for v in Q.vertices}
    assert got == expected


def test_bipolar_round_trip():
    P = pt.random_polytope(seed=5, n=2, k=6)
    Q = pt.polar(pt.polar(P))
    a = sorted(map(tuple, np.round(P.vertices, 9)))
    b = sorted(map(tuple, np.round(Q.vertices, 9)))
    assert np.allclose(a, b, atol=1e-9)


def test_polar_simplex_matches_halfspace_oracle():
    P = pt.simplex_polytope([[2, -1], [-1, 2], [-1, -1]])
    Q = pt.polar(P)
    # oracle: vertices of {x : <x,v> <= 1} enumerated brute force
    ref = oracles.halfspace_vertices_brute(P.vertices, np.ones(3))
    assert pt.volume(Q) == pytest.approx(oracles.shoelace_area(ref), abs=1e-9)
    assert pt.volume(Q) == pytest.approx(1.5, abs=1e-9)


def test_support_function(square):
    assert pt.support(square, [1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert pt.support(square, [0, 0]) == 0.0
    for facet in square.facets:
        assert pt.support(square, facet.normal) == pytest.approx(facet.support, abs=1e-12)


@given(lam=st.floats(0.1, 50.0), seed=st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_support_positively_homogeneous(lam, seed):
    P = pt.random_polytope(seed=seed, n=2, k=6)
    u = np.random.default_rng(seed).normal(size=2)
    assert pt.support(P, lam * u) == pytest.approx(lam * pt.support(P, u), rel=1e-12)


def test_p_surface_area_square(square):
    assert pt.p_surface_area(square, 1.0) == pytest.approx(8.0, abs=1e-12)
    # h_i = 1 for the square, so every p gives the perimeter
    assert pt.p_surface_area(square, 2.0) == pytest.approx(8.0, abs=1e-12)


def test_p_surface_area_matches_gradient_norm():
    from plval.integration import grad_p_norm
    from plval.plfunction import cone_function

    for seed, n, p in ((1, 2, 1.0), (2, 2, 1.5), (3, 3, 2.0)):
        P = pt.random_polytope(seed=seed, n=n, k=n + 4)
        lhs = pt.p_surface_area(P, p) / n
        rhs = grad_p_norm(cone_function(P), p) ** p
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_central_triangulation_square(square):
    tri = pt.central_triangulation(square)
    assert len(tri.simplices) == 4
    for s in tri.simplices:
        assert oracles.det_simplex_volume(tri.vertices[list(s)]) == pytest.approx(1.0, abs=1e-12)


def test_central_triangulation_cube3():
    tri = pt.central_triangulation(pt.cube(3))
    assert len(tri.simplices) == 12
    vols = [oracles.det_simplex_volume(tri.vertices[list(s)]) for s in tri.simplices]
    assert vols == pytest.approx([2.0 / 3.0] * 12, abs=1e-12)
    assert sum(vols) == pytest.approx(8.0, rel=1e-12)


def test_central_triangulation_partitions():
    P = pt.random_polytope(seed=11, n=2, k=8)
    tri = pt.central_triangulation(P)
    vols = [oracles.det_simplex_volume(tri.vertices[list(s)]) for s in tri.simplices]
    assert sum(vols) == pytest.approx(pt.volume(P), rel=1e-12)
    # sampled interior points land in exactly one simplex interior
    rng = np.random.default_rng(0)
    pts = rng.uniform(P.vertices.min(0), P.vertices.max(0), size=(2000, 2))
    from plval.convex import barycentric_matrix

    for x in pts:
        strict = 0
        for s in tri.simplices:
            M, v0 = barycentric_matrix(tri.vertices[list(s)])
            tail = M @ (x - v0)
            bary = np.append(1.0 - tail.sum(), tail)
            if np.all(bary > 1e-9):
                strict += 1
        assert strict <= 1


def test_apply_unimodular_shear(square):
    Q = pt.apply_unimodular(square, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert pt.volume(Q) == pytest.approx(4.0, rel=1e-12)
    assert {tuple(v) for v in np.round(Q.vertices, 9)} == {
        (0.0, 1.0), (2.0, 1.0), (0.0, -1.0), (-2.0, -1.0)}


def test_apply_unimodular_identity(square):
    Q = pt.apply_unimodular(square, np.eye(2))
    assert np.allclose(sorted(map(tuple, Q.vertices)), sorted(map(tuple, square.vertices)))


@given(seed=st.integers(0, 40), a=st.floats(-2, 2), b=st.floats(-2, 2))
@settings(max_examples=40, deadline=None)
def test_unimodular_volume_invariance(seed, a, b):
    P = pt.random_polytope(seed=seed, n=2, k=6)
    phi = np.array([[1.0, a], [0.0, 1.0]]) @ np.array([[1.0, 0.0], [b, 1.0]])
    Q = pt.apply_unimodular(P, phi)
    assert pt.volume(Q) == pytest.approx(pt.volume(P), rel=1e-9)
    if P.origin_interior and Q.origin_interior:
        assert pt.volume(pt.polar(Q)) == pytest.approx(pt.volume(pt.polar(P)), rel=1e-8)


def test_translate(square):
    Q = pt.translate(square, [0.1, 0.0])
    assert pt.volume(Q) == pytest.approx(4.0, rel=1e-12)
    assert np.allclose(sorted(map(tuple, Q.vertices)),
                       sorted(map(tuple, square.vertices + np.array([0.1, 0.0]))))
    R = pt.translate(pt.translate(square, [0.3, -0.2]), [-0.3, 0.2])
    assert np.allclose(sorted(map(tuple, R.vertices)), sorted(map(tuple, square.vertices)), atol=1e-12)
    assert np.allclose(pt.translate(square, [0, 0]).vertices, square.vertices)


def test_random_polytope_contract():
    P = pt.random_polytope(seed=1, n=2, k=6)
    assert P.dim == 2
    assert len(P.vertices) <= 6
    Q = pt.random_polytope(seed=1, n=2, k=6)
    assert np.array_equal(P.vertices, Q.vertices)


@pytest.mark.parametrize("seed,n,k", [(0, 2, 6), (4, 3, 8), (9, 3, 8)])
def test_random_polytope_invariants(seed, n, k):
    P = pt.random_polytope(seed=seed, n=n, k=k)
    assert oracles.check_polytope_invariants(P) == []


def test_json_round_trip(square):
    data = square.to_json_dict()
    Q = pt.from_json_dict(data)
    assert np.allclose(sorted(map(tuple, Q.vertices)), sorted(map(tuple, square.vertices)))
    assert pt.volume(Q) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        pt.from_json_dict({"dim": 2})


def test_json_rejects_non_finite_vertices(square):
    data = square.to_json_dict()
    data["vertices"][0][1] = float("nan")
    with pytest.raises(NonFinite, match="'vertices'"):
        pt.from_json_dict(data)


def test_random_polytope_gives_up_with_typed_error():
    # two points never hold the origin inside a planar hull
    with pytest.raises(ConstructionFailure, match="could not sample"):
        pt.random_polytope(0, 2, 2)
    assert issubclass(ConstructionFailure, PLValError)
