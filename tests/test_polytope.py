"""Hulls, volumes, polars, support data, triangulations, transforms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plval import plfunction as pf
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


@pytest.mark.parametrize("build", [pt.cube, pt.cross_polytope])
@pytest.mark.parametrize("n", [0, -1])
def test_standard_bodies_need_a_dimension_of_at_least_one(build, n):
    with pytest.raises(ValueError, match="n >= 1"):
        build(n)


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
    tri = pf.central_triangulation(square)
    assert len(tri.simplices) == 4
    for s in tri.simplices:
        assert oracles.det_simplex_volume(tri.vertices[list(s)]) == pytest.approx(1.0, abs=1e-12)


def test_central_triangulation_cube3():
    tri = pf.central_triangulation(pt.cube(3))
    assert len(tri.simplices) == 12
    vols = [oracles.det_simplex_volume(tri.vertices[list(s)]) for s in tri.simplices]
    assert vols == pytest.approx([2.0 / 3.0] * 12, abs=1e-12)
    assert sum(vols) == pytest.approx(8.0, rel=1e-12)


def test_central_triangulation_partitions():
    P = pt.random_polytope(seed=11, n=2, k=8)
    tri = pf.central_triangulation(P)
    vols = [oracles.det_simplex_volume(tri.vertices[list(s)]) for s in tri.simplices]
    assert sum(vols) == pytest.approx(pt.volume(P), rel=1e-12)
    # sampled interior points land in exactly one simplex interior
    rng = np.random.default_rng(0)
    pts = rng.uniform(P.vertices.min(0), P.vertices.max(0), size=(2000, 2))
    for x in pts:
        strict = sum(bool(np.all(oracles.barycentric(tri.vertices[s], x) > 1e-9)) for s in tri.simplices)
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


DILATIONS = (6.0**-6, 1.0 / 6.0, 0.37, 1.0, 2.5, 1e3)


def _near_boundary_square():
    # the origin clears the bottom facet by 5e-9, against the origin
    # rule's floor of 1e-9 max(1, scale): lam P is interior for lam above
    # 0.2 and on the boundary below
    return pt.hull_from_points(np.array([[-1.0, -5e-9], [1.0, -5e-9], [1.0, 2.0], [-1.0, 2.0]]))


@pytest.mark.parametrize(
    "make",
    [lambda: pt.random_polytope(2, 2, 7), lambda: pt.random_polytope(5, 3, 8), lambda: pt.cube(3)],
    ids=["random2d", "random3d", "cube3"],
)
@pytest.mark.parametrize("lam", DILATIONS)
def test_dilate_matches_a_rebuild(make, lam):
    from plval.plfunction import cone_function

    P = make()
    D, R = pt.dilate(P, lam), pt.hull_from_points(P.vertices * lam)
    assert D.vertices.tobytes() == R.vertices.tobytes()
    assert D.facet_simplices.tobytes() == R.facet_simplices.tobytes()
    assert not D.vertices.flags.writeable and not D.facet_simplices.flags.writeable
    assert D.origin_interior and D.dim == R.dim
    assert [f.vertices for f in D.facets] == [f.vertices for f in R.facets]
    np.testing.assert_allclose([f.normal for f in D.facets], [f.normal for f in R.facets], rtol=0, atol=1e-14)
    np.testing.assert_allclose([f.support for f in D.facets], [f.support for f in R.facets], rtol=1e-14)
    np.testing.assert_allclose([f.measure for f in D.facets], [f.measure for f in R.facets], rtol=1e-14)
    assert pt.volume(D) == pytest.approx(pt.volume(R), rel=1e-14)
    fD, fR = cone_function(D), cone_function(R)
    assert fD.complex.vertices.tobytes() == fR.complex.vertices.tobytes()
    assert np.array_equal(fD.complex.simplices, fR.complex.simplices)
    assert fD.values.tobytes() == fR.values.tobytes()


@pytest.mark.parametrize("lam", DILATIONS)
def test_dilate_raises_where_a_rebuild_raises(lam):
    P = _near_boundary_square()
    try:
        R = pt.hull_from_points(P.vertices * lam)
    except OriginNotInterior:
        with pytest.raises(OriginNotInterior):
            pt.dilate(P, lam)
        assert lam < 0.2
        return
    D = pt.dilate(P, lam)
    assert D.vertices.tobytes() == R.vertices.tobytes()
    assert D.facet_simplices.tobytes() == R.facet_simplices.tobytes()
    # a support of 5e-9 lam is known to the hull's rounding at the data scale
    np.testing.assert_allclose(
        [f.support for f in D.facets], [f.support for f in R.facets], rtol=1e-14, atol=1e-14 * R.scale())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("s", [1e-12, 1e-10, 1e-8])
def test_a_tiny_cube_builds_right_or_raises(n, s):
    # a tiny polytope raises a typed error or builds as dilate scales the
    # unit one: never a wrong number.  Below about 1e-9 the dedupe's floor
    # at 1 merges every point ("all points coincide")
    C = pt.cube(n)
    try:
        P = pt.hull_from_points(C.vertices * s)
    except PLValError:
        return
    D = pt.dilate(C, s)
    assert len(P.vertices) == 2**n
    assert pt.volume(P) == pytest.approx((2 * s) ** n, rel=1e-12, abs=0.0)
    assert P.vertices.tobytes() == D.vertices.tobytes()
    assert P.facet_simplices.tobytes() == D.facet_simplices.tobytes()
    assert [(f.normal, f.vertices) for f in P.facets] == [(f.normal, f.vertices) for f in D.facets]
    np.testing.assert_allclose([f.support for f in P.facets], [f.support for f in D.facets], rtol=1e-12)
    np.testing.assert_allclose([f.measure for f in P.facets], [f.measure for f in D.facets], rtol=1e-12)


def test_dilate_keeps_the_origin_rule_of_a_translate(square):
    with pytest.raises(OriginNotInterior):
        pt.dilate(pt.translate(square, [1.5, 0.0]), 2.0)


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
def test_dilate_rejects_a_factor_that_is_not_finite_and_positive(square, lam):
    with pytest.raises(ValueError, match="finite and positive"):
        pt.dilate(square, lam)


def _counted(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("seed,n,k,draws", [(13, 2, 6, 2), (4, 2, 6, 3), (6, 3, 7, 5)])
def test_random_polytope_rejects_a_draw_on_its_hull_rows(monkeypatch, counted_hulls, seed, n, k, draws):
    # each draw before the accepted one is rejected on clearance after its
    # one hull call, and never reaches the rest of the build
    finished = _counted(monkeypatch, pt, "_finish")
    P = pt.random_polytope(seed, n, k)
    assert len(counted_hulls) == draws
    assert len(finished) == 1
    assert min(f.support for f in P.facets) > pt.MIN_INTERIOR_CLEARANCE


@pytest.mark.parametrize("n,k", [(2, 5), (2, 6), (3, 7), (3, 8)])
def test_random_polytope_accepts_the_draw_a_full_build_accepts(n, k):
    # the rejection used to run on built polytopes: the first draw whose
    # build clears the origin by MIN_INTERIOR_CLEARANCE
    for seed in range(20):
        rng = np.random.default_rng(seed)
        while True:
            dirs = rng.normal(size=(k, n))
            pts = dirs / np.linalg.norm(dirs, axis=1)[:, None] * rng.uniform(0.8, 1.2, size=k)[:, None]
            try:
                ref = pt.hull_from_points(pts)
            except (Degenerate, OriginNotInterior):
                continue
            if min(f.support for f in ref.facets) > pt.MIN_INTERIOR_CLEARANCE:
                break
        P = pt.random_polytope(seed, n, k)
        assert P.vertices.tobytes() == ref.vertices.tobytes()
        assert P.facets == ref.facets
        assert P.facet_simplices.tobytes() == ref.facet_simplices.tobytes()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("w", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_thin_parallelepipeds_measure_right_or_raise(n, w):
    # centred parallelepipeds with unit edges but one of length w: each
    # build raises Degenerate, or has at least n+1 vertices and a volume
    # within 1e-13 / w relative of |det E|; a hundred times thicker than
    # the incidence tolerance (10 EPS), every one builds
    rng = np.random.default_rng(0)
    corners = np.array(list(itertools.product((-0.5, 0.5), repeat=n)))
    built = 0
    for _ in range(60):
        E = rng.normal(size=(n, n))
        E /= np.linalg.norm(E, axis=1)[:, None]
        E[-1] *= w
        want = abs(np.linalg.det(E))
        if want < 0.05 * w:
            continue
        try:
            P = pt._build(corners @ E, require_origin_interior=False)
        except Degenerate:
            assert w < 1e-6
            continue
        built += 1
        assert len(P.vertices) >= n + 1
        assert pt.volume(P) == pytest.approx(want, rel=1e-13 / w)
    assert built
