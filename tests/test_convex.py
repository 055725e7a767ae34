"""Cells in vertex form: clipping, incidence-driven triangulation, and the
batched point location, each against a brute-force oracle."""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from plval import convex
from plval import plfunction as pf
from plval import polytope as pt
from plval.errors import Degenerate, InvalidComplex
from plval.verify import random_cone_function, random_fan_function

import oracles


def _box_cell(lo, hi, tol):
    d = len(lo)
    V = np.array(list(itertools.product(*zip(lo, hi))))
    A = np.vstack([np.eye(d), -np.eye(d)])
    b = np.concatenate([hi, -lo])
    return V, A, b, convex.tight_rows(V, A, b, tol)


def _simplex_cell(rng, d, scale, shift, tol):
    while True:
        V = rng.normal(size=(d + 1, d))
        if abs(np.linalg.det(V[1:] - V[0])) > 0.3:
            break
    V = V * scale + shift
    facets = oracles.brute_facets(V, tol=1e-9 * scale)
    A = np.array([u for u, _ in facets])
    b = np.array([h for _, h in facets])
    return V, A, b, convex.tight_rows(V, A, b, tol)


def _random_unit(rng, d):
    a = rng.normal(size=d)
    return a / np.linalg.norm(a)


def _volume(P, d):
    """Hull volume; 0 for a flat or empty set."""
    if len(P) <= d:
        return 0.0
    try:
        return ConvexHull(P).volume
    except QhullError:
        return 0.0


def _near(X, Y, eps):
    """Every row of X is within eps of a row of Y."""
    dist = np.max(np.abs(X[:, None, :] - Y[None, :, :]), axis=2)
    return bool(np.all(dist.min(axis=1) <= eps))


CUTS = ("interior", "vertex", "facet", "parallel")


def _cut_in_stack(rng, cell, a, c, tol, mates):
    """The part of the cell in a.x <= c, or None, clipped inside a stack
    between mates that are each cut by a plane through their interior."""
    pos = int(rng.integers(len(mates) + 1))
    cells = mates[:pos] + [cell] + mates[pos:]
    A = np.array([_random_unit(rng, len(a)) for _ in cells])
    C = np.array([u @ (rng.dirichlet(np.ones(len(m[0]))) @ m[0]) for u, m in zip(A, cells)])
    A[pos], C[pos] = a, c
    out, src = convex.clip(convex.Cells.of(cells), A, C, tol)
    hit = np.flatnonzero(src == pos)
    return out.cell(hit[0]) if len(hit) else None


@given(
    d=st.sampled_from([2, 3]),
    shape=st.sampled_from(["box", "simplex"]),
    scale=st.sampled_from([1.0, 1e6]),
    cuts=st.lists(st.sampled_from(CUTS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
@example(d=2, shape="box", scale=1.0, cuts=["vertex", "interior", "vertex"], seed=1)
@example(d=3, shape="simplex", scale=1.0, cuts=["interior", "facet", "vertex"], seed=2)
@example(d=3, shape="box", scale=1e6, cuts=["interior", "parallel", "parallel"], seed=3)
@example(d=2, shape="simplex", scale=1e6, cuts=["facet", "interior", "parallel"], seed=4)
def test_clip_chain_matches_brute_vertices(d, shape, scale, cuts, seed):
    # the oracle keeps points up to 1e-8 outside a row, so where a vertex
    # sits nearly on an edge's line it also reports near-copies of it that
    # clip, cutting exactly, does not make: the clip's vertices must be
    # among the oracle's and bound the same volume.  Each cut runs on a
    # stack, the cell between stack-mates cut by planes of their own.
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-1, 1, d) * scale
    extent = scale + float(np.max(np.abs(shift)))
    tol = 1e-11 * extent
    if shape == "box":
        cell = _box_cell(shift - scale * rng.uniform(0.5, 1.5, d), shift + scale * rng.uniform(0.5, 1.5, d), tol)
    else:
        cell = _simplex_cell(rng, d, scale, shift, tol)
    mates = [
        _box_cell(shift - scale * rng.uniform(0.5, 1.5, d), shift + scale * rng.uniform(0.5, 1.5, d), tol),
        _simplex_cell(rng, d, scale, shift, tol),
    ]
    rows, rhs = [cell[1]], [cell[2]]
    last = None
    for kind in cuts:
        V, A, b, T = cell
        if kind == "interior":
            a = _random_unit(rng, d)
            c = a @ (rng.dirichlet(np.ones(len(V))) @ V)
        elif kind == "vertex":
            a = _random_unit(rng, d)
            c = a @ V[rng.integers(len(V))]
        elif kind == "facet":
            j = rng.integers(len(A))
            a, c = A[j], b[j]
        else:  # parallel to the last cut (or a facet), about 1e-10 apart
            a, c = last if last is not None else (A[0], b[0])
            c = c + rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0]) * 1e-10 * extent
        last = (a, c)
        rows.append(a[None, :])
        rhs.append([c])
        clipped = _cut_in_stack(rng, cell, a, c, tol, mates)
        ref = oracles.halfspace_vertices_brute(np.vstack(rows), np.concatenate(rhs))
        if clipped is None:
            # nothing with interior is left: the oracle's polytope is flat
            assert _volume(ref, d) <= 1e-8 * extent**d
            return
        cell = clipped
        V, A, b, T = cell
        assert _near(V, ref, 1e-7 * extent)
        assert _volume(V, d) == pytest.approx(_volume(ref, d), rel=1e-9, abs=1e-8 * extent**d)
        # the incidence is geometric, and each kept row holds a facet
        resid = np.abs(V @ A.T - b)
        assert np.all(resid[T] <= 2 * tol)
        assert np.all(V @ A.T <= b + 2 * tol)
        assert np.all(T.sum(axis=0) >= d)


def _random_cell(rng, d, cuts=4):
    tol = 1e-10
    cell = convex.Cells.of([_box_cell(-np.ones(d), np.ones(d), tol)])
    for _ in range(cuts):
        V = cell.cell(0)[0]
        a = _random_unit(rng, d)
        cell, _ = convex.clip(cell, a, a @ (rng.dirichlet(np.ones(len(V))) @ V), tol)
    return cell.cell(0)


def _same_cell(x, y):
    return all(np.asarray(p).tobytes() == np.asarray(q).tobytes() for p, q in zip(x, y))


@given(
    d=st.sampled_from([2, 3]),
    flat=st.booleans(),
    size=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_stacked_cut_matches_the_cell_cut_alone(d, flat, size, seed):
    # a cell's cut inside a stack is bit-identical to the same cell cut
    # alone: no result depends on the cell's stack-mates, whatever their
    # vertex and row counts or planes (through a vertex or just off one,
    # along a facet, at infinity, or missing the cell)
    rng = np.random.default_rng(seed)
    tol = 1e-10
    cells = []
    for _ in range(size):
        # cells of different sizes and places, so that anything read off
        # the whole stack (its extent, its widths) would show
        V, A, b, T = _random_cell(rng, d, cuts=int(rng.integers(0, 4)))
        scale, shift = 10.0 ** rng.uniform(-1, 3), rng.uniform(-100, 100, d)
        cells.append((V * scale + shift, A, b * scale + A @ shift, T))
    a = np.array([_random_unit(rng, d) for _ in cells])
    c = np.empty(size)
    for i, (V, A, b, _) in enumerate(cells):
        kind = rng.integers(6)
        if kind == 0:
            c[i] = a[i] @ V[rng.integers(len(V))]
        elif kind == 5:  # a vertex just off the plane, past the tolerance
            c[i] = a[i] @ V[rng.integers(len(V))] + rng.choice([-1e-8, 1e-8])
        elif kind == 1:
            j = rng.integers(len(A))
            a[i], c[i] = A[j], b[j]
        elif kind == 2:
            c[i] = rng.choice([np.inf, -np.inf])
        elif kind == 3:
            c[i] = a[i] @ V.mean(axis=0) + 10.0
        else:
            c[i] = a[i] @ (rng.dirichlet(np.ones(len(V))) @ V)
    sides = convex.split(convex.Cells.of(cells), a, c, tol, flat=flat)
    for i, cell in enumerate(cells):
        alone = convex.split(convex.Cells.of([cell]), a[i : i + 1], c[i : i + 1], tol, flat=flat)
        for (stack, src), (one, _) in zip(sides, alone):
            hit = np.flatnonzero(src == i)
            assert len(hit) == len(one) <= 1
            if len(one):
                assert _same_cell(stack.cell(hit[0]), one.cell(0))


@pytest.mark.parametrize("d", [2, 3])
def test_incidence_triangulation_is_conforming_and_exact(d):
    rng = np.random.default_rng(10 + d)
    for _ in range(15):
        V, A, b, T = _random_cell(rng, d)
        S = convex.pulling_triangulation(V, np.arange(len(V)), d, T)
        cx = pf.SimplicialComplex(dim=d, vertices=V, simplices=tuple(S))
        cx.validate()
        assert cx.simplex_volumes().sum() == pytest.approx(ConvexHull(V).volume, rel=1e-12)

        # the two halves of a cut, triangulated on one vertex table, meet
        # face to face along the cut
        a = _random_unit(rng, d)
        (lo, _), (hi, _) = convex.split(convex.Cells.of([(V, A, b, T)]), a, a @ V.mean(axis=0), 1e-10)
        lo, hi = lo.cell(0), hi.cell(0)
        table, mapping = convex.dedupe_points(np.vstack([lo[0], hi[0]]), 1e-12)
        k = len(lo[0])
        S = convex.pulling_triangulation(table, mapping[:k], d, lo[3])
        S += convex.pulling_triangulation(table, mapping[k:], d, hi[3])
        both = pf.SimplicialComplex(dim=d, vertices=table, simplices=tuple(S))
        both.validate()
        assert both.simplex_volumes().sum() == pytest.approx(ConvexHull(V).volume, rel=1e-12)


@pytest.mark.parametrize("d, k", [(2, 9), (3, 12)])
def test_incidence_triangulation_of_hulls(d, k):
    for seed in range(8):
        P = pt.random_polytope(seed, d, k)
        on = np.zeros((len(P.vertices), len(P.facets)), dtype=bool)
        for j, facet in enumerate(P.facets):
            on[list(facet.vertices), j] = True
        S = convex.pulling_triangulation(P.vertices, np.arange(len(P.vertices)), d, on)
        cx = pf.SimplicialComplex(dim=d, vertices=P.vertices, simplices=tuple(S))
        cx.validate()
        assert cx.simplex_volumes().sum() == pytest.approx(ConvexHull(P.vertices).volume, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_overlay_builds_no_hull_facets(monkeypatch, n):
    # every qhull hull the overlay builds is a complex's convex support
    # (once per complex) or a merge of one winner's cells; cutting and
    # triangulation read facets off incidence and never build one
    rng = np.random.default_rng(20 + n)
    points = 5 if n == 3 else None
    f = random_cone_function(rng, n, points)
    g = random_cone_function(rng, n, points)
    callers = []
    hull = convex.hull

    def counted(*args, **kwargs):
        frame = sys._getframe(1)
        callers.append((frame.f_code.co_name, id(frame.f_locals.get("self"))))
        return hull(*args, **kwargs)

    monkeypatch.setattr(convex, "hull", counted)
    assert not pf.join(f, g).is_zero()
    assert not pf.meet(f, g).is_zero()
    names = [name for name, _ in callers]
    assert set(names) <= {"convex_support", "_merged_cell"}
    supports = [owner for name, owner in callers if name == "convex_support"]
    assert sorted(supports) == sorted(set(supports))
    assert {id(f.complex), id(g.complex)} <= set(supports)


@pytest.mark.parametrize("n", [2, 3])
def test_overlay_triangulates_only_cells_that_are_not_simplices(monkeypatch, n):
    # a kept cell that is a simplex already goes straight to the output;
    # pulling_triangulation sees only cells with more than n + 1 vertices
    from plval import overlay

    rng = np.random.default_rng(60 + n)
    points = 5 if n == 3 else None
    f = random_cone_function(rng, n, points)
    g = random_cone_function(rng, n, points)
    sizes = []
    pull = convex.pulling_triangulation

    def counted(points, subset, dim, incidence, tol=convex.EPS):
        sizes.append(len(subset))
        return pull(points, subset, dim, incidence, tol)

    monkeypatch.setattr(convex, "pulling_triangulation", counted)
    overlay._refine.cache_clear()
    outs = [pf.join(f, g), pf.meet(f, g)]
    cells = overlay._refine(f, g).pieces.cells
    overlay._refine.cache_clear()
    assert all(not h.is_zero() for h in outs)
    assert (cells.counts() == n + 1).any() and (cells.counts() > n + 1).any()
    assert sizes and min(sizes) > n + 1


def test_hull_from_points_calls_qhull_once(monkeypatch):
    calls = []
    qhull = convex.ConvexHull

    def counted(*args, **kwargs):
        calls.append(1)
        return qhull(*args, **kwargs)

    for module in (convex, pt):
        if hasattr(module, "ConvexHull"):
            monkeypatch.setattr(module, "ConvexHull", counted)
    P = pt.hull_from_points(np.random.default_rng(50).normal(size=(12, 3)) + 0.01)
    assert len(P.facets) >= 4
    assert calls == [1]


def _cube_with_extras():
    """The cube [-1, 1]^3 with its face centres and edge midpoints: every
    extra point is coplanar with a facet and none is a vertex."""
    grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
    return grid[np.abs(grid).sum(axis=1) > 0]


@st.composite
def _point_sets(draw):
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(d + 1, 10))
    kind = draw(st.sampled_from(["random", "rounded", "cube"] if d == 3 else ["random", "rounded"]))
    if kind == "cube":
        P = _cube_with_extras()
    elif kind == "rounded":
        # coordinates on a grid of quarters: coplanar and collinear points abound
        P = rng.integers(-4, 5, size=(k, d)) / 4.0
    else:
        P = rng.uniform(-1.0, 1.0, size=(k, d))
    dup = draw(st.integers(0, 3))
    P = np.vstack([P, P[rng.integers(0, len(P), size=dup)]])
    return P[rng.permutation(len(P))]


@settings(max_examples=120, deadline=None)
@given(_point_sets())
@example(_cube_with_extras())
def test_hull_incidence_matches_brute_facets(P):
    d = P.shape[1]
    tol = 1e-9
    try:
        A, b, _ = convex.hull(P)
    except Degenerate:
        assert np.linalg.matrix_rank(P[1:] - P[0]) < d
        return
    vert, A, b, T = convex.hull_incidence(P, A, b, tol)
    # the oracle takes each point once: a repeated point would span a
    # spurious plane through itself
    want = oracles.brute_facets(np.unique(P, axis=0), tol=tol)
    # one row per facet, each matching the oracle's normal and offset
    assert len(A) == len(want)
    for u, h in want:
        j = np.argmin(np.abs(A - u).max(axis=1))
        assert np.abs(A[j] - u).max() <= 1e-12
        assert abs(b[j] - h) <= 1e-12
        # the facet's vertices are the vertices on the oracle's plane
        V = P[vert]
        assert np.array_equal(T[:, j], np.abs(V @ u - h) <= tol)
    # the vertices, each once: the points whose facets meet in a point
    facets_at = [[u for u, h in want if abs(u @ x - h) <= tol] for x in P]
    corners = {tuple(x) for x, U in zip(P, facets_at) if U and np.linalg.matrix_rank(np.array(U)) == d}
    assert len(vert) == len(corners)
    assert {tuple(x) for x in P[vert]} == corners


def _shared_edge_midpoints(cx):
    count = {}
    for s in cx.simplices:
        for e in itertools.combinations(s, 2):
            count[e] = count.get(e, 0) + 1
    edges = [e for e, c in count.items() if c > 1]
    return np.array([cx.vertices[list(e)].mean(axis=0) for e in edges])


@pytest.mark.parametrize("which", ["fan2d", "cone3d", "join2d"])
def test_evaluate_many_matches_pointwise_oracle(monkeypatch, which):
    rng = np.random.default_rng(30)
    if which == "fan2d":
        f = random_fan_function(3)
    elif which == "cone3d":
        f = random_cone_function(rng, 3)
    else:
        f = pf.join(random_cone_function(rng, 2), random_cone_function(rng, 2))
    cx = f.complex
    lo, hi = f.bbox()
    span = hi - lo
    outside = lo - 0.5 * span + rng.uniform(0, 2, (30, f.dim)) * span
    outside = outside[np.any((outside < lo - 1e-3) | (outside > hi + 1e-3), axis=1)]
    pts = np.vstack([cx.vertices, _shared_edge_midpoints(cx), outside, rng.uniform(lo, hi, (200, f.dim))])
    want = oracles.evaluate_pl_brute(cx.vertices, cx.simplices, f.values, pts)
    vscale = max(1.0, float(np.max(np.abs(f.values))))
    assert np.max(np.abs(f.evaluate_many(pts) - want)) <= 1e-12 * vscale
    assert np.all(f.evaluate_many(outside) == 0.0)
    # small chunks of (point, simplex) pairs give the same values
    monkeypatch.setattr(pf, "EVAL_PAIRS", 7)
    fresh = pf.PLFunction(complex=pf.SimplicialComplex(cx.dim, cx.vertices, cx.simplices), values=f.values)
    assert np.max(np.abs(fresh.evaluate_many(pts) - want)) <= 1e-12 * vscale


def test_evaluate_many_first_simplex_wins():
    # two overlapping triangles (not a valid complex) that disagree on
    # their overlap: the lower simplex index decides, as in the oracle
    V = np.array([[0, 0], [2, 0], [0, 2], [0.5, 0.5], [3, 0.5], [0.5, 3]], dtype=float)
    S = ((0, 1, 2), (3, 4, 5))
    f = pf.PLFunction(complex=pf.SimplicialComplex(2, V, S), values=np.array([1.0, 0, 0, 5, 0, 0]))
    pts = np.random.default_rng(40).uniform(0, 3, (300, 2))
    want = oracles.evaluate_pl_brute(V, S, f.values, pts)
    assert np.max(np.abs(f.evaluate_many(pts) - want)) <= 1e-12


def test_validate_rejects_coplanar_faces_that_only_overlap():
    # two tetrahedra on opposite sides of z = 0 whose bases form a star of
    # David: no vertex lies in the other simplex and the interiors are
    # disjoint, so only the clipped, lower-dimensional intersection shows
    # that they meet in more than a common face
    base = np.array([[0.0, 1.2], [-1.04, -0.6], [1.04, -0.6]])
    V = np.vstack([np.column_stack([base, np.zeros(3)]), [[0, 0, 1]],
                   np.column_stack([-base, np.zeros(3)]), [[0, 0, -1]]])
    cx = pf.SimplicialComplex(3, V, ((0, 1, 2, 3), (4, 5, 6, 7)))
    with pytest.raises(InvalidComplex, match="intersect"):
        cx.validate()


@pytest.mark.parametrize("pairs", [1 << 14, 3])
def test_validate_names_the_first_foreign_vertex_by_simplex(monkeypatch, pairs):
    # unused vertex 3 lies on simplex 1 and unused vertex 7 on simplex 0:
    # the scan names the lower simplex first, whatever the vertex order
    # and however the (point, simplex) pairs are chunked
    monkeypatch.setattr(pf, "EVAL_PAIRS", pairs)
    V = np.array([[0, 0], [4, 0], [0, 4], [11, 1], [10, 0], [14, 0], [10, 4], [1, 1]], dtype=float)
    cx = pf.SimplicialComplex(2, V, ((0, 1, 2), (4, 5, 6)))
    with pytest.raises(InvalidComplex, match="vertex 7 lies on simplex 0 without"):
        cx.validate()


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 3),
    tol=st.sampled_from([1e-12, 5e-6, 1e-3]),
    shift=st.sampled_from([0.0, 1.0, -250.0]),
    clusters=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
                      min_size=0, max_size=12, unique=True),
    data=st.data(),
)
def test_dedupe_points_matches_the_greedy_oracle(d, tol, shift, clusters, data):
    # cluster centres on a grid of spacing 2.5 tol, each point within
    # 0.4 tol of its centre: a cluster is within tol of itself and more
    # than tol from any other, so the greedy visit and the connected
    # groups agree exactly
    centres = np.unique(np.array(clusters, dtype=float).reshape(-1, 3)[:, :d], axis=0)
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=len(centres), max_size=len(centres)))
    pts = np.repeat(centres, sizes, axis=0) * 2.5 * tol + shift
    jitter = data.draw(st.lists(st.floats(-0.4, 0.4), min_size=pts.size, max_size=pts.size))
    pts = pts + np.array(jitter).reshape(pts.shape) * tol
    pts = pts[data.draw(st.permutations(range(len(pts))))] if len(pts) else pts
    reps, mapping = convex.dedupe_points(pts, tol)
    want_reps, want_mapping = oracles.dedupe_points_greedy(pts, tol)
    assert np.array_equal(reps, want_reps)
    assert np.array_equal(mapping, want_mapping)
    assert len(reps) == len(centres)


def test_dedupe_points_collapses_a_chain():
    # each point is within tol of the next but the ends are 1.6 tol apart:
    # one group, where a greedy visit in lex order leaves two
    tol = 1e-3
    pts = np.array([[1.6e-3, 0.0], [0.0, 0.0], [0.8e-3, 0.0]])
    reps, mapping = convex.dedupe_points(pts, tol)
    assert np.array_equal(reps, [[0.0, 0.0]]) and np.array_equal(mapping, [0, 0, 0])
    assert len(oracles.dedupe_points_greedy(pts, tol)[0]) == 2
