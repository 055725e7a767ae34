"""Cells in vertex form: clipping, incidence-driven triangulation, and the
batched point location, each against a brute-force oracle."""

import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError, cKDTree

from plval import convex
from plval import plfunction as pf
from plval import polytope as pt
from plval.errors import Degenerate, InvalidComplex, PLValError
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
    (out, src), _ = convex.split(convex.Cells.of(cells), A, C, tol, above=False)
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
        (cell, _), _ = convex.split(cell, a, a @ (rng.dirichlet(np.ones(len(V))) @ V), tol, above=False)
    return cell.cell(0)


def _same_cell(x, y):
    return all(np.asarray(p).tobytes() == np.asarray(q).tobytes() for p, q in zip(x, y))


def _planes(rng, cells):
    """One plane per cell (V, A, b, T) of a stack: through a vertex or
    just off one, along a facet, at infinity, missing the cell, or
    through its interior."""
    d = cells[0][0].shape[1]
    a = np.array([_random_unit(rng, d) for _ in cells])
    c = np.empty(len(cells))
    for i, (V, A, b, _) in enumerate(cells):
        kind = rng.integers(6)
        if kind == 0:
            c[i] = a[i] @ V[rng.integers(len(V))]
        elif kind == 5:
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
    return a, c


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
    a, c = _planes(rng, cells)
    sides = convex.split(convex.Cells.of(cells), a, c, tol, flat=flat)
    for i, cell in enumerate(cells):
        alone = convex.split(convex.Cells.of([cell]), a[i : i + 1], c[i : i + 1], tol, flat=flat)
        for (stack, src), (one, _) in zip(sides, alone):
            hit = np.flatnonzero(src == i)
            assert len(hit) == len(one) <= 1
            if len(one):
                assert _same_cell(stack.cell(hit[0]), one.cell(0))


@given(
    d=st.integers(1, 4),
    flat=st.booleans(),
    above=st.booleans(),
    size=st.integers(1, 5),
    precuts=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_bitmask_split_matches_the_boolean_split(d, flat, above, size, precuts, seed):
    # the incidence held as one bitmask per vertex cuts every cell as the
    # boolean incidence (oracles.split_boolean) does, bit for bit: the
    # same vertices in the same slots, the same incidence and rows, the
    # same sources.  The stack is cut precuts times first, without
    # compacting, so it holds dropped vertices, dead rows and cells of
    # different widths.
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(size):
        V, A, b, T = _random_cell(rng, d, cuts=int(rng.integers(0, 3)))
        scale, shift = 10.0 ** rng.uniform(-1, 3), rng.uniform(-100, 100, d)
        cells.append((V * scale + shift, A, b * scale + A @ shift, T))
    stack = convex.Cells.of(cells)
    tol = 1e-10 * 10.0 ** rng.uniform(0, 3, size)
    for _ in range(precuts):
        a, c = _planes(rng, [stack.cell(i) for i in range(len(stack))])
        (lo, lo_src), (hi, hi_src) = convex.split(stack, a, c, tol)
        pick = rng.integers(2)
        stack, src = ((lo, lo_src), (hi, hi_src))[pick] if len((lo, hi)[pick]) else (lo, lo_src)
        if not len(stack):
            return
        tol = tol[src]
    a, c = _planes(rng, [stack.cell(i) for i in range(len(stack))])
    got = convex.split(stack, a, c, tol, above=above, flat=flat)
    want = oracles.split_boolean(stack.V, stack.A, stack.b, stack.T, stack.vm, stack.rm, a, c, tol, above, flat)
    if not above:
        assert got[1] is None
    for (out, src), (V, A, b, T, vm, rm, wsrc) in zip(got, want):
        assert np.array_equal(src, wsrc)
        assert out.V.tobytes() == V.tobytes()
        assert np.array_equal(out.vm, vm) and np.array_equal(out.rm, rm) and np.array_equal(out.T, T)
        # a slot no row holds is never read
        assert out.A[rm].tobytes() == A[rm].tobytes() and out.b[rm].tobytes() == b[rm].tobytes()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), cuts=st.integers(0, 80), flat=st.booleans())
def test_compact_matches_the_sorting_reference(d, seed, cuts, flat):
    # boxes and simplices cut by random planes, below or above, flat or
    # not, up to past MAX_ROWS cuts: compact gives what a stable sort of
    # the marks and the unpacked incidence give, every slot bit for bit
    rng = np.random.default_rng(seed)
    cells = [_box_cell(-rng.uniform(0.5, 2, d), rng.uniform(0.5, 2, d), 1e-12) for _ in range(3)]
    if d > 1:
        cells.append(_simplex_cell(rng, d, 1.0, 0.0, 1e-12))
    stack = convex.Cells.of(cells)
    for _ in range(cuts):
        if not len(stack):
            break
        a = np.array([_random_unit(rng, d) for _ in range(len(stack))])
        c = (a * rng.uniform(-0.3, 0.3, (len(stack), d))).sum(axis=1)
        lo, hi = convex.split(stack, a, c, 1e-12, flat=flat)
        stack = (lo, hi)[int(rng.integers(2))][0]
        # a compacted stack, empty ones too, compacts the same way again
        for stack in (stack, stack.compact()):
            got, want = stack.compact(), oracles.compact_by_sort(convex, stack)
            for name in ("V", "H", "bits", "vm", "live"):
                x, y = getattr(got, name), getattr(want, name)
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_split_compacts_a_stack_whose_row_slots_are_taken():
    # every cut takes a row slot, even one that keeps its cell whole; once
    # all MAX_ROWS are taken the next cut compacts the stack first, and a
    # cell gets what it gets from the cut alone
    V, A, b, T = _box_cell(-np.ones(2), np.ones(2), 1e-12)
    cells = convex.Cells.of([(V, A, b, T)])
    while cells.A.shape[1] < convex.MAX_ROWS:
        (cells, _), _ = convex.split(cells, np.array([1.0, 0.0]), np.inf, 1e-12, above=False)
    assert not cells.rm[0, 4:].any()
    a, c = np.array([1.0, 1.0]), 0.5
    for (full, _), (alone, _) in zip(convex.split(cells, a, c, 1e-12), convex.split(convex.Cells.of([(V, A, b, T)]), a, c,
                                                                                       1e-12)):
        assert _same_cell(full.cell(0), alone.cell(0))


def test_split_refuses_a_cell_with_every_row_slot_live():
    # a polygon of MAX_ROWS edges leaves no bit for a cut's row
    angle = 2 * np.pi * np.arange(convex.MAX_ROWS) / convex.MAX_ROWS
    V = np.column_stack([np.cos(angle), np.sin(angle)])
    A = np.column_stack([np.cos(angle + np.pi / convex.MAX_ROWS), np.sin(angle + np.pi / convex.MAX_ROWS)])
    b = (V * A).sum(axis=1)
    cells = convex.Cells.of([(V, A, b, convex.tight_rows(V, A, b, 1e-12))])
    assert np.array_equal(cells.T.sum(axis=1), np.full((1, convex.MAX_ROWS), 2))
    with pytest.raises(Degenerate, match="no slot"):
        convex.split(cells, np.array([1.0, 0.0]), 0.0, 1e-12)


def _stack_cells(cells):
    """Cells (subset, incidence), of any widths, as one padded stack."""
    k = max(len(sub) for sub, _ in cells)
    r = max(inc.shape[1] for _, inc in cells)
    idx, mask = np.zeros((len(cells), k), dtype=int), np.zeros((len(cells), k), dtype=bool)
    T = np.zeros((len(cells), k, r), dtype=bool)
    for i, (sub, inc) in enumerate(cells):
        idx[i, : len(sub)], mask[i, : len(sub)], T[i, : len(sub), : inc.shape[1]] = sub, True, inc
    return idx, mask, T


def _pull_one(points, subset, dim, incidence):
    """pulling_triangulation of one cell, as a list of index tuples."""
    S, _, _ = convex.pulling_triangulation(points, *_stack_cells([(subset, np.asarray(incidence))]), dim)
    return list(map(tuple, S.tolist()))


@pytest.mark.parametrize("d", [2, 3])
def test_incidence_triangulation_is_conforming_and_exact(d):
    rng = np.random.default_rng(10 + d)
    for _ in range(15):
        V, A, b, T = _random_cell(rng, d)
        S = _pull_one(V, np.arange(len(V)), d, T)
        cx = pf.SimplicialComplex(dim=d, vertices=V, simplices=tuple(S))
        cx.validate()
        assert oracles.check_conforming(V, S) == []
        assert cx.simplex_volumes().sum() == pytest.approx(ConvexHull(V).volume, rel=1e-12)

        # the two halves of a cut, triangulated on one vertex table, meet
        # face to face along the cut
        a = _random_unit(rng, d)
        (lo, _), (hi, _) = convex.split(convex.Cells.of([(V, A, b, T)]), a, a @ V.mean(axis=0), 1e-10)
        lo, hi = lo.cell(0), hi.cell(0)
        table, mapping = convex.dedupe_points(np.vstack([lo[0], hi[0]]), 1e-12)
        k = len(lo[0])
        S = _pull_one(table, mapping[:k], d, lo[3])
        S += _pull_one(table, mapping[k:], d, hi[3])
        both = pf.SimplicialComplex(dim=d, vertices=table, simplices=tuple(S))
        both.validate()
        assert oracles.check_conforming(table, S) == []
        assert both.simplex_volumes().sum() == pytest.approx(ConvexHull(V).volume, rel=1e-12)


@pytest.mark.parametrize("d, k", [(2, 9), (3, 12)])
def test_incidence_triangulation_of_hulls(d, k):
    for seed in range(8):
        P = pt.random_polytope(seed, d, k)
        on = np.zeros((len(P.vertices), len(P.facets)), dtype=bool)
        for j, facet in enumerate(P.facets):
            on[list(facet.vertices), j] = True
        S = _pull_one(P.vertices, np.arange(len(P.vertices)), d, on)
        cx = pf.SimplicialComplex(dim=d, vertices=P.vertices, simplices=tuple(S))
        cx.validate()
        assert oracles.check_conforming(P.vertices, S) == []
        assert cx.simplex_volumes().sum() == pytest.approx(ConvexHull(P.vertices).volume, rel=1e-12)


def _halves(rng, d):
    """The two halves of a random cell cut by a stacked split, on one
    deduped vertex table, as (table, cells)."""
    V, A, b, T = _random_cell(rng, d, cuts=int(rng.integers(1, 5)))
    a = _random_unit(rng, d)
    (lo, _), (hi, _) = convex.split(convex.Cells.of([(V, A, b, T)]), a[None], [a @ V.mean(axis=0)], 1e-10)
    lo, hi = lo.cell(0), hi.cell(0)
    table, mapping = convex.dedupe_points(np.vstack([lo[0], hi[0]]), 1e-12)
    k = len(lo[0])
    return table, [(mapping[:k], lo[3]), (mapping[k:], hi[3])]


def _pulling_cases(kind, rng):
    """(table, cells, dim): cells (subset, incidence) on a table, of one
    kind."""
    if kind in ("cut2", "cut3"):
        table, cells = _halves(rng, int(kind[-1]))
        return table, cells, int(kind[-1])
    if kind in ("facets3", "facets4", "edges"):
        n = {"facets3": 3, "facets4": 4, "edges": 2}[kind]
        P = pt.random_polytope(int(rng.integers(2**31)), n, int(rng.integers(2 * n + 2, 3 * n + 5)))
        on = np.zeros((len(P.vertices), len(P.facets)), dtype=bool)
        for j, facet in enumerate(P.facets):
            on[list(facet.vertices), j] = True
        return P.vertices, [(np.array(f.vertices), on[list(f.vertices)]) for f in P.facets], n - 1
    if kind == "repeats":
        # some vertices listed twice, their rows split between the copies
        d = int(rng.integers(2, 4))
        table, cells = _halves(rng, d)
        out = []
        for sub, inc in cells:
            twice = rng.choice(len(sub), size=int(rng.integers(1, len(sub))), replace=False)
            m = rng.integers(0, 2, size=(2,) + inc[twice].shape).astype(bool)
            part = inc[twice] & m[0]
            inc = inc.copy()
            inc[twice] &= ~part | m[1]
            order = rng.permutation(len(sub) + len(twice))
            out.append((np.concatenate([sub, sub[twice]])[order], np.vstack([inc, part])[order]))
        return table, out, d
    if kind == "collinear":
        # boxes with extra points on their edges: runs of collinear points
        d = int(rng.integers(2, 4))
        V, A, b, _ = _box_cell(-rng.uniform(0.5, 2, d), rng.uniform(0.5, 2, d), 1e-12)
        extra = []
        for _ in range(int(rng.integers(1, 6))):
            u, w = V[rng.choice(len(V), 2, replace=False)]
            if np.count_nonzero(u != w) == 1:  # an edge of the box
                extra.append(u + rng.choice([0.25, 0.5, 0.75]) * (w - u))
        X = np.vstack([V, *extra]) if extra else V
        return X, [(np.arange(len(X)), convex.tight_rows(X, A, b, 1e-12))], d
    # line: 1-D cells of a few points on one axis, ties and repeats among them
    X = np.round(rng.uniform(-2, 2, size=(8, 1)), int(rng.integers(1, 4)))
    subs = [rng.choice(8, size=int(rng.integers(1, 6))) for _ in range(4)]
    return X, [(sub, np.ones((len(sub), 2), dtype=bool)) for sub in subs], 1


@given(
    kinds=st.lists(st.sampled_from(["cut2", "cut3", "facets3", "facets4", "edges", "repeats", "collinear", "line"]),
                   min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_stacked_pulling_matches_the_recursion(kinds, seed):
    # one stacked pass gives each cell the simplices the recursion gives
    # it, in its order, after the floor, each with its simplex_measures;
    # cells of every kind share the stack (one kind's dimension at a time)
    rng = np.random.default_rng(seed)
    for kind in kinds:
        table, cells, dim = _pulling_cases(kind, rng)
        S, cell, measure = convex.pulling_triangulation(table, *_stack_cells(cells), dim)
        assert np.all(np.diff(cell) >= 0)
        assert np.array_equal(measure, convex.simplex_measures(table, S))
        for i, (sub, inc) in enumerate(cells):
            want = oracles.pulling_triangulation_recursive(table, sub, dim, inc)
            assert list(map(tuple, S[cell == i].tolist())) == want


@pytest.mark.parametrize("n", [2, 3])
def test_overlay_builds_no_hull_facets(monkeypatch, n):
    # every hull the overlay builds is a complex's convex support,
    # once per complex; cutting, merging and triangulation read facets off
    # incidence and never build one
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
    assert set(names) <= {"convex_support"}
    supports = [owner for name, owner in callers if name == "convex_support"]
    assert sorted(supports) == sorted(set(supports))
    assert {id(f.complex), id(g.complex)} <= set(supports)


@pytest.mark.parametrize("n", [2, 3])
def test_assembly_builds_no_hull_and_triangulates_once(monkeypatch, n):
    # assemble_cells, for overlays, chained meets, batches of pairs and
    # tents alike, never calls convex.hull, and makes one stacked
    # triangulation per batch
    from plval import overlay

    rng = np.random.default_rng(40 + n)
    points = 5 if n == 3 else None
    f = random_cone_function(rng, n, points)
    g = random_cone_function(rng, n, points)
    fan = random_fan_function(3) if n == 2 else None
    inside, hulls, pulls = [False], [0], []

    def counting(fn, counts):
        def wrapped(*args, **kwargs):
            counts()
            return fn(*args, **kwargs)
        return wrapped

    def hull_seen():
        hulls[0] += inside[0]

    def pull_seen():
        if inside[0]:
            pulls[-1] += 1

    assemble = overlay.assemble_cells

    def assembling(*args):
        inside[0] = True
        pulls.append(0)
        try:
            return assemble(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(overlay, "assemble_cells", assembling)
    monkeypatch.setattr(convex, "hull", counting(convex.hull, hull_seen))
    monkeypatch.setattr(convex, "pulling_triangulation", counting(convex.pulling_triangulation, pull_seen))
    overlay._pair.cache_clear()
    jo = pf.join(f, g)
    assert len(pf.meet(f, jo).complex) == len(f.complex)
    met = overlay.overlays([(f, g), (g, jo), (jo, f)], ("meet",))["meet"]
    assert len(met) == 3 and all(isinstance(h, pf.PLFunction) for h in met)
    if fan is not None:
        (tents,) = overlay.tent_decomposition([fan])
        assert len(tents)
    overlay._pair.cache_clear()
    assert hulls == [0]
    assert len(pulls) >= 2 and set(pulls) == {1}


def _same_points(X, Y, eps=1e-9):
    return len(X) == len(Y) and _near(X, Y, eps) and _near(Y, X, eps)


@pytest.mark.parametrize("n", [2, 3])
def test_overlay_triangulates_only_cells_that_are_not_simplices(monkeypatch, n):
    # a kept cell that is a simplex already goes straight to the output:
    # the triangulation's stack holds every other kept cell and what each
    # merge group becomes if it merges, and none of its cells is a kept
    # simplex.  Above 2-D the cut also measures its cells that are not
    # simplices by their triangulation at tol 0 (convex.cell_volumes), in
    # one stack for every cut cell; in 2-D the shoelace measures them
    from plval import overlay

    rng = np.random.default_rng(60 + n)
    points = 5 if n == 3 else None
    f = random_cone_function(rng, n, points)
    g = random_cone_function(rng, n, points)
    stacks = []
    pull = convex.pulling_triangulation

    def recorded(points, idx, mask, incidence, dim, tol=convex.EPS):
        stacks.append((tol, [points[i[m]] for i, m in zip(idx, mask)]))
        return pull(points, idx, mask, incidence, dim, tol)

    monkeypatch.setattr(convex, "pulling_triangulation", recorded)
    overlay._pair.cache_clear()
    outs = [pf.join(f, g), pf.meet(f, g)]
    overlay._pair.cache_clear()
    made = list(stacks)
    mesh = overlay._prep([(f, g)])
    pieces = overlay._pieces_pairwise(mesh)
    winners = overlay._winners(pieces, mesh)
    cells = pieces.cells
    assert all(not h.is_zero() for h in outs)
    assert (cells.counts() == n + 1).any() and (cells.counts() > n + 1).any()
    measured = [pts for tol, s in made if tol == 0.0 for pts in s]
    if n == 3:
        big = [cells.V[c, cells.vm[c]] for c in np.flatnonzero(cells.counts() > n + 1)]
        assert len(made) == 2 and len(measured) == len(big)
        assert all(any(_same_points(pts, c) for pts in measured) for c in big)
    else:
        assert len(made) == 1 and not measured
    # join and meet of the pair are assembled together: one stack for both
    (stack,) = [s for tol, s in made if tol == convex.EPS]
    for op in ("join", "meet"):
        kept = winners[op] >= 0
        simplices = [cells.V[c, cells.vm[c]] for c in np.flatnonzero(kept & (cells.counts() == n + 1))]
        assert simplices
        assert not any(_same_points(pts, s) for pts in stack for s in simplices)
        others = [cells.V[c, cells.vm[c]] for c in np.flatnonzero(kept & (cells.counts() > n + 1))]
        assert all(any(_same_points(pts, c) for pts in stack) for c in others)


def _cell(V):
    """The convex cell with vertices V, its rows from the brute-force
    facets."""
    V = np.asarray(V, dtype=float)
    facets = oracles.brute_facets(V)
    A = np.array([u for u, _ in facets])
    b = np.array([h for _, h in facets])
    return V, A, b, convex.tight_rows(V, A, b, 1e-12)


def _assemble_one_piece(cells):
    """assemble_cells on the cells, all carrying the piece 1."""
    from plval import overlay

    d = cells[0][0].shape[1]
    vol = np.array([ConvexHull(V).volume for V, _, _, _ in cells])
    (out,) = overlay.assemble_cells(convex.Cells.of(cells), vol, np.zeros((len(cells), d)), np.ones(len(cells)), d,
                                    np.array([vol.sum()]), np.zeros(len(cells), dtype=int))
    return out


MERGE_CASES = {
    # a triangle cut into three from an interior point: no two pieces
    # have a convex union, the three do
    "triangle in three": ([[[0, 0], [4, 0], [1, 1]], [[4, 0], [0, 4], [1, 1]], [[0, 4], [0, 0], [1, 1]]], 1),
    "two of three": ([[[0, 0], [4, 0], [1, 1]], [[4, 0], [0, 4], [1, 1]]], 2),
    "tetrahedron in four": (
        [[[0, 0, 0], [3, 0, 0], [0, 3, 0], [0.5, 0.6, 0.7]], [[0, 0, 0], [3, 0, 0], [0, 0, 3], [0.5, 0.6, 0.7]],
         [[0, 0, 0], [0, 3, 0], [0, 0, 3], [0.5, 0.6, 0.7]], [[3, 0, 0], [0, 3, 0], [0, 0, 3], [0.5, 0.6, 0.7]]],
        1,
    ),
    "L-shape": ([[[0, 0], [2, 0], [2, 1], [0, 1]], [[0, 1], [1, 1], [1, 2], [0, 2]]], 4),
    # the cell their vertices give, the triangle (-2, 0), (-2, 3), (0, 3),
    # has their total area, but its long side lies on no row of theirs
    "bars apart": ([[[-2, 2], [0, 2], [0, 3], [-2, 3]], [[-2, 0], [-1, 0], [-1, 1], [-2, 1]]], 4),
    # opposite facets on shared lines without touching: the rows every
    # vertex satisfies bound a 3 x 3 square, the cells fill 6 of it
    "four bars": (
        [[[0, 0], [3, 0], [3, 1], [0, 1]], [[0, 1], [1, 1], [1, 2], [0, 2]], [[2, 1], [3, 1], [3, 2], [2, 2]],
         [[1, -1], [2, -1], [2, 0], [1, 0]]],
        8,
    ),
}


@pytest.mark.parametrize("case", sorted(MERGE_CASES))
def test_merge_verdicts_against_the_group_hull(case):
    # cells with one piece merge exactly when the qhull hull of all their
    # vertices has their total volume; a merged group is one cell
    members, simplices = MERGE_CASES[case]
    cells = [_cell(V) for V in members]
    merges = oracles.group_hull_merges([V for V, _, _, _ in cells], sum(ConvexHull(V).volume for V, _, _, _ in cells))
    out = _assemble_one_piece(cells)
    assert merges == (simplices == 1)
    assert len(out.complex) == simplices
    assert out.complex.simplex_volumes().sum() == pytest.approx(sum(ConvexHull(V).volume for V in members), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_merge_verdicts_of_overlays_match_the_group_hull(monkeypatch, n):
    # every group of one winner's cells, in joins, meets and chained meets
    # of random cones, gets the verdict of the qhull group-hull rule
    from plval import overlay

    assemble, merges = overlay.assemble_cells, overlay._merges
    seen, cells = [], []

    def assembling(kept, *args):
        cells.append(kept)
        return assemble(kept, *args)

    def merging(groups, *args):
        out = merges(groups, *args)
        kept = cells[-1]
        for gi, verdict in enumerate(out):
            pts = [kept.V[c, kept.vm[c]] for c in np.flatnonzero(groups.member == gi)]
            seen.append((bool(verdict), oracles.group_hull_merges(pts, float(groups.total[gi]))))
        return out

    monkeypatch.setattr(overlay, "assemble_cells", assembling)
    monkeypatch.setattr(overlay, "_merges", merging)
    overlay._pair.cache_clear()
    for seed in range(12 if n == 2 else 4):
        rng = np.random.default_rng(seed)
        f = random_cone_function(rng, n)
        g = random_cone_function(rng, n)
        jo = pf.join(f, g)
        pf.meet(f, g), pf.meet(f, jo), pf.meet(jo, f)
    overlay._pair.cache_clear()
    verdicts = np.array(seen)
    assert verdicts[:, 0].any() and not verdicts[:, 0].all()
    assert np.array_equal(verdicts[:, 0], verdicts[:, 1])


def test_hull_from_points_calls_hull_once(counted_hulls):
    P = pt.hull_from_points(np.random.default_rng(50).normal(size=(12, 3)) + 0.01)
    assert len(P.facets) >= 4
    assert counted_hulls == [12]


def _cube_with_extras():
    """The cube [-1, 1]^3 with its face centres and edge midpoints: every
    extra point is coplanar with a facet and none is a vertex."""
    grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
    return grid[np.abs(grid).sum(axis=1) > 0]


@st.composite
def _point_sets(draw):
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(d + 1, 10 if d < 4 else 8))
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


@settings(max_examples=100, deadline=None)
@given(_point_sets())
@example(_cube_with_extras())
@example(np.vstack([_cube_with_extras()] * 2))
def test_hull_rows_and_volume_match_qhull(P):
    # the numpy hull against qhull: the same volume and the same vertices,
    # every row holds every point and is tight on a facet of qhull's, and
    # no two rows have one tight set
    d = P.shape[1]
    try:
        A, b, volume = convex.hull(P)
    except Degenerate:
        assert np.linalg.matrix_rank(P[1:] - P[0]) < d
        return
    assert np.allclose((A * A).sum(axis=1), 1.0, rtol=0, atol=1e-14)
    assert (P @ A.T - b).max() <= 1e-12
    if d == 1:
        assert volume() == P.max() - P.min()
        return
    qh = ConvexHull(P)
    assert volume() == pytest.approx(qh.volume, rel=1e-12)
    tight = np.abs(P @ A.T - b) <= 1e-9
    assert len({tuple(col) for col in tight.T}) == len(A)
    vert, _, _, _ = convex.hull_incidence(P, A, b, 1e-9)
    assert {tuple(x) for x in P[vert]} == {tuple(x) for x in P[qh.vertices]}
    # each row is one of qhull's facet planes
    for a, h in zip(A, b):
        assert np.min(np.abs(qh.equations[:, :d] - a).max(axis=1) + np.abs(-qh.equations[:, d] - h)) <= 1e-9


@st.composite
def _build_sets(draw):
    """_point_sets with up to two near-duplicates of its points, each
    moved by 1e-12 to 1e-6 of the spread, and up to two points within
    twice a build's incidence tolerance of a hull row, on either side."""
    P = draw(_point_sets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, d = P.shape
    spread = float(np.abs(P - P.mean(axis=0)).max())
    near = draw(st.integers(0, 2))
    moves = rng.uniform(-1.0, 1.0, (near, d)) * spread * 10.0 ** rng.uniform(-12.0, -6.0, (near, 1))
    P = np.vstack([P, P[rng.integers(0, k, near)] + moves])
    planes = draw(st.integers(0, 2))
    if planes:
        try:
            A, b, _ = convex.hull(P)
        except Degenerate:
            return P
        tol = 10 * convex.EPS * spread  # the build's incidence tolerance
        for j in rng.integers(0, len(A), planes):
            on = P[np.abs(P @ A[j] - b[j]) <= tol]
            x = rng.dirichlet(np.ones(len(on))) @ on + A[j] * rng.uniform(-2.0, 2.0) * tol
            P = np.vstack([P, x])
    return P[rng.permutation(len(P))]


def _built(P):
    """Everything a build gives for P, or the type of error it raises."""
    try:
        Q = pt._build(P, require_origin_interior=False)
    except PLValError as e:
        return type(e)
    S = Q.facet_simplices
    return Q.vertices.tobytes(), Q.vertices.shape, Q.facets, S.tobytes(), S.shape, S.dtype, Q.origin_interior


@settings(max_examples=300, deadline=None)
@given(_build_sets())
@example(_cube_with_extras())
@example(np.vstack([pt.cube(3).vertices, [[1.0, 0.2, 0.3 + 1.5e-8]]]))
def test_simplex_facet_builds_match_the_general_path(P):
    # a build whose hull rows are simplex facets reads its facets and
    # vertices off the rows and keeps each facet as its own simplex; the
    # general path (hull_incidence and the stacked pulling triangulation)
    # gives the same polytope, bit for bit, or the same error
    fast = _built(P)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convex, "simplex_facets", lambda T, d: False)
        general = _built(P)
    assert fast == general
    if not isinstance(fast, type):
        # the vertices are in lex order
        V = np.frombuffer(fast[0]).reshape(fast[1])
        assert np.array_equal(np.lexsort(V.T[::-1]), np.arange(len(V)))


def test_only_hulls_with_simplex_facets_skip_the_incidence(monkeypatch):
    # random draws on the sphere are simplicial: no incidence pass and no
    # triangulation; a cube, or a point inside a facet or near a
    # neighbour, takes the general path
    general = []
    incidence = convex.hull_incidence

    def counted(*args):
        general.append(1)
        return incidence(*args)

    monkeypatch.setattr(convex, "hull_incidence", counted)
    for n in (2, 3, 4):
        for seed in range(10):
            pt.random_polytope(seed, n, n + 4)
    assert general == []
    pt.cube(3)
    pt.hull_from_points(np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0], [0.0, -1.0]]))
    # two points 1.2e-7 apart, beyond the dedupe and incidence tolerances:
    # one of them lies on a subset of the other's rows, so not every
    # point on a row is a vertex
    rng = np.random.default_rng(6)
    P = rng.normal(size=(int(rng.integers(4, 10)), 3))
    P /= np.linalg.norm(P, axis=1)[:, None]
    P = np.vstack([P, P[:2] + rng.uniform(-1.0, 1.0, (2, 3)) * 10 ** rng.uniform(-12, -6)])
    pt._build(P, require_origin_interior=False)
    assert general == [1, 1, 1]


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 8), r=st.integers(1, 8), d=st.integers(1, 3), fill=st.floats(0.1, 0.9),
       exact=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_simplex_facets_is_what_incidence_faces_reads(k, r, d, fill, exact, seed):
    # on any incidence, random or with d points on every row: every row
    # is a facet of d points and the vertices are the points on the rows,
    # exactly when simplex_facets says so
    rng = np.random.default_rng(seed)
    T = rng.random((k, r)) < fill
    if exact and d <= k:
        T = np.zeros((k, r), dtype=bool)
        for j in range(r):
            T[rng.choice(k, d, replace=False), j] = True
    vert, facet = convex.incidence_faces(T)
    want = bool((T.sum(axis=0) == d).all() and facet.all() and np.array_equal(vert, T.any(axis=1)))
    assert convex.simplex_facets(T, d) == want


def _box_set(data, d, groups, k):
    """k boxes on a grid of quarter steps, each 0-2 steps wide on each
    axis (zero-width boxes and boxes touching at a face are common), some
    padded by 1e-9 at the high end, with one of the groups each; at
    random, the first box spans all the others."""
    lo = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=k * d, max_size=k * d)), dtype=float)
    size = np.array(data.draw(st.lists(st.integers(0, 2), min_size=k * d, max_size=k * d)), dtype=float)
    pad = np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-9]), min_size=k, max_size=k)))
    lo, hi = lo.reshape(k, d) * 0.25, (lo + size).reshape(k, d) * 0.25 + pad.reshape(k, 1)
    if k and data.draw(st.booleans()):
        lo[0], hi[0] = -1.0, 2.0
    group = np.array(data.draw(st.lists(st.sampled_from(groups), min_size=k, max_size=k)), dtype=int)
    return lo, hi, group


@settings(max_examples=120, deadline=None)
@given(
    d=st.integers(1, 3),
    groups=st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True),
    sizes=st.tuples(st.integers(0, 30), st.integers(0, 30)),
    between=st.booleans(),
    block=st.sampled_from([1, 5, 60, None]),
    none=st.booleans(),
    data=st.data(),
)
def test_box_pairs_match_the_brute_force_pairs(d, groups, sizes, between, block, none, data):
    # every pair of closed boxes that meet, within one group, by i, then
    # j, each once: on the grid (block 1 or 5 puts every group but the
    # smallest there), in one block per group (the default), and mixed;
    # group numbers may skip, either set may be empty, and one group may
    # be given as None
    lo, hi, group = _box_set(data, d, groups, sizes[0])
    other = _box_set(data, d, groups, sizes[1]) if between else None
    one = none and len(groups) == 1
    with mock.patch.object(convex, "BOX_BLOCK", convex.BOX_BLOCK if block is None else block):
        i, j = convex.box_pairs(lo, hi, None if one else group, other and (*other[:2], None if one else other[2]))
    assert i.dtype.kind == j.dtype.kind == "i"
    assert list(zip(i.tolist(), j.tolist())) == oracles.box_pairs_brute(lo, hi, group, other)


def test_box_pairs_grid_pairs_a_box_once_across_its_cells():
    # a 2-D Kuhn mesh's boxes reach up to four cells of their grid, and a
    # long box reaches a row of them: each pair still comes once, in order
    rng = np.random.default_rng(7)
    lo = rng.uniform(0, 10, (600, 2))
    hi = lo + rng.uniform(0, 0.6, (600, 2))
    hi[0] = lo[0] + [10.0, 0.1]
    want = oracles.box_pairs_brute(lo, hi, np.zeros(600, dtype=int))
    assert 600 * 599 // 2 > convex.BOX_BLOCK
    i, j = convex.box_pairs(lo, hi)
    assert list(zip(i.tolist(), j.tolist())) == want
    assert (np.diff(i) >= 0).all()


def test_hull_grows_candidates_on_many_points():
    # past the one-shot size the candidates grow from the extremes: points
    # on a sphere (all extreme) and a cloud with a few extreme points
    rng = np.random.default_rng(3)
    sphere = rng.normal(size=(40, 3))
    sphere /= np.linalg.norm(sphere, axis=1)[:, None]
    for P in (rng.normal(size=(60, 3)), rng.normal(size=(151, 3)), rng.normal(size=(80, 2)), sphere):
        assert math.comb(len(P), P.shape[1]) * len(P) > convex.ONE_SHOT
        A, b, volume = convex.hull(P)
        qh = ConvexHull(P)
        assert volume() == pytest.approx(qh.volume, rel=1e-12)
        assert (P @ A.T - b).max() <= 1e-12
        assert len(A) == len(qh.equations)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), cuts=st.integers(1, 4), mates=st.integers(0, 3))
def test_cell_volumes_match_qhull_on_cut_stacks(d, seed, cuts, mates):
    # cells cut from boxes and simplices by planes through their interior,
    # left uncompacted: each cell's volume from its vertices and incidence
    # is qhull's, and the same bits alone, and compacted, as in the stack
    rng = np.random.default_rng(seed)
    cells = [_box_cell(-rng.uniform(0.5, 2, d), rng.uniform(0.5, 2, d), 1e-12) for _ in range(mates + 1)]
    cells.append(_simplex_cell(rng, d, 1.0, 0.0, 1e-12))
    stack = convex.Cells.of(cells)
    for _ in range(cuts):
        if not len(stack):  # planes through different points can clip every cell away
            break
        a = np.array([_random_unit(rng, d) for _ in range(len(stack))])
        c = (a * rng.uniform(-0.3, 0.3, (len(stack), d))).sum(axis=1)
        (stack, _), _ = convex.split(stack, a, c, 1e-12, above=False)
    vol = convex.cell_volumes(stack)
    for i in range(len(stack)):
        V = stack.V[i, stack.vm[i]]
        assert vol[i] == pytest.approx(_volume(V, d), rel=1e-12)
        assert convex.cell_volumes(stack.take([i]))[0] == vol[i]
        # the cell alone, unpadded, gives the bits it gives in the padded
        # stack
        assert convex.cell_volumes(stack.take([i]).compact())[0] == vol[i]


def test_cell_volumes_of_flat_cells_are_zero():
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]], dtype=float)
    stack = convex.Cells.of([(square, np.eye(3), np.ones(3), np.zeros((5, 3), dtype=bool))])
    assert convex.cell_volumes(stack)[0] == 0.0


def _near_translates(t):
    """The 3-D cone functions of default_rng(0..25), each paired with
    itself translated by t along e_1: the pairs' cuts are full of cells
    about t thick."""
    out = []
    for seed in range(26):
        f = random_cone_function(np.random.default_rng(seed), 3)
        out.append((f, pf.compose_affine(f, np.eye(3), t * np.eye(3)[0])))
    return out


def test_near_translates_pass_the_cover_balance():
    # the cells of thin overlaps keep their volume, so the cover balance
    # passes; the bounds allow the raises of an earlier measure by the
    # same triangulation (a hull of each cell's vertices, which drops
    # facets of thin cells, raised on 17, 24, 25 and 11 of the 26)
    from plval import overlay
    from plval.errors import OverlayFailure

    most = {1e-8: 0, 1e-7: 4, 1e-6: 0, 1e-5: 0}
    for t, bound in most.items():
        got = overlay.overlays(_near_translates(t), ("join", "meet"))
        raised = sum(any(isinstance(got[op][k], OverlayFailure) for op in got) for k in range(26))
        assert raised <= bound, t


def test_cut_cells_of_near_translates_match_qhull():
    # every cell the cut makes of a near translate's pair, slivers about
    # 1e-5 thick among them, measures qhull's volume
    from plval import overlay

    worst = 0.0
    for pair in _near_translates(1e-5):
        cells = overlay._pieces_pairwise(overlay._prep([pair])).cells
        vol = convex.cell_volumes(cells)
        assert (cells.counts() > 4).any()
        for i in range(len(cells)):
            want = ConvexHull(cells.V[i, cells.vm[i]]).volume
            worst = max(worst, abs(vol[i] - want) / want)
    assert worst <= 1e-6


@pytest.mark.parametrize("w", [1e-3, 1e-5, 1e-7, 1e-8])
def test_facet_measures_hold_on_slivers(w):
    # a triangle of width w in R^3 and an edge of length w in R^2, turned
    # by random rotations: each measure within 1e-13 / w relative of the
    # exact one (the Gram determinant's error on the triangle grows like
    # eps / w^2)
    rng = np.random.default_rng(7)
    for _ in range(50):
        Q3 = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [rng.uniform(), w, 0.0]]) @ Q3.T
        assert convex.simplex_measures(tri, np.array([[0, 1, 2]]))[0] == pytest.approx(w / 2, rel=1e-13 / w)
        Q2 = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        edge = np.array([[0.3, -0.2], [0.3 + w, -0.2]]) @ Q2.T
        assert convex.simplex_measures(edge, np.array([[0, 1]]))[0] == pytest.approx(w, rel=1e-13 / w)


def _kdtree_pairs(pts, tol):
    return {tuple(sorted(p)) for p in cKDTree(pts).query_pairs(tol, p=np.inf)}


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 4),
    k=st.integers(2, 60),
    step=st.sampled_from([0.25, 0.1, 1e-12, 3.0]),
    reach=st.sampled_from([1, 2]),
    shift=st.sampled_from([0.0, 1.0, -250.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_pairs_match_the_kd_tree(d, k, step, reach, shift, seed):
    # grid-aligned points share many coordinates, and at tol = reach
    # steps many pairs lie exactly at tol: the sweep finds the KD-tree's
    # pairs, no more and no fewer
    rng = np.random.default_rng(seed)
    pts = rng.integers(-3, 4, size=(k, d)) * step + shift
    tol = reach * step
    i, j = convex.near_pairs(pts, tol)
    got = [tuple(sorted(p)) for p in zip(i.tolist(), j.tolist())]
    assert len(got) == len(set(got))
    assert set(got) == _kdtree_pairs(pts, tol)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 4),
    k=st.integers(2, 60),
    step=st.sampled_from([0.25, 0.1, 1e-12, 3.0]),
    reach=st.sampled_from([1, 2]),
    shift=st.sampled_from([0.0, 1.0, -250.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_pairs_on_the_grid_match_the_kd_tree(d, k, step, reach, shift, seed):
    # the same points with every batch on box_pairs' grid: the boxes'
    # rounding pad still finds every pair exactly at tol
    rng = np.random.default_rng(seed)
    pts = rng.integers(-3, 4, size=(k, d)) * step + shift
    tol = reach * step
    with mock.patch.object(convex, "BOX_BLOCK", 1):
        i, j = convex.near_pairs(pts, tol)
    assert list(zip(i.tolist(), j.tolist())) == sorted(_kdtree_pairs(pts, tol))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    tols=st.lists(st.sampled_from([1e-12, 0.25, 0.5, 1.0]), min_size=1, max_size=4),
    data=st.data(),
)
def test_near_pairs_in_batches_match_the_kd_tree(d, tols, data):
    # each batch at its own tol, the batches sharing a grid: the pairs are
    # the KD-tree's within each batch alone
    B = len(tols)
    sizes = data.draw(st.lists(st.integers(0, 12), min_size=B, max_size=B))
    grid = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    pts = np.array([data.draw(grid) for _ in range(sum(sizes))], dtype=float).reshape(-1, d) * 0.25
    batch = np.repeat(np.arange(B), sizes)
    i, j = convex.near_pairs(pts, np.array(tols), batch)
    got = {tuple(sorted(p)) for p in zip(i.tolist(), j.tolist())}
    want = set()
    for b, tol in enumerate(tols):
        idx = np.flatnonzero(batch == b)
        if len(idx) > 1:
            want |= {(idx[p], idx[q]) for p, q in _kdtree_pairs(pts[idx], tol)}
    assert got == want


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
    # the (point, simplex) pairs found on a grid, in chunks of about 7
    # candidates, give the same values
    monkeypatch.setattr(convex, "BOX_BLOCK", 7)
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


def test_star_of_david_is_a_partition_but_not_conforming():
    # two tetrahedra on opposite sides of z = 0 whose bases form a star of
    # David: no vertex lies in the other simplex and the interiors are
    # disjoint, so the complex is a partition, but the bases overlap only
    # in part, which the brute-force conformity oracle sees
    base = np.array([[0.0, 1.2], [-1.04, -0.6], [1.04, -0.6]])
    V = np.vstack([np.column_stack([base, np.zeros(3)]), [[0, 0, 1]],
                   np.column_stack([-base, np.zeros(3)]), [[0, 0, -1]]])
    S = ((0, 1, 2, 3), (4, 5, 6, 7))
    cx = pf.SimplicialComplex(3, V, S)
    cx.validate()
    assert oracles.check_conforming(V, S) == ["simplices 0 and 1 meet in more than a common face"]
    # as a function whose bases disagree where they overlap it is
    # discontinuous there, with no vertex of either on the other
    f = pf.PLFunction(cx, np.array([0.0, 0, 0, 0, 1, 1, 1, 0]))
    with pytest.raises(InvalidComplex, match="simplices 0 and 1 differ by 1 where they meet"):
        f.validate()


@pytest.mark.parametrize("pairs", [1 << 14, 1])
@pytest.mark.parametrize("defect", ["overlap", "discontinuous"])
def test_validate_names_the_first_offending_pair(monkeypatch, defect, pairs):
    # bad pairs (0, 3) and (1, 2), with 1 and 2 first along the first
    # axis: the pair first in (i, j) order is named, however the pairs
    # are chunked
    monkeypatch.setattr(pf, "CLIP_PAIRS", pairs)
    tri = np.array([[0, 0], [2, 0], [0, 2]], dtype=float)
    values = np.zeros(12)
    if defect == "overlap":
        other = tri + 0.5
    else:
        # tri's mirror image across its hypotenuse, meeting it along that
        # edge with its own copies of the ends, valued 1 there, tri 0
        other = 2.0 - tri
        values[[7, 8, 10, 11]] = 1.0
    V = np.vstack([tri + [20, 0], tri, other, other + [20, 0]])
    f = pf.PLFunction(pf.SimplicialComplex(2, V, ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))), values)
    match = "overlap" if defect == "overlap" else "differ by 1 where they meet"
    with pytest.raises(InvalidComplex, match="simplices 0 and 3 " + match):
        f.validate()


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


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 3),
    tols=st.lists(st.sampled_from([1e-12, 1e-6, 1e-3, 0.3]), min_size=1, max_size=4),
    data=st.data(),
)
def test_dedupe_points_in_batches_matches_each_batch_alone(d, tols, data):
    # each batch deduped at its own tol, in one query, gives the rows and
    # mapping it gets alone, shifted by the rows of the batches before it;
    # the batches share points on a coarse grid, which must not merge
    B = len(tols)
    sizes = data.draw(st.lists(st.integers(0, 8), min_size=B, max_size=B))
    grid = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    jitter = st.sampled_from([0.0, 5e-13, 4e-7, 2e-4, 0.1])
    batches = [
        np.array([data.draw(grid) for _ in range(k)], dtype=float).reshape(k, d) * 0.25
        + np.array([[data.draw(jitter) for _ in range(d)] for _ in range(k)]).reshape(k, d)
        for k in sizes
    ]
    pts = np.concatenate(batches)
    batch = np.repeat(np.arange(B), sizes)
    reps, mapping = convex.dedupe_points(pts, np.array(tols), batch)
    at = 0
    for b, (own, tol) in enumerate(zip(batches, tols)):
        want_reps, want_mapping = convex.dedupe_points(own, tol)
        rows = mapping[batch == b]
        assert np.array_equal(rows, want_mapping + at)
        assert np.array_equal(reps[at : at + len(want_reps)], want_reps)
        at += len(want_reps)
    assert at == len(reps)


def test_split_takes_a_tolerance_per_cell():
    # the same square cut by x = 1 + 1e-6 twice: at tol 1e-5 its corners
    # on x = 1 lie on the plane and it stays whole below, at tol 1e-8 the
    # plane cuts off a sliver; in one stack, each cell as alone
    V, A, b, T = _box_cell(np.zeros(2), np.ones(2), 1e-12)
    cells = convex.Cells.of([(V, A, b, T)] * 2)
    a, c = np.array([[1.0, 0.0]] * 2), np.full(2, 1.0 - 1e-6)
    (lo, lo_src), (hi, hi_src) = convex.split(cells, a, c, np.array([1e-5, 1e-8]))
    assert lo_src.tolist() == [0, 1] and hi_src.tolist() == [1]
    for i, tol in enumerate([1e-5, 1e-8]):
        alone = convex.split(convex.Cells.of([(V, A, b, T)]), a[:1], c[:1], tol)
        for (stack, src), (one, _) in zip(((lo, lo_src), (hi, hi_src)), alone):
            hit = np.flatnonzero(src == i)
            assert len(hit) == len(one)
            if len(one):
                assert _same_cell(stack.cell(hit[0]), one.cell(0))
