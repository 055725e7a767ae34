"""Convex polytopes with the origin in the interior.

A Polytope stores its extreme points together with the facet data
(unit outward normal, support value, incident vertices, facet measure)
and the facets' triangulation needed by the cone-function and valuation
machinery. A build is two steps, each timed into stats.seconds["build"]:
_hull dedupes the points (convex.dedupe_points, one sort when no two
are near) and makes one convex.hull call (numpy brute force, one row
per facet; the hull's volume is not asked for), and _finish reads the
polytope off the rows.  When every row is a simplex facet
(convex.simplex_facets), the rows are the facets, the points on them
the vertices, and each facet is its own triangulation, kept and
measured by convex.simplex_keep; otherwise the rows and points are cut
down to facets and vertices by their incidence (convex.hull_incidence)
and the facets triangulated in one stack.  The two paths give the same
polytope bit for bit.  A build whose incidence leaves fewer than n+1
vertices or facets, a polytope thinner than the incidence tolerance,
raises Degenerate; the origin rule (OriginNotInterior) comes after the
incidence, so Degenerate wins, and before the triangulation.  All
orderings are canonicalized so identical inputs produce identical
objects, and the facet objects are made in one pass over the sorted
rows.
dilate(P, lam) gives lam P without a hull, scaling P's data and keeping
its facets and triangulation, and random_polytope rejects a draw on its
hull's rows before the rest of the build.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import convex, stats
from .convex import EPS
from .errors import ConstructionFailure, Degenerate, OriginNotInterior
from .serialize import read_dim, read_finite, read_object

# Retry predicate for random_polytope: the origin must clear the boundary
# by this much so downstream cone constructions are well conditioned.
MIN_INTERIOR_CLEARANCE = 0.1


@dataclass(frozen=True)
class Facet:
    """One facet: unit outward normal, support value, incident vertex
    indices (sorted), and (n-1)-dimensional measure."""

    normal: tuple
    support: float
    vertices: tuple
    measure: float


@dataclass(frozen=True)
class Polytope:
    dim: int
    vertices: np.ndarray  # (k, dim), lexicographically sorted, read-only
    facets: tuple
    origin_interior: bool
    # (m, dim) rows of vertices: the facets' pulling triangulations, facet
    # by facet (a 1-D facet is its vertex), read-only
    facet_simplices: np.ndarray

    def scale(self) -> float:
        return float(np.max(np.abs(self.vertices)))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[float(x) for x in v] for v in self.vertices],
            "facets": [
                {
                    "normal": [float(x) for x in f.normal],
                    "support": float(f.support),
                    "vertices": [int(i) for i in f.vertices],
                }
                for f in self.facets
            ],
        }


def _facet_stack(on: np.ndarray):
    """The facets of the vertex-facet incidence on (k, r) as one stack of
    cells for convex.pulling_triangulation: (idx, mask, incidence), facet
    j's vertices in order, on the facet rows."""
    j, v = np.nonzero(on.T)
    count = np.bincount(j, minlength=on.shape[1])
    mask = np.arange(count.max())[None, :] < count[:, None]
    idx = np.zeros(mask.shape, dtype=int)
    idx[mask] = v
    return idx, mask, on[idx] & mask[:, :, None]


def _timed(step):
    """The build step, its seconds, raise or not, added to
    stats.seconds["build"]."""

    @functools.wraps(step)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return step(*args, **kwargs)
        finally:
            stats.seconds["build"] += time.perf_counter() - t0

    return timed


@_timed
def _hull(points: np.ndarray):
    """The hull step of a build: (pts, A, b, scale), the points deduped,
    the rows A x <= b of their one hull (convex.hull), and the
    largest coordinate magnitude of the points."""
    points = np.asarray(points, dtype=float)
    if points.ndim < 2:
        points = np.atleast_2d(points)
    n = points.shape[1]
    if len(points) < n + 1:
        raise Degenerate("need at least %d points in R^%d, got %d" % (n + 1, n, len(points)))
    scale = float(np.maximum.reduce(np.abs(points), axis=None))
    pts, _ = convex.dedupe_points(points, EPS * max(scale, 1.0))
    A, b, _ = convex.hull(pts)
    return pts, A, b, scale


def _origin_interior(offsets: np.ndarray, scale: float, required: bool) -> bool:
    """Every facet's support clears EPS times the data scale; raises
    OriginNotInterior when required and not."""
    floor = EPS * max(scale, 1.0)
    inside = bool(np.count_nonzero(offsets > floor) == len(offsets))
    if required and not inside:
        raise OriginNotInterior("origin support margin %.3g (needs > %.3g)" % (float(np.min(offsets)), floor))
    return inside


@_timed
def _finish(pts: np.ndarray, A: np.ndarray, b: np.ndarray, scale: float, require_origin_interior: bool) -> Polytope:
    """The rest of a build from the hull step's output: incidence,
    canonical orders, the origin rule, and the facets' triangulation.
    The points come deduped, in lex order, so the vertices keep theirs.

    When the hull rows are simplex facets (convex.simplex_facets) they
    are the facets, the points on them the vertices, and each facet is
    its own triangulation, kept or dropped by the rule the triangulation
    applies to a cell that is a simplex already (convex.simplex_keep);
    other hulls take the general path, hull_incidence and the stacked
    pulling triangulation.  Both give the same polytope bit for bit.
    Raises Degenerate when the incidence leaves fewer than n+1 vertices
    or facets."""
    stats.calls["builds"] += 1
    k, n = pts.shape
    # the points' largest coordinate offset from their mean, bit for bit
    tol = 10 * EPS * float(np.maximum.reduce(np.abs(pts - np.add.reduce(pts, axis=0) / k), axis=None))
    T = convex.tight_rows(pts, A, b, tol)
    simple = convex.simplex_facets(T, n)
    if simple:
        vert = np.logical_or.reduce(T, axis=1).nonzero()[0]
        # when every point is a vertex, as on a draw from the sphere, the
        # points and their incidence are the vertices' already
        normals, offsets, on = A, b, T if len(vert) == k else T[vert]
    else:
        vert, normals, offsets, on = convex.hull_incidence(pts, A, b, tol)
    if len(vert) < n + 1 or len(normals) < n + 1:
        # a polytope thinner than tol: its opposite facets' points lie on
        # each other's rows
        raise Degenerate("the incidence leaves %d vertices and %d facets in R^%d" % (len(vert), len(normals), n))
    H = np.concatenate([normals, offsets[:, None]], axis=1)
    forder = np.lexsort(H.round(9).T[::-1])
    H, on = H[forder], on[:, forder]
    normals, offsets = H[:, :n], H[:, n]
    origin_interior = _origin_interior(offsets, scale, require_origin_interior)
    verts = pts if len(vert) == k else pts[vert]
    verts.setflags(write=False)

    if simple:
        S = on.T.nonzero()[1].reshape(-1, n)  # facet j's vertices, in order
        incidences = S.tolist()
    else:
        incidences = [np.flatnonzero(col).tolist() for col in on.T]
    if n == 1:
        S = np.array([inc[:1] for inc in incidences])
        measures = np.ones(len(incidences))
    elif simple:
        # each facet is its own simplex, its vertices sorted and distinct,
        # kept as the triangulation keeps a cell that is a simplex already,
        # and measured as one
        keep, measures = convex.simplex_keep(verts, S)
        if np.count_nonzero(keep) < len(keep):
            S, measures = S[keep], np.where(keep, measures, 0.0)
    else:
        # all facets triangulated in one stack; each measure is its
        # simplices' sum, in order
        S, facet, measure = convex.pulling_triangulation(verts, *_facet_stack(on), n - 1)
        measures = np.bincount(facet, weights=measure, minlength=len(incidences))
    S.setflags(write=False)
    facets = tuple(map(Facet, map(tuple, normals.tolist()), offsets.tolist(), map(tuple, incidences), measures.tolist()))
    return Polytope(dim=n, vertices=verts, facets=facets, origin_interior=origin_interior, facet_simplices=S)


def _build(points: np.ndarray, require_origin_interior: bool) -> Polytope:
    return _finish(*_hull(points), require_origin_interior)


def hull_from_points(points) -> Polytope:
    """Convex hull of a point cloud; requires the origin strictly inside."""
    return _build(points, require_origin_interior=True)


def volume(P: Polytope) -> float:
    """Volume via the facet decomposition (1/n) sum |F_i| h_i.

    Signed support values make this valid for translated polytopes too.
    """
    n = P.dim
    return float(sum(f.measure * f.support for f in P.facets) / n)


def support(P: Polytope, u) -> float:
    """Support function h(P, u) = max_x <u, x> over the polytope."""
    u = np.asarray(u, dtype=float)
    return float(np.max(P.vertices @ u))


def polar(P: Polytope) -> Polytope:
    """Polar body: convex hull of u_i / h_i over the facets."""
    if not P.origin_interior:
        raise OriginNotInterior("polar requires the origin strictly interior")
    duals = np.array([np.asarray(f.normal) / f.support for f in P.facets])
    return hull_from_points(duals)


def p_surface_area(P: Polytope, p: float) -> float:
    """S_p(P) = sum_i |F_i| h_i^(1-p)."""
    if not P.origin_interior:
        raise OriginNotInterior("p-surface area requires the origin strictly interior")
    return float(sum(f.measure * f.support ** (1.0 - p) for f in P.facets))


def dilate(P: Polytope, lam: float) -> Polytope:
    """lam P for finite lam > 0, without a hull: P's facet order, normals,
    incidences and triangulation, its vertices times lam, its supports
    times lam and its facet measures times lam^(n-1).  The vertices and
    facet_simplices equal those of hull_from_points(P.vertices * lam),
    whose origin rule it applies (OriginNotInterior)."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("dilation factor must be finite and positive, got %r" % lam)
    verts = P.vertices * lam
    verts.setflags(write=False)
    supports = np.array([f.support for f in P.facets]) * lam
    _origin_interior(supports, float(np.max(np.abs(verts))), True)
    grow = lam ** (P.dim - 1)
    facets = tuple(
        Facet(normal=f.normal, support=float(h), vertices=f.vertices, measure=f.measure * grow)
        for f, h in zip(P.facets, supports)
    )
    return Polytope(dim=P.dim, vertices=verts, facets=facets, origin_interior=True, facet_simplices=P.facet_simplices)


def apply_unimodular(P: Polytope, phi) -> Polytope:
    """Image under an invertible linear map (volume-preserving when det=1)."""
    phi = np.asarray(phi, dtype=float)
    convex.check_invertible(phi)
    return _build(P.vertices @ phi.T, require_origin_interior=P.origin_interior)


def translate(P: Polytope, t) -> Polytope:
    """Shift by t. The result may lose the origin-interior property, in
    which case polar/cone/p-surface operations raise OriginNotInterior."""
    t = np.asarray(t, dtype=float)
    return _build(P.vertices + t, require_origin_interior=False)


def random_polytope(seed: int, n: int, k: int) -> Polytope:
    """Hull of k points sampled on the unit sphere with radius jitter,
    retried until the origin clears the boundary by MIN_INTERIOR_CLEARANCE.
    Deterministic per seed."""
    rng = np.random.default_rng(seed)
    for _ in range(64):
        dirs = rng.normal(size=(k, n))
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(norms < 1e-9):
            continue
        radii = rng.uniform(0.8, 1.2, size=k)
        pts = dirs / norms[:, None] * radii[:, None]
        try:
            kept, A, b, scale = _hull(pts)
            # a draw is rejected on its hull's rows, before the rest of the
            # build; the clearance is far above the origin rule's floor
            if np.min(b) > MIN_INTERIOR_CLEARANCE:
                return _finish(kept, A, b, scale, require_origin_interior=True)
        except Degenerate:
            continue
    raise ConstructionFailure(
        "could not sample an origin-interior polytope (seed=%d n=%d k=%d)" % (seed, n, k)
    )


def from_json_dict(data: dict) -> Polytope:
    """Rebuild from {"dim": n, "vertices": [...]}; facets are recomputed."""
    if "dim" not in read_object(data, "polytope") or "vertices" not in data:
        raise ValueError("polytope JSON needs 'dim' and 'vertices'")
    n = read_dim(data, "polytope")
    verts = read_finite(data, "vertices", "polytope")
    if verts.ndim != 2 or verts.shape[1] != n:
        raise ValueError("vertex array shape %s does not match dim %d" % (verts.shape, n))
    return _build(verts, require_origin_interior=False)


def cube(n: int, half_width: float = 1.0) -> Polytope:
    if n < 1:
        raise ValueError("need n >= 1, got %r" % (n,))
    corners = np.array(
        [[(half_width if (i >> j) & 1 else -half_width) for j in range(n)] for i in range(2**n)]
    )
    return hull_from_points(corners)


def cross_polytope(n: int, radius: float = 1.0) -> Polytope:
    if n < 1:
        raise ValueError("need n >= 1, got %r" % (n,))
    pts = np.vstack([radius * np.eye(n), -radius * np.eye(n)])
    return hull_from_points(pts)


def simplex_polytope(vertices) -> Polytope:
    return hull_from_points(np.asarray(vertices, dtype=float))
