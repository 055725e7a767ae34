"""Convex polytopes with the origin in the interior.

A Polytope stores its extreme points together with the facet data
(unit outward normal, support value, incident vertices, facet measure)
needed by the cone-function and valuation machinery. Construction is one
qhull call (convex.hull) whose rows and points are cut down to facets and
vertices by their incidence (convex.hull_incidence); all orderings are
canonicalized so identical inputs produce identical objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import convex
from .convex import EPS
from .errors import ConstructionFailure, Degenerate, OriginNotInterior
from .serialize import read_finite

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

    def facet_normals(self) -> np.ndarray:
        return np.array([f.normal for f in self.facets])

    def facet_supports(self) -> np.ndarray:
        return np.array([f.support for f in self.facets])

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


def _incidence(k: int, facet_vertices) -> np.ndarray:
    """(k, r) boolean: vertex i lies on facet j."""
    on = np.zeros((k, len(facet_vertices)), dtype=bool)
    for j, inc in enumerate(facet_vertices):
        on[list(inc), j] = True
    return on


def _build(points: np.ndarray, require_origin_interior: bool) -> Polytope:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[1]
    if len(points) < n + 1:
        raise Degenerate("need at least %d points in R^%d, got %d" % (n + 1, n, len(points)))
    _, _, rank, spread = convex.affine_frame(points)
    if rank < n or spread == 0.0:
        raise Degenerate("points span only %d of %d dimensions" % (rank, n))

    scale = float(np.max(np.abs(points)))
    pts, _ = convex.dedupe_points(points, EPS * max(scale, 1.0))
    A, b, _ = convex.hull(pts)
    tol = 10 * EPS * float(np.max(np.abs(pts - pts.mean(axis=0))))
    vert, normals, offsets, on = convex.hull_incidence(pts, A, b, tol)
    vorder = np.lexsort(pts[vert].T[::-1])
    verts = pts[vert[vorder]]
    verts.setflags(write=False)
    key = np.hstack([np.round(normals, 9), np.round(offsets[:, None], 9)])
    forder = np.lexsort(key.T[::-1])
    normals, offsets, on = normals[forder], offsets[forder], on[vorder][:, forder]
    incidences = [np.flatnonzero(col) for col in on.T]

    origin_interior = bool(np.all(offsets > EPS * max(scale, 1.0)))
    if require_origin_interior and not origin_interior:
        raise OriginNotInterior(
            "origin support margin %.3g (needs > %.3g)"
            % (float(np.min(offsets)), EPS * max(scale, 1.0))
        )

    facets = []
    for u, off, inc in zip(normals, offsets, incidences):
        if n == 1:
            measure = 1.0
        else:
            simplices = convex.pulling_triangulation(verts, inc, n - 1, on[inc])
            measure = float(sum(convex.simplex_measure(verts[list(s)]) for s in simplices))
        facets.append(
            Facet(
                normal=tuple(float(x) for x in u),
                support=float(off),
                vertices=tuple(int(i) for i in inc),
                measure=measure,
            )
        )
    return Polytope(dim=n, vertices=verts, facets=tuple(facets), origin_interior=origin_interior)


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


def central_triangulation(P: Polytope):
    """Fan over the origin: each facet is pulled to a triangulation and
    coned with 0. Returns a SimplicialComplex (vertices = P's plus the
    origin appended last)."""
    from .plfunction import SimplicialComplex

    if not P.origin_interior:
        raise OriginNotInterior("central triangulation requires the origin strictly interior")
    n = P.dim
    verts = np.vstack([P.vertices, np.zeros(n)])
    origin_idx = len(P.vertices)
    on = _incidence(len(P.vertices), [f.vertices for f in P.facets])
    simplices = []
    for f in P.facets:
        if n == 1:
            faces = [(f.vertices[0],)]
        else:
            faces = convex.pulling_triangulation(P.vertices, f.vertices, n - 1, on[list(f.vertices)])
        for face in faces:
            simplices.append(tuple(face) + (origin_idx,))
    return SimplicialComplex(dim=n, vertices=verts, simplices=tuple(simplices))


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
            P = _build(pts, require_origin_interior=True)
        except (Degenerate, OriginNotInterior):
            continue
        if min(f.support for f in P.facets) > MIN_INTERIOR_CLEARANCE:
            return P
    raise ConstructionFailure(
        "could not sample an origin-interior polytope (seed=%d n=%d k=%d)" % (seed, n, k)
    )


def from_json_dict(data: dict) -> Polytope:
    """Rebuild from {"dim": n, "vertices": [...]}; facets are recomputed."""
    if "dim" not in data or "vertices" not in data:
        raise ValueError("polytope JSON needs 'dim' and 'vertices'")
    n = int(data["dim"])
    verts = read_finite(data, "vertices", "polytope")
    if verts.ndim != 2 or verts.shape[1] != n:
        raise ValueError("vertex array shape %s does not match dim %d" % (verts.shape, n))
    return _build(verts, require_origin_interior=False)


def cube(n: int, half_width: float = 1.0) -> Polytope:
    corners = np.array(
        [[(half_width if (i >> j) & 1 else -half_width) for j in range(n)] for i in range(2**n)]
    )
    return hull_from_points(corners)


def cross_polytope(n: int, radius: float = 1.0) -> Polytope:
    pts = np.vstack([radius * np.eye(n), -radius * np.eye(n)])
    return hull_from_points(pts)


def simplex_polytope(vertices) -> Polytope:
    return hull_from_points(np.asarray(vertices, dtype=float))
