"""Low-level convex geometry at desk scale.

Conventions used throughout:

* Predicates use absolute tolerances on data normalized to O(1) spread;
  callers rescale first (see EPS).
* Ties (which vertex anchors a triangulation fan, facet ordering) are
  resolved by lexicographic comparison of coordinates so that repeated
  runs and neighboring cells make identical choices.
* Polytopes appear either as vertex arrays ("V-form") or as half-space
  systems A x <= b ("H-form"); both are small enough that combinatorial
  enumeration is the most robust conversion.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import Degenerate

# Geometric predicate tolerance on unit-normalized data.
EPS = 1e-9
# Vertex snap tolerance in overlay assembly; well above intersection
# roundoff (~1e-13) and far below feature sizes.
SNAP = 5e-12
# Tolerance for merging coplanar hull output into true facets.
PLANE_MERGE = 1e-7


def simplex_measure(pts: np.ndarray) -> float:
    """d-dimensional measure of a simplex given as (d+1, k) vertices, k >= d."""
    pts = np.asarray(pts, dtype=float)
    edges = pts[1:] - pts[0]
    d = edges.shape[0]
    if edges.shape[1] == d:
        det = np.linalg.det(edges)
        return abs(det) / math.factorial(d)
    gram = edges @ edges.T
    g = np.linalg.det(gram)
    if g <= 0.0:
        return 0.0
    return math.sqrt(g) / math.factorial(d)


def affine_frame(pts: np.ndarray, rtol: float = 1e-9):
    """Centered SVD frame: (centroid, principal rows, rank, spread)."""
    pts = np.asarray(pts, dtype=float)
    c = pts.mean(axis=0)
    x = pts - c
    if len(pts) <= 1:
        return c, np.zeros((0, pts.shape[1])), 0, 0.0
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    spread = float(s[0]) if s.size else 0.0
    if spread == 0.0:
        return c, vt, 0, 0.0
    rank = int(np.sum(s > spread * rtol))
    return c, vt, rank, spread


def lex_min_position(pts: np.ndarray) -> int:
    """Index of the lexicographically smallest row."""
    order = np.lexsort(np.asarray(pts, dtype=float).T[::-1])
    return int(order[0])


def dedupe_points(pts: np.ndarray, tol: float):
    """Drop near-duplicate rows, keeping first occurrences in lex order.

    Returns (unique_points, mapping) where mapping[i] is the row of
    unique_points that pts[i] collapsed onto.
    """
    pts = np.asarray(pts, dtype=float)
    k = len(pts)
    d = pts.shape[1] if pts.ndim == 2 else 1
    mapping = np.full(k, -1, dtype=int)
    if k == 0:
        return pts.reshape(0, d), mapping
    order = np.lexsort(pts.T[::-1])
    # Chebyshev-ball neighbor lists from a KD-tree; every representative is
    # an original point, so each point's possible reps sit in its own list.
    neighbors = cKDTree(pts).query_ball_point(pts, r=tol, p=np.inf)
    rep_id = np.full(k, -1, dtype=int)
    reps: list[np.ndarray] = []
    for i in order:
        best = -1
        for j in neighbors[i]:
            r = rep_id[j]
            if r >= 0 and (best == -1 or r < best):
                best = r
        if best >= 0:
            mapping[i] = best
        else:
            best = len(reps)
            mapping[i] = best
            rep_id[i] = best
            reps.append(pts[i])
    return np.array(reps, dtype=float).reshape(len(reps), d), mapping


# ---------------------------------------------------------------------------
# H-form utilities
# ---------------------------------------------------------------------------


def normalize_rows(A: np.ndarray, b: np.ndarray):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    norms = np.linalg.norm(A, axis=1)
    keep = norms > 1e-14
    A, b, norms = A[keep], b[keep], norms[keep]
    return A / norms[:, None], b / norms


@functools.lru_cache(maxsize=512)
def _combo_index(m: int, d: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(m), d)), dtype=int)


def halfspace_vertices(A: np.ndarray, b: np.ndarray, tol: float = EPS) -> np.ndarray:
    """Vertices of the (assumed bounded) polytope {x : A x <= b}.

    Batched combinatorial enumeration over d-subsets of rows; robust and
    exact enough at desk scale (a few dozen rows, d <= 4).
    """
    A, b = normalize_rows(A, b)
    m, d = A.shape
    if m < d:
        return np.zeros((0, d))
    combos = _combo_index(m, d)
    mats = A[combos]
    dets = np.abs(np.linalg.det(mats))
    good = dets > 1e-9
    if not np.any(good):
        return np.zeros((0, d))
    X = np.linalg.solve(mats[good], b[combos[good]][..., None])[..., 0]
    feas = np.all(X @ A.T <= b[None, :] + 10 * tol, axis=1)
    X = X[feas]
    if len(X) == 0:
        return np.zeros((0, d))
    uniq, _ = dedupe_points(X, 10 * tol)
    return uniq


def prune_halfspaces(A: np.ndarray, b: np.ndarray, verts: np.ndarray, tol: float = EPS):
    """Keep only rows active (within tol) at some vertex."""
    if len(verts) == 0:
        return A, b
    resid = b[:, None] - A @ verts.T
    active = np.min(np.abs(resid), axis=1) <= 10 * tol
    return A[active], b[active]


def hrep_of_simplex(verts: np.ndarray):
    """Half-space form of a d-simplex given as (d+1, d) vertices."""
    verts = np.asarray(verts, dtype=float)
    d = verts.shape[1]
    A = np.zeros((d + 1, d))
    b = np.zeros(d + 1)
    for i in range(d + 1):
        rest = np.delete(verts, i, axis=0)
        base = rest[0]
        edges = rest[1:] - base
        # normal orthogonal to the facet, oriented away from vertex i
        _, _, vt = np.linalg.svd(edges, full_matrices=True)
        u = vt[-1]
        off = u @ base
        if u @ verts[i] > off:
            u, off = -u, -off
        A[i] = u
        b[i] = off
    return A, b


def contains(A: np.ndarray, b: np.ndarray, x: np.ndarray, tol: float = EPS) -> bool:
    return bool(np.all(A @ x <= b + tol))


# ---------------------------------------------------------------------------
# Facet enumeration (V-form)
# ---------------------------------------------------------------------------


def _merge_equation_rows(eqs: np.ndarray, tol: float):
    """Group nearly identical hyperplane equations; returns list of index arrays."""
    order = np.lexsort(eqs.T[::-1])
    groups: list[list[int]] = []
    reps: list[np.ndarray] = []
    for i in order:
        row = eqs[i]
        placed = False
        for g, rep in enumerate(reps):
            if np.max(np.abs(rep - row)) <= tol:
                groups[g].append(int(i))
                placed = True
                break
        if not placed:
            reps.append(row)
            groups.append([int(i)])
    return groups


def facet_planes(points: np.ndarray, tol: float = EPS):
    """Facet hyperplanes of the convex hull of a full-dimensional point set.

    Returns (normals, offsets, incidences): unit outward normals u_i with
    u_i . x <= c_i on the hull, and for each plane the indices of all
    input points lying on it (within tol of the normalized data).
    Planes are sorted by (normal, offset) lexicographically.
    """
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    if d == 1:
        lo, hi = int(np.argmin(points[:, 0])), int(np.argmax(points[:, 0]))
        if points[hi, 0] - points[lo, 0] <= tol:
            raise Degenerate("interval endpoints coincide")
        normals = np.array([[-1.0], [1.0]])
        offsets = np.array([-points[lo, 0], points[hi, 0]])
        inc = [
            np.nonzero(np.abs(points[:, 0] - points[lo, 0]) <= tol)[0],
            np.nonzero(np.abs(points[:, 0] - points[hi, 0]) <= tol)[0],
        ]
        return normals, offsets, inc

    center = points.mean(axis=0)
    scale = float(np.max(np.abs(points - center)))
    if scale == 0.0:
        raise Degenerate("all points coincide")
    local = (points - center) / scale
    try:
        hull = ConvexHull(local)
    except QhullError as exc:
        raise Degenerate("hull construction failed: %s" % exc) from exc

    groups = _merge_equation_rows(hull.equations, PLANE_MERGE)
    normals = []
    offsets = []
    incidences = []
    for grp in groups:
        eq = hull.equations[grp].mean(axis=0)
        u = eq[:d]
        u = u / np.linalg.norm(u)
        off_local = -eq[d]
        off = off_local * scale + u @ center
        dist = np.abs(points @ u - off)
        inc = np.nonzero(dist <= 10 * tol * scale)[0]
        normals.append(u)
        offsets.append(off)
        incidences.append(inc)
    normals = np.array(normals)
    offsets = np.array(offsets)
    key = np.hstack([np.round(normals, 9), np.round(offsets[:, None], 9)])
    order = np.lexsort(key.T[::-1])
    return (
        normals[order],
        offsets[order],
        [np.sort(incidences[i]) for i in order],
    )


# ---------------------------------------------------------------------------
# Pulling triangulation
# ---------------------------------------------------------------------------


def _pull(points: np.ndarray, subset: np.ndarray, d: int, tol: float):
    """Triangulate conv(points[subset]) of affine dimension d.

    The recursion cones the lexicographically smallest point of the
    subset over the pulled triangulations of the facets avoiding it.
    Because the anchor choice and the facet point sets depend only on
    global coordinates, two cells sharing a face induce the same
    triangulation on it.
    """
    pts = points[subset]
    k = len(subset)
    if k < d + 1:
        return []
    if d == 0:
        return []
    if d == 1:
        direction = pts[np.argmax(np.linalg.norm(pts - pts[0], axis=1))] - pts[0]
        nd = np.linalg.norm(direction)
        if nd == 0.0:
            return []
        direction = direction / nd
        t = pts @ direction
        order = np.argsort(t, kind="stable")
        out = []
        for a, bidx in zip(order[:-1], order[1:]):
            if t[bidx] - t[a] > tol * max(1.0, np.max(np.abs(t))):
                out.append((int(subset[a]), int(subset[bidx])))
        return out

    c, vt, rank, spread = affine_frame(pts)
    if rank < d or spread <= 0.0:
        return []
    if k == d + 1:
        if simplex_measure(pts) > (tol * spread) ** d:
            return [tuple(int(i) for i in subset)]
        return []

    local = (pts - c) @ vt[:d].T
    try:
        normals, offsets, incidences = facet_planes(local, tol)
    except Degenerate:
        return []
    anchor = lex_min_position(pts)
    out = []
    for u, off, inc in zip(normals, offsets, incidences):
        if anchor in inc:
            continue
        sub = subset[inc]
        for face_simplex in _pull(points, sub, d - 1, tol):
            simplex = (int(subset[anchor]),) + face_simplex
            vol = simplex_measure(points[list(simplex)])
            if vol > (tol * spread) ** d / math.factorial(d):
                out.append(simplex)
    return out


def pulling_triangulation(points: np.ndarray, subset, dim: int, tol: float = EPS):
    """Conforming-by-construction triangulation of a convex cell.

    points: global coordinate table; subset: indices of the cell's
    (possibly redundant) vertices; dim: expected affine dimension.
    Returns a list of index tuples of length dim+1.
    """
    subset = np.asarray(sorted(set(int(i) for i in subset)), dtype=int)
    return _pull(np.asarray(points, dtype=float), subset, dim, tol)


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------


def bboxes_overlap(lo1, hi1, lo2, hi2, pad: float = 0.0) -> bool:
    return bool(np.all(lo1 <= hi2 + pad) and np.all(lo2 <= hi1 + pad))


def barycentric_matrix(verts: np.ndarray):
    """Matrix/offset turning x into barycentric coordinates w.r.t. a simplex.

    Returns (M, v0) with coords = M @ (x - v0) giving b_1..b_d, and
    b_0 = 1 - sum(coords).
    """
    verts = np.asarray(verts, dtype=float)
    v0 = verts[0]
    E = (verts[1:] - v0).T
    M = np.linalg.inv(E)
    return M, v0
