"""Low-level convex geometry at desk scale.

Conventions used throughout:

* Predicates use absolute tolerances on data normalized to O(1) spread;
  callers rescale first (see EPS).
* Ties (which vertex anchors a triangulation fan, facet ordering) are
  resolved by lexicographic comparison of coordinates so that repeated
  runs and neighboring cells make identical choices.
* Polytopes appear either as vertex arrays ("V-form") or as cells:
  vertices together with their tight rows A x <= b and the vertex-row
  incidence.  A cell is cut by a half-space with clip/split
  (Sutherland-Hodgman style, in any dimension, reading edges off the
  incidence) and triangulated from the same incidence, so neither step
  enumerates row subsets or builds a hull.
* A V-form polytope becomes a cell in two steps, and nothing else
  decides what a facet or a vertex is: hull() is the one qhull call,
  giving a row per qhull facet and the volume, and hull_incidence() reads
  the facets and vertices off the points' incidence on those rows.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import Degenerate, Singular

# Geometric predicate tolerance on unit-normalized data.
EPS = 1e-9
# Vertex snap tolerance in overlay assembly; well above intersection
# roundoff (~1e-13) and far below feature sizes.
SNAP = 5e-12
# A linear map is singular when its condition number exceeds this; the
# test is the same at every scale of the map.
MAX_CONDITION = 1e12


def simplex_measure(pts: np.ndarray) -> float:
    """d-dimensional measure of a simplex given as (d+1, k) vertices, k >= d."""
    pts = np.asarray(pts, dtype=float)
    return float(simplex_measures(pts, np.arange(len(pts))[None, :])[0])


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
# Cells: vertices with their tight rows
# ---------------------------------------------------------------------------
#
# A cell is a tuple (V, A, b, T): its vertices V (k, d); rows A x <= b,
# with unit normals, that hold on the cell; and the incidence T (k, r),
# True where vertex i lies on row j.  Every facet of the cell is a row.


def tight_rows(V: np.ndarray, A: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Incidence of the points V on the rows (A, b): |A v - b| <= tol."""
    return np.abs(V @ A.T - b) <= tol


def _side(V, T, on, X, TX, A, b, a, c, flat):
    """One side of a cut: the kept vertices V (incidence T, on the plane
    where on) and the crossings X (incidence TX), with the row a.x <= c
    appended.  Filled in place: this runs for every cut."""
    k, r = T.shape
    d = V.shape[1]
    n = k + len(X)
    if n <= d and not flat:
        return None
    V2 = np.empty((n, d))
    V2[:k] = V
    V2[k:] = X
    T2 = np.empty((n, r + 1), dtype=bool)
    T2[:k, :r] = T
    T2[:k, r] = on
    T2[k:, :r] = TX
    T2[k:, r] = True
    A2 = np.empty((r + 1, d))
    A2[:r] = A
    A2[r] = a
    b2 = np.empty(r + 1)
    b2[:r] = b
    b2[r] = c
    if flat:
        return V2, A2, b2, T2
    live = T2.sum(axis=0) >= d
    if live.all():
        return V2, A2, b2, T2
    return V2, A2[live], b2[live], T2[:, live]


def split(V, A, b, T, a, c, tol: float, above: bool = True, flat: bool = False):
    """Cut the cell (V, A, b, T) by the plane a.x = c.

    Returns (below, above): the cells on the sides a.x <= c and
    a.x >= c, each None when it has no interior (with above=False the
    second is not built).  Vertices within tol of the plane lie on it;
    the others on the far side are dropped.  Each new vertex is the
    crossing of the plane with an edge (u, w) whose ends lie strictly on
    opposite sides.  u and w span an edge exactly when the rows tight at
    both have rank d - 1; since the rows hold every facet, that is when
    no third vertex is tight at all of them, which the incidence answers
    without a numerical rank.  A row stays only while it is tight at d or
    more vertices.

    With flat=True a side that meets the plane only in a face is kept as
    that face, and no row is dropped, so a chain of cuts yields the
    intersection whatever its dimension.
    """
    norm = math.sqrt(float(a @ a))
    a = a / norm
    c = c / norm
    s = V @ a - c
    out = s > tol
    inn = s < -tol
    on = ~(out | inn)
    any_out = out.any()
    if not (any_out and inn.any()):
        # no crossing: one side is the whole cell; with flat=True the
        # other is the face in which the cell touches the plane, if any
        cell = (V, A, b, T)
        sign = 1.0 if any_out else -1.0
        face = None
        if flat and on.any() and (above or any_out):
            face = _side(V[on], T[on], on[on], V[:0], T[:0], A, b, sign * a, sign * c, True)
        return (face, cell) if any_out else (cell, face)
    iu = inn.nonzero()[0]
    iw = out.nonzero()[0]
    C = (T[iu][:, None, :] & T[iw][None, :, :]).reshape(len(iu) * len(iw), -1)
    # |C minus the rows tight at v|, for every vertex v
    missing = C.astype(float) @ (~T).T.astype(float)
    e = ((missing == 0.0).sum(axis=1) == 2).nonzero()[0]
    u = iu[e // len(iw)]
    w = iw[e % len(iw)]
    t = s[u] / (s[u] - s[w])
    X = V[u] + t[:, None] * (V[w] - V[u])
    TX = C[e]
    keep = ~out
    lo = _side(V[keep], T[keep], on[keep], X, TX, A, b, a, c, flat)
    hi = None
    if above:
        keep = ~inn
        hi = _side(V[keep], T[keep], on[keep], X, TX, A, b, -a, -c, flat)
    return lo, hi


def clip(V, A, b, a, c, tol: float, T=None, flat: bool = False):
    """The part of the cell (V, A, b) in the half-space a.x <= c, as a
    cell (V, A, b, T), or None when it has no interior; see split.  T is
    the cell's incidence, found from tol when not given."""
    if T is None:
        T = tight_rows(V, A, b, tol)
    return split(V, A, b, T, a, c, tol, above=False, flat=flat)[0]


# ---------------------------------------------------------------------------
# Hulls (V-form)
# ---------------------------------------------------------------------------


def hull(points: np.ndarray):
    """(A, b, volume) of the convex hull of a point set spanning its
    dimension: unit outward rows A x <= b, one per qhull facet (a facet
    qhull splits into coplanar pieces gives a row for each; see
    hull_incidence), and the hull's volume.  qhull runs once, on the
    points centred on their centroid and divided by their largest
    coordinate offset from it; a 1-D hull is read off the min and max.
    Raises Degenerate when the points span no hull."""
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    if d == 1:
        lo, hi = float(points.min()), float(points.max())
        if hi == lo:
            raise Degenerate("all points coincide")
        return np.array([[-1.0], [1.0]]), np.array([-lo, hi]), hi - lo
    center = points.mean(axis=0)
    scale = float(np.max(np.abs(points - center)))
    if scale == 0.0:
        raise Degenerate("all points coincide")
    try:
        qh = ConvexHull((points - center) / scale)
    except QhullError as exc:
        raise Degenerate("hull construction failed: %s" % exc) from exc
    A = qh.equations[:, :d]
    return A, A @ center - qh.equations[:, d] * scale, float(qh.volume) * scale**d


def _maximal(M: np.ndarray) -> np.ndarray:
    """Mask of the inclusion-maximal columns of the boolean M (k, r),
    each column read as a set of rows; of equal columns the first stands
    for them all."""
    Mf = M.astype(float)
    # sub[j, l]: column j lies inside column l; drop j when inside a
    # larger column or equal to an earlier one
    sub = (Mf.T @ (1.0 - Mf)) == 0.0
    order = np.arange(len(sub))
    return ~(sub & (~sub.T | (order[:, None] > order[None, :]))).any(axis=1)


def hull_incidence(points: np.ndarray, A: np.ndarray, b: np.ndarray, tol: float):
    """(vert, A, b, T): the hull rows (A, b) of the points cut down to
    its facets, its vertices, and their incidence, all read off
    tight_rows(points, A, b, tol).

    A facet is an inclusion-maximal set of points on a row, and the first
    row holding that set stands for it, so qhull's coplanar pieces of one
    facet give one row.  A vertex is a point whose set of facets no other
    point's contains: a point inside a face lies only on the facets
    through that face, a subset of each of the face's vertices' facets
    (of equal sets, as for duplicates, the first point is kept).  vert indexes the
    vertices in points, in order; T (len(vert), facets) is their
    incidence on the facet rows A, b."""
    T = tight_rows(points, A, b, tol)
    rows = _maximal(T)
    T = T[:, rows]
    vert = np.flatnonzero(_maximal(T.T))
    return vert, A[rows], b[rows], T[vert]


# ---------------------------------------------------------------------------
# Pulling triangulation
# ---------------------------------------------------------------------------


def _facets(M: np.ndarray, d: int) -> np.ndarray:
    """Facets of a d-dimensional face, from the incidence M (k, r) of its
    k vertices on the rows: the inclusion-maximal vertex sets, among
    those of the rows that hold d or more of its vertices but not all,
    one mask per facet."""
    cnt = M.sum(axis=0)
    M = M[:, (cnt >= d) & (cnt < len(M))]
    return M[:, _maximal(M)].T


def _pull(points: np.ndarray, idx: np.ndarray, M: np.ndarray, d: int, tol: float):
    """Pulling triangulation of the d-face with vertices points[idx] and
    incidence M on the cell's rows.

    The recursion cones the lexicographically smallest vertex over the
    pulled triangulations of the facets avoiding it; a facet of a face F
    is a maximal set F & G over the cell's rows G, so no hull is built.
    Because the anchor choice and the facet vertex sets depend only on
    global coordinates and on the face itself, two cells sharing a face
    induce the same triangulation on it.
    """
    k = len(idx)
    if k < d + 1 or d == 0:
        return []
    pts = points[idx]
    if d == 1 and k == 2:
        e = pts[1] - pts[0]
        length = math.sqrt(float(e @ e))
        if length > 0.0 and length > tol * max(1.0, float(np.abs(pts @ e).max()) / length):
            return [(int(idx[0]), int(idx[1]))]
        return []
    if d == 1:
        rel = pts - pts[0]
        direction = rel[np.argmax((rel * rel).sum(axis=1))]
        nd = math.sqrt(float(direction @ direction))
        if nd == 0.0:
            return []
        t = pts @ (direction / nd)
        order = np.argsort(t, kind="stable")
        floor = tol * max(1.0, float(np.abs(t).max()))
        gaps = np.diff(t[order])
        return [
            (int(idx[a]), int(idx[z]))
            for a, z, gap in zip(order[:-1], order[1:], gaps)
            if gap > floor
        ]
    if k == d + 1:
        return [tuple(int(i) for i in idx)]
    anchor = lex_min_position(pts)
    apex = (int(idx[anchor]),)
    out = []
    for F in _facets(M, d):
        if F[anchor]:
            continue
        out.extend(apex + face for face in _pull(points, idx[F], M[F], d - 1, tol))
    return out


def simplex_measures(points: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Measures of the simplices points[S] (m, d+1), d <= dim of points."""
    E = points[S[:, 1:]] - points[S[:, :1]]
    d = E.shape[1]
    if d == E.shape[2]:
        return np.abs(np.linalg.det(E)) / math.factorial(d)
    gram = np.linalg.det(E @ np.swapaxes(E, 1, 2))
    return np.sqrt(np.maximum(gram, 0.0)) / math.factorial(d)


def pulling_triangulation(points: np.ndarray, subset, dim: int, incidence, tol: float = EPS):
    """Conforming-by-construction triangulation of a convex cell.

    points: global coordinate table; subset: indices of the cell's
    vertices (repeats are merged); incidence: boolean (len(subset), r),
    True where the vertex lies on row r of the cell, the rows holding
    every facet of the cell; dim: the cell's affine dimension.  Returns a
    list of index tuples of length dim+1, without simplices at or below
    the degenerate-measure floor.
    """
    points = np.asarray(points, dtype=float)
    if dim == 1:  # an edge needs no facets, and is tested by its length
        return _pull(points, np.array(sorted(set(int(i) for i in subset))), None, 1, tol)
    subset = np.asarray(subset, dtype=int)
    order = np.argsort(subset, kind="stable")
    idx = subset[order]
    M = np.asarray(incidence, dtype=bool)[order]
    repeat = np.flatnonzero(idx[1:] == idx[:-1]) + 1
    if len(repeat):  # a merged vertex lies on the union of its copies' rows
        for i in repeat[::-1]:
            M[i - 1] |= M[i]
        idx, M = np.delete(idx, repeat), np.delete(M, repeat, axis=0)
    out = _pull(points, idx, M, dim, tol)
    if not out:
        return out
    pts = points[idx]
    spread = float((pts.max(axis=0) - pts.min(axis=0)).max())
    vols = simplex_measures(points, np.array(out))
    floor = (tol * spread) ** dim / math.factorial(dim)
    return [s for s, v in zip(out, vols) if v > floor]


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------


def check_invertible(phi: np.ndarray) -> None:
    """Raise Singular unless the square matrix phi is invertible to
    working precision: its condition number is at most MAX_CONDITION."""
    sv = np.linalg.svd(phi, compute_uv=False)
    if not sv[-1] * MAX_CONDITION >= sv[0]:
        raise Singular("linear map is singular (singular values %.3g to %.3g)" % (sv[0], sv[-1]))


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
