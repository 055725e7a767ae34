"""Independent oracles used to derive expected values before freezing them.

Everything here is deliberately naive: brute-force enumeration, Monte
Carlo, scipy adaptive quadrature, and divided differences in 60-digit
decimal arithmetic.  Nothing imports from plval, so agreement between an
oracle and the library is evidence, not tautology.
"""

from __future__ import annotations

import functools
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
from scipy import integrate as _si


def det_simplex_volume(verts) -> float:
    """|det(v_1-v_0, ..., v_n-v_0)| / n! for an n-simplex in R^n."""
    verts = np.asarray(verts, dtype=float)
    n = verts.shape[1]
    edges = verts[1:] - verts[0]
    return abs(float(np.linalg.det(edges))) / np.prod(range(1, n + 1))


def barycentric(verts, x) -> np.ndarray:
    """Barycentric coordinates of x in the n-simplex verts (n+1, n), by
    one linear solve."""
    verts = np.asarray(verts, dtype=float)
    return np.linalg.solve(np.vstack([verts.T, np.ones(len(verts))]), np.append(x, 1.0))


def shoelace_area(points) -> float:
    """Area of a 2-D convex polygon given in any order (sorted by angle)."""
    pts = np.asarray(points, dtype=float)
    centroid = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - centroid[1], pts[:, 0] - centroid[0]))
    pts = pts[order]
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def brute_facets(points, tol: float = 1e-9):
    """All facet halfspaces of conv(points) by checking every n-subset.

    Returns a list of (unit outer normal, support value) pairs, deduplicated.
    Exponential in the input size; desk scale only.
    """
    pts = np.asarray(points, dtype=float)
    k, n = pts.shape
    found = []
    for idx in itertools.combinations(range(k), n):
        sub = pts[list(idx)]
        edges = sub[1:] - sub[0]
        # normal spans the null space of the edge matrix
        _, s, vt = np.linalg.svd(np.vstack([edges, np.zeros((1, n))]))
        normal = vt[-1]
        # n points on a line (or closer) span no facet plane
        if n > 1 and s[n - 2] <= tol:
            continue
        if np.linalg.norm(edges @ normal) > tol:
            continue
        offset = float(normal @ sub[0])
        side = pts @ normal - offset
        if np.all(side <= tol):
            pass
        elif np.all(side >= -tol):
            normal, offset = -normal, -offset
        else:
            continue
        for u, h in found:
            if np.linalg.norm(u - normal) < 1e-7 and abs(h - offset) < 1e-7:
                break
        else:
            found.append((normal, offset))
    return found


def brute_contains(facets, x, tol: float = 1e-9) -> bool:
    return all(float(np.dot(u, x)) <= h + tol for u, h in facets)


def mc_volume(points, n_samples: int = 10**6, seed: int = 0) -> float:
    """Monte-Carlo volume of conv(points) via bounding-box hit counting."""
    pts = np.asarray(points, dtype=float)
    facets = brute_facets(pts)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(lo, hi, size=(n_samples, pts.shape[1]))
    normals = np.array([u for u, _ in facets])
    offsets = np.array([h for _, h in facets])
    inside = np.all(samples @ normals.T <= offsets + 1e-12, axis=1)
    return float(np.prod(hi - lo) * inside.mean())


def halfspace_vertices_brute(normals, offsets, tol: float = 1e-9):
    """Vertices of {x : <u_i,x> <= h_i} by solving every n-subset.

    Assumes the region is bounded.  Returns deduplicated vertex array.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    m, n = normals.shape
    verts = []
    for idx in itertools.combinations(range(m), n):
        A = normals[list(idx)]
        if abs(np.linalg.det(A)) < tol:
            continue
        x = np.linalg.solve(A, offsets[list(idx)])
        if np.all(normals @ x <= offsets + 1e-8):
            if not any(np.linalg.norm(x - v) < 1e-7 for v in verts):
                verts.append(x)
    return np.array(verts)


def quad_power_triangle(verts, vals, q: float) -> float:
    """∫_T |affine|^q over a 2-D triangle by adaptive quadrature.

    The affine function takes value vals[i] at verts[i].
    """
    v0, v1, v2 = (np.asarray(v, dtype=float) for v in verts)
    a0, a1, a2 = (float(a) for a in vals)
    jac = abs(float(np.linalg.det(np.array([v1 - v0, v2 - v0]))))

    def integrand(v, u):
        return abs(a0 * (1 - u - v) + a1 * u + a2 * v) ** q

    val, _ = _si.dblquad(integrand, 0.0, 1.0, 0.0, lambda u: 1.0 - u,
                         epsabs=1e-13, epsrel=1e-12)
    return jac * val


def quad_lq_power_2d(vertices, simplices, values, q: float) -> float:
    """Σ_T ∫_T |f|^q for a 2-D PL function given as raw mesh arrays."""
    total = 0.0
    for simplex in simplices:
        idx = list(simplex)
        total += quad_power_triangle(vertices[idx], values[idx], q)
    return total


def beta_cpn(p: float, n: int) -> float:
    """p ∫_0^1 t^{p-1} (1-t)^n dt by adaptive quadrature."""
    val, _ = _si.quad(lambda t: p * t ** (p - 1) * (1 - t) ** n, 0.0, 1.0,
                      epsabs=1e-14, epsrel=1e-13)
    return val


def layer_cake_cone(h, n: int, vol: float) -> float:
    """∫ h(cone) dx for a cone function over a polytope of volume vol.

    Uses |{cone > t}| = vol * (1-t)^n, integrating h against the level-set
    measure: ∫_0^1 h(t) * vol * n (1-t)^{n-1} dt.
    """
    val, _ = _si.quad(lambda t: h(t) * vol * n * (1 - t) ** (n - 1), 0.0, 1.0,
                      epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def decimal_power_mean(values, q: float, digits: int = 60) -> float:
    """Mean of |f|^q over an n-simplex on which f is affine with the given
    vertex values, which must be distinct.

    Hermite-Genocchi: the mean of g^{(n)}(f) over the simplex is n! times
    the divided difference of g over the vertex values.  With
    Phi(t) = |t|^{q+n} sgn(t)^n, Phi^{(n)} = (q+1)...(q+n) |t|^q, so the
    mean is n!/prod_{i=1..n}(q+i) [v_0, ..., v_n] Phi, evaluated in
    `digits`-digit decimal arithmetic from the exact binary inputs.  A
    cluster of c knots within a relative gap g loses about
    (c-1) log10(1/g) digits, so 60 digits cover clustered triples down
    to 1 ulp.
    """
    floats = sorted(float(v) for v in values)
    if len(set(floats)) != len(floats):
        raise ValueError("divided differences need distinct values")
    n = len(floats) - 1
    with localcontext() as ctx:
        ctx.prec = digits
        knots = [Decimal(v) for v in floats]
        power = Decimal(float(q)) + n

        def phi(t):
            if t == 0:
                return Decimal(0)
            mag = abs(t) ** power
            return -mag if (t < 0 and n % 2 == 1) else mag

        table = [phi(t) for t in knots]
        for level in range(1, n + 1):
            table = [
                (table[i + 1] - table[i]) / (knots[i + level] - knots[i])
                for i in range(len(table) - 1)
            ]
        coeff = Decimal(math.factorial(n))
        for i in range(1, n + 1):
            coeff /= Decimal(float(q)) + i
        return float(table[0] * coeff)


def complete_homogeneous(values, q: int) -> float:
    """h_q(values): the sum of all degree-q monomials, by enumeration."""
    return float(
        sum(math.prod(c) for c in itertools.combinations_with_replacement(list(values), q))
    )


def integrate_power_over_simplex(values, volume: float, q: int) -> float:
    """Integral of f^q over an n-simplex of the given volume, f affine
    with the given nonnegative vertex values and q a nonnegative integer:
    the closed form vol * n! q! / (n+q)! * h_q(values)."""
    values = [float(v) for v in values]
    if min(values) < 0:
        raise ValueError("vertex values must be nonnegative for power integrals")
    if q < 0 or q != int(q):
        raise ValueError("the closed form needs a nonnegative integer exponent, got %r" % (q,))
    n, q = len(values) - 1, int(q)
    coeff = math.factorial(n) * math.factorial(q) / math.factorial(n + q)
    return volume * coeff * complete_homogeneous(values, q)


class PushforwardDensity:
    """Density of an affine function's value under the uniform probability
    measure on an n-simplex with the given vertex values: the B-spline of
    degree n-1 on those knots with unit mass (Curry-Schoenberg), by the
    Cox-de Boor recursion at each point."""

    def __init__(self, values, dim: int):
        self.values = sorted(float(v) for v in values)
        if len(self.values) != dim + 1:
            raise ValueError("need dim+1 vertex values")
        self.dim = dim

    @property
    def is_dirac(self) -> bool:
        return self.values[-1] == self.values[0]

    def _at(self, t: float) -> float:
        v, n = self.values, self.dim
        # order 1: M_i = 1 / (v_{i+1} - v_i) on [v_i, v_{i+1}), the last
        # live piece closed on the right
        last = max(i for i in range(n) if v[i + 1] > v[i])
        M = [
            1.0 / (v[i + 1] - v[i]) if v[i + 1] > v[i] and (v[i] <= t < v[i + 1] or (i == last and t == v[i + 1]))
            else 0.0
            for i in range(n)
        ]
        for k in range(2, n + 1):
            M = [
                k / (k - 1) * ((t - v[i]) * M[i] + (v[i + k] - t) * M[i + 1]) / (v[i + k] - v[i])
                if v[i + k] > v[i] else 0.0
                for i in range(n + 1 - k)
            ]
        return M[0]

    def pdf(self, t):
        if self.is_dirac:
            raise ValueError("point mass has no density")
        return np.array([self._at(float(x)) for x in np.atleast_1d(t)])


def loglog_slope(x, y) -> float:
    """Least-squares slope of log|y| against log x."""
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    keep = (x > 0) & (y > 0)
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])


def check_polytope_invariants(P, eps: float = 1e-9) -> list:
    """Re-check the polytope type invariants from the raw fields.

    Returns a list of violation strings; empty means all hold.
    """
    bad = []
    verts = np.asarray(P.vertices, dtype=float)
    scale = max(1.0, float(np.max(np.abs(verts))))
    for fi, facet in enumerate(P.facets):
        u = np.asarray(facet.normal, dtype=float)
        h = float(facet.support)
        if h <= 0:
            bad.append("facet %d support %g not positive" % (fi, h))
        if abs(np.linalg.norm(u) - 1.0) > eps:
            bad.append("facet %d normal not unit" % fi)
        gaps = verts @ u - h
        if np.any(gaps > eps * scale):
            bad.append("facet %d cut by vertex (gap %.3g)" % (fi, float(gaps.max())))
        on = set(np.nonzero(np.abs(gaps) <= eps * scale)[0])
        if on != set(facet.vertices):
            bad.append("facet %d incidence mismatch" % fi)
        sub = verts[list(facet.vertices)]
        if np.linalg.matrix_rank(sub[1:] - sub[0], tol=1e-7) != P.dim - 1:
            bad.append("facet %d does not span dimension %d" % (fi, P.dim - 1))
    if mc_volume(verts, 20000, seed=1) <= 0:
        bad.append("volume not positive")
    return bad


def check_complex_invariants(cx, eps: float = 1e-9) -> list:
    """Nondegeneracy plus a foreign-vertex conformity check.

    A vertex of one simplex strictly inside another simplex (without being
    one of its vertices) is the overlap failure mode this guards against.
    """
    bad = []
    verts = np.asarray(cx.vertices, dtype=float)
    scale = max(1.0, float(np.max(np.abs(verts)))) if len(verts) else 1.0
    for si, s in enumerate(cx.simplices):
        if det_simplex_volume(verts[list(s)]) < 1e-12 * scale**cx.dim:
            bad.append("simplex %d degenerate" % si)
    for si, s in enumerate(cx.simplices):
        sub = verts[list(s)]
        A = np.vstack([sub.T, np.ones(len(s))])
        for vi in range(len(verts)):
            if vi in s:
                continue
            bary, *_ = np.linalg.lstsq(A, np.append(verts[vi], 1.0), rcond=None)
            resid = A @ bary - np.append(verts[vi], 1.0)
            if np.linalg.norm(resid) < 1e-8 * scale and np.all(bary > 1e-6):
                bad.append("vertex %d inside simplex %d" % (vi, si))
    return bad


def check_conforming(vertices, simplices, tol: float = 1e-9) -> list:
    """Pairs of simplices that meet in more than a common face, one pair
    at a time.  A pair's intersection is cut out of its 2(n+1) facet
    planes by solving every n-subset of them; each vertex it has must lie
    in the convex hull of the pair's shared vertices (barycentric
    coordinates on them, by least squares, reproduce it and are >= 0), so
    a pair sharing no vertex must not meet at all.  Returns violation
    strings; empty means the mesh is conforming (every two simplices meet
    in a common face, or not at all)."""
    verts = np.asarray(vertices, dtype=float)
    simplices = [tuple(s) for s in simplices]
    if len(simplices) < 2:
        return []
    n = verts.shape[1]
    scale = max(1.0, float(np.max(np.abs(verts))))
    rows = []
    for s in simplices:
        facets = brute_facets(verts[list(s)], tol=tol * scale)
        rows.append((np.array([u for u, _ in facets]), np.array([h for _, h in facets])))
    lo = np.array([verts[list(s)].min(axis=0) for s in simplices])
    hi = np.array([verts[list(s)].max(axis=0) for s in simplices])
    combos = np.array(list(itertools.combinations(range(2 * (n + 1)), n)))
    bad = []
    for a, b in itertools.combinations(range(len(simplices)), 2):
        if np.any(lo[a] > hi[b] + tol * scale) or np.any(lo[b] > hi[a] + tol * scale):
            continue
        U = np.vstack([rows[a][0], rows[b][0]])
        h = np.concatenate([rows[a][1], rows[b][1]])
        M = U[combos]
        ok = np.abs(np.linalg.det(M)) > tol
        X = np.linalg.solve(M[ok], h[combos[ok]][..., None])[..., 0]
        X = X[np.all(X @ U.T <= h + tol * scale, axis=1)]
        if not len(X):
            continue
        shared = sorted(set(simplices[a]) & set(simplices[b]))
        S = np.vstack([verts[shared].T, np.ones(len(shared))])
        for x in X:
            y = np.append(x, 1.0)
            lam = np.linalg.lstsq(S, y, rcond=None)[0] if shared else np.zeros(0)
            if not shared or np.linalg.norm(S @ lam - y) > 100 * tol * scale or lam.min() < -100 * tol:
                bad.append("simplices %d and %d meet in more than a common face" % (a, b))
                break
    return bad


def evaluate_pl_brute(vertices, simplices, values, points, tol: float = 1e-9):
    """Values of a PL function at points, one point and one simplex at a time.

    The first simplex in list order whose barycentric coordinates at the
    point are all >= -tol interpolates its vertex values; a point in no
    simplex gets 0.
    """
    verts = np.asarray(vertices, dtype=float)
    values = np.asarray(values, dtype=float)
    out = []
    for x in np.asarray(points, dtype=float):
        val = 0.0
        for simplex in simplices:
            idx = list(simplex)
            lam = barycentric(verts[idx], x)
            if np.all(lam >= -tol):
                val = float(lam @ values[idx])
                break
        out.append(val)
    return np.array(out)


def kuhn_function(n: int, cells: int):
    """phi(x) = prod(1 - x_i^2) interpolated on the Kuhn triangulation of
    [-1, 1]^n with `cells` cubes per side (n! simplices per cube, the
    cube's corners joined along every monotone path)."""
    from plval import plfunction as pf

    side = cells + 1
    grid = np.indices((side,) * n).reshape(n, -1).T
    verts = -1.0 + 2.0 * grid / cells
    strides = side ** np.arange(n)[::-1]
    corners = np.indices((cells,) * n).reshape(n, -1).T @ strides
    paths = [np.cumsum([0] + [strides[a] for a in perm]) for perm in itertools.permutations(range(n))]
    S = np.concatenate([corners[:, None] + path[None, :] for path in paths])
    return pf.PLFunction(complex=pf.SimplicialComplex(n, verts, S), values=np.prod(1.0 - verts**2, axis=1))


def box_pairs_brute(lo, hi, group, other=None) -> list:
    """[(i, j)]: the pairs of closed boxes of one group that meet, one
    pair at a time, by i, then j; i < j of [lo, hi] without other, else
    box i of [lo, hi] and box j of other = (lo2, hi2, group2)."""
    lo2, hi2, group2 = (lo, hi, group) if other is None else other
    out = []
    for i in range(len(lo)):
        for j in range(i + 1 if other is None else 0, len(lo2)):
            if group[i] == group2[j] and all(lo[i] <= hi2[j]) and all(lo2[j] <= hi[i]):
                out.append((i, j))
    return out


def dedupe_points_greedy(pts, tol: float):
    """Near-duplicate rows merged greedily, one point at a time.

    Points are visited in lex order; each joins the first (lowest) earlier
    representative within tol in the max-norm, or becomes one itself.
    Returns (representatives in lex order, mapping of each point to its
    representative's row).  A chain of points each within tol of the next
    may leave several representatives here.
    """
    from scipy.spatial import cKDTree

    pts = np.asarray(pts, dtype=float)
    k = len(pts)
    d = pts.shape[1] if pts.ndim == 2 else 1
    mapping = np.full(k, -1, dtype=int)
    if k == 0:
        return pts.reshape(0, d), mapping
    order = np.lexsort(pts.T[::-1])
    neighbors = cKDTree(pts).query_ball_point(pts, r=tol, p=np.inf)
    rep_id = np.full(k, -1, dtype=int)
    reps = []
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


def _maximal_columns(M):
    """Inclusion-maximal columns of the boolean M (k, r), each column a set
    of rows; of equal columns the first stands for them all."""
    Mf = M.astype(float)
    sub = (Mf.T @ (1.0 - Mf)) == 0.0
    order = np.arange(len(sub))
    return ~(sub & (~sub.T | (order[:, None] > order[None, :]))).any(axis=1)


def _simplex_measure(pts):
    E = pts[1:] - pts[0]
    d = len(E)
    if d == E.shape[1]:
        return abs(float(np.linalg.det(E))) / math.factorial(d)
    return math.sqrt(max(float(np.linalg.det(E @ E.T)), 0.0)) / math.factorial(d)


def _pull(points, idx, M, d, tol):
    """The pulling recursion on one face: the lexicographically smallest
    vertex coned over the facets avoiding it, one call per facet."""
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
        return [(int(idx[a]), int(idx[z])) for a, z, gap in zip(order[:-1], order[1:], gaps) if gap > floor]
    if k == d + 1:
        return [tuple(int(i) for i in idx)]
    anchor = int(np.lexsort(pts.T[::-1])[0])
    cnt = M.sum(axis=0)
    F = M[:, (cnt >= d) & (cnt < k)]
    out = []
    for col in F[:, _maximal_columns(F)].T:
        if col[anchor]:
            continue
        out.extend((int(idx[anchor]),) + face for face in _pull(points, idx[col], M[col], d - 1, tol))
    return out


def pulling_triangulation_recursive(points, subset, dim: int, incidence, tol: float = 1e-9):
    """Pulling triangulation of one convex cell by recursion over its
    faces, one call per face: subset indexes the cell's vertices in
    points (repeats merged, a merged vertex on the union of its copies'
    rows) and incidence (len(subset), r) gives the rows they lie on.
    Returns the simplices as index tuples, without those at or below the
    floor (tol * extent)^dim / dim! for dim >= 2."""
    points = np.asarray(points, dtype=float)
    subset = np.asarray(subset, dtype=int)
    order = np.argsort(subset, kind="stable")
    idx = subset[order]
    M = np.asarray(incidence, dtype=bool)[order]
    for i in np.flatnonzero(idx[1:] == idx[:-1])[::-1] + 1:
        M[i - 1] |= M[i]
    keep = np.concatenate([[True], idx[1:] != idx[:-1]]) if len(idx) else np.zeros(0, dtype=bool)
    idx, M = idx[keep], M[keep]
    out = _pull(points, idx, M, dim, tol)
    if dim == 1 or not out:
        return out
    pts = points[idx]
    floor = (tol * float((pts.max(axis=0) - pts.min(axis=0)).max())) ** dim / math.factorial(dim)
    return [s for s in out if _simplex_measure(points[list(s)]) > floor]


def group_hull_merges(member_points, total: float, rtol: float = 1e-9) -> bool:
    """Whether cells of total volume whose vertices are member_points (a
    list of (k_i, d) arrays) have a convex union: the qhull hull of all
    their vertices has their total volume within rtol."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        vol = ConvexHull(np.unique(np.vstack(member_points), axis=0)).volume
    except QhullError:
        return False
    return abs(vol - total) <= rtol * total


def inclusion_exclusion_one_meet_at_a_time(tents, meet, z, is_zero):
    """sum over nonempty subsets J of the tents of (-1)^(|J|-1) z(meet J),
    one meet per subset in subset order: the meet of a subset is the meet
    of the subset without its lowest tent with that tent, and a subset
    whose smaller meet is zero (is_zero) is zero too and skipped.  meet
    and z are passed in, so this is the order of the calls, not their
    arithmetic."""
    m = len(tents)
    memo, total = {}, 0.0
    for mask in range(1, 2**m):
        low = mask & -mask
        rest = mask ^ low
        idx = low.bit_length() - 1
        if rest == 0:
            f_j = tents[idx]
        else:
            prev = memo[rest]
            f_j = None if prev is None or is_zero(prev) else meet(prev, tents[idx])
        memo[mask] = f_j
        if f_j is not None and not is_zero(f_j):
            sign = 1.0 if bin(mask).count("1") % 2 == 1 else -1.0
            total += sign * z(f_j)
    return total


def split_boolean(V, A, b, T, vm, rm, a, c, tol, above: bool = True, flat: bool = False):
    """A stacked cut of padded cells held with a boolean incidence: V
    (B, k, d) vertices, rows A (B, r, d), b (B, r), T (B, k, r) True where
    a vertex lies on a row, vm (B, k) and rm (B, r) the entries of each
    cell; each cell is cut by its plane a[i].x = c[i] at tol[i].

    Returns one (V, A, b, T, vm, rm, src) per side, below then above (one
    side when above is False).  The rule: a vertex within tol of the
    plane lies on it, the others beyond it are dropped; an edge (u, w)
    with ends strictly on opposite sides, u and w the only vertices
    tight at every row tight at both, gives a crossing in the cell's next
    free slots; a cell not crossed stays whole on its side and adds no
    row; a crossed side keeps the rows tight at d or more of its
    vertices (all of them with flat) and adds the plane as a row; a side
    is kept when whole, or crossed with more than d vertices (with flat,
    any vertex)."""
    B, k, d = V.shape
    r = T.shape[2]
    a = np.asarray(a, dtype=float)
    norm = np.sqrt((a * a).sum(axis=1))
    a = a / norm[:, None]
    c = np.asarray(c, dtype=float) / norm
    s = (V * a[:, None, :]).sum(axis=2) - c[:, None]
    tol = np.reshape(tol, (-1, 1))
    out = (s > tol) & vm
    inn = (s < -tol) & vm
    any_out = out.any(axis=1)
    cross = any_out & inn.any(axis=1)
    p = (inn[:, :, None] & out[:, None, :]).ravel().nonzero()[0]
    pb, fu = p // (k * k), p // k
    fw = pb * k + p % k
    Tf = T.reshape(B * k, r)
    C = Tf[fu] & Tf[fw]
    e = (~(C[:, None, :] & ~T[pb]).any(axis=2) & vm[pb]).sum(axis=1) == 2
    pb, fu, fw, C = pb[e], fu[e], fw[e], C[e]
    sf, Vf = s.ravel(), V.reshape(B * k, d)
    t = sf[fu] / (sf[fu] - sf[fw])
    X = Vf[fu] + t[:, None] * (Vf[fw] - Vf[fu])
    rank = np.arange(len(pb)) - pb.searchsorted(pb)
    K, R = k + int(rank.max(initial=-1)) + 1, r + 1
    sides = []
    for side, (beyond, whole, sign) in enumerate(((out, ~any_out, 1.0), (inn, any_out & ~cross, -1.0))[: 1 + above]):
        V2 = np.zeros((B, K, d))
        V2[:, :k] = V
        V2[pb, k + rank] = X
        vm2 = np.zeros((B, K), dtype=bool)
        vm2[:, :k] = vm & ~beyond
        vm2[pb, k + rank] = True
        T2 = np.zeros((B, K, R), dtype=bool)
        T2[:, :k, :r] = T
        T2[:, :k, r] = vm & ~out & ~inn
        T2[pb, k + rank, :r] = C
        T2[pb, k + rank, r] = True
        T2 &= vm2[:, :, None]
        rm2 = np.zeros((B, R), dtype=bool)
        rm2[:, :r] = rm
        rm2[:, r] = ~whole
        if not flat:
            rm2 &= (T2.sum(axis=1) >= d) | ~cross[:, None]
        T2 &= rm2[:, None, :]
        n = vm2.sum(axis=1)
        ok = whole | (n > 0) if flat else whole | (cross & (n > d))
        A2 = np.zeros((B, R, d))
        A2[:, :r] = A
        A2[~whole, r] = sign * a[~whole]
        b2 = np.zeros((B, R))
        b2[:, :r] = b
        b2[~whole, r] = sign * c[~whole]
        src = np.flatnonzero(ok)
        sides.append((V2[src], A2[src], b2[src], T2[src], vm2[src], rm2[src], src))
    return sides


# ---------------------------------------------------------------------------
# The value-density engine with raw segments: every call of means cuts each
# segment at every cut of h, 0 included, and orients each power piece on the
# spot.  Power kernels must agree with the library bit for bit; kernels whose
# cuts cross a piece the library cut at 0 already, to a few ulps.  Every sum
# over a node, a power or a Bernstein index is taken term by term from the
# first, the library's order, with loops of its own over a row-major layout.
# ---------------------------------------------------------------------------

NEAR_RATIO = 1.0 / 3.0
GL_POWER_NODES = 16


def _bernstein(u, degree: int) -> np.ndarray:
    """The degree-`degree` Bernstein basis at the points u, (..., degree+1)."""
    k = np.arange(degree + 1)
    comb = np.array([math.comb(degree, i) for i in k], dtype=float)
    u = np.asarray(u, dtype=float)[..., None]
    return comb * u**k * (1.0 - u) ** (degree - k)


@functools.lru_cache(maxsize=64)
def _gl_bernstein(nodes: int, degree: int):
    """Gauss-Legendre nodes and weights on [0, 1], with the Bernstein basis
    at the nodes, (nodes, degree+1)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (x + 1.0)
    return u, 0.5 * w, _bernstein(u, degree)


def _ratio(num, den):
    """num/den clipped to [0, 1]; 0 where den is 0.  Where a recursion
    factor matters it lies in [0, 1] exactly; elsewhere it multiplies a
    zero coefficient and only needs to stay finite."""
    return np.clip(num / np.where(den > 0.0, den, 1.0), 0.0, 1.0)


def _times_linear(c, l0, l1):
    """Bernstein coefficients of (sum_r c_r B^{k-1}_r) * (l0 (1-s) + l1 s):
    degree elevation by a linear factor, all weights nonnegative."""
    k = c.shape[-1]
    r = np.arange(k, dtype=float)
    out = np.zeros(c.shape[:-1] + (k + 1,))
    out[..., :k] += c * (l0[..., None] * ((k - r) / k))
    out[..., 1:] += c * (l1[..., None] * ((r + 1) / k))
    return out


def _segment_density(V: np.ndarray) -> np.ndarray:
    """(m, n, n) Bernstein coefficients A[row, j, :] with

        integral over [v_j, v_{j+1}] of g(t) density(t) dt
            = integral_0^1 g(v_j + d_j s) sum_k A[row, j, k] B^{n-1}_k(s) ds,

    d_j = v_{j+1} - v_j, for sorted rows V (m, n+1) with v_n > v_0.
    Cox-de Boor recursion restricted to each segment: B_{i,k} on segment
    j lives in C[:, j, i, :]."""
    m, n = V.shape[0], V.shape[1] - 1
    C = np.broadcast_to(np.eye(n)[None, :, :, None], (m, n, n, 1))
    lo = V[:, :-1, None]  # v_j
    hi = V[:, 1:, None]  # v_{j+1}
    for k in range(1, n):
        count = n - k  # splines B_{i,k}, i = 0 .. n-k-1
        vi = V[:, None, :count]
        vik = V[:, None, k : k + count]
        vi1 = V[:, None, 1 : 1 + count]
        vik1 = V[:, None, k + 1 : k + 1 + count]
        rise = vik - vi
        fall = vik1 - vi1
        C = _times_linear(C[:, :, :count], _ratio(lo - vi, rise), _ratio(hi - vi, rise)) + (
            _times_linear(C[:, :, 1 : count + 1], _ratio(vik1 - lo, fall), _ratio(vik1 - hi, fall))
        )
    spread = V[:, -1] - V[:, 0]
    mass = n * (V[:, 1:] - V[:, :-1]) / spread[:, None]
    return C[:, :, 0, :] * mass[..., None]


def _subdivide(c, s0, s1):
    """Bernstein coefficients on [s0, s1] of the polynomial with
    coefficients c on [0, 1], 0 <= s0 < s1 <= 1; two de Casteljau passes,
    each a chain of convex combinations."""
    N = c.shape[1] - 1
    work = c.copy()
    right = np.empty_like(c)
    right[:, N] = work[:, N]
    t = s0[:, None]
    for r in range(1, N + 1):
        work[:, : N - r + 1] = (1.0 - t) * work[:, : N - r + 1] + t * work[:, 1 : N - r + 2]
        right[:, N - r] = work[:, N - r]
    t = ((s1 - s0) / (1.0 - s0))[:, None]
    left = np.empty_like(c)
    left[:, 0] = right[:, 0]
    for r in range(1, N + 1):
        right[:, : N - r + 1] = (1.0 - t) * right[:, : N - r + 1] + t * right[:, 1 : N - r + 2]
        left[:, r] = right[:, 0]
    return left


def _beta(x: float, m: int) -> float:
    """The Beta function B(x, m) at an integer m >= 1, as the finite
    product (m-1)! / (x (x+1) ... (x+m-1))."""
    return math.factorial(m - 1) / math.prod(x + j for j in range(m))


@functools.lru_cache(maxsize=64)
def _closed_form_tables(q: float, N: int):
    """Coefficient tables of the closed form (see _power_pieces):
    P[p, k] multiplies rho^p, Q[p, k] multiplies rho^{q+1+p}."""
    P = np.zeros((N + 1, N + 1))
    Q = np.zeros((2 * N + 1, N + 1))
    for k in range(N + 1):
        b = N - k
        for i in range(k + 1):
            sign = (-1) ** (k - i)
            P[k - i, k] = math.comb(N, k) * math.comb(k, i) * sign * _beta(q + i + 1.0, b + 1)
        for l in range(b + 1):
            # sum_i C(k,i) (-1)^{k-i} / (x+i) = (-1)^k k! / (x (x+1) ... (x+k)),
            # x = q+l+1: the sum over i in closed form, free of cancellation
            Q[k + l, k] = (
                math.comb(N, k) * (-1) ** (k + l) * math.comb(b, l) * math.factorial(k)
                / math.prod(q + l + 1.0 + j for j in range(k + 1))
            )
    return P, Q


@functools.lru_cache(maxsize=8)
def _expansion_table(N: int) -> np.ndarray:
    """M[p, s, k] = sum of C(N,k) C(k,i) C(N-k,l) (-1)^{k-i+l} over
    p = k-i, s = i+l: the closed form of _power_pieces with both
    binomials expanded, for exponents at or below -1."""
    M = np.zeros((N + 1, N + 1, N + 1))
    for k in range(N + 1):
        for i in range(k + 1):
            for l in range(N - k + 1):
                M[k - i, i + l, k] += (
                    math.comb(N, k) * math.comb(k, i) * math.comb(N - k, l) * (-1) ** (k - i + l)
                )
    return M


def _in_order(terms):
    """The sum of the terms, added one at a time from the first: each sum
    over a small axis in the engine's order, whatever the stack."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total = total + term
    return total


def _against_nodes(F, w, basis, c) -> np.ndarray:
    """sum_j F[:, j] w_j sum_k c[:, k] basis[j, k], both sums in order."""
    N = c.shape[1] - 1
    return _in_order(
        F[:, j] * (w[j] * _in_order(c[:, k] * basis[j, k] for k in range(N + 1))) for j in range(len(w))
    )


def _power_pieces(x0, x1, c, q: float) -> np.ndarray:
    """integral_0^1 |x0 + (x1 - x0) u|^q sum_k c[p, k] B^N_k(u) du per
    piece; no piece straddles 0.

    With near <= far the endpoint magnitudes and u counted from the near
    end, pieces with near/far >= NEAR_RATIO take Gauss-Legendre.  The
    others take the closed form in rho = near/far and y = t/far:

        integral_0^1 (near + (far - near) u)^q B^N_k(u) du
            = far^q C(N,k) / (1-rho)^{N+1}
              * sum_i C(k,i) (-rho)^{k-i} integral_rho^1 y^{q+i} (1-y)^{N-k} dy,

    each inner integral a complete Beta minus a short series in rho times
    rho^{q+i+1}.  At rho < 1/3 the alternating sums lose a few bits at
    most, and at rho = 0 (a piece ending at 0) only Beta terms remain.
    Exponents at or below -1 (anchored extensions away from 0) expand the
    inner integral directly instead."""
    N = c.shape[1] - 1
    neg = x1 <= 0.0
    near = np.where(neg, -x1, x0)
    far = np.where(neg, -x0, x1)
    c = np.where(neg[:, None], c[:, ::-1], c)  # orient u from the near end
    out = np.empty(len(x0))
    quad = near >= NEAR_RATIO * far
    if quad.any():
        u, w, basis = _gl_bernstein(GL_POWER_NODES, N)
        F = (near[quad, None] + (far - near)[quad, None] * u) ** q
        out[quad] = _against_nodes(F, w, basis, c[quad])
    closed = ~quad
    if closed.any():
        rho = near[closed] / far[closed]
        powers = rho[:, None] ** np.arange(2 * N + 1)
        if q > -1.0:
            P, Q = _closed_form_tables(q, N)
            K = np.column_stack([
                _in_order(powers[:, p] * P[p, k] for p in range(N + 1))
                - _in_order(powers[:, p] * Q[p, k] for p in range(2 * N + 1)) * rho ** (q + 1.0)
                for k in range(N + 1)
            ])
        else:
            # the Beta integrals diverge: expand (1-y)^{N-k} and integrate
            # each power from rho to 1, (1 - rho^e)/e, or -log(rho) at e = 0
            e = q + 1.0 + np.arange(N + 1)
            log_rho = np.log(rho)[:, None]
            safe_e = np.where(e == 0.0, 1.0, e)
            inner = np.where(e == 0.0, -log_rho, -np.expm1(e * log_rho) / safe_e)
            M = _expansion_table(N)
            K = np.column_stack([
                _in_order(powers[:, p] * _in_order(inner[:, s] * M[p, s, k] for s in range(N + 1))
                          for p in range(N + 1))
                for k in range(N + 1)
            ])
        c = c[closed]
        out[closed] = _in_order(K[:, k] * c[:, k] for k in range(N + 1)) * far[closed] ** q / (1.0 - rho) ** (N + 1)
    return out


def _poly_pieces(x0, x1, c, anchors, coefficients) -> np.ndarray:
    """Exact Gauss-Legendre integral of a polynomial piece against each
    sub-piece's density polynomial."""
    N = c.shape[1] - 1
    D = coefficients.shape[1] - 1
    u, w, basis = _gl_bernstein((D + N) // 2 + 1, N)
    loc = x0[:, None] + (x1 - x0)[:, None] * u - anchors[:, None]
    h = np.zeros_like(loc)
    for k in range(D, -1, -1):
        h = h * loc + coefficients[:, k, None]
    return _against_nodes(h, w, basis, c)


def means_split_at_all_cuts(values, h) -> np.ndarray:
    """Mean of h over each row's value density, for the value rows
    `values` (m, n+1): h is read through its arrays (cuts, anchors,
    coefficients, scales, exponents) and called at point masses."""
    V = np.sort(np.asarray(values, dtype=float), axis=1)
    m, n = V.shape[0], V.shape[1] - 1
    rows = np.arange(m)
    point = V[:, -1] == V[:, 0]
    out = np.zeros(m)
    if point.any():
        out[point] = h(V[point, 0])
    spread = V[~point]
    A = _segment_density(spread).reshape(-1, n)
    lo = spread[:, :-1].ravel()
    hi = spread[:, 1:].ravel()
    seg_row = np.repeat(rows[~point], n)
    live = hi > lo
    A, lo, hi, seg_row = A[live], lo[live], hi[live], seg_row[live]
    if len(lo) == 0:
        return out

    poly_on = (h.coefficients != 0.0).any(axis=1)
    power_on = h.scales != 0.0
    first = np.searchsorted(h.cuts, lo, side="right")
    count = np.searchsorted(h.cuts, hi, side="left") - first + 1
    seg = np.repeat(np.arange(len(lo)), count)
    interval = first[seg] + np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
    active = (poly_on | power_on)[interval]
    seg, interval = seg[active], interval[active]
    edges = np.concatenate([[-np.inf], h.cuts, [np.inf]])
    x0 = np.maximum(lo[seg], edges[interval])
    x1 = np.minimum(hi[seg], edges[interval + 1])
    width = hi[seg] - lo[seg]
    c = _subdivide(A[seg], (x0 - lo[seg]) / width, (x1 - lo[seg]) / width)
    c *= ((x1 - x0) / width)[:, None]

    piece_val = np.zeros(len(seg))
    poly = poly_on[interval]
    if poly.any():
        ip = interval[poly]
        piece_val[poly] = _poly_pieces(x0[poly], x1[poly], c[poly], h.anchors[ip], h.coefficients[ip])
    for e in np.unique(h.exponents[power_on]):
        sel = (power_on & (h.exponents == e))[interval]
        if sel.any():
            power = _power_pieces(x0[sel], x1[sel], c[sel], float(e))
            piece_val[sel] += h.scales[interval[sel]] * power
    out += np.bincount(seg_row[seg], weights=piece_val, minlength=m)
    return out


# ---------------------------------------------------------------------------
# The overlay's difference chain with every row: each stacked cut takes row q
# of every cell's region, whether it crosses the cell or not.  The library's
# chain cuts each cell by the rows that cross it alone, and must give the
# same cells bit for bit.
# ---------------------------------------------------------------------------


def subtract_every_row(convex, cells, A, b, tol, eps):
    """The parts of the stacked cells outside their convex regions {A x <=
    b}, A (B, R, d) and b (B, R), cut at tolerances tol (B,), as (cells,
    src) in order of src, then of row: difference chains in lockstep, one
    stacked cut per row q for every cell, piece k inside rows < k and
    outside row k, the part inside every row dropped.  A cell certified
    outside one row (every vertex eps or more beyond it) is one piece
    whole; one inside every row to within eps gives none.  convex is
    plval.convex, passed in so that this module imports nothing from
    plval: the cut is the library's, the order of the cuts is this one."""
    B, R = A.shape[:2]
    if not B:
        return cells, np.zeros(0, dtype=int)
    vm = cells.vm[:, :, None]
    D = np.stack([convex.dot_rows(cells.V, A[:, q]) for q in range(R)], axis=2) - b[:, None, :]
    disjoint = np.where(vm, D >= eps, True).all(axis=1).any(axis=1)
    covered = np.where(vm, D <= eps, True).all(axis=(1, 2))
    di = np.flatnonzero(disjoint)
    out = [(cells.take(di), di, -1)]
    act = np.flatnonzero(~disjoint & ~covered)
    cur = cells.take(act)
    for q in range(R):
        if not len(act):
            break
        a, c = A[act, q], b[act, q]
        rowd = convex.dot_rows(cur.V, a) - c[:, None]
        skip = np.where(cur.vm, rowd <= eps, True).all(axis=1)
        if skip.all():
            continue
        rest = ~skip & np.where(cur.vm, rowd >= -eps, True).all(axis=1)
        a = np.where(skip[:, None], 1.0, a)
        c = np.where(skip, np.inf, np.where(rest, -np.inf, c))
        (cur, in_src), (outside, out_src) = convex.split(cur, a, c, tol[act])
        out.append((outside, act[out_src], q))
        act = act[in_src]
    src = np.concatenate([s for _, s, _ in out])
    row = np.concatenate([np.full(len(s), q) for _, s, q in out])
    order = np.lexsort((row, src))
    return convex.Cells.concat([c for c, _, _ in out]).take(order), src[order]


# ---------------------------------------------------------------------------
# The stacked clip with every row: each cut takes row q of every cell's
# region, whether it crosses the cell or not, one convex.split per row.
# The library's clip (convex.clip_rows) cuts each cell by the rows that may
# cross it alone, next to difference chains, and must give the same cells
# bit for bit, flat or not, and so the same cells once cut where f = g.
# ---------------------------------------------------------------------------


def clip_every_row(convex, cells, A, b, tol, flat=False):
    """The parts of the stacked cells inside their convex regions {A x <=
    b}, A (B, R, d) and b (B, R), clipped at tolerances tol (B,) by one
    stacked cut per row (convex.split, below only, flat as it takes it),
    as (cells, src), compacted.  A zero row, 0.x <= 1, pads a region and
    holds everything: it is clipped as a plane at infinity, and a row
    that pads every region is left out.  convex is plval.convex, passed in
    so that this module imports nothing from plval."""
    pad = ~A.any(axis=2)
    used = ~pad.all(axis=0)
    A, b, pad = A[:, used], b[:, used], pad[:, used]
    A = np.where(pad[:, :, None], np.eye(A.shape[2])[0], A)
    b = np.where(pad, np.inf, b)
    src = np.arange(len(cells))
    for q in range(A.shape[1]):
        if not len(src):
            break
        (cells, kept), _ = convex.split(cells, A[src, q], b[src, q], tol[src], above=False, flat=flat)
        src = src[kept]
    return cells.compact(), src


def compact_by_sort(convex, cells):
    """cells with their vertices and rows moved to the front, in order, as
    a stable sort of each cell's marks puts them, the incidence unpacked to
    booleans, gathered and packed again: the reference that
    convex.Cells.compact gives bit for bit, its unused slots included.
    convex is plval.convex, passed in so that this module imports nothing
    from plval."""
    rm = cells.rm
    k = int(cells.vm.sum(axis=1).max(initial=0))
    r = int(rm.sum(axis=1).max(initial=0))
    vo = np.argsort(~cells.vm, axis=1, kind="stable")[:, :k]
    ro = np.argsort(~rm, axis=1, kind="stable")[:, :r]
    B = np.arange(len(cells))[:, None]
    T = cells.T[B, vo][B[:, :, None], np.arange(k)[:, None], ro[:, None, :]]
    shift = np.arange(r, dtype=np.uint64)
    bits = np.sum(T.astype(np.uint64) << shift, axis=2, dtype=np.uint64)
    live = np.sum(rm[B, ro].astype(np.uint64) << shift, axis=1, dtype=np.uint64)
    return convex.Cells(cells.V[B, vo], cells.H[B, ro], bits, cells.vm[B, vo], live)
