"""Independent oracles used to derive expected values before freezing them.

Everything here is deliberately naive: brute-force enumeration, Monte
Carlo, scipy adaptive quadrature, and divided differences in 60-digit
decimal arithmetic.  Nothing imports from plval, so agreement between an
oracle and the library is evidence, not tautology.
"""

from __future__ import annotations

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
