"""Piecewise-affine functions on simplex partitions.

A PLFunction is stored as vertex values over a SimplicialComplex and is
extended by zero outside the complex.  Every function meets one contract,
a *simplex partition*: nondegenerate simplices with disjoint interiors,
whose affine pieces agree wherever two simplices meet and which vanish on
the boundary of the support, so the zero extension is continuous.  Faces
need not match: a vertex of one simplex may lie inside a face of another
(a T-junction).  Lattice operations (pointwise max/min, see overlay.py)
return such partitions, cone functions and tents are partitions too, and
PLFunction.validate checks the contract, with array passes only, on every
function read from JSON, so the package reads back what it writes.
Evaluation, gradients, integrals and norms only need a partition; points
are located in several functions at once by locate and evaluate_each,
and evaluate_many is the case of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import convex, stats
from .convex import COVER_TOL, EPS
from .errors import Degenerate, InvalidComplex, NonFinite, OriginNotInterior
from .polytope import Polytope
from .serialize import read_dim, read_finite, read_object

# validate clips at most this many pairs of simplices at once.
CLIP_PAIRS = 1 << 14


@dataclass(eq=False)
class SimplicialComplex:
    """Simplices with disjoint interiors in R^dim.

    vertices: (k, dim) float array; simplices: (m, dim+1) int array of
    vertex indices, each row sorted; both read-only after construction.
    The simplices partition the support and need not meet face to face:
    a vertex may lie inside a neighbour's face (a T-junction), as in
    join/meet output, here and in meshes read from JSON alike (validate).
    """

    dim: int
    vertices: np.ndarray
    simplices: np.ndarray
    _volumes: np.ndarray = field(default=None, repr=False, compare=False)
    _locator: tuple = field(default=None, init=False, repr=False, compare=False)
    _arrays: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _rows: tuple = field(default=None, init=False, repr=False, compare=False)
    _scale: float = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, self.dim)
        if not np.isfinite(self.vertices).all():
            raise NonFinite("complex vertices hold a non-finite number")
        self.simplices = np.sort(np.asarray(self.simplices, dtype=int).reshape(-1, self.dim + 1), axis=1)
        self.simplices.setflags(write=False)
        self.vertices.setflags(write=False)

    def __len__(self):
        return len(self.simplices)

    def is_empty(self) -> bool:
        return len(self.simplices) == 0

    def scale(self) -> float:
        """max(1, the largest |vertex coordinate|), kept."""
        if self._scale is None:
            self._scale = max(1.0, float(np.max(np.abs(self.vertices), initial=0.0)))
        return self._scale

    def simplex_volumes(self) -> np.ndarray:
        if self._volumes is None:
            X = self.simplex_arrays()
            edges = X[:, 1:] - X[:, :1]
            self._volumes = np.abs(np.linalg.det(edges)) / math.factorial(self.dim)
        return self._volumes

    def simplex_arrays(self):
        """(m, dim+1, dim) stacked vertex coordinates per simplex; kept,
        and write-protected."""
        if self._arrays is None:
            (self._arrays,) = _frozen(self.vertices[self.simplices])
        return self._arrays

    def locator(self):
        """(lo, hi, M, v0): per-simplex bounding boxes and barycentric
        maps, so simplex i has coordinates b_1..b_dim = M[i] @ (x - v0[i])
        and b_0 = 1 - their sum; kept, and write-protected."""
        if self._locator is None:
            _locators([self])
        return self._locator

    def simplex_rows(self):
        """(A, b), (m, dim+1, dim) and (m, dim+1): each simplex as
        A x <= b with unit rows, row j being b_j >= 0, the facet opposite
        vertex j; kept, and write-protected."""
        if self._rows is None:
            _, _, M, v0 = self.locator()
            A = np.concatenate([M.sum(axis=1)[:, None, :], -M], axis=1)
            b = np.einsum("mjd,md->mj", A, v0)
            b[:, 0] += 1.0
            norms = np.linalg.norm(A, axis=2)
            self._rows = _frozen(A / norms[..., None], b / norms)
        return self._rows

    @functools.cached_property
    def convex_support(self):
        """The support as rows (A, b), A x <= b with unit rows, when it is
        convex, else None.  It is convex when the hull of the vertices in
        use has the simplices' total volume, within COVER_TOL; one
        convex.hull call per complex."""
        if self.is_empty():
            return None
        vol = float(self.simplex_volumes().sum())
        try:
            A, b, hull_volume = convex.hull(self.vertices[np.unique(self.simplices)])
        except Degenerate:
            return None
        if abs(hull_volume() - vol) > COVER_TOL * vol:
            return None
        return A, b

    # -- the partition contract ----------------------------------------------

    def validate(self) -> None:
        """Check the complex's half of the partition contract: every
        simplex is nondegenerate (measure above convex.simplex_floor of its
        own extent) and no two simplices overlap in their interiors.  Faces
        need not match: a vertex may lie inside a neighbour's face.  Raises
        InvalidComplex naming the first offending simplex, or pair (i, j)
        in (i, j) order."""
        self._contacts()

    def _contacts(self):
        """(i, j, clips, on, atol): the ordered pairs (i, j) of simplices
        that meet, clips[c] the intersection of pair c (simplex i clipped
        by j's rows, a convex.Cells stack), on[c, k] whether it lies on row
        k of simplex i, the facet opposite vertex k, and atol the clip
        tolerance, 10 EPS times the largest vertex coordinate.  Raises
        InvalidComplex for a degenerate simplex, or for a pair whose
        intersection lies on none of i's rows, i.e. has interior, naming
        the first such pair in (i, j) order.

        The pairs are those whose boxes, padded by atol, meet
        (convex.box_pairs), clipped at atol in stacked flat chains
        (convex.clip_rows), CLIP_PAIRS pairs at a time, which bounds the
        temporaries of a large mesh."""
        n = self.dim
        X = self.simplex_arrays()
        vols = self.simplex_volumes()
        floor = convex.simplex_floor(np.ptp(X, axis=1).max(axis=1, initial=0.0), n, EPS)
        bad = np.flatnonzero(vols <= floor)
        if len(bad):
            raise InvalidComplex("simplex %d is degenerate (measure %.3g)" % (bad[0], vols[bad[0]]))
        atol = 10 * EPS * float(np.abs(self.vertices).max(initial=0.0))
        A, b = self.simplex_rows()
        lo, hi = X.min(axis=1) - atol, X.max(axis=1) + atol
        i, j = convex.box_pairs(lo, hi, None, (lo, hi, None))
        i, j, parts = i[i != j], j[i != j], []
        for s in range(0, max(len(i), 1), CLIP_PAIRS):
            ci, cj = i[s : s + CLIP_PAIRS], j[s : s + CLIP_PAIRS]
            cells, src = convex.clip_rows(convex.Cells.of_simplices(X[ci], A[ci], b[ci]), A[cj], b[cj], atol, flat=True)
            parts.append((cells, ci[src], cj[src]))
        clips = convex.Cells.concat([p[0] for p in parts])
        i, j = (np.concatenate([p[k] for p in parts]) for k in (1, 2))
        # i's rows stay first in a flat chain, which drops no row
        on = np.zeros((len(i), n + 1), dtype=bool)
        if len(i):
            on = (clips.T[:, :, : n + 1] | ~clips.vm[:, :, None]).all(axis=1)
        over = np.flatnonzero(~on.any(axis=1))
        if len(over):
            c = over[np.lexsort((j[over], i[over]))[0]]
            raise InvalidComplex("simplices %d and %d overlap" % (i[c], j[c]))
        return i, j, clips, on, atol


@dataclass(eq=False)
class PLFunction:
    """Piecewise-affine function: vertex values over a complex, zero outside."""

    complex: SimplicialComplex
    values: np.ndarray
    _grads: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _offs: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if not np.isfinite(self.values).all():
            raise NonFinite("function values hold a non-finite number")
        if len(self.values) != len(self.complex.vertices):
            raise ValueError(
                "value count %d does not match vertex count %d"
                % (len(self.values), len(self.complex.vertices))
            )
        self.values.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.complex.dim

    @staticmethod
    def zero(dim: int) -> "PLFunction":
        return PLFunction(
            complex=SimplicialComplex(dim=dim, vertices=np.zeros((0, dim)), simplices=np.zeros((0, dim + 1), dtype=int)),
            values=np.zeros(0),
        )

    def is_zero(self) -> bool:
        return self.complex.is_empty() or bool(np.all(self.values == 0.0))

    def affines(self):
        """Per-simplex gradient rows and offsets: f(x) = g.x + c on simplex
        i; kept, and write-protected."""
        if self._grads is None:
            _affines([self])
        return self._grads, self._offs

    def simplex_values(self) -> np.ndarray:
        """(m, dim+1) vertex values per simplex."""
        return self.values[self.complex.simplices]

    def evaluate(self, x) -> float:
        return float(self.evaluate_many(np.asarray(x, dtype=float)[None, :])[0])

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; points outside the support give 0.

        A point on several simplices (see locate) takes the value of the
        first in index order.
        """
        X = np.asarray(X, dtype=float)
        return evaluate_each([self], X, np.zeros(len(X), dtype=int))

    def support_volume(self) -> float:
        return float(self.complex.simplex_volumes().sum())

    def bbox(self):
        if self.complex.is_empty():
            return np.zeros(self.dim), np.zeros(self.dim)
        return self.complex.vertices.min(axis=0), self.complex.vertices.max(axis=0)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check the partition contract: the complex's half
        (SimplicialComplex.validate), then continuity and a zero boundary.

        Where two simplices meet, their affine pieces agree at every vertex
        of the intersection, T-junctions included.  A facet that the
        intersections lying on it leave uncovered by more than a strip of
        the clip tolerance's width across it (atol times its extent to the
        n-2) holds part of the support's boundary, so its vertices must be
        0.  Values are judged within 10 EPS times the largest |value|.
        Raises InvalidComplex."""
        n, cx = self.dim, self.complex
        i, j, clips, on, atol = cx._contacts()
        vtol = 10 * EPS * float(np.abs(self.values).max(initial=0.0))
        grads, offs = self.affines()
        gap = np.abs(convex.dot_rows(clips.V, grads[i] - grads[j]) + (offs[i] - offs[j])[:, None])
        bad = np.flatnonzero((np.where(clips.vm, gap, 0.0) > vtol).any(axis=1))
        if len(bad):
            c = bad[np.lexsort((j[bad], i[bad]))[0]]
            raise InvalidComplex(
                "simplices %d and %d differ by %.3g where they meet" % (i[c], j[c], gap[c][clips.vm[c]].max())
            )
        # each facet's cover: the (n-1)-measure of the intersections lying
        # on it alone (one on two rows lies in a lower face)
        one = np.flatnonzero(on.sum(axis=1) == 1)
        drop = np.array([[c for c in range(n + 1) if c != k] for k in range(n + 1)])
        facets = cx.simplices[:, drop].reshape(-1, n)
        if n > 1:
            flat = clips.take(one)
            P = flat.V.reshape(-1, n)
            idx = np.arange(len(P)).reshape(flat.vm.shape)
            _, cell, measure = convex.pulling_triangulation(P, idx, flat.vm, flat.T, n - 1, tol=0.0)
            area = np.bincount(cell, weights=measure, minlength=len(one))
            strip = atol * np.ptp(cx.vertices[facets], axis=1).max(axis=1) ** (n - 2)
        else:  # a facet is a point, covered or not
            area, strip = np.ones(len(one)), 0.0
        key = i[one] * (n + 1) + on[one].argmax(axis=1)
        cover = np.bincount(key, weights=area, minlength=len(facets))
        uncovered = cover < convex.simplex_measures(cx.vertices, facets) - strip
        edge = np.unique(facets[uncovered])
        nonzero = edge[np.abs(self.values[edge]) > vtol]
        if len(nonzero):
            raise InvalidComplex("boundary vertex %d has nonzero value %.3g" % (nonzero[0], self.values[nonzero[0]]))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[float(x) for x in v] for v in self.complex.vertices],
            "simplices": self.complex.simplices.tolist(),
            "values": [float(v) for v in self.values],
        }


def _frozen(*arrays) -> tuple:
    """The arrays, write-protected."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _runs(x, counts) -> list:
    """x cut into consecutive runs of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [x[e - c : e] for e, c in zip(ends, counts)]


def _lacking(items, name) -> list:
    """The distinct items (by identity) whose field name is unset."""
    return list({id(x): x for x in items if getattr(x, name) is None}.values())


def _locators(complexes) -> None:
    """Give every complex that lacks one its locator, in one stacked
    np.linalg.inv; LAPACK inverts each matrix on its own, so each bit is
    the one the complex gets alone."""
    todo = _lacking(complexes, "_locator")
    if not todo:
        return
    X = np.concatenate([cx.simplex_arrays() for cx in todo])
    M = np.linalg.inv(np.swapaxes(X[:, 1:] - X[:, :1], 1, 2))
    counts = [len(cx) for cx in todo]
    for cx, *parts in zip(todo, *(_runs(x, counts) for x in (X.min(axis=1), X.max(axis=1), M, X[:, 0]))):
        cx._locator = _frozen(*parts)


def _affines(functions) -> None:
    """Give every function that lacks them its affine pieces, in one
    stacked np.linalg.solve; LAPACK solves each system on its own, so
    each bit is the one the function gets alone."""
    todo = _lacking(functions, "_grads")
    if not todo:
        return
    X = np.concatenate([fn.complex.simplex_arrays() for fn in todo])
    vals = np.concatenate([fn.simplex_values() for fn in todo])
    grads = np.linalg.solve(X[:, 1:] - X[:, :1], (vals[:, 1:] - vals[:, :1])[..., None])[..., 0]
    offs = vals[:, 0] - np.einsum("ij,ij->i", grads, X[:, 0])
    counts = [len(fn.complex) for fn in todo]
    for fn, g, c in zip(todo, _runs(grads, counts), _runs(offs, counts)):
        fn._grads, fn._offs = _frozen(g, c)


def locate(complexes, X: np.ndarray, at: np.ndarray):
    """(p, i): the pairs of point X[p] and simplex i of complexes[at[p]]
    that holds it, by point, then by simplex, in one pass over every
    point; i numbers the complexes' simplices one after another.  The
    locators the complexes lack are built first, in one stack.

    A simplex holds the points whose barycentric coordinates there are
    all >= -10 EPS; those are dimensionless, and only the bounding-box
    prefilter (convex.box_pairs, each complex a group) pads by a length,
    10 EPS times its complex's scale.  Each pair's test reads that pair
    alone, so a point's pairs do not depend on the other complexes."""
    _locators(complexes)
    lo, hi, M, v0 = (np.concatenate(x) for x in zip(*(cx.locator() for cx in complexes)))
    m = [len(cx) for cx in complexes]
    pad = np.repeat([10 * EPS * cx.scale() for cx in complexes], m)[:, None]
    p, i = convex.box_pairs(X, X, at, (lo - pad, hi + pad, np.repeat(np.arange(len(complexes)), m)))
    bc = np.einsum("kij,kj->ki", M[i], X[p] - v0[i])
    inside = np.all(bc >= -10 * EPS, axis=1) & (1.0 - bc.sum(axis=1) >= -10 * EPS)
    return p[inside], i[inside]


def evaluate_each(functions, X: np.ndarray, at: np.ndarray) -> np.ndarray:
    """functions[at[p]] at X[p] for every point p, in one point location
    (locate); a point outside its function's support gives 0, and one on
    several simplices takes the value of the first in index order.  Each
    value is the one evaluate_many gives alone.  The affine pieces the
    functions lack are built in one stack."""
    stats.calls["locates"] += 1
    X = np.asarray(X, dtype=float)
    out = np.zeros(len(X))
    p, i = locate([fn.complex for fn in functions], X, at)
    # the pairs come by point, then simplex: keep each point's first
    p, first = np.unique(p, return_index=True)
    i = i[first]
    _affines(functions)
    grads, offs = (np.concatenate(x) for x in zip(*(fn.affines() for fn in functions)))
    out[p] = np.einsum("kj,kj->k", X[p], grads[i]) + offs[i]
    return out


def from_json_dict(data: dict) -> PLFunction:
    """The function of a JSON dict {"dim", "vertices", "simplices",
    "values"}, checked against the partition contract (PLFunction.validate);
    simplices must be rows of dim+1 integer indices into vertices."""
    read_object(data, "PL function")
    for key in ("dim", "vertices", "simplices", "values"):
        if key not in data:
            raise ValueError("PL function JSON needs '%s'" % key)
    dim = read_dim(data, "PL function")
    verts = read_finite(data, "vertices", "PL function")
    if len(verts) and (verts.ndim != 2 or verts.shape[1] != dim):
        raise ValueError("vertex array shape does not match dim %d" % dim)
    try:
        index = np.array(data["simplices"])
    except ValueError:  # ragged rows
        index = None
    if index is None or (index.size and (index.ndim != 2 or index.shape[1] != dim + 1 or index.dtype.kind not in "iu")):
        raise InvalidComplex("PL function field 'simplices' needs rows of %d integers" % (dim + 1))
    outside = index[(index < 0) | (index >= len(verts))]
    if len(outside):
        raise InvalidComplex(
            "PL function field 'simplices' holds index %d, outside the %d vertices" % (outside[0], len(verts))
        )
    cx = SimplicialComplex(dim=dim, vertices=verts, simplices=index)
    f = PLFunction(complex=cx, values=read_finite(data, "values", "PL function"))
    f.validate()
    return f


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def central_triangulation(P: Polytope) -> SimplicialComplex:
    """Fan over the origin: the facets' triangulations coned with 0.
    Returns a SimplicialComplex (vertices = P's plus the origin appended
    last)."""
    if not P.origin_interior:
        raise OriginNotInterior("central triangulation requires the origin strictly interior")
    n = P.dim
    verts = np.vstack([P.vertices, np.zeros(n)])
    faces = P.facet_simplices
    simplices = np.column_stack([faces, np.full(len(faces), len(P.vertices))])
    return SimplicialComplex(dim=n, vertices=verts, simplices=simplices)


def cone_function(P: Polytope) -> PLFunction:
    """The function equal to 1 at the origin, 0 outside P, affine on each
    central simplex of P (gradient -u_i/h_i on the simplex under facet i)."""
    if not P.origin_interior:
        raise OriginNotInterior("cone function needs the origin strictly inside")
    cx = central_triangulation(P)
    values = np.zeros(len(cx.vertices))
    values[len(P.vertices)] = 1.0  # the origin is appended last
    return PLFunction(complex=cx, values=values)


def evaluate(f: PLFunction, x) -> float:
    return f.evaluate(x)


def scale_values(f: PLFunction, s: float) -> PLFunction:
    return PLFunction(complex=f.complex, values=f.values * float(s))


def compose_affine(f: PLFunction, phi, t=None) -> PLFunction:
    """x -> f(phi^{-1}(x - t)): push the mesh through x -> phi x + t."""
    phi = np.asarray(phi, dtype=float)
    convex.check_invertible(phi)
    t = np.zeros(f.dim) if t is None else np.asarray(t, dtype=float)
    verts = f.complex.vertices @ phi.T + t
    cx = SimplicialComplex(dim=f.dim, vertices=verts, simplices=f.complex.simplices)
    return PLFunction(complex=cx, values=f.values.copy())


def join(f: PLFunction, g: PLFunction) -> PLFunction:
    """Pointwise maximum of the zero extensions."""
    from .overlay import lattice_overlay

    return lattice_overlay(f, g, "join")


def meet(f: PLFunction, g: PLFunction) -> PLFunction:
    """Pointwise minimum, restricted to the closure of {min != 0}."""
    from .overlay import lattice_overlay

    return lattice_overlay(f, g, "meet")
