"""Piecewise-affine functions on simplicial meshes.

A PLFunction is stored as vertex values over a SimplicialComplex and is
extended by zero outside the complex. Functions vanish on the topological
boundary of their support so the zero extension is continuous; loaders
and validators enforce this.

Meshes read from JSON, cone functions and tents are conforming (any two
simplices meet in a common face).  Lattice operations (pointwise
max/min) refine the two meshes against each other and return a simplex
partition that may have T-junctions; see overlay.py for that machinery.
Evaluation, gradients, integrals and norms only need a partition.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from . import convex
from .convex import EPS
from .errors import (
    ConstructionFailure,
    Degenerate,
    InvalidComplex,
    NotNonnegative,
    OriginNotInterior,
)
from .polytope import Polytope, central_triangulation
from .serialize import read_finite

# Vertex values smaller than this are snapped to exact zero when meshes
# are rebuilt, keeping the boundary-zero invariant sharp.
VALUE_SNAP = 1e-10
# evaluate_many tests at most this many (point, simplex) pairs at once.
EVAL_PAIRS = 1 << 14


@dataclass(eq=False)
class SimplicialComplex:
    """Simplices with disjoint interiors in R^dim.

    vertices: (k, dim) float array; simplices: tuple of sorted index
    tuples of length dim+1. Treated as immutable after construction.
    The simplices partition the support; they need not meet face to face
    (join/meet output may have T-junctions), but meshes read from JSON
    are checked to be conforming.
    """

    dim: int
    vertices: np.ndarray
    simplices: tuple
    _volumes: np.ndarray = field(default=None, repr=False, compare=False)
    _index: np.ndarray = field(default=None, repr=False, compare=False)
    _locator: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, self.dim)
        self.simplices = tuple(tuple(sorted(int(i) for i in s)) for s in self.simplices)
        self.vertices.setflags(write=False)

    def __len__(self):
        return len(self.simplices)

    def is_empty(self) -> bool:
        return len(self.simplices) == 0

    def scale(self) -> float:
        if len(self.vertices) == 0:
            return 1.0
        return max(1.0, float(np.max(np.abs(self.vertices))))

    def simplex_volumes(self) -> np.ndarray:
        if self._volumes is None:
            X = self.simplex_arrays()
            edges = X[:, 1:] - X[:, :1]
            self._volumes = np.abs(np.linalg.det(edges)) / math.factorial(self.dim)
        return self._volumes

    def index_array(self) -> np.ndarray:
        """(m, dim+1) vertex indices per simplex."""
        if self._index is None:
            self._index = np.array(self.simplices, dtype=int).reshape(-1, self.dim + 1)
            self._index.setflags(write=False)
        return self._index

    def simplex_arrays(self):
        """(m, dim+1, dim) stacked vertex coordinates per simplex."""
        return self.vertices[self.index_array()]

    def locator(self):
        """(lo, hi, M, v0): per-simplex bounding boxes and the batched
        barycentric_matrix, so simplex i has coordinates b_1..b_dim =
        M[i] @ (x - v0[i]) and b_0 = 1 - their sum."""
        if self._locator is None:
            X = self.simplex_arrays()
            M = np.linalg.inv(np.swapaxes(X[:, 1:] - X[:, :1], 1, 2))
            self._locator = (X.min(axis=1), X.max(axis=1), M, X[:, 0])
        return self._locator

    def simplex_rows(self):
        """(A, b), (m, dim+1, dim) and (m, dim+1): each simplex as
        A x <= b with unit rows, row j being b_j >= 0, the facet opposite
        vertex j."""
        _, _, M, v0 = self.locator()
        A = np.concatenate([M.sum(axis=1)[:, None, :], -M], axis=1)
        b = np.einsum("mjd,md->mj", A, v0)
        b[:, 0] += 1.0
        norms = np.linalg.norm(A, axis=2)
        return A / norms[..., None], b / norms

    @functools.cached_property
    def convex_support(self):
        """The support as rows (A, b), A x <= b with unit rows, when it is
        convex, else None.  It is convex when the hull of the vertices in
        use has the simplices' total volume, within the overlay's
        COVER_TOL; one qhull call per complex."""
        from .overlay import COVER_TOL

        if self.is_empty():
            return None
        vol = float(self.simplex_volumes().sum())
        try:
            A, b, hull_vol = convex.hull(self.vertices[np.unique(self.index_array())])
        except Degenerate:
            return None
        if abs(hull_vol - vol) > COVER_TOL * vol:
            return None
        return A, b

    def boundary_vertex_indices(self) -> np.ndarray:
        """Vertices lying on (dim-1)-faces that belong to exactly one simplex.

        Assumes a conforming complex: on a partition with T-junctions an
        interior face split between two neighbours also counts once."""
        from collections import Counter

        faces = Counter()
        for s in self.simplices:
            for drop in range(len(s)):
                faces[s[:drop] + s[drop + 1 :]] += 1
        out = set()
        for face, count in faces.items():
            if count == 1:
                out.update(face)
        return np.array(sorted(out), dtype=int)

    # -- validation ---------------------------------------------------------

    def validate(self, tol: float = EPS) -> None:
        """Check nondegeneracy, conformity and disjoint interiors: the
        vertex-in-foreign-simplex scan, then the pairwise clipping check.
        Raises InvalidComplex naming the offending simplices.
        """
        n = self.dim
        scale = self.scale()
        vols = self.simplex_volumes()
        floor = (tol * scale) ** n / math.factorial(n)
        for i, v in enumerate(vols):
            if v <= floor:
                raise InvalidComplex("simplex %d is degenerate (measure %.3g)" % (i, v))

        if len(self.simplices) < 2:
            return
        self._check_foreign_vertices(tol)
        self._check_pairwise(tol * scale)

    def _check_foreign_vertices(self, tol: float) -> None:
        """No vertex lies on a simplex it is not a vertex of, that is, has
        all its barycentric coordinates there >= -10 tol.  Those are
        dimensionless; only the bounding-box prefilter pads by a length."""
        V = self.vertices
        _, _, Ms, v0s = self.locator()
        pad = 10 * tol * self.scale()
        for si, s in enumerate(self.simplices):
            verts = V[list(s)]
            lo = verts.min(axis=0) - pad
            hi = verts.max(axis=0) + pad
            cand = np.nonzero(np.all((V >= lo) & (V <= hi), axis=1))[0]
            cand = [c for c in cand if c not in s]
            if not cand:
                continue
            rel = V[cand] - v0s[si]
            bc = rel @ Ms[si].T
            b0 = 1.0 - bc.sum(axis=1)
            full = np.column_stack([b0, bc])
            inside = np.all(full >= -10 * tol, axis=1)
            for ci in np.nonzero(inside)[0]:
                raise InvalidComplex(
                    "vertex %d lies on simplex %d without being one of its vertices"
                    % (cand[ci], si)
                )

    def _candidate_pairs(self, los, his, pad):
        """Index pairs whose boxes might overlap, via a spatial grid so the
        all-pairs scan is avoided on large meshes."""
        m = len(los)
        if m <= 64:
            return [(i, j) for i in range(m) for j in range(i + 1, m)]
        cell = max(float(np.median(np.max(his - los, axis=1))), 1e-12)
        buckets: dict = {}
        pairs = set()
        for i in range(m):
            lo_idx = np.floor((los[i] - pad) / cell).astype(np.int64)
            hi_idx = np.floor((his[i] + pad) / cell).astype(np.int64)
            for key in itertools.product(
                *(range(lo_idx[k], hi_idx[k] + 1) for k in range(self.dim))
            ):
                b = buckets.setdefault(key, [])
                for j in b:
                    pairs.add((j, i))
                b.append(i)
        return sorted(pairs)

    def _check_pairwise(self, atol: float) -> None:
        n = self.dim
        V = self.vertices
        arrs = self.simplex_arrays()
        los = arrs.min(axis=1)
        his = arrs.max(axis=1)
        hrows, hrhs = self.simplex_rows()
        T0 = ~np.eye(n + 1, dtype=bool)
        for i, j in self._candidate_pairs(los, his, atol):
            if not convex.bboxes_overlap(los[i], his[i], los[j], his[j], pad=atol):
                continue
            si, sj = self.simplices[i], self.simplices[j]
            shared = sorted(set(si) & set(sj))
            if len(shared) == n + 1:
                raise InvalidComplex("simplices %d and %d coincide" % (i, j))
            if len(shared) == n:
                # shared facet: opposite vertices must be on opposite sides
                fverts = V[shared]
                _, _, vt = np.linalg.svd(fverts[1:] - fverts[0], full_matrices=True)
                u = vt[-1]
                off = u @ fverts[0]
                a = u @ V[list(set(si) - set(shared))[0]] - off
                b = u @ V[list(set(sj) - set(shared))[0]] - off
                if a * b > -(atol**2):
                    raise InvalidComplex(
                        "simplices %d and %d overlap across their shared facet" % (i, j)
                    )
                continue
            # simplex i clipped by the rows of simplex j, keeping a
            # lower-dimensional intersection
            cell = (arrs[i], hrows[i], hrhs[i], T0)
            for a, c in zip(hrows[j], hrhs[j]):
                cell = convex.clip(*cell[:3], a, c, 10 * atol, T=cell[3], flat=True)
                if cell is None:
                    break
            if cell is None:
                continue
            X = cell[0]
            if not shared:
                if np.max(np.ptp(X, axis=0)) > 10 * atol:
                    raise InvalidComplex(
                        "simplices %d and %d intersect without common vertices" % (i, j)
                    )
                continue
            S = V[shared]
            A_ls = np.vstack([S.T, np.ones(len(shared))])
            for x in X:
                rhs = np.concatenate([x, [1.0]])
                _, resid = nnls(A_ls, rhs)
                if resid > 100 * atol:
                    raise InvalidComplex(
                        "intersection of simplices %d and %d exceeds their shared face"
                        % (i, j)
                    )


@dataclass(eq=False)
class PLFunction:
    """Piecewise-affine function: vertex values over a complex, zero outside."""

    complex: SimplicialComplex
    values: np.ndarray
    _grads: np.ndarray = field(default=None, repr=False, compare=False)
    _offs: np.ndarray = field(default=None, repr=False, compare=False)
    _density: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
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
            complex=SimplicialComplex(dim=dim, vertices=np.zeros((0, dim)), simplices=()),
            values=np.zeros(0),
        )

    def is_zero(self) -> bool:
        return self.complex.is_empty() or bool(np.all(self.values == 0.0))

    def affines(self):
        """Per-simplex gradient rows and offsets: f(x) = g.x + c on simplex i."""
        if self._grads is None:
            cx = self.complex
            m = len(cx.simplices)
            grads = np.zeros((m, cx.dim))
            offs = np.zeros(m)
            if m:
                arrs = cx.simplex_arrays()
                vals = self.simplex_values()
                E = arrs[:, 1:, :] - arrs[:, :1, :]
                d = vals[:, 1:] - vals[:, :1]
                grads = np.linalg.solve(E, d[..., None])[..., 0]
                offs = vals[:, 0] - np.einsum("ij,ij->i", grads, arrs[:, 0, :])
            self._grads = grads
            self._offs = offs
        return self._grads, self._offs

    def simplex_values(self) -> np.ndarray:
        """(m, dim+1) vertex values per simplex."""
        return self.values[self.complex.index_array()]

    def value_density(self):
        """The integration.ValueDensity of the simplex value rows, built on
        first use and shared by every kernel and norm integrated over f."""
        if self._density is None:
            from .integration import value_density

            self._density = value_density(self.simplex_values())
        return self._density

    def evaluate(self, x) -> float:
        return float(self.evaluate_many(np.asarray(x, dtype=float)[None, :])[0])

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; points outside the support give 0.

        A point on several simplices (within the tolerance) takes the
        value of the first in index order.  Candidate (point, simplex)
        pairs come from the bounding boxes, at most EVAL_PAIRS at a time.
        """
        X = np.asarray(X, dtype=float)
        out = np.zeros(len(X))
        cx = self.complex
        if cx.is_empty():
            return out
        grads, offs = self.affines()
        lo, hi, M, v0 = cx.locator()
        # barycentric coordinates are dimensionless; only the box pad is a length
        tol = 10 * EPS
        pad = tol * cx.scale()
        lo, hi = lo - pad, hi + pad
        step = max(1, EVAL_PAIRS // len(lo))
        for start in range(0, len(X), step):
            Xc = X[start : start + step]
            near = np.all((Xc[:, None, :] >= lo) & (Xc[:, None, :] <= hi), axis=2)
            p, i = np.nonzero(near)  # by point, then by simplex index
            bc = np.einsum("kij,kj->ki", M[i], Xc[p] - v0[i])
            inside = np.all(bc >= -tol, axis=1) & (1.0 - bc.sum(axis=1) >= -tol)
            p, i = p[inside], i[inside]
            first = np.unique(p, return_index=True)[1]
            p, i = p[first], i[first]
            out[start + p] = np.einsum("kj,kj->k", Xc[p], grads[i]) + offs[i]
        return out

    def support_volume(self) -> float:
        return float(self.complex.simplex_volumes().sum())

    def bbox(self):
        if self.complex.is_empty():
            return np.zeros(self.dim), np.zeros(self.dim)
        return self.complex.vertices.min(axis=0), self.complex.vertices.max(axis=0)

    # -- validation ---------------------------------------------------------

    def validate(self, tol: float = EPS) -> None:
        """Complex invariants plus zero values on the support boundary;
        like boundary_vertex_indices, assumes a conforming complex."""
        self.complex.validate(tol=tol)
        bidx = self.complex.boundary_vertex_indices()
        vscale = max(1.0, float(np.max(np.abs(self.values))) if len(self.values) else 1.0)
        for i in bidx:
            if abs(self.values[i]) > 10 * tol * vscale:
                raise InvalidComplex(
                    "boundary vertex %d has nonzero value %.3g" % (i, self.values[i])
                )

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[float(x) for x in v] for v in self.complex.vertices],
            "simplices": [[int(i) for i in s] for s in self.complex.simplices],
            "values": [float(v) for v in self.values],
        }


def from_json_dict(data: dict) -> PLFunction:
    for key in ("dim", "vertices", "simplices", "values"):
        if key not in data:
            raise ValueError("PL function JSON needs '%s'" % key)
    dim = int(data["dim"])
    verts = read_finite(data, "vertices", "PL function")
    if len(verts) and (verts.ndim != 2 or verts.shape[1] != dim):
        raise ValueError("vertex array shape does not match dim %d" % dim)
    cx = SimplicialComplex(dim=dim, vertices=verts, simplices=tuple(map(tuple, data["simplices"])))
    f = PLFunction(complex=cx, values=read_finite(data, "values", "PL function"))
    f.validate()
    return f


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


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


def gradient_field(f: PLFunction):
    """[(simplex index, gradient vector)] over the complex."""
    grads, _ = f.affines()
    return [(i, grads[i].copy()) for i in range(len(grads))]


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


# ---------------------------------------------------------------------------
# Tent decomposition
# ---------------------------------------------------------------------------


def _build_tent(f: PLFunction, si: int, M: float) -> PLFunction:
    """Concave tent over simplex si: equals f on the simplex, slopes to 0
    at rate M outside it.

    The tent is min(A, A + M b_0, ..., A + M b_n) clipped at 0, where A is
    f's affine extension and b_j the barycentric coordinates; a minimum of
    affine functions is concave on the region where it is positive.
    """
    n = f.dim
    grads, offs = f.affines()
    gA, cA = grads[si], offs[si]

    _, _, Ms, v0s = f.complex.locator()
    Mb, v0 = Ms[si], v0s[si]
    # b_j(x) = row_j . (x - v0) for j=1..n, b_0 = 1 - sum
    b_rows = np.vstack([-Mb.sum(axis=0), Mb])
    b_offs = np.array([1.0, *np.zeros(n)]) - b_rows @ v0

    # support polytope: A >= 0 and A + M b_j >= 0 for all j, kept bounded
    # by an inflated box around supp f (a too-small M can otherwise leave
    # a recession direction; the spill is then caught and M doubled)
    lo, hi = f.bbox()
    pad = 0.5 * float(np.max(hi - lo)) + 1.0
    corners = np.array(list(itertools.product(*zip(lo - pad, hi + pad))))
    box_A = np.vstack([np.eye(n), -np.eye(n)])
    box_b = np.concatenate([hi + pad, -(lo - pad)])
    tol = EPS * max(1.0, float(np.max(np.abs(box_b))))
    A_rows = [-gA]
    b_vals = [cA]
    for j in range(n + 1):
        A_rows.append(-(gA + M * b_rows[j]))
        b_vals.append(cA + M * b_offs[j])

    def cut(cell, rows, rhs):
        for a, c in zip(rows, rhs):
            if cell is None:
                break
            cell = convex.clip(*cell[:3], a, c, tol, T=cell[3])
        return cell

    sup = cut((corners, box_A, box_b, convex.tight_rows(corners, box_A, box_b, tol)), A_rows, b_vals)

    def tent_affine(j):
        if j < 0:
            return gA, cA
        return gA + M * b_rows[j], cA + M * b_offs[j]

    # cells: the central simplex (all b_j >= 0) plus one wedge per j where
    # b_j is the most negative coordinate
    cells = [(cut(sup, -b_rows, b_offs), -1)]
    for j in range(n + 1):
        others = [l for l in range(n + 1) if l != j]
        rows = np.vstack([b_rows[j], b_rows[j] - b_rows[others]])
        rhs = np.concatenate([[-b_offs[j]], b_offs[others] - b_offs[j]])
        cells.append((cut(sup, rows, rhs), j))
    pieces = [(cell[0], cell[3], tent_affine(j)) for cell, j in cells if cell is not None]

    allv = np.vstack([V for V, _, _ in pieces])
    table, mapping = convex.dedupe_points(allv, 1e-12 * max(1.0, np.max(np.abs(allv))))
    simplices = []
    sources = []
    pos = 0
    for V, T, aff in pieces:
        idxs = mapping[pos : pos + len(V)]
        pos += len(V)
        for s in convex.pulling_triangulation(table, idxs, n, T):
            simplices.append(s)
            sources.append(aff)

    used = sorted(set(i for s in simplices for i in s))
    remap = {old: new for new, old in enumerate(used)}
    new_verts = table[used]
    new_simplices = tuple(tuple(remap[i] for i in s) for s in simplices)

    values = np.zeros(len(new_verts))
    seen = np.zeros(len(new_verts), dtype=bool)
    for s, (gv, cv) in zip(new_simplices, sources):
        for i in s:
            if not seen[i]:
                values[i] = gv @ new_verts[i] + cv
                seen[i] = True
    values[np.abs(values) <= VALUE_SNAP] = 0.0
    np.maximum(values, 0.0, out=values)

    out_cx = SimplicialComplex(dim=n, vertices=new_verts, simplices=new_simplices)
    return PLFunction(complex=out_cx, values=values)


def tent_decomposition(f: PLFunction, delta: float = 1e-2):
    """Concave tents f_1..f_m, one per simplex carrying positive values,
    whose join reproduces f. The ring width starts at roughly delta times
    the simplex size and halves until the sampled join matches f."""
    if np.any(f.values < -10 * EPS):
        raise NotNonnegative("tent decomposition requires f >= 0")
    cx = f.complex
    active = [
        si for si in range(len(cx.simplices)) if np.max(f.values[list(cx.simplices[si])]) > EPS
    ]
    if not active:
        return []
    if len(active) == 1:
        # every positive vertex is exclusive to this simplex (a shared one
        # would activate its other simplex), so f is its own single tent:
        # affine on the simplex, hence concave on its support
        return [f]

    lo, hi = f.bbox()
    rng = np.random.default_rng(1234)
    samples = rng.uniform(lo, hi, size=(1024, f.dim))
    f_ref = f.evaluate_many(samples)
    vscale = max(1.0, float(np.max(np.abs(f.values))))

    d = delta
    for _ in range(40):
        tents = []
        spilled = False
        for si in active:
            peak = float(np.max(f.values[list(cx.simplices[si])]))
            M = peak / d
            t = _build_tent(f, si, M)
            tlo, thi = t.bbox()
            if np.any(tlo < lo - 1e-7) or np.any(thi > hi + 1e-7):
                spilled = True
                break
            if np.any(t.values > f.evaluate_many(t.complex.vertices) + 1e-9 * vscale):
                spilled = True
                break
            tents.append(t)
        if not spilled:
            joint = np.max([t.evaluate_many(samples) for t in tents], axis=0)
            if np.max(np.abs(joint - f_ref)) <= 1e-9 * vscale:
                return tents
        d *= 0.5
    raise ConstructionFailure("tent decomposition did not converge (delta down to %.3g)" % d)
