"""Mesh overlay: pointwise max/min of two piecewise-affine functions.

The two meshes are cut against each other into convex cells on which
both functions are affine (or absent): simplex pairs are clipped
directly, cut by the plane where the two affine pieces cross, and the
regions only one function covers are carved out with difference chains.
Nothing in the cutting depends on the dimension.

Each cell keeps the winning affine piece and is triangulated on its
own, so the result is a simplex *partition* of its support: interiors
are disjoint and the values continuous, but a vertex of one simplex may
lie inside a face of its neighbour (a T-junction).  Integrals, norms
and evaluation need nothing more; conformity is only checked where
input arrives as JSON.

Simplices at or below the degenerate-measure floor are dropped, so
every output simplex is nondegenerate.  Before a result is returned it
is checked, each check raising OverlayFailure: by volume, the cells
cover supp f and supp g exactly (cells both functions cover counted
twice) and each kept cell's simplices fill that cell; simplices sharing
a vertex agree on its value; and the output agrees with the pointwise
max/min at sample points.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import convex
from .convex import EPS, SNAP
from .errors import OverlayFailure
from .plfunction import VALUE_SNAP, PLFunction, SimplicialComplex

# Affine pieces differing by less than this on a cell are not cut apart.
CUT_TOL = 1e-12
# Cell vertices are enumerated, and merged, to 10x this.  It sits far
# below EPS so that a sliver between nearly parallel planes (such as two
# edges meeting at a T-junction of an input partition, extended across
# a large simplex) keeps its volume instead of collapsing.
ENUM_TOL = 1e-11
# Simplices sharing a vertex must assign it values within this spread.
VALUE_AGREE = 1e-7
# Vertex positions are trusted to this radius (relative to the data
# scale), so steep pieces may disagree at a shared vertex by gradient
# times it.
VERTEX_TOL = 1e-9
# Relative tolerance of the volume balances in the partition check.
COVER_TOL = 1e-9


def _prep(f: PLFunction):
    """Per-simplex records: (verts, A, b, lo, hi, (grad, off))."""
    cx = f.complex
    grads, offs = f.affines()
    arrs = cx.simplex_arrays()
    out = []
    for i in range(len(cx.simplices)):
        V = arrs[i]
        A, b = convex.hrep_of_simplex(V)
        out.append((V, A, b, V.min(axis=0), V.max(axis=0), (grads[i], offs[i])))
    return out


def _enum(A, b, dim):
    V = convex.halfspace_vertices(A, b, tol=ENUM_TOL)
    if len(V) < dim + 1:
        return None
    return V


# ---------------------------------------------------------------------------
# Cutting
# ---------------------------------------------------------------------------


def _split_by_affine(V, A, b, g, c, dim):
    """Split cell {A x <= b} (vertices V) by the sign of g.x + c."""
    vals = V @ g + c
    if vals.min() >= -CUT_TOL:
        return [(V, A, b, 1)]
    if vals.max() <= CUT_TOL:
        return [(V, A, b, -1)]
    out = []
    Vm = _enum(np.vstack([A, g[None, :]]), np.concatenate([b, [-c]]), dim)
    if Vm is not None:
        Am, bm = convex.prune_halfspaces(np.vstack([A, g[None, :]]), np.concatenate([b, [-c]]), Vm)
        out.append((Vm, Am, bm, -1))
    Vp = _enum(np.vstack([A, -g[None, :]]), np.concatenate([b, [c]]), dim)
    if Vp is not None:
        Ap, bp = convex.prune_halfspaces(np.vstack([A, -g[None, :]]), np.concatenate([b, [c]]), Vp)
        out.append((Vp, Ap, bp, 1))
    return out


def _subtract(parts, Ag, bg, dim):
    """Refine parts into pieces avoiding the convex region {Ag x <= bg}.

    Difference-chain decomposition: piece k is (inside rows < k) and
    (outside row k); the all-inside residue is dropped by the caller's
    bookkeeping (it is covered by the double-cover pass).
    """
    out = []
    for V, A, b in parts:
        dists = V @ Ag.T - bg[None, :]
        if np.any(np.all(dists >= EPS, axis=0)):
            out.append((V, A, b))  # certified disjoint from the region
            continue
        if np.all(dists <= EPS):
            continue  # fully covered
        curA, curb = A, b
        curV = V
        for r in range(len(Ag)):
            rowd = curV @ Ag[r] - bg[r]
            if np.all(rowd <= EPS):
                continue  # outside-piece empty, inside constraint redundant
            if np.all(rowd >= -EPS):
                out.append((curV, curA, curb))  # rest of the part is outside
                curV = None
                break
            Ao = np.vstack([curA, -Ag[r][None, :]])
            bo = np.concatenate([curb, [-bg[r]]])
            Vo = _enum(Ao, bo, dim)
            if Vo is not None:
                Aop, bop = convex.prune_halfspaces(Ao, bo, Vo)
                out.append((Vo, Aop, bop))
            Ai = np.vstack([curA, Ag[r][None, :]])
            bi = np.concatenate([curb, [bg[r]]])
            Vi = _enum(Ai, bi, dim)
            if Vi is None:
                curV = None
                break
            curA, curb = convex.prune_halfspaces(Ai, bi, Vi)
            curV = Vi
        # loop exhausted: remaining inside-piece is covered, drop it
    return out


def _pieces_pairwise(fp, gp, dim):
    pieces = []
    # regions covered by both functions, cut by {f = g}
    for V1, A1, b1, lo1, hi1, aff_f in fp:
        for V2, A2, b2, lo2, hi2, aff_g in gp:
            if not convex.bboxes_overlap(lo1, hi1, lo2, hi2, pad=EPS):
                continue
            A = np.vstack([A1, A2])
            b = np.concatenate([b1, b2])
            X = _enum(A, b, dim)
            if X is None:
                continue
            Ax, bx = convex.prune_halfspaces(A, b, X)
            gd = aff_f[0] - aff_g[0]
            cd = aff_f[1] - aff_g[1]
            dv = X @ gd + cd
            if np.max(np.abs(dv)) <= CUT_TOL:
                pieces.append((X, aff_f, aff_g))
                continue
            for Vc, _, _, _ in _split_by_affine(X, Ax, bx, gd, cd, dim):
                pieces.append((Vc, aff_f, aff_g))
    # single-cover leftovers of each function
    for own, other in ((fp, gp), (gp, fp)):
        f_side = own is fp
        for V, A, b, lo, hi, aff in own:
            parts = [(V, A, b)]
            for V2, A2, b2, lo2, hi2, _ in other:
                if not parts:
                    break
                if not convex.bboxes_overlap(lo, hi, lo2, hi2, pad=EPS):
                    continue
                parts = _subtract(parts, A2, b2, dim)
            for Vp, Ap, bp in parts:
                for Vc, _, _, _ in _split_by_affine(Vp, Ap, bp, aff[0], aff[1], dim):
                    pieces.append((Vc, aff, None) if f_side else (Vc, None, aff))
    return pieces


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _decide(op, af, ag, centroid):
    fa = af[0] @ centroid + af[1] if af is not None else 0.0
    ga = ag[0] @ centroid + ag[1] if ag is not None else 0.0
    if op == "join":
        return af if fa >= ga else ag
    return af if fa <= ga else ag


def _cell_volume(V):
    """Volume of the convex cell with vertices V; a flat cell has volume 0."""
    if len(V) == V.shape[1] + 1:
        return convex.simplex_measure(V)
    try:
        return float(ConvexHull(V).volume)
    except QhullError:
        return 0.0


def _assemble(pieces, op, dim, supp):
    """Triangulate the winning cells into a partition.

    supp is vol supp f + vol supp g: the cells must cover it exactly,
    with each cell both functions cover counted twice."""
    vols = [_cell_volume(V) for V, _, _ in pieces]
    covered = sum(vols) + sum(
        vol for vol, (_, af, ag) in zip(vols, pieces) if af is not None and ag is not None
    )
    if abs(covered - supp) > COVER_TOL * supp:
        raise OverlayFailure(
            "cells cover volume %.17g, the two supports %.17g" % (covered, supp)
        )

    kept = []
    for (V, af, ag), vol in zip(pieces, vols):
        win = _decide(op, af, ag, V.mean(axis=0))
        if win is not None:
            kept.append((V, win, vol))
    if not kept:
        return PLFunction.zero(dim)

    allv = np.vstack([V for V, _, _ in kept])
    scale = max(1.0, float(np.max(np.abs(allv))))
    table, mapping = convex.dedupe_points(allv, SNAP * scale)

    simplices, sources, cells = [], [], []
    pos = 0
    for ci, (V, aff, _) in enumerate(kept):
        idxs = mapping[pos : pos + len(V)]
        pos += len(V)
        for s in convex.pulling_triangulation(table, idxs, dim):
            simplices.append(s)
            sources.append(aff)
            cells.append(ci)

    S = np.array(simplices, dtype=int).reshape(-1, dim + 1)
    svols = np.abs(np.linalg.det(table[S[:, 1:]] - table[S[:, :1]])) / math.factorial(dim)
    # needles at or below the degenerate floor carry no volume at the
    # data's scale; check 3 below still sees each cell filled without them
    keep = np.nonzero(svols > (EPS * scale) ** dim / math.factorial(dim))[0]
    simplices = [simplices[i] for i in keep]
    sources = [sources[i] for i in keep]
    cells = [cells[i] for i in keep]
    svols = svols[keep]
    filled = np.bincount(np.asarray(cells, dtype=int), weights=svols, minlength=len(kept))
    for ci, (_, _, vol) in enumerate(kept):
        if abs(filled[ci] - vol) > COVER_TOL * supp:
            raise OverlayFailure(
                "a cell of volume %.3g triangulates to volume %.3g" % (vol, filled[ci])
            )
    if not simplices:
        return PLFunction.zero(dim)

    order = sorted(range(len(simplices)), key=lambda i: simplices[i])
    simplices = [simplices[i] for i in order]
    sources = [sources[i] for i in order]
    svols = svols[order]

    candidates = {}
    grad_mag = {}
    for s, (gv, cv) in zip(simplices, sources):
        gn = float(np.linalg.norm(gv))
        for i in s:
            candidates.setdefault(i, []).append(gv @ table[i] + cv)
            grad_mag[i] = max(grad_mag.get(i, 0.0), gn)
    vscale = max(1.0, max(abs(v) for lst in candidates.values() for v in lst))
    values = {}
    for i, lst in candidates.items():
        slack = VALUE_AGREE * vscale + 20.0 * VERTEX_TOL * scale * grad_mag[i]
        if max(lst) - min(lst) > slack:
            raise OverlayFailure(
                "value disagreement %.3g at a shared vertex" % (max(lst) - min(lst))
            )
        v = lst[0]
        values[i] = 0.0 if abs(v) <= VALUE_SNAP else v

    live = [pos for pos, s in enumerate(simplices) if any(values[i] != 0.0 for i in s)]
    if not live:
        return PLFunction.zero(dim)
    simplices = [simplices[i] for i in live]
    used = sorted({i for s in simplices for i in s})
    remap = {old: new for new, old in enumerate(used)}
    out_cx = SimplicialComplex(
        dim=dim,
        vertices=table[used],
        simplices=tuple(tuple(remap[i] for i in s) for s in simplices),
        _volumes=svols[live],
    )
    return PLFunction(complex=out_cx, values=np.array([values[i] for i in used]))


def lattice_overlay(f: PLFunction, g: PLFunction, op: str) -> PLFunction:
    if f.dim != g.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (f.dim, g.dim))
    dim = f.dim
    if f.complex.is_empty() and g.complex.is_empty():
        return PLFunction.zero(dim)

    pieces = _pieces_pairwise(_prep(f), _prep(g), dim)
    out = _assemble(pieces, op, dim, f.support_volume() + g.support_volume())

    lo = np.minimum(*(fn.bbox()[0] for fn in (f, g)))
    hi = np.maximum(*(fn.bbox()[1] for fn in (f, g)))
    rng = np.random.default_rng(424242)
    pts = rng.uniform(lo, hi, size=(128, dim))
    fe = f.evaluate_many(pts)
    ge = g.evaluate_many(pts)
    want = np.maximum(fe, ge) if op == "join" else np.minimum(fe, ge)
    got = out.evaluate_many(pts)
    vscale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want)))
    if err > 1e-8 * vscale:
        raise OverlayFailure("overlay disagrees with pointwise %s by %.3g" % (op, err))
    return out
