"""Mesh overlay: pointwise max/min of two piecewise-affine functions.

The two meshes are cut against each other into convex cells on which
both functions are affine (or absent): simplex pairs are clipped
directly, cut by the plane where the two affine pieces cross, and the
regions only one function covers are carved out with difference chains.
A cell is carried in vertex form with its tight rows and their
incidence, and every cut is one convex.split; nothing in the cutting
depends on the dimension.

Each cell keeps the winning affine piece and is triangulated on its
own from its incidence, so the result is a simplex *partition* of its support: interiors
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

Join and meet of one pair cut the same cells and differ only in which
piece wins each one, and the valuation identity always asks for both.
So the op-independent half (the cells, the support volume, the sample
points and the inputs' values there) is memoised for the last pair
overlaid, keyed on the two functions' identities: a meet of f and g
right after their join, or the other way round, cuts once.  A
PLFunction's arrays are write-protected, so a hit is never stale, and
the memo keeps at most one pair alive.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import convex
from .convex import EPS, SNAP
from .errors import OverlayFailure
from .plfunction import VALUE_SNAP, PLFunction, SimplicialComplex

# Affine pieces differing by less than this on a cell are not cut apart.
CUT_TOL = 1e-12
# Cell vertices within this distance (times the data scale) of a cutting
# plane lie on it.  It sits far below EPS so that a sliver between nearly
# parallel planes (such as two edges meeting at a T-junction of an input
# partition, extended across a large simplex) keeps its volume instead of
# collapsing.
CLIP_TOL = 1e-10
# Simplices sharing a vertex must assign it values within this spread.
VALUE_AGREE = 1e-7
# Vertex positions are trusted to this radius (relative to the data
# scale), so steep pieces may disagree at a shared vertex by gradient
# times it.
VERTEX_TOL = 1e-9
# Relative tolerance of the volume balances in the partition check.
COVER_TOL = 1e-9
# A simplex whose intersections with the other mesh fill all but this
# fraction of its volume leaves no region that only its function covers.
FULL_COVER = 1e-12


def _prep(f: PLFunction):
    """Per-simplex records: (cell, lo, hi, (grad, off), volume), each
    simplex a convex cell (V, A, b, T) with row j opposite vertex j."""
    cx = f.complex
    grads, offs = f.affines()
    arrs = cx.simplex_arrays()
    if not len(arrs):
        return []
    lo, hi, _, _ = cx.locator()
    A, b = cx.simplex_rows()
    T = ~np.eye(cx.dim + 1, dtype=bool)
    vols = cx.simplex_volumes()
    return [
        ((arrs[i], A[i], b[i], T), lo[i], hi[i], (grads[i], offs[i]), vols[i])
        for i in range(len(arrs))
    ]


# ---------------------------------------------------------------------------
# Cutting
# ---------------------------------------------------------------------------


def _split_by_affine(cell, g, c, tol):
    """Split a cell by the sign of g.x + c: [(cell, sign)]."""
    vals = cell[0] @ g + c
    if vals.min() >= -CUT_TOL:
        return [(cell, 1)]
    if vals.max() <= CUT_TOL:
        return [(cell, -1)]
    lo, hi = convex.split(*cell, g, -c, tol)
    return [(part, sign) for part, sign in ((lo, -1), (hi, 1)) if part is not None]


def _subtract(parts, Ag, bg, tol):
    """Refine parts into pieces avoiding the convex region {Ag x <= bg}.

    Difference-chain decomposition: piece k is (inside rows < k) and
    (outside row k); the all-inside residue is dropped by the caller's
    bookkeeping (it is covered by the double-cover pass).
    """
    out = []
    for cell in parts:
        dists = cell[0] @ Ag.T - bg
        if (dists >= EPS).all(axis=0).any():
            out.append(cell)  # certified disjoint from the region
            continue
        if (dists <= EPS).all():
            continue  # fully covered
        cur = cell
        for r in range(len(Ag)):
            rowd = cur[0] @ Ag[r] - bg[r]
            if (rowd <= EPS).all():
                continue  # outside-piece empty, inside constraint redundant
            if (rowd >= -EPS).all():
                out.append(cur)  # rest of the part is outside
                break
            inside, outside = convex.split(*cur, Ag[r], bg[r], tol)
            if outside is not None:
                out.append(outside)
            if inside is None:
                break
            cur = inside
        # loop exhausted: remaining inside-piece is covered, drop it
    return out


def _pieces_pairwise(fp, gp, dim):
    """Cells (V, T, f's piece or None, g's piece or None, volume) covering
    supp f and supp g, the cells both cover once for each."""
    scale = max([1.0] + [float(np.max(np.abs(rec[0][0]))) for rec in fp + gp])
    tol = CLIP_TOL * scale
    boxes = [np.array([rec[k] for rec in recs]).reshape(len(recs), dim) for recs in (fp, gp) for k in (1, 2)]
    lo_f, hi_f, lo_g, hi_g = boxes
    # near[i, j]: the boxes of f's simplex i and g's simplex j overlap
    near = np.all((lo_f[:, None] <= hi_g[None] + EPS) & (lo_g[None] <= hi_f[:, None] + EPS), axis=2)
    pieces = []
    # per simplex: the other function's simplices it meets in an interior,
    # and the volume they cover of it
    meets_f, meets_g = [[] for _ in fp], [[] for _ in gp]
    shared_f, shared_g = np.zeros(len(fp)), np.zeros(len(gp))
    # regions covered by both functions, cut by {f = g}
    for i, (cell1, _, _, aff_f, _) in enumerate(fp):
        for j in np.flatnonzero(near[i]):
            (_, A2, b2, _), _, _, aff_g, _ = gp[j]
            cell = cell1
            for a, c in zip(A2, b2):
                cell = convex.clip(*cell[:3], a, c, tol, T=cell[3])
                if cell is None:
                    break
            if cell is None:
                continue
            meets_f[i].append(j)
            meets_g[j].append(i)
            gd = aff_f[0] - aff_g[0]
            cd = aff_f[1] - aff_g[1]
            parts = [cell]
            if np.max(np.abs(cell[0] @ gd + cd)) > CUT_TOL:
                parts = [part for part, _ in _split_by_affine(cell, gd, cd, tol)]
            for part in parts:
                vol = _cell_volume(part[0])
                pieces.append((part[0], part[3], aff_f, aff_g, vol))
                shared_f[i] += vol
                shared_g[j] += vol
    # single-cover leftovers of each function
    for own, other, meets, shared in ((fp, gp, meets_f, shared_f), (gp, fp, meets_g, shared_g)):
        f_side = own is fp
        for i, (cell, _, _, aff, vol) in enumerate(own):
            if shared[i] >= (1.0 - FULL_COVER) * vol:
                continue
            parts = [cell]
            for j in meets[i]:
                if not parts:
                    break
                (_, A2, b2, _), _, _, _, _ = other[j]
                parts = _subtract(parts, A2, b2, tol)
            for p in parts:
                for part, _ in _split_by_affine(p, aff[0], aff[1], tol):
                    V, T = part[0], part[3]
                    vol = _cell_volume(V)
                    pieces.append((V, T, aff, None, vol) if f_side else (V, T, None, aff, vol))
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


def _cover(pieces):
    """The volume the cells cover, each cell both functions cover
    counted twice."""
    return sum(vol * (1 + (af is not None and ag is not None)) for _, _, af, ag, vol in pieces)


def _assemble(pieces, op, dim, supp):
    """Triangulate the winning cells into a partition.

    supp is vol supp f + vol supp g: the cells must cover it exactly,
    with each cell both functions cover counted twice."""
    covered = _cover(pieces)
    if abs(covered - supp) > COVER_TOL * supp:
        raise OverlayFailure(
            "cells cover volume %.17g, the two supports %.17g" % (covered, supp)
        )

    kept = []
    for V, T, af, ag, vol in pieces:
        win = _decide(op, af, ag, V.mean(axis=0))
        if win is not None:
            kept.append((V, T, win, vol))
    if not kept:
        return PLFunction.zero(dim)

    allv = np.vstack([V for V, _, _, _ in kept])
    scale = max(1.0, float(np.max(np.abs(allv))))
    table, mapping = convex.dedupe_points(allv, SNAP * scale)

    simplices, cells = [], []
    pos = 0
    for ci, (V, T, _, _) in enumerate(kept):
        idxs = mapping[pos : pos + len(V)]
        pos += len(V)
        for s in convex.pulling_triangulation(table, idxs, dim, T):
            simplices.append(s)
            cells.append(ci)

    S = np.array(simplices, dtype=int).reshape(-1, dim + 1)
    cells = np.array(cells, dtype=int)
    svols = np.abs(np.linalg.det(table[S[:, 1:]] - table[S[:, :1]])) / math.factorial(dim)
    # needles at or below the degenerate floor carry no volume at the
    # data's scale; check 3 below still sees each cell filled without them
    keep = svols > (EPS * scale) ** dim / math.factorial(dim)
    S, cells, svols = S[keep], cells[keep], svols[keep]
    filled = np.bincount(cells, weights=svols, minlength=len(kept))
    for ci, (_, _, _, vol) in enumerate(kept):
        if abs(filled[ci] - vol) > COVER_TOL * supp:
            raise OverlayFailure(
                "a cell of volume %.3g triangulates to volume %.3g" % (vol, filled[ci])
            )
    if not len(S):
        return PLFunction.zero(dim)

    order = np.lexsort(S.T[::-1])
    S, cells, svols = S[order], cells[order], svols[order]

    # each simplex's winning piece at each of its vertices
    grads = np.array([aff[0] for _, _, aff, _ in kept])[cells]
    offs = np.array([aff[1] for _, _, aff, _ in kept])[cells]
    vals = np.einsum("kjd,kd->kj", table[S], grads) + offs[:, None]
    flat_idx, flat_vals = S.ravel(), vals.ravel()
    hi = np.full(len(table), -np.inf)
    lo = np.full(len(table), np.inf)
    steep = np.zeros(len(table))
    np.maximum.at(hi, flat_idx, flat_vals)
    np.minimum.at(lo, flat_idx, flat_vals)
    np.maximum.at(steep, flat_idx, np.repeat(np.linalg.norm(grads, axis=1), dim + 1))
    vscale = max(1.0, float(np.max(np.abs(flat_vals))))
    spread = hi - lo
    bad = np.flatnonzero(spread > VALUE_AGREE * vscale + 20.0 * VERTEX_TOL * scale * steep)
    if len(bad):
        raise OverlayFailure("value disagreement %.3g at a shared vertex" % spread[bad[0]])
    # a vertex takes its value from the first simplex that has it
    values = np.zeros(len(table))
    used, first = np.unique(flat_idx, return_index=True)
    values[used] = flat_vals[first]
    values[np.abs(values) <= VALUE_SNAP] = 0.0

    live = np.any(values[S] != 0.0, axis=1)
    if not live.any():
        return PLFunction.zero(dim)
    used, local = np.unique(S[live], return_inverse=True)
    out_cx = SimplicialComplex(
        dim=dim,
        vertices=table[used],
        simplices=tuple(map(tuple, local.reshape(-1, dim + 1).tolist())),
        _volumes=svols[live],
    )
    return PLFunction(complex=out_cx, values=values[used])


@functools.lru_cache(maxsize=1)
def _refine(f: PLFunction, g: PLFunction):
    """The op-independent half of an overlay: (pieces, supp, pts, fe, ge),
    the cells of _pieces_pairwise, vol supp f + vol supp g, the sample
    points of the final check and f, g evaluated there.  PLFunction
    compares by identity, so the key is the pair of objects."""
    pieces = tuple(_pieces_pairwise(_prep(f), _prep(g), f.dim))
    lo = np.minimum(*(fn.bbox()[0] for fn in (f, g)))
    hi = np.maximum(*(fn.bbox()[1] for fn in (f, g)))
    rng = np.random.default_rng(424242)
    pts = rng.uniform(lo, hi, size=(128, f.dim))
    fe = f.evaluate_many(pts)
    ge = g.evaluate_many(pts)
    for arr in (pts, fe, ge):
        arr.setflags(write=False)
    return pieces, f.support_volume() + g.support_volume(), pts, fe, ge


def lattice_overlay(f: PLFunction, g: PLFunction, op: str) -> PLFunction:
    if f.dim != g.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (f.dim, g.dim))
    dim = f.dim
    if f.complex.is_empty() and g.complex.is_empty():
        return PLFunction.zero(dim)

    pieces, supp, pts, fe, ge = _refine(f, g)
    out = _assemble(pieces, op, dim, supp)

    want = np.maximum(fe, ge) if op == "join" else np.minimum(fe, ge)
    got = out.evaluate_many(pts)
    vscale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want)))
    if err > 1e-8 * vscale:
        raise OverlayFailure("overlay disagrees with pointwise %s by %.3g" % (op, err))
    return out
