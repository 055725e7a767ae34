"""Mesh overlay: pointwise max/min of two piecewise-affine functions.

The two meshes are cut against each other into convex cells on which
both functions are affine (or absent): simplex pairs are clipped
directly, cut by the plane where the two affine pieces cross, and the
regions only one function covers are carved out with difference chains.
A simplex's chain runs against the other function's whole support when
that support is convex (its rows are cached with the complex), and
against the other's simplices it meets one by one when it is not.

Cells are cut in stacks (convex.Cells), never one at a time: one
lockstep (convex.clip_rows) clips every near pair by the other simplex's
rows and runs every chain against a whole convex support, each cell cut
only by its own rows that cross it, in order, so it takes as many stacked
cuts as its most-crossed cell has rows; chains against the simplices met
run after it, and one stacked cut splits the cells where f = g or where
their one function crosses 0.  Every cut is one convex.split over the stack, and
nothing in the cutting depends on the dimension.  The refinement carries
its cells as arrays: vertices with their tight rows and incidence, each
cell's simplex of f and of g, and its volume (convex.cell_volumes: one
batched determinant for the cells that are simplices, the shoelace for
the others in 2-D, and above their pulling triangulation from the cut
incidence at tol 0).  What stays independent of that incidence is the
other side of each check: the cover balance compares the cells' volumes
with the inputs' own simplex determinants, and the fill check compares
each kept or merged cell's volume with its output simplices, which the
assembly triangulates anew on the snapped vertex table at the
degenerate floor.

Each cell keeps the winning affine piece, decided for join and meet at
once at each cell's centroid.  The cells one function wins are merged
into one cell where their union is convex, so an overlay of an overlay's
output does not compound its fragments; the meet of f with f v g gives
f's simplices back.  The test builds no hull: the rows of the group's
cells that all its vertices satisfy bound a region H that holds the
union, and equals it exactly when the union is convex; H and its volume
are read off the triangulation of the cell those rows make of the
group's vertices.  A kept cell that is a simplex already is one output
simplex; all the others, and the groups' cells, are triangulated from
their incidence in one stacked pass, so the result is a simplex
*partition* of its support: interiors are disjoint and the values
continuous, but a vertex of one simplex may lie inside a face of its
neighbour (a T-junction), and a merged cell, which keeps only its
extreme vertices, adds such T-junctions where its neighbours were cut.
Integrals, norms and evaluation need nothing more, and it is the one
contract that plfunction.PLFunction.validate checks on JSON input, so a
result reads back from its own JSON.

The assembly, assemble_cells, also builds the tents of
tent_decomposition: concave tents, one per simplex carrying positive
values, whose join is f.  A tent's convex cells are assembled into a
function by the same code as an overlay's, all tents of a decomposition
round, of every function decomposed together, in one batch.  A vertex
shared by several pieces takes its value from the least steep of them,
whose value a small error in the vertex's position moves least (a
tent's wedges are steep).  Simplices at or below the degenerate-measure
floor are dropped, so every output simplex is nondegenerate.  Each
result is checked, and a check it fails gives an OverlayFailure in its
place: by volume, the cells cover supp f and supp g exactly (cells both
functions cover counted twice, before any merging; once per pair, and a
pair that fails is not assembled), each kept or merged cell's simplices
fill it, and simplices sharing a vertex agree on its value
(assemble_cells, the fill check first); and the output agrees with the
pointwise max/min at sample points.

Pairs are overlaid in batches by overlays(pairs, ops), which keeps no
state.  A batch's simplices are laid out pair by pair in one _Mesh, and
every stage above runs once over all of them: near pairs are taken only
between the simplices of one pair, the cuts of all pairs share each
stacked convex.split, one assemble_cells builds every op of every pair
(op i's pair k as its batch i B + k), and one stacked pass
(plfunction.evaluate_each) locates the sample points of every f, g and
result.  The cut's near simplex pairs, the vertex snap and row dedupe
and the sample points' simplices are each one convex.box_pairs search,
each pair its own group: all pairs of small pairs, a grid for refined
meshes.  What depends on a pair stays the pair's own: its tolerance
scale (split takes one tolerance per cell), its convex supports, its
cover balance, its vertex snap and row dedupe (convex.dedupe_points
keeps batches apart), its degenerate floor and its fill and value
checks, and its 128 sample points, the same draws from
default_rng(424242) spread over the pair's own box.  So each (op, pair)
result or failure is byte-identical alone and in any batch, in any
order, next to any failing pair.

Inclusion-exclusion meets the subsets of one size of all its fans in one
overlays call, the identity suites join and meet all their pairs in one,
and tent_decomposition builds a round's tents of all its functions in one
assemble_cells.  The pair API (lattice_overlay, and so plfunction.join
and meet) builds join and meet of its pair together and keeps them for
the last pair asked (_pair), so a meet of f and g right after their
join, or the other way round, cuts nothing.  A PLFunction's arrays are
write-protected, so a kept result is never stale.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from typing import NamedTuple

import numpy as np

from . import convex, stats
from .convex import COVER_TOL, EPS, SNAP
from .errors import ConstructionFailure, NonFinite, NotNonnegative, OverlayFailure, PLValError
from .plfunction import PLFunction, SimplicialComplex, evaluate_each

# Vertex values smaller than this are snapped to exact zero when cells
# are assembled, keeping the boundary-zero invariant sharp.
VALUE_SNAP = 1e-10
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
# A simplex whose intersections with the other mesh fill all but this
# fraction of its volume leaves no region that only its function covers.
FULL_COVER = 1e-12
# The ops, and the pointwise value each one's result must take.
_OPS = {"join": np.maximum, "meet": np.minimum}


class _Mesh(NamedTuple):
    """The simplices of a batch of pairs ready to cut, pair by pair, each
    pair's f then its g: a stack of cells (row j opposite vertex j),
    their bounding boxes lo/hi, affine pieces grad/off and volumes; pair
    and of_f give each simplex's pair and whether it is f's.  support
    (B, 2, R, d) and (B, 2, R) hold each pair's f's and g's support rows,
    padded with 0.x <= 1, and rows (B, 2) how many there are, 0 where
    that support is not convex."""

    cells: convex.Cells
    lo: np.ndarray
    hi: np.ndarray
    grad: np.ndarray
    off: np.ndarray
    vol: np.ndarray
    pair: np.ndarray
    of_f: np.ndarray
    support: tuple
    rows: np.ndarray


def _prep(pairs) -> _Mesh:
    """The simplices of the pairs (f, g) as one _Mesh."""
    parts, supports = [], []
    for p, (f, g) in enumerate(pairs):
        for fn, is_f in ((f, True), (g, False)):
            cx = fn.complex
            lo, hi, _, _ = cx.locator()
            A, b = cx.simplex_rows()
            m = len(cx)
            parts.append((cx.simplex_arrays(), A, b, lo, hi, *fn.affines(), cx.simplex_volumes(),
                          np.full(m, p), np.full(m, is_f)))
            supports.append(cx.convex_support)
    V, A, b, lo, hi, grad, off, vol, pair, of_f = (np.concatenate(x) for x in zip(*parts))
    B, d = len(pairs), V.shape[2]
    rows = np.array([0 if sup is None else len(sup[1]) for sup in supports], dtype=int)
    R = int(rows.max(initial=0))
    SA, Sb = np.zeros((2 * B, R, d)), np.ones((2 * B, R))
    for k, sup in enumerate(supports):
        if sup is not None:
            SA[k, : rows[k]], Sb[k, : rows[k]] = sup
    return _Mesh(convex.Cells.of_simplices(V, A, b), lo, hi, grad, off, vol, pair, of_f,
                 (SA.reshape(B, 2, R, d), Sb.reshape(B, 2, R)), rows.reshape(B, 2))


class _Pieces(NamedTuple):
    """The cells of each pair's two meshes cut against each other, by
    pair: each cell's simplex of f and of g, as indices into the _Mesh
    (-1 where that function is absent), its volume and its pair."""

    cells: convex.Cells
    f: np.ndarray
    g: np.ndarray
    vol: np.ndarray
    pair: np.ndarray


def _zeros(functions, dim):
    """functions with each None replaced by the zero function."""
    return [PLFunction.zero(dim) if fn is None else fn for fn in functions]


def _batch_max(values, batch, B):
    """max(1, largest of values in batch b) for each b in range(B): a
    batch's data scale, floored at 1 as each pair's is alone."""
    out = np.ones(B)
    np.maximum.at(out, batch, values)
    return out


# ---------------------------------------------------------------------------
# Cutting
# ---------------------------------------------------------------------------


def _cut_by_affine(cells, grad, off, tol, vol=None):
    """Split every cell by the sign of its own affine function grad.x +
    off, at its own tolerance tol, as (cells, src, vol): a cell on which
    the function keeps its sign to within CUT_TOL stays whole, any other
    gives its negative part, then its positive part.  vol holds each
    input cell's volume, NaN where it is not measured yet (every cell if
    vol is None); a whole cell keeps its volume, and the parts and the
    cells not measured are measured in one convex.cell_volumes call."""
    src = np.arange(len(cells))
    vol = np.full(len(cells), np.nan) if vol is None else vol
    if not len(cells):
        return cells, src, vol
    vals = convex.dot_rows(cells.V, grad) + off[:, None]
    vm = cells.vm
    cut = (np.where(vm, vals, np.inf).min(axis=1) < -CUT_TOL) & (np.where(vm, vals, -np.inf).max(axis=1) > CUT_TOL)
    if cut.any():
        # only the crossed cells are split; the others go back in whole,
        # each as the part below
        ci, whole = np.flatnonzero(cut), np.flatnonzero(~cut)
        (lo, lo_src), (hi, hi_src) = convex.split(cells.take(ci), grad[ci], -off[ci], tol[ci])
        src = np.concatenate([whole, ci[lo_src], ci[hi_src]])
        order = np.lexsort((np.repeat([0, 1], [len(whole) + len(lo_src), len(hi_src)]), src))
        cells, src = convex.Cells.concat([cells.take(whole), lo, hi]).take(order), src[order]
        vol = np.concatenate([vol[whole], np.full(len(lo_src) + len(hi_src), np.nan)])[order]
    new = np.flatnonzero(np.isnan(vol))
    vol = vol.copy()
    vol[new] = convex.cell_volumes(cells.take(new))
    return cells, src, vol


def _regions(mesh: _Mesh, owner, met, whole):
    """(A, b): for each cell of a simplex owner, the rows of the region
    it is cut by: the other function's whole support (of the owner's
    pair) where whole, else its simplex met; padded with 0.x <= 1."""
    d = mesh.cells.V.shape[2]
    # f's simplices subtract g's support (1), g's simplices f's (0)
    pair, other = mesh.pair[owner], mesh.of_f[owner].astype(int)
    R = int(np.where(whole, mesh.rows[pair, other], d + 1).max(initial=d + 1))
    A = np.zeros((len(owner), R, d))
    b = np.ones((len(owner), R))
    i = np.flatnonzero(~whole)
    A[i, : d + 1] = mesh.cells.A[met[i]]
    b[i, : d + 1] = mesh.cells.b[met[i]]
    i = np.flatnonzero(whole)
    SA, Sb = mesh.support
    r = min(R, SA.shape[2])
    A[i, :r] = SA[pair[i], other[i], :r]
    b[i, :r] = Sb[pair[i], other[i], :r]
    return A, b


def _leftovers(mesh: _Mesh, mi, mj, chained, whole, covered, tol):
    """The cells of every simplex outside the other function's simplices
    it meets, as (cells, owner), by owner.  (mi, mj) are the pairs of f's
    and g's simplices that meet in an interior, in order; chained, as
    (cells, owner), holds the chains of each simplex i with whole[i]
    against the other's convex support; covered[i] is True where the
    simplices simplex i meets cover it fully, and tol[i] is i's cut
    tolerance.  A simplex that meets none is one cell, whole; a covered
    one gives none; any other runs one chain per simplex it meets, in
    order, each round in lockstep (convex.clip_rows)."""
    own, other = np.concatenate([mi, mj]), np.concatenate([mj, mi])
    met = other[np.argsort(own, kind="stable")]
    count = np.bincount(own, minlength=len(mesh.vol))
    start = np.cumsum(count) - count
    cells, owner = chained
    done = [(cells.take(count[owner] > 0), owner[count[owner] > 0])]
    owner = np.flatnonzero((~whole | (count == 0)) & ~covered)
    parts = mesh.cells.take(owner)
    for t in range(int(count[owner].max(initial=0))):
        more = count[owner] > t
        if not more.all():
            done.append((parts.take(np.flatnonzero(~more)), owner[~more]))
            parts, owner = parts.take(np.flatnonzero(more)), owner[more]
        A, b = _regions(mesh, owner, met[start[owner] + t], whole[owner])
        parts, src = convex.clip_rows(parts, A, b, tol[owner], np.zeros(len(owner), dtype=bool))
        owner = owner[src]
    done.append((parts, owner))
    owner = np.concatenate([o for _, o in done])
    order = np.argsort(owner, kind="stable")
    return convex.Cells.concat([c for c, _ in done]).take(order), owner[order]


def _pieces_pairwise(mesh: _Mesh) -> _Pieces:
    """Cells covering supp f and supp g of every pair, the cells both
    cover once for each, by pair; mesh comes from _prep.  A pair's cells
    are cut at its own scale, and only its own simplices meet.

    One convex.clip_rows clips every near pair, f's simplex by g's rows,
    and runs the chains against whole convex supports, then _leftovers the
    others.  A simplex whose other support is not convex would run one
    chain per simplex it meets, so the clip cells of those simplices are
    measured first, and the simplices they cover fully (as every simplex
    of f is in f ^ (f v g)) run none.  One _cut_by_affine cuts all the cells and
    measures those not measured yet, and a simplex keeps its single-cover
    cells where those it shares fill less than its volume."""
    stats.calls["cuts"] += 1
    t0 = time.perf_counter()
    m, B = len(mesh.vol), len(mesh.rows)
    scale = _batch_max(np.abs(mesh.cells.V).max(axis=(1, 2), initial=0.0), mesh.pair, B)
    tol = CLIP_TOL * scale[mesh.pair]
    # near pairs (i, j): f's simplex i and g's simplex j of one pair whose
    # boxes, each widened by EPS at its high end, meet; by i, then j
    fi, gi = np.flatnonzero(mesh.of_f), np.flatnonzero(~mesh.of_f)
    hi = mesh.hi + EPS
    pi, pj = convex.box_pairs(mesh.lo[fi], hi[fi], mesh.pair[fi], (mesh.lo[gi], hi[gi], mesh.pair[gi]))
    pi, pj = fi[pi], gi[pj]
    # the clips by the simplex met, then the chains against whole supports, which read no simplex met
    whole = mesh.rows[mesh.pair, mesh.of_f.astype(int)] > 0
    wi = np.flatnonzero(whole & (np.bincount(np.concatenate([pi, pj]), minlength=m) > 0))
    own, clip = np.concatenate([pi, wi]), np.arange(len(pi) + len(wi)) < len(pi)
    A, b = _regions(mesh, own, np.concatenate([pj, wi]), ~clip)
    cells, src = convex.clip_rows(mesh.cells.take(own), A, b, tol[own], clip)
    n = int(np.searchsorted(src, len(pi)))
    mi, mj = pi[src[:n]], pj[src[:n]]  # the pairs that meet in an interior
    # the simplices that would chain against each simplex they meet, and
    # the clip cells' volumes where such a simplex is one of the two
    chaining = ~whole & (np.bincount(np.concatenate([mi, mj]), minlength=m) > 0)
    vol = np.full(n, np.nan)
    ti = np.flatnonzero(chaining[mi] | chaining[mj])
    vol[ti] = convex.cell_volumes(cells.take(ti))
    shared = np.bincount(mi[ti], weights=vol[ti], minlength=m) + np.bincount(mj[ti], weights=vol[ti], minlength=m)
    covered = chaining & (shared >= (1.0 - FULL_COVER) * mesh.vol)
    parts, owner = _leftovers(mesh, mi, mj, (cells.slice(n, len(cells)), own[src[n:]]), whole, covered, tol)
    cells, src, vol = _cut_by_affine(convex.Cells.concat([cells.slice(0, n), parts]),
                                     np.concatenate([mesh.grad[mi] - mesh.grad[mj], mesh.grad[owner]]),
                                     np.concatenate([mesh.off[mi] - mesh.off[mj], mesh.off[owner]]),
                                     tol[np.concatenate([mi, owner])],
                                     np.concatenate([vol, np.full(len(parts), np.nan)]))
    # each cell's simplex of f and of g (-1 where absent), the first n both
    f = np.concatenate([mi, np.where(mesh.of_f[owner], owner, -1)])[src]
    g = np.concatenate([mj, np.where(mesh.of_f[owner], -1, owner)])[src]
    n, one = int(np.searchsorted(src, len(mi))), np.maximum(f, g)
    shared = np.bincount(f[:n], weights=vol[:n], minlength=m) + np.bincount(g[:n], weights=vol[:n], minlength=m)
    # the cells both cover and the others of the simplices covered in part,
    # each pair's together in the order it gets alone
    at = np.concatenate([np.arange(n), n + np.flatnonzero(shared[one[n:]] < (1.0 - FULL_COVER) * mesh.vol[one[n:]])])
    pair = mesh.pair[one]
    at = at[np.argsort(pair[at], kind="stable")]
    stats.seconds["cut"] += time.perf_counter() - t0
    return _Pieces(cells.take(at), f[at], g[at], vol[at], pair[at])


def _bounds(batch, B):
    """Where each of the batches 0..B-1 starts and ends in the sorted
    batch ids: batch b is [ends[b], ends[b+1])."""
    return np.searchsorted(batch, np.arange(B + 1))


def _cover(pieces: _Pieces, B: int) -> np.ndarray:
    """The volume each of the B pairs' cells cover, each cell both
    functions cover counted twice."""
    w = pieces.vol * (1 + ((pieces.f >= 0) & (pieces.g >= 0)))
    ends = _bounds(pieces.pair, B)
    return np.array([np.sum(w[a:b]) for a, b in zip(ends[:-1], ends[1:])])


def _cover_failures(pieces: _Pieces, supp: np.ndarray) -> dict:
    """{k: OverlayFailure} for each pair k whose cells do not cover
    supp[k] = vol supp f + vol supp g exactly, each cell both functions
    cover counted twice."""
    covered = _cover(pieces, len(supp))
    gap, bound = np.abs(covered - supp), COVER_TOL * supp
    stats.margin("cover", gap / bound)
    bad = np.flatnonzero(gap > bound)
    return {int(k): OverlayFailure("cells cover volume %.17g, the two supports %.17g" % (covered[k], supp[k]))
            for k in bad}


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _winners(pieces: _Pieces, mesh: _Mesh):
    """{op: winner}: for join and meet, the simplex of the _Mesh whose
    affine piece each cell keeps, or -1 where the cell is dropped.  f and
    g are compared once, at each cell's centroid, an absent function
    counting as 0."""
    cells = pieces.cells
    centroid = np.where(cells.vm[:, :, None], cells.V, 0.0).sum(axis=1) / cells.counts()[:, None]
    fa, ga = np.zeros(len(cells)), np.zeros(len(cells))
    for val, idx in ((fa, pieces.f), (ga, pieces.g)):
        i = np.flatnonzero(idx >= 0)
        val[i] = convex.dot_rows(centroid[i, None, :], mesh.grad[idx[i]])[:, 0] + mesh.off[idx[i]]
    lead = np.sign(fa - ga)
    return {"join": np.where(lead >= 0, pieces.f, pieces.g), "meet": np.where(lead <= 0, pieces.f, pieces.g)}


def _pad(group, G, values):
    """values (n, ...) of items in groups group (n,) as a padded array
    (G, w, ...), each group's items in order, and its mask (G, w)."""
    order = np.argsort(group, kind="stable")
    group, values = group[order], values[order]
    count = np.bincount(group, minlength=G)
    pos = np.arange(len(group)) - (np.cumsum(count) - count)[group]
    w = int(count.max(initial=0))
    out = np.zeros((G, w) + values.shape[1:], dtype=values.dtype)
    out[group, pos] = values
    mask = np.zeros((G, w), dtype=bool)
    mask[group, pos] = True
    return out, mask


def _stack(*parts):
    """The cell stacks (idx, mask, incidence) one after another, padded
    to the widest."""
    n = sum(len(m) for _, m, _ in parts)
    k = max(m.shape[1] for _, m, _ in parts)
    r = max(T.shape[2] for _, _, T in parts)
    idx, mask, T = np.zeros((n, k), dtype=int), np.zeros((n, k), dtype=bool), np.zeros((n, k, r), dtype=bool)
    at = 0
    for pi, pm, pT in parts:
        end = at + len(pm)
        idx[at:end, : pm.shape[1]] = pi
        mask[at:end, : pm.shape[1]] = pm
        T[at:end, : pm.shape[1], : pT.shape[2]] = pT
        at = end
    return idx, mask, T


class _Groups(NamedTuple):
    """The cells with one piece, G groups of two or more, that merge
    where their union is convex.  member[c] is kept cell c's group (-1
    when alone); each group's rep is the member whose piece it takes and
    total its members' volume; cell (idx, mask, incidence) is the cell a
    group becomes if it merges, on the vertex table."""

    member: np.ndarray
    rep: np.ndarray
    total: np.ndarray
    cell: tuple


def _groups(cells, rows, idx, vol, table, scale, batch) -> _Groups:
    """The merge groups of the kept cells and the cell each would become;
    cell k is in batch[k], whose data scale is scale[batch[k]], and a
    group never holds cells of two batches.

    rows (K, d+1) holds each cell's winning affine function as [grad *
    scale, off], and idx (K, k) the rows in table of its vertices.  Cells
    are grouped by rows within VALUE_SNAP times the batch's largest entry,
    so a piece and a recomputed copy of it (f's against f v g's, say) fall
    in one group whichever function came first; a group takes its
    lexicographically first function.

    A group's rows are its members' rows that all its vertices P satisfy
    within CLIP_TOL (times scale), so their intersection H contains
    conv P; every facet of a convex union U of the members is such a row,
    so H = U exactly when U is convex.  The group's cell is P's points
    maximal on those rows, with their facets (incidence_faces), so a
    neighbour's vertex may sit on a facet of a merged cell as a
    T-junction; _merges decides whether it is H."""
    vscale = _batch_max(np.abs(rows).max(axis=1), batch, len(scale))
    _, group = convex.dedupe_points(rows, VALUE_SNAP * vscale, batch)
    count = np.bincount(group)
    G = int(np.count_nonzero(count > 1))
    member = np.where(count[group] > 1, (np.cumsum(count > 1) - 1)[group], -1)
    ci = np.flatnonzero(member >= 0)
    cg = member[ci]
    total = np.bincount(cg, weights=vol[ci], minlength=G)
    lex = ci[np.lexsort(rows[ci].T[::-1])]
    rep = lex[np.unique(member[lex], return_index=True)[1]]
    tol = CLIP_TOL * scale[batch[rep]]

    # each group's vertices, in table order
    vm = cells.vm[ci]
    n = len(table)
    pg, pi = np.divmod(np.unique(np.repeat(cg, vm.sum(axis=1)) * n + idx[ci][vm]), n)
    P, pm = _pad(pg, G, pi)
    # its members' rows that every vertex satisfies, and the vertices on
    # each; a facet is a row whose set is maximal, one row of equal ones
    # standing for them
    rm = cells.rm[ci]
    rg = np.repeat(cg, rm.sum(axis=1))
    a, c = cells.A[ci][rm], cells.b[ci][rm]
    D = convex.dot_rows(table[P][rg], a) - c[:, None]
    ok = np.where(pm[rg], D <= tol[rg, None], True).all(axis=1)
    D, am = _pad(rg[ok], G, D[ok])
    T = (np.abs(D) <= tol[:, None, None]).transpose(0, 2, 1) & pm[:, :, None] & am[:, None, :]
    vert, facet = convex.incidence_faces(T, pm, am)
    return _Groups(member, rep, total, (P, vert, T & vert[:, :, None] & facet[:, None, :]))


def _merges(groups: _Groups, S, g, vol):
    """Which groups merge, from the triangulation of their cells: S
    (m, d+1) with simplex i in group g[i] and of volume vol[i].

    A group merges when H has its members' total volume within
    COVER_TOL, and H is read off the triangulation.  It fills the hull C
    of the cell's vertices once the group's facets hold its boundary:
    every (d-1)-face of a simplex is shared with another simplex or lies
    on a facet.  Then every facet of C is a row of the group, so H lies
    in C, and C in H: H = C, and vol H is the triangulation's.  A convex
    union passes, as its facets are rows; a group that fails is not
    convex, and does not merge."""
    P, vert, T = groups.cell
    G, d = len(P), S.shape[1] - 1
    filled = np.bincount(g, weights=vol, minlength=G)
    # each vertex's place in its group's cell: its key group * n + index
    # among the vertices' keys, which come sorted
    n = int(P.max(initial=0)) + 1
    gi, pi = np.nonzero(vert)
    key = gi * n + P[gi, pi]
    # every (d-1)-face of every simplex with its group, sorted; a face met
    # once lies on the triangulation's boundary
    drop = np.array([[c for c in range(d + 1) if c != j] for j in range(d + 1)], dtype=int)
    faces = np.column_stack([np.repeat(g, d + 1), np.sort(S[:, drop], axis=2).reshape(-1, d)])
    faces = faces[np.lexsort(faces.T[::-1])]
    twin = (faces[1:] == faces[:-1]).all(axis=1)
    lone = np.ones(len(faces), dtype=bool)
    lone[1:] &= ~twin
    lone[:-1] &= ~twin
    single = faces[lone]
    fg = single[:, :1]
    at = pi[np.searchsorted(key, fg * n + single[:, 1:])]
    on_facet = T[fg, at].all(axis=1).any(axis=1)
    closed = np.bincount(single[~on_facet, 0], minlength=G) == 0
    merges = closed & (np.abs(filled - groups.total) <= COVER_TOL * groups.total)
    stats.calls.update(merge_groups=len(merges), merged=int(merges.sum()))
    return merges


def _fail(out, batch, key, gap, bound, message) -> None:
    """Check key, gap against bound, its largest gap / bound to stats.margin:
    out[b] = OverlayFailure(message(i)) for the first i with gap[i] >
    bound[i] and batch[i] = b, for each batch b not failed already."""
    stats.margin(key, gap / bound)
    bad = np.flatnonzero(gap > bound)
    if not len(bad):
        return
    for b, i in zip(*np.unique(batch[bad], return_index=True)):
        if out[b] is None:
            out[b] = OverlayFailure(message(bad[i]))


def assemble_cells(cells, vol, grad, off, dim, supp, batch) -> list:
    """[the function of batch b, or its OverlayFailure, for b in
    range(len(supp))]: the function of batch b equals grad[k].x + off[k]
    on each cell k of cells with batch[k] = b, a convex.Cells partition
    of its support with volumes vol; batch is non-decreasing, and batch
    b's fill check is relative to the volume supp[b].  Each batch is
    assembled, and fails, as it would alone, in one pass over all of
    them: a batch whose cells its simplices do not fill, or whose
    simplices disagree at a shared vertex, gets the first such failure in
    place of its function.

    Vertices within SNAP (times the batch's data scale) are one; cells
    with one piece are merged where their union is convex (_groups), and
    the others are triangulated from their incidence.  A vertex takes the
    value of the least steep piece that has it: a position error delta
    gives a value error |grad| delta.  Simplices that are 0 at every
    vertex are left out."""
    stats.calls["assemblies"] += 1
    B = len(supp)
    out = [None] * B
    if not len(cells):
        return _zeros(out, dim)
    t0 = time.perf_counter()
    vm = cells.vm
    allv = cells.V[vm]
    vb = np.repeat(batch, vm.sum(axis=1))
    scale = _batch_max(np.abs(allv).max(axis=1), vb, B)
    table, mapping = convex.dedupe_points(allv, SNAP * scale, vb)
    tb = np.empty(len(table), dtype=int)
    tb[mapping] = vb  # each table point's batch: they come by batch
    idx = np.zeros(vm.shape, dtype=int)
    idx[vm] = mapping
    groups = _groups(cells, np.column_stack([grad * scale[batch, None], off]), idx, vol, table, scale, batch)

    # one triangulation of the cells that are not simplices already (in
    # 1-D every cell, as an edge is tested by its length) and of what each
    # group becomes if it merges
    K, G = len(cells), len(groups.total)
    simplex = cells.counts() == dim + 1 if dim > 1 else np.zeros(K, dtype=bool)
    oi = np.flatnonzero(~simplex)
    S, tri, svols = convex.pulling_triangulation(table, *_stack((idx[oi], vm[oi], cells.T[oi]), groups.cell), dim)
    c = tri >= len(oi)
    merged = _merges(groups, S[c], tri[c] - len(oi), svols[c])
    # the cells that go to the output: kept cells 0..K-1 not merged (a
    # cell alone has group -1, which reads the appended False), then the
    # merged groups
    out_cell = np.concatenate([~np.append(merged, False)[groups.member], merged])
    owner = np.concatenate([oi, K + np.arange(G)])[tri]
    keep = out_cell[owner]
    si = np.flatnonzero(simplex & out_cell[:K])
    S_si, ok, vol_si = convex.simplex_cells(table, idx[si][vm[si]].reshape(-1, dim + 1))
    S = np.concatenate([S_si[ok], S[keep]])
    cells_of = np.concatenate([si[ok], owner[keep]])
    svols = np.concatenate([vol_si[ok], svols[keep]])
    # each cell's volume, piece and batch, the merged groups last; a
    # merged group's members are filled through it
    cell_vol = np.where(out_cell, np.concatenate([vol, groups.total]), 0.0)
    piece = np.concatenate([np.arange(K), groups.rep])
    cell_batch = batch[piece]

    # needles at or below the degenerate floor carry no volume at the
    # data's scale; the fill check below still sees each cell filled
    # without them
    floor = convex.simplex_floor(scale, dim, EPS)
    keep = svols > floor[cell_batch[cells_of]]
    S, cells_of, svols = S[keep], cells_of[keep], svols[keep]
    filled = np.bincount(cells_of, weights=svols, minlength=len(cell_vol))
    _fail(out, cell_batch, "fill", np.abs(filled - cell_vol), COVER_TOL * supp[cell_batch],
          lambda c: "a cell of volume %.3g triangulates to volume %.3g" % (cell_vol[c], filled[c]))

    order = np.lexsort(S.T[::-1])
    S, cells_of, svols = S[order], cells_of[order], svols[order]

    # each simplex's piece at each of its vertices
    grads = grad[piece][cells_of]
    offs = off[piece][cells_of]
    vals = np.einsum("kjd,kd->kj", table[S], grads) + offs[:, None]
    flat_idx, flat_vals = S.ravel(), vals.ravel()
    flat_steep = np.repeat(np.linalg.norm(grads, axis=1), dim + 1)
    hi = np.full(len(table), -np.inf)
    lo = np.full(len(table), np.inf)
    steep = np.zeros(len(table))
    np.maximum.at(hi, flat_idx, flat_vals)
    np.minimum.at(lo, flat_idx, flat_vals)
    np.maximum.at(steep, flat_idx, flat_steep)
    vscale = _batch_max(np.abs(flat_vals), tb[flat_idx], B)
    spread = hi - lo
    _fail(out, tb, "spread", spread, VALUE_AGREE * vscale[tb] + 20.0 * VERTEX_TOL * scale[tb] * steep,
          lambda v: "value disagreement %.3g at a shared vertex" % spread[v])
    # the least steep piece at each vertex, the first simplex among equals
    by = np.lexsort((flat_steep, flat_idx))
    used, first = np.unique(flat_idx[by], return_index=True)
    values = np.zeros(len(table))
    values[used] = flat_vals[by[first]]
    values[np.abs(values) <= VALUE_SNAP] = 0.0

    live = np.any(values[S] != 0.0, axis=1)
    S, svols = S[live], svols[live]
    # each batch's simplices and vertices are a run of the sorted rows
    used, local = np.unique(S, return_inverse=True)
    local = local.reshape(-1, dim + 1)
    vends, sends = _bounds(tb[used], B), _bounds(tb[S[:, 0]], B)
    for k in np.flatnonzero((sends[1:] > sends[:-1]) & np.array([h is None for h in out])):
        v = used[vends[k] : vends[k + 1]]
        s = slice(sends[k], sends[k + 1])
        out_cx = SimplicialComplex(dim=dim, vertices=table[v], simplices=local[s] - vends[k], _volumes=svols[s])
        out[k] = PLFunction(complex=out_cx, values=values[v])
    stats.seconds["assemble"] += time.perf_counter() - t0
    return _zeros(out, dim)


# ---------------------------------------------------------------------------
# Tent decomposition
# ---------------------------------------------------------------------------


def _build_tents(functions, simplices, M) -> list:
    """[the concave tents over the simplices simplices[i] of functions[i],
    or the first one's OverlayFailure if one fails, for each i]: tent k
    of function i equals it on simplex simplices[i][k] and slopes to 0 at
    rate M[i][k] outside it.

    A tent is min(A, A + M b_0, ..., A + M b_n) clipped at 0, where A is
    f's affine extension and b_j the barycentric coordinates; a minimum of
    affine functions is concave on the region where it is positive.  The
    rows of every tent of a function are built in array passes, the n+2
    cells of every tent of every function are clipped from their boxes in
    one convex.clip_rows call and assembled by one batched assemble_cells,
    tent by tent as each would be alone, so each function gets the tents,
    or the failure, it gets alone.
    """
    n = functions[0].dim
    box_A = np.vstack([np.eye(n), -np.eye(n)])
    others = np.array([[l for l in range(n + 1) if l != j] for j in range(n + 1)])  # wedge j's l != j
    boxes, tols, rows, pieces, owner = [], [], [], [], []
    for i, (f, chosen, rates) in enumerate(zip(functions, simplices, M)):
        grads, offs = f.affines()
        _, _, Ms, v0s = f.complex.locator()
        # cells: the central simplex (all b_j >= 0), where the tent is A,
        # and one wedge per j where b_j is the most negative coordinate,
        # where it is A + M b_j.  Each is cut at once from an inflated box
        # around supp f (a too-small M can otherwise leave a recession
        # direction; the spill is then caught and M doubled) together with
        # its own piece >= 0, which there implies every other piece of the
        # support: A + M b_j <= A and <= A + M b_l on wedge j, A <= A + M
        # b_l on the simplex.
        lo, hi = f.bbox()
        pad = 0.5 * float(np.max(hi - lo)) + 1.0
        corners = np.array(list(itertools.product(*zip(lo - pad, hi + pad))))
        box_b = np.concatenate([hi + pad, -(lo - pad)])
        tols.append(EPS * max(1.0, float(np.max(np.abs(box_b)))))
        boxes.append((corners, box_A, box_b, convex.tight_rows(corners, box_A, box_b, tols[-1])))
        # rows [a, r] of a.x <= r of every chosen simplex: P[j] is b_j <= 0
        # (b_j = row_j . (x - v0), j = 1..n, b_0 = 1 - their sum), and -Q[k]
        # piece k >= 0, Q[k] = [g, -c] of A = g.x + c, then of A + M b_j
        B = np.concatenate([-Ms[chosen].sum(axis=1)[:, None], Ms[chosen]], axis=1)
        P = np.concatenate([B, np.matmul(B, v0s[chosen][..., None]) - np.eye(n + 1)[:, :1]], axis=2)
        Q = np.concatenate([grads[chosen], -offs[chosen][:, None]], axis=1)[:, None]
        Q = np.concatenate([Q, Q + np.asarray(rates, dtype=float)[:, None, None] * P], axis=1)
        # the simplex's rows b_j >= 0, wedge j's b_j <= 0 and b_j <= b_l
        wedges = np.concatenate([P[:, :, None], P[:, :, None] - P[:, others]], axis=2)
        rows.append(np.concatenate([np.concatenate([-P[:, None], wedges], axis=1), -Q[:, :, None]], axis=2))
        pieces.append(Q.reshape(-1, n + 1))
        owner.append(np.full(len(pieces[-1]), i))
    owner = np.concatenate(owner)  # each cell's function
    H, Q = np.concatenate(rows).reshape(-1, n + 2, n + 1), np.concatenate(pieces)
    cells, src = convex.clip_rows(convex.Cells.of(boxes).take(owner), H[..., :n], H[..., n], np.array(tols)[owner])
    cells = cells.compact()
    grad, off = Q[:, :n], -Q[:, n]
    tent = src // (n + 2)
    vol = convex.cell_volumes(cells)
    count = len(Q) // (n + 2)
    ends = _bounds(tent, count)
    supp = np.array([float(vol[a:b].sum()) for a, b in zip(ends[:-1], ends[1:])])
    tents = assemble_cells(cells, vol, grad[src], off[src], n, supp, tent)
    out, at = [], 0
    for chosen in simplices:
        got, at = tents[at : at + len(chosen)], at + len(chosen)
        failed = [t for t in got if isinstance(t, OverlayFailure)]
        # a piece of slope M placed within tol of its zero can dip below 0
        out.append(failed[0] if failed else
                   [PLFunction(complex=t.complex, values=np.maximum(t.values, 0.0)) for t in got])
    return out


def tent_decomposition(functions, delta: float = 1e-2) -> list:
    """[the tents of f, or the PLValError its decomposition raises, for f
    in functions]: concave tents f_1..f_m, one per simplex carrying
    positive values, whose join reproduces f.  A function with a negative
    value gets NotNonnegative.  The ring width starts at roughly delta
    times the simplex size and halves until the sampled join matches f,
    at most 40 times (else ConstructionFailure); a tent that fails a check
    gives its OverlayFailure.

    The functions run in lockstep: each round builds the tents of every
    function not done yet at once (_build_tents, one clip_rows and one
    assemble_cells) and checks them in one evaluate_each per check, so
    each function gets the tents, or the error, it gets alone.  delta must
    be finite (else NonFinite) and positive (else ValueError), and the
    functions of one dimension (else ValueError)."""
    if not math.isfinite(delta):
        raise NonFinite("tent decomposition delta must be finite, got %r" % delta)
    if delta <= 0:
        raise ValueError("tent decomposition delta must be positive, got %r" % delta)
    functions = list(functions)
    for fn in functions:
        if fn.dim != functions[0].dim:
            raise ValueError("dimension mismatch: %d vs %d" % (functions[0].dim, fn.dim))
    out, todo, active, peak = [None] * len(functions), [], {}, {}
    for k, f in enumerate(functions):
        if np.any(f.values < -10 * EPS):
            out[k] = NotNonnegative("tent decomposition requires f >= 0")
            continue
        peak[k] = f.simplex_values().max(axis=1)
        active[k] = np.flatnonzero(peak[k] > EPS)
        if len(active[k]) > 1:
            todo.append(k)
        else:
            # one positive simplex: every positive vertex is exclusive to it
            # (a shared one would activate its other simplex), so f is its
            # own single tent, affine on the simplex, hence concave on its
            # support
            out[k] = [f] if len(active[k]) else []
    if not todo:
        return out
    n = functions[0].dim
    box = {k: functions[k].bbox() for k in todo}
    samples = {k: np.random.default_rng(1234).uniform(*box[k], size=(1024, n)) for k in todo}
    f_ref = dict(zip(todo, _each([functions[k] for k in todo], [samples[k] for k in todo])))
    vscale = {k: max(1.0, float(np.max(np.abs(functions[k].values)))) for k in todo}
    d = dict.fromkeys(todo, delta)
    for _ in range(40):
        built = _build_tents([functions[k] for k in todo], [active[k] for k in todo],
                             [peak[k][active[k]] / d[k] for k in todo])
        tents = {}
        for k, got in zip(todo, built):
            if isinstance(got, OverlayFailure):
                out[k] = got
                continue
            # a tent spills when it reaches past supp f's box or above f at
            # one of its vertices
            lo, hi = box[k]
            tlo, thi = (np.array(x) for x in zip(*(t.bbox() for t in got)))
            if not (np.any(tlo < lo - 1e-7) or np.any(thi > hi + 1e-7)):
                tents[k] = got
        keys = list(tents)
        verts = [np.concatenate([t.complex.vertices for t in tents[k]]) for k in keys]
        for k, below in zip(keys, _each([functions[k] for k in keys], verts)):
            if np.any(np.concatenate([t.values for t in tents[k]]) > below + 1e-9 * vscale[k]):
                del tents[k]
        # every tent left at its function's samples, in one location
        vals = _each([t for k in tents for t in tents[k]], [samples[k] for k in tents for _ in tents[k]])
        at = 0
        for k, got in tents.items():
            joint, at = np.max(vals[at : at + len(got)], axis=0), at + len(got)
            if np.max(np.abs(joint - f_ref[k])) <= 1e-9 * vscale[k]:
                out[k] = got
        todo = [k for k in todo if out[k] is None]
        if not todo:
            return out
        for k in todo:
            d[k] *= 0.5
    for k in todo:
        out[k] = ConstructionFailure("tent decomposition did not converge (delta down to %.3g)" % d[k])
    return out


def _each(functions, points) -> list:
    """[functions[i] at points[i] for each i], in one evaluate_each."""
    if not functions:
        return []
    vals = evaluate_each(functions, np.concatenate(points),
                         np.repeat(np.arange(len(functions)), [len(x) for x in points]))
    return np.split(vals, np.cumsum([len(x) for x in points])[:-1])


@functools.lru_cache(maxsize=None)
def _sample_unit(dim: int) -> np.ndarray:
    """The 128 draws from default_rng(424242) in [0, 1)^dim that place
    every overlay's sample points, drawn once per dimension and kept
    write-protected."""
    U = np.random.default_rng(424242).random((128, dim))
    U.setflags(write=False)
    return U


def _sample_failures(pairs, results, dim) -> None:
    """Replace each result in results ({op: one per pair}) that strays
    from op's pointwise value of its pair (f, g) with an OverlayFailure.
    The same 128 points (_sample_unit) serve every pair, spread over the
    box of its nonempty functions (an empty one's box is the origin);
    every f, g and result is located in one evaluate_each, and every
    result compared with its op in one array pass."""
    U = _sample_unit(dim)
    box = [np.array([fn.bbox() for fn in pair if not fn.complex.is_empty()]) for pair in pairs]
    lo, hi = np.array([b[:, 0].min(axis=0) for b in box]), np.array([b[:, 1].max(axis=0) for b in box])
    pts = lo[:, None, :] + (hi - lo)[:, None, :] * U
    done = [(op, k) for op, got in results.items() for k, h in enumerate(got) if not isinstance(h, OverlayFailure)]
    functions = [fn for pair in pairs for fn in pair] + [results[op][k] for op, k in done]
    k = np.array([k for _, k in done], dtype=int)
    X = np.concatenate([np.repeat(pts, 2, axis=0), pts[k]]).reshape(-1, dim)
    vals = evaluate_each(functions, X, np.repeat(np.arange(len(functions)), len(U))).reshape(-1, len(U))
    B, ops = len(pairs), np.array([op for op, _ in done], dtype=object)
    f, g, want = vals[0 : 2 * B : 2][k], vals[1 : 2 * B : 2][k], np.empty((len(done), len(U)))
    for op, pointwise in _OPS.items():
        rows = ops == op
        want[rows] = pointwise(f[rows], g[rows])
    err = np.abs(vals[2 * B :] - want).max(axis=1, initial=0.0)
    bound = 1e-8 * np.maximum(1.0, np.abs(want).max(axis=1, initial=0.0))
    stats.margin("sample", err / bound)
    for c in np.flatnonzero(err > bound):
        op, k = done[c]
        results[op][k] = OverlayFailure("overlay disagrees with pointwise %s by %.3g" % (op, err[c]))


def _check_op(op) -> None:
    if op not in _OPS:
        raise ValueError("unknown overlay op %r: expected 'join' or 'meet'" % (op,))


def _raise_first(results) -> list:
    """results, unless one is a PLValError (an OverlayFailure, say): then
    the first raises, as a new error of its type."""
    for h in results:
        if isinstance(h, PLValError):
            raise type(h)(str(h))
    return results


def overlays(pairs, ops) -> dict:
    """{op: [f v g for (f, g) in pairs]} for op "join", f ^ g for "meet",
    for each op of ops, with an OverlayFailure in place of each result
    that fails a check.  The pairs are cut once, every op is assembled in
    one assemble_cells call (op i's pair k as its batch i B + k) and
    checked in one evaluate_each, so each result or failure is the one
    its pair and op get alone."""
    pairs = [(f, g) for f, g in pairs]
    for op in ops:
        _check_op(op)
    out = {op: [None] * len(pairs) for op in ops}
    if not pairs:
        return out
    dim = pairs[0][0].dim
    for fn in (fn for pair in pairs for fn in pair):
        if fn.dim != dim:
            raise ValueError("dimension mismatch: %d vs %d" % (dim, fn.dim))
    live = [k for k, (f, g) in enumerate(pairs) if not (f.complex.is_empty() and g.complex.is_empty())]
    if live:
        pairs = [pairs[k] for k in live]
        B = len(pairs)
        mesh = _prep(pairs)
        pieces = _pieces_pairwise(mesh)
        supp = np.array([f.support_volume() + g.support_volume() for f, g in pairs])
        winners = _winners(pieces, mesh)
        # a pair whose cells fail the cover balance is not assembled
        cover = _cover_failures(pieces, supp)
        ok = ~np.isin(pieces.pair, list(cover))
        kept = [np.flatnonzero((winners[op] >= 0) & ok) for op in ops]
        win = np.concatenate([winners[op][k] for op, k in zip(ops, kept)])
        at = np.concatenate(kept)
        batch = np.concatenate([pieces.pair[k] + i * B for i, k in enumerate(kept)])
        got = assemble_cells(pieces.cells.take(at), pieces.vol[at], mesh.grad[win], mesh.off[win], dim,
                             np.tile(supp, len(ops)), batch)
        results = {op: [cover.get(k, got[i * B + k]) for k in range(B)] for i, op in enumerate(ops)}
        _sample_failures(pairs, results, dim)
        for op in ops:
            for k, h in zip(live, results[op]):
                out[op][k] = h
    return {op: _zeros(res, dim) for op, res in out.items()}


@functools.lru_cache(maxsize=1)
def _pair(f: PLFunction, g: PLFunction) -> dict:
    """{op: f op g, or its OverlayFailure} for join and meet, from one
    overlays call, kept for the last pair asked.  PLFunction compares by
    identity, so the key is the two objects."""
    return {op: got[0] for op, got in overlays([(f, g)], tuple(_OPS)).items()}


def lattice_overlay(f: PLFunction, g: PLFunction, op: str) -> PLFunction:
    """f v g for op "join", f ^ g for "meet", or its OverlayFailure
    raised.  Join and meet of the pair are built together (_pair), so the
    other op right after cuts nothing."""
    _check_op(op)
    return _raise_first([_pair(f, g)[op]])[0]
