"""Mesh overlay: pointwise max/min of two piecewise-affine functions.

The two meshes are cut against each other into convex cells on which
both functions are affine (or absent): simplex pairs are clipped
directly, cut by the plane where the two affine pieces cross, and the
regions only one function covers are carved out with difference chains.
A simplex's chain runs against the other function's whole support when
that support is convex (its rows are cached with the complex), and
against the other's simplices it meets one by one when it is not.

Cells are cut in stacks (convex.Cells), never one at a time: all near
pairs of a refinement are clipped at once, by d+1 stacked cuts with the
other simplex's rows, then by one stacked cut where f = g; the chains of
every simplex with a leftover, f's and g's alike, run in lockstep, one
stacked cut per row.  Every cut is one convex.split over the stack, and
nothing in the cutting depends on the dimension.  The refinement carries
its cells as arrays: vertices with their tight rows and incidence, each
cell's simplex of f and of g, and its volume (one batched determinant
for the cells that are simplices, qhull's hull for the others, an
independent route for the cover balance).

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
Integrals, norms and evaluation need nothing more; conformity is only
checked where input arrives as JSON.

The assembly, assemble_cells, also builds the tents of
plfunction.tent_decomposition.  A vertex shared by several pieces takes
its value from the least steep of them, whose value a small error in the
vertex's position moves least (a tent's wedges are steep).  Simplices at
or below the degenerate-measure floor are dropped, so every output
simplex is nondegenerate.  Before a result is returned it
is checked, each check raising OverlayFailure: by volume, the cells
cover supp f and supp g exactly (cells both functions cover counted
twice, before any merging; once per pair) and each kept or merged
cell's simplices fill it; simplices sharing a vertex agree on its value;
and the output agrees with the pointwise max/min at sample points.

Join and meet of one pair cut the same cells and differ only in which
piece wins each one, and the valuation identity always asks for both.
So the op-independent half (the cells, both winners, the support volume,
the sample points and the inputs' values there) is memoised for the last
pair overlaid, keyed on the two functions' identities: a meet of f and g
right after their join, or the other way round, cuts once.  A
PLFunction's arrays are write-protected, so a hit is never stale, and
the memo keeps at most one pair alive.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import convex
from .convex import EPS, SNAP
from .errors import OverlayFailure
from .plfunction import PLFunction, SimplicialComplex

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
# Relative tolerance of the volume balances in the partition check.
COVER_TOL = 1e-9
# A simplex whose intersections with the other mesh fill all but this
# fraction of its volume leaves no region that only its function covers.
FULL_COVER = 1e-12


class _Mesh(NamedTuple):
    """The simplices of f, then of g, ready to cut: a stack of cells (row
    j opposite vertex j), their bounding boxes lo/hi, affine pieces
    grad/off and volumes; the first mf are f's.  support holds f's and
    g's support rows, each None where that support is not convex."""

    cells: convex.Cells
    lo: np.ndarray
    hi: np.ndarray
    grad: np.ndarray
    off: np.ndarray
    vol: np.ndarray
    mf: int
    support: tuple


def _prep(f: PLFunction, g: PLFunction) -> _Mesh:
    """The simplices of f and g as one _Mesh."""
    parts = []
    for fn in (f, g):
        cx = fn.complex
        lo, hi, _, _ = cx.locator()
        A, b = cx.simplex_rows()
        parts.append((cx.simplex_arrays(), A, b, lo, hi, *fn.affines(), cx.simplex_volumes()))
    V, A, b, lo, hi, grad, off, vol = (np.concatenate(x) for x in zip(*parts))
    support = (f.complex.convex_support, g.complex.convex_support)
    return _Mesh(convex.Cells.of_simplices(V, A, b), lo, hi, grad, off, vol, len(f.complex), support)


class _Pieces(NamedTuple):
    """The cells of two meshes cut against each other: each cell's
    simplex of f and of g, as indices into the _Mesh (-1 where that
    function is absent), and its volume."""

    cells: convex.Cells
    f: np.ndarray
    g: np.ndarray
    vol: np.ndarray


# ---------------------------------------------------------------------------
# Cutting
# ---------------------------------------------------------------------------


def _cut_by_affine(cells, grad, off, tol):
    """Split every cell by the sign of its own affine function grad.x +
    off, as (cells, src): a cell on which the function keeps its sign to
    within CUT_TOL stays whole, any other gives its negative part, then
    its positive part."""
    if not len(cells):
        return cells, np.zeros(0, dtype=int)
    vals = convex.dot_rows(cells.V, grad) + off[:, None]
    vm = cells.vm
    cut = (np.where(vm, vals, np.inf).min(axis=1) < -CUT_TOL) & (np.where(vm, vals, -np.inf).max(axis=1) > CUT_TOL)
    if not cut.any():
        return cells, np.arange(len(cells))
    # a cell kept whole lies below a plane at infinity
    a = np.where(cut[:, None], grad, 1.0)
    (lo, lo_src), (hi, hi_src) = convex.split(cells, a, np.where(cut, -off, np.inf), tol)
    src = np.concatenate([lo_src, hi_src])
    order = np.lexsort((np.repeat([0, 1], [len(lo_src), len(hi_src)]), src))
    return convex.Cells.concat([lo, hi]).take(order), src[order]


def _subtract(cells, A, b, tol):
    """The parts of the cells outside their convex regions {A x <= b}, A
    (B, R, d) and b (B, R), as (cells, src) in order of src, then of row.

    Difference chains, run in lockstep over the stack with one stacked
    cut per row: piece k is inside rows < k and outside row k; the part
    inside every row is dropped (the double-cover pass holds it).  A row
    0.x <= 1 pads a region with fewer rows."""
    B, R = A.shape[:2]
    if not B:
        return cells, np.zeros(0, dtype=int)
    vm = cells.vm[:, :, None]
    D = np.stack([convex.dot_rows(cells.V, A[:, q]) for q in range(R)], axis=2) - b[:, None, :]
    disjoint = np.where(vm, D >= EPS, True).all(axis=1).any(axis=1)  # certified
    covered = np.where(vm, D <= EPS, True).all(axis=(1, 2))
    di = np.flatnonzero(disjoint)
    out = [(cells.take(di), di, -1)]
    act = np.flatnonzero(~disjoint & ~covered)
    cur = cells.take(act)
    for q in range(R):
        if not len(act):
            break
        a, c = A[act, q], b[act, q]
        rowd = convex.dot_rows(cur.V, a) - c[:, None]
        # all inside row q: the outside piece is empty, the row redundant
        skip = np.where(cur.vm, rowd <= EPS, True).all(axis=1)
        if skip.all():
            continue
        # all outside: the rest of the cell is a piece
        rest = ~skip & np.where(cur.vm, rowd >= -EPS, True).all(axis=1)
        # the cells not cut lie wholly inside or outside a plane at infinity
        a = np.where(skip[:, None], 1.0, a)
        c = np.where(skip, np.inf, np.where(rest, -np.inf, c))
        (cur, in_src), (outside, out_src) = convex.split(cur, a, c, tol)
        out.append((outside, act[out_src], q))
        act = act[in_src]
        # a cut leaves the vertices it drops in place: close the gaps once
        # they outnumber the vertices
        if cur.V.shape[1] > 2 * cur.counts().max(initial=0):
            cur = cur.compact()
    src = np.concatenate([s for _, s, _ in out])
    row = np.concatenate([np.full(len(s), q) for _, s, q in out])
    order = np.lexsort((row, src))
    return convex.Cells.concat([c for c, _, _ in out]).take(order), src[order]


def _regions(mesh: _Mesh, owner, met, whole):
    """(A, b): for each cell of a simplex owner, the rows of the region
    its chain subtracts next: the other function's whole support where
    whole, else its simplex met; padded with 0.x <= 1."""
    d = mesh.cells.V.shape[2]
    own_f = owner < mesh.mf
    rows = []  # (cells, their rows): a simplex's rows each, or one support's
    i = np.flatnonzero(~whole)
    if len(i):
        rows.append((i, mesh.cells.A[met[i]], mesh.cells.b[met[i]]))
    # f's simplices subtract g's support, g's simplices f's
    for sel, support in ((own_f, mesh.support[1]), (~own_f, mesh.support[0])):
        i = np.flatnonzero(whole & sel)
        if len(i):
            rows.append((i, *support))
    R = max(Ar.shape[-2] for _, Ar, _ in rows)
    A = np.zeros((len(owner), R, d))
    b = np.ones((len(owner), R))
    for i, Ar, br in rows:
        A[i, : Ar.shape[-2]] = Ar
        b[i, : br.shape[-1]] = br
    return A, b


def _leftovers(mesh: _Mesh, mi, mj, shared, tol):
    """The cells of the simplices that the other function does not cover,
    as (cells, owner), by owner.  (mi, mj) are the pairs of f's and g's
    simplices that meet, in order; shared[i] is the volume of simplex i
    that such pairs cover.

    A simplex's part outside the other support is one difference chain
    against that whole support when it is convex, and one chain per
    simplex of the other function it meets, in order, when it is not.
    Each round of chains runs in lockstep over both functions' simplices
    that have one."""
    m = len(mesh.vol)
    partly = np.flatnonzero(shared < (1.0 - FULL_COVER) * mesh.vol)
    own, other = np.concatenate([mi, mj]), np.concatenate([mj, mi])
    met = other[np.argsort(own, kind="stable")]
    count = np.bincount(own, minlength=m)
    start = np.cumsum(count) - count
    whole = np.zeros(m, dtype=bool)
    whole[: mesh.mf] = mesh.support[1] is not None
    whole[mesh.mf :] = mesh.support[0] is not None
    count[whole] = np.minimum(count[whole], 1)
    parts, owner = mesh.cells.take(partly), partly
    done = [(parts.take(owner[:0]), owner[:0])]
    t = 0
    while len(owner):
        more = count[owner] > t
        if not more.all():
            done.append((parts.take(np.flatnonzero(~more)), owner[~more]))
            parts, owner = parts.take(np.flatnonzero(more)), owner[more]
        if not len(owner):
            break
        A, b = _regions(mesh, owner, met[start[owner] + t], whole[owner])
        parts, src = _subtract(parts, A, b, tol)
        owner = owner[src]
        t += 1
    owner = np.concatenate([o for _, o in done])
    order = np.argsort(owner, kind="stable")
    return convex.Cells.concat([c for c, _ in done]).take(order), owner[order]


def _volumes(cells):
    """Each cell's volume: one batched determinant for the simplices,
    qhull's hull for the others (a flat cell has volume 0)."""
    d = cells.V.shape[2]
    vol = np.zeros(len(cells))
    simplex = cells.counts() == d + 1
    si = np.flatnonzero(simplex)
    if len(si):
        X = cells.V[si][cells.vm[si]].reshape(-1, d + 1, d)
        vol[si] = np.abs(np.linalg.det(X[:, 1:] - X[:, :1])) / math.factorial(d)
    for i in np.flatnonzero(~simplex):
        try:
            vol[i] = ConvexHull(cells.V[i, cells.vm[i]]).volume
        except QhullError:
            pass
    return vol


def _pieces_pairwise(mesh: _Mesh) -> _Pieces:
    """Cells covering supp f and supp g, the cells both cover once for
    each; mesh comes from _prep."""
    mf, m = mesh.mf, len(mesh.vol)
    scale = max(1.0, float(np.max(np.abs(mesh.cells.V), initial=0.0)))
    tol = CLIP_TOL * scale
    lo, hi = mesh.lo, mesh.hi
    # near pairs (i, j): the boxes of f's simplex i and g's simplex j overlap
    near = np.all((lo[:mf, None] <= hi[None, mf:] + EPS) & (lo[None, mf:] <= hi[:mf, None] + EPS), axis=2)
    pi, pj = np.nonzero(near)
    pj = pj + mf
    # regions covered by both functions: every near pair clipped at once,
    # f's simplex by g's rows, then cut by {f = g}
    both, src = convex.clip_rows(mesh.cells.take(pi), mesh.cells.A[pj], mesh.cells.b[pj], tol)
    mi, mj = pi[src], pj[src]  # the pairs that meet in an interior
    both, src = _cut_by_affine(both, mesh.grad[mi] - mesh.grad[mj], mesh.off[mi] - mesh.off[mj], tol)
    pi, pj = mi[src], mj[src]
    vol = _volumes(both)
    shared = np.bincount(pi, weights=vol, minlength=m) + np.bincount(pj, weights=vol, minlength=m)
    # single-cover leftovers of each function, cut where it crosses zero
    parts, owner = _leftovers(mesh, mi, mj, shared, tol)
    parts, src = _cut_by_affine(parts, mesh.grad[owner], mesh.off[owner], tol)
    owner = owner[src]
    absent = np.full(len(owner), -1)
    return _Pieces(
        convex.Cells.concat([both, parts]),
        np.concatenate([pi, np.where(owner < mf, owner, absent)]),
        np.concatenate([pj, np.where(owner < mf, absent, owner)]),
        np.concatenate([vol, _volumes(parts)]),
    )


def _cover(pieces: _Pieces) -> float:
    """The volume the cells cover, each cell both functions cover
    counted twice."""
    return float(np.sum(pieces.vol * (1 + ((pieces.f >= 0) & (pieces.g >= 0)))))


def _check_cover(pieces: _Pieces, supp: float) -> None:
    """supp is vol supp f + vol supp g: the cells must cover it exactly,
    with each cell both functions cover counted twice."""
    covered = _cover(pieces)
    if abs(covered - supp) > COVER_TOL * supp:
        raise OverlayFailure("cells cover volume %.17g, the two supports %.17g" % (covered, supp))


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


def _groups(cells, rows, idx, vol, table, scale) -> _Groups:
    """The merge groups of the kept cells and the cell each would become.

    rows (K, d+1) holds each cell's winning affine function as [grad *
    scale, off], and idx (K, k) the rows in table of its vertices.  Cells
    are grouped by rows within VALUE_SNAP times the largest entry, so a
    piece and a recomputed copy of it (f's against f v g's, say) fall in
    one group whichever function came first; a group takes its
    lexicographically first function.

    A group's rows are its members' rows that all its vertices P satisfy
    within CLIP_TOL (times scale), so their intersection H contains
    conv P; every facet of a convex union U of the members is such a row,
    so H = U exactly when U is convex.  The group's cell is P's points
    maximal on those rows, with their facets (incidence_faces), so a
    neighbour's vertex may sit on a facet of a merged cell as a
    T-junction; _merges decides whether it is H."""
    tol = CLIP_TOL * scale
    vscale = max(1.0, float(np.max(np.abs(rows))))
    _, group = convex.dedupe_points(rows, VALUE_SNAP * vscale)
    count = np.bincount(group)
    G = int(np.count_nonzero(count > 1))
    member = np.where(count[group] > 1, (np.cumsum(count > 1) - 1)[group], -1)
    ci = np.flatnonzero(member >= 0)
    cg = member[ci]
    total = np.bincount(cg, weights=vol[ci], minlength=G)
    lex = ci[np.lexsort(rows[ci].T[::-1])]
    rep = lex[np.unique(member[lex], return_index=True)[1]]

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
    ok = np.where(pm[rg], D <= tol, True).all(axis=1)
    D, am = _pad(rg[ok], G, D[ok])
    T = (np.abs(D) <= tol).transpose(0, 2, 1) & pm[:, :, None] & am[:, None, :]
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
    # each vertex's place in its group's cell
    at = np.zeros((G, int(P.max(initial=0)) + 1), dtype=int)
    gi, pi = np.nonzero(vert)
    at[gi, P[gi, pi]] = pi
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
    on_facet = T[fg, at[fg, single[:, 1:]]].all(axis=1).any(axis=1)
    closed = np.bincount(single[~on_facet, 0], minlength=G) == 0
    return closed & (np.abs(filled - groups.total) <= COVER_TOL * groups.total)


def assemble_cells(cells, vol, grad, off, dim, supp):
    """The PLFunction equal to grad[k].x + off[k] on cell k of cells, a
    convex.Cells partition of its support with volumes vol; the fill
    check is relative to the volume supp.

    Vertices within SNAP (times the data scale) are one; cells with one
    piece are merged where their union is convex (_groups), and the
    others are triangulated from their incidence.  A vertex takes the
    value of the least steep piece that has it: a position error delta
    gives a value error |grad| delta.  Simplices that are 0 at every
    vertex are left out."""
    if not len(cells):
        return PLFunction.zero(dim)
    vm = cells.vm
    allv = cells.V[vm]
    scale = max(1.0, float(np.max(np.abs(allv))))
    table, mapping = convex.dedupe_points(allv, SNAP * scale)
    idx = np.zeros(vm.shape, dtype=int)
    idx[vm] = mapping
    groups = _groups(cells, np.column_stack([grad * scale, off]), idx, vol, table, scale)

    # one triangulation of the cells that are not simplices already (in
    # 1-D every cell, as an edge is tested by its length) and of what each
    # group becomes if it merges
    K, G = len(cells), len(groups.total)
    simplex = cells.counts() == dim + 1 if dim > 1 else np.zeros(K, dtype=bool)
    oi = np.flatnonzero(~simplex)
    S, tri = convex.pulling_triangulation(table, *_stack((idx[oi], vm[oi], cells.T[oi]), groups.cell), dim)
    c = tri >= len(oi)
    merged = _merges(groups, S[c], tri[c] - len(oi), convex.simplex_measures(table, S[c]))
    # the cells that go to the output: kept cells 0..K-1 not merged (a
    # cell alone has group -1, which reads the appended False), then the
    # merged groups
    out = np.concatenate([~np.append(merged, False)[groups.member], merged])
    owner = np.concatenate([oi, K + np.arange(G)])[tri]
    keep = out[owner]
    si = np.flatnonzero(simplex & out[:K])
    S_si, ok = convex.simplex_cells(table, idx[si][vm[si]].reshape(-1, dim + 1))
    S = np.concatenate([S_si[ok], S[keep]])
    cells_of = np.concatenate([si[ok], owner[keep]])
    svols = convex.simplex_measures(table, S)
    # each cell's volume and piece, the merged groups last; a merged
    # group's members are filled through it
    cell_vol = np.where(out, np.concatenate([vol, groups.total]), 0.0)
    piece = np.concatenate([np.arange(K), groups.rep])

    # needles at or below the degenerate floor carry no volume at the
    # data's scale; the fill check below still sees each cell filled
    # without them
    keep = svols > (EPS * scale) ** dim / math.factorial(dim)
    S, cells_of, svols = S[keep], cells_of[keep], svols[keep]
    filled = np.bincount(cells_of, weights=svols, minlength=len(cell_vol))
    bad = np.flatnonzero(np.abs(filled - cell_vol) > COVER_TOL * supp)
    if len(bad):
        raise OverlayFailure(
            "a cell of volume %.3g triangulates to volume %.3g" % (cell_vol[bad[0]], filled[bad[0]])
        )
    if not len(S):
        return PLFunction.zero(dim)

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
    vscale = max(1.0, float(np.max(np.abs(flat_vals))))
    spread = hi - lo
    bad = np.flatnonzero(spread > VALUE_AGREE * vscale + 20.0 * VERTEX_TOL * scale * steep)
    if len(bad):
        raise OverlayFailure("value disagreement %.3g at a shared vertex" % spread[bad[0]])
    # the least steep piece at each vertex, the first simplex among equals
    by = np.lexsort((flat_steep, flat_idx))
    used, first = np.unique(flat_idx[by], return_index=True)
    values = np.zeros(len(table))
    values[used] = flat_vals[by[first]]
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


def _assemble(ref, op, dim):
    """The function op keeps: each cell with the piece that wins it,
    assembled into a partition."""
    win = ref.winners[op]
    kept = np.flatnonzero(win >= 0)
    win = win[kept]
    return assemble_cells(ref.pieces.cells.take(kept), ref.pieces.vol[kept], ref.grad[win], ref.off[win], dim, ref.supp)


class _Refinement(NamedTuple):
    """The op-independent half of an overlay of f and g: the cut cells,
    the affine pieces of f then g, the piece each cell keeps under join
    and meet, vol supp f + vol supp g, and the sample points of the final
    check with f and g evaluated there."""

    pieces: _Pieces
    grad: np.ndarray
    off: np.ndarray
    winners: dict
    supp: float
    pts: np.ndarray
    fe: np.ndarray
    ge: np.ndarray


@functools.lru_cache(maxsize=1)
def _refine(f: PLFunction, g: PLFunction) -> _Refinement:
    """The refinement of the pair, its cover balance checked.  PLFunction
    compares by identity, so the key is the pair of objects."""
    mesh = _prep(f, g)
    pieces = _pieces_pairwise(mesh)
    supp = f.support_volume() + g.support_volume()
    _check_cover(pieces, supp)
    lo = np.minimum(*(fn.bbox()[0] for fn in (f, g)))
    hi = np.maximum(*(fn.bbox()[1] for fn in (f, g)))
    rng = np.random.default_rng(424242)
    pts = rng.uniform(lo, hi, size=(128, f.dim))
    fe = f.evaluate_many(pts)
    ge = g.evaluate_many(pts)
    for arr in (pts, fe, ge):
        arr.setflags(write=False)
    return _Refinement(pieces, mesh.grad, mesh.off, _winners(pieces, mesh), supp, pts, fe, ge)


def lattice_overlay(f: PLFunction, g: PLFunction, op: str) -> PLFunction:
    if f.dim != g.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (f.dim, g.dim))
    dim = f.dim
    if f.complex.is_empty() and g.complex.is_empty():
        return PLFunction.zero(dim)

    ref = _refine(f, g)
    out = _assemble(ref, op, dim)

    want = np.maximum(ref.fe, ref.ge) if op == "join" else np.minimum(ref.fe, ref.ge)
    got = out.evaluate_many(ref.pts)
    vscale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want)))
    if err > 1e-8 * vscale:
        raise OverlayFailure("overlay disagrees with pointwise %s by %.3g" % (op, err))
    return out
