"""Low-level convex geometry at desk scale.

Conventions used throughout:

* Predicates use absolute tolerances on data normalized to O(1) spread;
  callers rescale first (see EPS).
* Ties (which vertex anchors a triangulation fan, facet ordering) are
  resolved by lexicographic comparison of coordinates so that repeated
  runs and neighboring cells make identical choices.
* Polytopes appear either as vertex arrays ("V-form") or as cells:
  vertices together with their tight rows A x <= b and the vertex-row
  incidence.  Cells are cut in padded stacks (Cells), one plane per
  cell, in one array pass of split/clip (Sutherland-Hodgman style, in
  any dimension, reading edges off the incidence); one cell is a stack
  of one, and a cell's result does not depend on its stack-mates.  A
  stack holds each vertex's incidence as one uint64 bitmask over at most
  MAX_ROWS rows, so the cut's edge test and its count of the vertices on
  each row are integer operations on (B, k) arrays.
  Cells are triangulated from the same incidence, also in padded stacks
  (pulling_triangulation, one array pass per face dimension), so neither
  step enumerates row subsets or builds a hull.
* Facets and vertices are read off incidence by one rule, inclusion-
  maximal sets (_maximal): incidence_faces() gives a polytope's from its
  points' incidence on rows that hold it, and the triangulation gives
  each face's facets the same way.  A V-form polytope becomes a cell in
  two steps: hull() gives one row per facet (and the volume on demand),
  and hull_incidence() applies incidence_faces() to the points on those
  rows; when every row is tight at d points of its own and no point's
  rows lie inside another's (simplex_facets), the rows and the points on
  them are the answer already.
* Hulls are found in numpy by brute force: a d-subset of the points
  spans a facet row when every point lies on one side of its plane
  (_facets), and hull() runs that over a candidate set grown from the
  axis-extreme points until no point lies outside a row.  Each point's
  side of each plane is one (points, planes) array, reduced over its
  outer axis; a small set takes all its subsets in one pass of about 40
  numpy calls, so a hull of a polytope's 5-12 points costs those calls,
  not its arithmetic.  The float operations that make the rows run in a
  fixed order (dot0, _normals), so a row's bits depend on its subset
  alone.
* Volumes come from the same incidence, never from a second hull:
  cell_volumes() measures each cell of a stack by one determinant when
  it is a simplex, by the shoelace in 2-D, and above by the sum of its
  pulling triangulation at tol 0, which keeps every needle of a thin
  cell.  hull() measures a hull whose rows are all simplex facets by the
  cones over them, and any other as one cell in the same way.  Facet
  measures below full dimension (simplex_measures) are edge lengths, or
  a QR of the edges, not a Gram determinant.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import stats
from .errors import Degenerate, Singular

# Geometric predicate tolerance on unit-normalized data.
EPS = 1e-9
# Vertex snap tolerance in overlay assembly; well above intersection
# roundoff (~1e-13) and far below feature sizes.
SNAP = 5e-12
# Relative tolerance of the volume balances: the overlay's partition
# checks, and a complex's convex_support against its hull.
COVER_TOL = 1e-9
# A linear map is singular when its condition number exceeds this; the
# test is the same at every scale of the map.
MAX_CONDITION = 1e12
# Hull predicates, on a point set centred on its mean and divided by its
# largest coordinate offset from it: a point within HULL_TOL of a plane
# lies on it, and a d-subset whose normal (its (d-1)-volume times
# (d-1)!) is at or below SPAN_FLOOR spans no plane.
HULL_TOL = 1e-12
SPAN_FLOOR = 1e-12
# hull() takes every d-subset of its points at once while the subsets
# times the points stay within ONE_SHOT, and grows a candidate set
# otherwise; _facets works in chunks of about HULL_CHUNK subset-points.
ONE_SHOT = 1 << 13
HULL_CHUNK = 1 << 17
# box_pairs tests every pair of a group of at most BOX_BLOCK candidate
# pairs, puts a larger group on a grid, and tests about BOX_BLOCK
# candidates at a time.
BOX_BLOCK = 1 << 14


def dedupe_points(pts: np.ndarray, tol, batch=None):
    """Merge rows within tol of each other (max-norm), each group onto
    its lexicographically first row.

    Returns (unique_points, mapping): unique_points in lex order, and
    mapping[i] the row of unique_points that pts[i] collapsed onto.  A
    group is a connected set of the within-tol pairs (near_pairs), so a
    chain of points each within tol of the next collapses to one row.

    With batch (k,), each row's batch, the batches are deduped apart, in
    one search: batch b within tol[b], and no two rows of different
    batches merge.  unique_points then come by batch, each batch's in lex
    order, so a batch's rows and mapping are those it gets alone, shifted
    by the rows of the batches before it.
    """
    pts = np.asarray(pts, dtype=float)
    k = len(pts)
    d = pts.shape[1] if pts.ndim == 2 else 1
    pts = pts.reshape(k, d)
    order = np.lexsort(pts.T[::-1] if batch is None else (*pts.T[::-1], batch))
    s = pts[order]
    label = np.empty(k, dtype=int)
    # lex order sorts each batch by its first coordinate: when each point
    # clears the one before it there by more than tol, no two merge, and
    # each point is its own row, in lex order
    gap = s[1:, 0] - s[:-1, 0]
    if np.count_nonzero(gap > (tol if batch is None else np.asarray(tol, dtype=float)[batch[order[1:]]])) == k - 1:
        label[order] = np.arange(k)
        return s, label
    # each point's lex rank, a repeat taking its first's, which alone is searched
    head = np.ones(k, dtype=bool)
    head[1:] = (s[1:] != s[:-1]).any(axis=1)
    if batch is not None:
        head[1:] |= batch[order[1:]] != batch[order[:-1]]
    label[order] = np.maximum.accumulate(np.where(head, np.arange(k), 0))
    first = order[head]
    i, j = (first[x] for x in near_pairs(s[head], tol, None if batch is None else batch[first]))
    if not len(i) and head.all():
        # no two points merge: each is its own row, in lex order
        return s, label
    # each point takes the smallest label among its pairs, then the label
    # of the point that label ranks, until no label moves
    while True:
        low = np.minimum(label[i], label[j])
        new = label.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        new = new[order[new]]
        if np.array_equal(new, label):
            break
        label = new
    reps, mapping = np.unique(label, return_inverse=True)
    return pts[order[reps]], mapping


def near_pairs(pts: np.ndarray, tol, batch=None):
    """The pairs (i, j), i < j, of rows of pts (k, d) with |p_i - p_j| <=
    tol in the max-norm, by i, then j; with batch (k,), only pairs within
    one batch b, at tol[b].  The candidates are the boxes [p, p + tol],
    widened by its rounding, that meet (box_pairs); each is tested exactly."""
    pts = np.asarray(pts, dtype=float)
    own = float(tol) if batch is None else np.asarray(tol, dtype=float)[batch][:, None]
    i, j = box_pairs(pts, pts + own + 2 * np.finfo(float).eps * (own + np.abs(pts).max(initial=0.0)), batch)
    near = np.abs(pts[i] - pts[j]).max(axis=1, initial=0.0) <= (own if batch is None else own[i, 0])
    return i[near], j[near]


def box_pairs(lo, hi, group=None, other=None):
    """The pairs (i, j) of closed boxes of one group that meet (lo_i <=
    hi_j and lo_j <= hi_i on every axis), by i, then j, each pair once:
    box i of [lo, hi] (k, d) and box j of other = (lo2, hi2, group2), or
    without other, i < j of [lo, hi]; a group None is all one group, and
    compared at once when small.  A group of at most BOX_BLOCK candidate
    pairs is one cell, a larger one a grid of its own (_entries) that keeps
    a pair only in the cell of the larger of its low corners; each pair of
    boxes of one cell is a candidate, tested about BOX_BLOCK at a time."""
    pairs = len(lo) * len(lo if other is None else other[0])
    if group is None and (other is None or other[2] is None) and pairs <= BOX_BLOCK:
        # one group, small: one all-pairs block
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        lo2, hi2 = (lo, hi) if other is None else (np.asarray(x, dtype=float) for x in other[:2])
        i, j = np.nonzero(np.logical_and.reduce((lo[:, None] <= hi2[None]) & (lo2[None] <= hi[:, None]), axis=2))
        return (i, j) if other is not None else (i[i < j], j[i < j])
    sets = [(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
             np.zeros(len(a), dtype=np.intp) if g is None else np.asarray(g, dtype=np.intp))
            for a, b, g in [(lo, hi, group)] + ([] if other is None else [other])]
    (lo, hi, _), (lo2, hi2, _) = sets[0], sets[-1]
    n = [np.bincount(g, minlength=1 + max(int(s[2].max(initial=-1)) for s in sets)) for *_, g in sets]
    big = (n[0] * (n[0] - 1) // 2 if other is None else n[0] * n[1]) > BOX_BLOCK
    entries = _entries(sets, sum(n), big) if big.any() else [(None, g, None) for *_, g in sets]
    (src, key, home), (src2, key2, home2) = entries[0], entries[-1]
    points = hi is lo  # zero-width boxes: a point's coordinates are read once
    lo, hi, lo2, hi2 = (x.T.copy() for x in (lo, hi, lo2, hi2))
    # each entry's partners: the other set's (or its own set's later) entries of its cell, a run when sorted
    order = None if (key2[1:] >= key2[:-1]).all() else np.argsort(key2, kind="stable")
    keys = key2 if order is None else key2[order]
    start = np.searchsorted(keys, key, side="left")
    if other is None:
        start[slice(None) if order is None else order] = np.arange(1, len(keys) + 1)
    count = np.searchsorted(keys, key, side="right") - start
    first = np.cumsum(count) - count
    cuts = np.flatnonzero(np.diff(first // BOX_BLOCK)) + 1 if first[-1:].sum() > BOX_BLOCK else []
    out = []
    for s, e in zip([0, *cuts], [*cuts, len(count)]):
        a = np.repeat(np.arange(s, e), count[s:e])
        b = np.repeat(start[s:e] - first[s:e], count[s:e]) + np.arange(first[s], first[s] + len(a)) if e > s else a
        b = b if order is None else order[b]
        if home is not None:  # in that cell, each axis has one of the two at its low corner
            a, b = (x[(home[a] | home2[b]) == (1 << len(lo)) - 1] for x in (a, b))
        i, j = (a, b) if src is None else (src[a], src2[b])
        for x in range(len(lo)):
            li = lo[x][i]
            keep = (li <= hi2[x][j]) & (lo2[x][j] <= (li if points else hi[x][i]))
            i, j = i[keep], j[keep]
        out.append((i, j))
    i, j = (np.concatenate(x) for x in zip(*out)) if len(out) > 1 else out[0]
    # i comes in order, and on a grid j in order within each cell
    o = slice(None) if home is None else np.argsort(i * len(sets[-1][2]) + j, kind="stable")
    return i[o], j[o]


def _entries(sets, n, big):
    """For each set of boxes, (src, key, home): an entry for each cell of its
    group's grid that a box reaches, in box order, with the box, the cell's
    number and bit x set where it is the box's first along axis x.  A group
    not big is one cell; a big one of n[g] boxes has cells as wide as its
    mean box, at most n^(2/d) along an axis, and twice as wide while its
    boxes reach more than 2^(d+1) cells each on average."""
    lo, hi, group = (np.concatenate(x) for x in zip(*sets)) if len(sets) > 1 else sets[0]
    G, d, order = len(n), lo.shape[1], np.argsort(group, kind="stable")
    run = np.flatnonzero(np.diff(group[order], prepend=-1))  # each group's boxes, a run in group order
    origin, top, width = np.zeros((G, d)), np.zeros((G, d)), np.zeros((G, d))
    g = group[order[run]]
    origin[g], top[g] = np.minimum.reduceat(lo[order], run), np.maximum.reduceat(hi[order], run)
    width[g] = np.add.reduceat((hi - lo)[order], run) / n[g, None]
    width = np.maximum(width, (top - origin) / np.maximum(n, 1)[:, None] ** (2.0 / d))
    width[~big[:, None] | (width <= 0)] = np.inf
    width, over = width / 2, big
    while over.any():
        width[over] *= 2
        low, high = np.floor((np.stack([lo, hi]) - origin[group]) / width[group])
        over = np.bincount(group, (high - low + 1).prod(axis=1), G) > 2 ** (d + 1) * n
    cells = np.floor((top - origin) / width) + 1
    radix = (np.cumprod(cells, axis=1) / cells).astype(np.int64)
    first = (np.cumsum(cells.prod(axis=1)) - cells.prod(axis=1)).astype(np.int64)
    low, span = low.astype(np.int64), (high - low + 1).astype(np.int64)
    reach = span.prod(axis=1)
    src = np.repeat(np.arange(len(lo)), reach)
    e = np.arange(len(src)) - np.repeat(np.cumsum(reach) - reach, reach)
    key, home, gs = first[group[src]], np.zeros(len(src), dtype=np.int64), group[src]
    for x in range(d):
        r = span[:, x][src]
        key += (low[:, x][src] + e % r) * radix[gs, x]
        home |= (e % r == 0).astype(np.int64) << x
        e //= r
    k = len(sets[0][2])
    return [(src[m] - k0, key[m], home[m]) for m, k0 in ((src < k, 0), (src >= k, k))[: len(sets)]]


# ---------------------------------------------------------------------------
# Cells: vertices with their tight rows
# ---------------------------------------------------------------------------
#
# A cell is a tuple (V, A, b, T): its vertices V (k, d); rows A x <= b,
# with unit normals, that hold on the cell; and the incidence T (k, r),
# True where vertex i lies on row j.  Every facet of the cell is a row.
# Cells are cut in stacks (Cells), which hold each vertex's incidence as
# one integer bitmask over the rows; one cell is a stack of one.

# A stack of cells has at most this many row slots, one bit of a uint64
# each; a cut that finds them all taken compacts the stack first.
MAX_ROWS = 64
_BIT = np.left_shift(np.uint64(1), np.arange(MAX_ROWS, dtype=np.uint64))
_ALL = np.full(1, ~np.uint64(0))  # every bit
# The cut's row on the side below, then above.
_SIGN = np.array([1.0, -1.0])


def tight_rows(V: np.ndarray, A: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Incidence of the points V on the rows (A, b): |A v - b| <= tol."""
    return np.abs(V @ A.T - b) <= tol


def _pack_rows(T: np.ndarray) -> np.ndarray:
    """The incidence T (..., r), r <= MAX_ROWS, as one uint64 bitmask per
    vertex (...): bit j set where T[..., j]."""
    T = np.asarray(T, dtype=bool)
    r = T.shape[-1]
    if r > MAX_ROWS:
        raise Degenerate("a cell of %d rows: at most %d fit a bitmask" % (r, MAX_ROWS))
    out = np.zeros(T.shape[:-1] + (8,), dtype=np.uint8)
    out[..., : (r + 7) // 8] = np.packbits(T, axis=-1, bitorder="little")
    return out.view("<u8")[..., 0].astype(np.uint64, copy=False)


def _unpack_rows(bits: np.ndarray, r: int) -> np.ndarray:
    """The bitmasks bits (...) as the incidence (..., r) on rows 0..r-1."""
    raw = np.ascontiguousarray(bits, dtype="<u8").reshape(np.shape(bits) + (1,)).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=r, bitorder="little").view(bool)


def _at_least(M: np.ndarray, d: int) -> np.ndarray:
    """The bits set in at least d of the masks M (..., k), along the last
    axis.  G_1 = M, and G_{j+1}[v] = M[v] & (G_j[u] or-ed over u < v): a
    bit of G_j[v] is set where v is at least the j-th mask that has it."""
    G = M
    for j in range(1, d):
        G = M[..., j:] & np.bitwise_or.accumulate(G, axis=-1)[..., :-1]
    return np.bitwise_or.reduce(G, axis=-1)


class Cells:
    """A stack of B cells in padded arrays.

    V (B, k, d) holds the vertices and H (B, r, d+1) the rows [A, b] of
    A x <= b (A and b are views of it); vm (B, k) marks the vertices that
    belong to each cell, in order, and live (B,) its rows, bit j for row
    j.  bits (B, k) is the incidence, one uint64 per vertex with bit j
    set where the vertex lies on row j, never outside vm and live.  T and
    rm unpack bits and live to (B, k, r) and (B, r) booleans.  A cut
    leaves the vertices it drops in place, unmarked, and appends its
    crossings and its row; compact() closes the gaps.
    """

    __slots__ = ("V", "H", "bits", "vm", "live")

    def __init__(self, V, H, bits, vm, live):
        self.V, self.H, self.bits, self.vm, self.live = V, H, bits, vm, live

    @classmethod
    def of(cls, cells):
        """The stack of the cells (V, A, b, T), in order."""
        return cls.concat([
            cls(np.asarray(V, dtype=float)[None], _rows(np.asarray(A, dtype=float), np.asarray(b, dtype=float))[None],
                _pack_rows(np.asarray(T, dtype=bool).reshape(len(V), len(A)))[None], np.ones((1, len(V)), dtype=bool),
                _pack_rows(np.ones((1, len(A)), dtype=bool)))
            for V, A, b, T in cells
        ])

    @classmethod
    def of_simplices(cls, V, A, b):
        """The stack of the simplices V (m, d+1, d) with their rows A
        (m, d+1, d), b (m, d+1), row j opposite vertex j."""
        m, k = V.shape[:2]
        rows = _BIT[:k].sum()
        return cls(V, _rows(A, b), np.tile(rows ^ _BIT[:k], (m, 1)), np.ones((m, k), dtype=bool), np.full(m, rows))

    def __len__(self) -> int:
        return len(self.vm)

    @property
    def A(self) -> np.ndarray:
        """The row normals (B, r, d)."""
        return self.H[..., :-1]

    @property
    def b(self) -> np.ndarray:
        """The row offsets (B, r)."""
        return self.H[..., -1]

    @property
    def T(self) -> np.ndarray:
        """The incidence (B, k, r): True where vertex i lies on row j."""
        return _unpack_rows(self.bits, self.H.shape[1])

    @property
    def rm(self) -> np.ndarray:
        """The rows of each cell (B, r)."""
        return _unpack_rows(self.live, self.H.shape[1])

    def counts(self) -> np.ndarray:
        """The number of vertices of each cell."""
        return self.vm.sum(axis=1)

    def cell(self, i: int):
        """Cell i as (V, A, b, T)."""
        vm, rm = self.vm[i], _unpack_rows(self.live[i], self.H.shape[1])
        H = self.H[i, rm]
        return self.V[i, vm], H[:, :-1], H[:, -1], _unpack_rows(self.bits[i], self.H.shape[1])[vm][:, rm]

    def take(self, idx) -> "Cells":
        """The cells idx (positions, or a mask), in that order."""
        idx = np.asarray(idx)
        idx = idx.nonzero()[0] if idx.dtype == bool else idx.astype(np.intp, copy=False)
        return Cells(self.V.take(idx, 0), self.H.take(idx, 0), self.bits.take(idx, 0), self.vm.take(idx, 0),
                     self.live.take(idx))

    def slice(self, start: int, stop: int) -> "Cells":
        """The cells start to stop, as views."""
        return Cells(self.V[start:stop], self.H[start:stop], self.bits[start:stop], self.vm[start:stop],
                     self.live[start:stop])

    def compact(self) -> "Cells":
        """The same cells with their vertices and rows moved to the front,
        in order, and the arrays cut to the widths they need."""
        rm = self.rm
        k = int(self.vm.sum(axis=1).max(initial=0))
        r = int(rm.sum(axis=1).max(initial=0))
        # a stable sort of the marks, descending, brings each cell's
        # entries to the front in order
        vo = np.argsort(~self.vm, axis=1, kind="stable")[:, :k]
        ro = np.argsort(~rm, axis=1, kind="stable")[:, :r]
        B = np.arange(len(self))[:, None]
        T = _unpack_rows(self.bits[B, vo], self.H.shape[1])
        return Cells(self.V[B, vo], self.H[B, ro], _pack_rows(T[B[:, :, None], np.arange(k)[:, None], ro[:, None, :]]),
                     self.vm[B, vo], _pack_rows(rm[B, ro]))

    @classmethod
    def concat(cls, stacks) -> "Cells":
        """The cells of the stacks, one after another."""
        stacks = [s for s in stacks if len(s)] or list(stacks)[:1]
        if len(stacks) == 1:
            return stacks[0]
        d = stacks[0].V.shape[2]
        m = sum(len(s) for s in stacks)
        k = max(s.V.shape[1] for s in stacks)
        r = max(s.H.shape[1] for s in stacks)
        out = cls(np.zeros((m, k, d)), np.zeros((m, r, d + 1)), np.zeros((m, k), dtype=np.uint64),
                  np.zeros((m, k), dtype=bool), np.concatenate([s.live for s in stacks]))
        at = 0
        for s in stacks:
            end = at + len(s)
            sk, sr = s.V.shape[1], s.H.shape[1]
            out.V[at:end, :sk] = s.V
            out.H[at:end, :sr] = s.H
            out.bits[at:end, :sk] = s.bits
            out.vm[at:end, :sk] = s.vm
            at = end
        return out


def _rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows A (..., r, d), b (..., r) as one array (..., r, d+1)."""
    return np.concatenate([A, b[..., None]], axis=-1)


def dot_last(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X . Y along the last axis, broadcast over the others: the
    elementwise products summed in index order, one coordinate at a time
    (the order of a numpy sum over an axis this short), so that each
    item's result depends on that item alone (a matrix product may pick
    its kernel by the stack's shape)."""
    out = X[..., 0] * Y[..., 0]
    for j in range(1, X.shape[-1]):
        out += X[..., j] * Y[..., j]
    return out


def dot_rows(X: np.ndarray, a: np.ndarray) -> np.ndarray:
    """X (B, k, d) times a (B, d): each row of X[i] dotted with a[i]
    (dot_last)."""
    return dot_last(X, a[:, None, :])


def split(cells: Cells, a, c, tol, above: bool = True, flat: bool = False):
    """Cut every cell of the stack by its own plane a[i].x = c[i] (a
    (B, d), c (B,); one plane (d,), () is shared by all), at the
    tolerance tol, one for all or one per cell (B,).

    Returns (lo, hi): the cells on the sides a.x <= c and a.x >= c, each
    a pair (cells, src) where src[j] is the input cell that cell j came
    from, in input order; a cell whose side has no interior is absent.
    With above=False, hi is None.  Vertices within tol of the plane lie
    on it; the others on the far side are dropped.  Each new vertex is
    the crossing of the plane with an edge (u, w) whose ends lie strictly
    on opposite sides.  u and w span an edge exactly when the rows tight
    at both have rank d - 1; since the rows hold every facet, that is
    when no third vertex is tight at all of them, which the incidence
    answers without a numerical rank: with C the bits of u and w and-ed,
    exactly two vertices v have bits[v] & C == C.  A row stays only while
    it is tight at d or more vertices (_at_least).  A cell the plane does
    not cross is kept whole on its side, with no row added; c[i] = inf
    (-inf) keeps cell i whole below (above) its plane.

    With flat=True a side that meets the plane only in a face is kept as
    that face, and no row is dropped, so a chain of cuts yields the
    intersection whatever its dimension.

    Every step is elementwise per cell or gathers within one cell, so a
    cell's result does not depend on the other cells of its stack.  The
    cut's row takes the stack's next row slot; a stack whose MAX_ROWS
    slots are taken is compacted first.
    """
    stats.calls["splits"] += 1
    if cells.H.shape[1] >= MAX_ROWS:
        cells = cells.compact()
        if cells.H.shape[1] >= MAX_ROWS:
            raise Degenerate("a cell of %d rows has no slot for another cut" % cells.H.shape[1])
    V, M, vm = cells.V, cells.bits, cells.vm
    B, k, d = V.shape
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a, c = np.repeat(a[None], B, axis=0), np.full(B, c, dtype=float)
    # the cut's row [a, c], a of unit length
    row = np.empty((B, d + 1))
    row[:, :d] = a
    row[:, d] = c
    row /= np.sqrt(np.add.reduce(a * a, axis=1))[:, None]
    a, c = row[:, :d], row[:, d]
    s = dot_rows(V, a) - c[:, None]
    tol = np.asarray(tol, dtype=float).reshape(-1, 1)
    out = (s > tol) & vm
    inn = (s < -tol) & vm
    any_out = np.logical_or.reduce(out, axis=1)
    cross = any_out & np.logical_or.reduce(inn, axis=1)
    # candidate edges (u, w) of cell pb, u inside and w outside, in vertex
    # order, as flat indices fu and fw, each with its crossing X
    pb, u, w = (inn[:, :, None] & out[:, None, :]).nonzero()
    at = pb * k
    fu, fw = at + u, at + w
    sf = s.ravel()
    su = sf.take(fu)
    t = su / (su - sf.take(fw))
    Vf = V.reshape(B * k, d)
    Vu = Vf.take(fu, 0)
    X = Vu + t[:, None] * (Vf.take(fw, 0) - Vu)
    # the candidates that are edges: the vertices tight at every row of C
    # are exactly u and w
    Mf = M.ravel()
    C = Mf.take(fu) & Mf.take(fw)
    C1 = C[:, None]
    e = (np.add.reduce(((M.take(pb, 0) & C1) == C1) & vm.take(pb, 0), axis=1) == 2).nonzero()[0]
    pb = pb.take(e)
    # the crossings of cell b go in its own slots after its vertices
    slot = k + np.arange(len(pb)) - pb.searchsorted(pb)
    return _sides(cells, row, out, inn, any_out, cross, pb, slot, X.take(e, 0), C.take(e), above, flat)


def _sides(cells, row, out, inn, any_out, cross, pb, slot, X, CX, above, flat):
    """Both sides of a stacked cut by the rows row (B, d+1), as split
    returns them, built in one pass over a leading side axis (below, then
    above).

    Each cell keeps its vertices on the side (on the plane where on)
    and gains its crossings X, cell pb[i]'s in slot[i], with incidence
    bits CX and the cut's row.  A side that keeps a cell whole (no vertex
    beyond the plane) adds no row; with flat, a cell that only touches
    the plane in a face keeps that face with the row."""
    V, M, vm = cells.V, cells.bits, cells.vm
    B, k, d = V.shape
    r = cells.H.shape[1]
    S = 2 if above else 1
    K, R = int(slot.max(initial=k - 1)) + 1, r + 1
    fx = pb * K + slot  # the crossings' flat slots
    V2 = np.zeros((B, K, d))
    V2[:, :k] = V
    V2.reshape(B * K, d)[fx] = X
    # out and inn lie within vm, so vm ^ out marks the vertices not beyond
    # the plane, and vm ^ out ^ inn those on it
    below = vm ^ out
    vm2 = np.zeros((S, B, K), dtype=bool)
    vm2[0, :, :k] = below
    if above:
        vm2[1, :, :k] = vm ^ inn
        # a side is whole when no vertex lies beyond it: below when none is
        # out, above when some are and none is in
        add = np.array([any_out, cross | ~any_out])
    else:
        add = any_out[None]
    whole = ~add
    vm2.reshape(S, B * K)[:, fx] = True
    # incidence on the old rows and the cut's row, bit r, masked to each
    # side's vertices and rows
    bit = _BIT[r : r + 1]
    M2 = np.zeros((B, K), dtype=np.uint64)
    M2[:, :k] = M | (below ^ inn) * bit  # on the plane
    M2.reshape(B * K)[fx] = CX | bit
    M2 = M2 * vm2
    live = cells.live | add * bit
    if not flat:
        # a row of a cut cell stays while it is tight at d or more vertices
        live &= np.where(cross, _at_least(M2, d), _ALL)
    M2 &= live[:, :, None]
    n = np.add.reduce(vm2, axis=2)
    ok = whole | (n > 0) if flat else whole | (cross & (n > d))
    H2 = np.empty((S, B, R, d + 1))
    H2[:, :, :r] = cells.H
    H2[:, :, r] = _SIGN[:S, None, None] * row  # a dead slot where no row is added
    # the kept cells, the side below first
    oi = ok.ravel().nonzero()[0]
    src = oi % B
    kept = Cells(V2.take(src, 0), H2.reshape(S * B, R, d + 1).take(oi, 0), M2.reshape(S * B, K).take(oi, 0),
                 vm2.reshape(S * B, K).take(oi, 0), live.ravel().take(oi))
    if not above:
        return (kept, src), None
    m = int(oi.searchsorted(B))
    return (kept.slice(0, m), src[:m]), (kept.slice(m, len(oi)), src[m:])


def clip(cells: Cells, a, c, tol, flat: bool = False):
    """The parts of the cells in the half-spaces a.x <= c, as (cells,
    src); see split."""
    return split(cells, a, c, tol, above=False, flat=flat)[0]


def clip_rows(cells: Cells, A, b, tol, flat: bool = False):
    """Clip every cell by the rows A x <= b, one row at a time, as (cells,
    src): A (B, R, d) and b (B, R) give each cell its own rows, A (R, d)
    and b (R,) one set for all; tol is one for all or one per cell (B,)."""
    src = np.arange(len(cells))
    own = A.ndim == 3
    tol = np.broadcast_to(np.reshape(tol, -1), len(src))
    for q in range(A.shape[-2]):
        if not len(src):
            break
        a, c = A[..., q, :], b[..., q]
        cells, kept = clip(cells, a[src] if own else a, c[src] if own else c, tol[src], flat)
        src = src[kept]
    return cells.compact(), src


# ---------------------------------------------------------------------------
# Hulls (V-form)
# ---------------------------------------------------------------------------


def hull(points: np.ndarray):
    """(A, b, volume) of the convex hull of a point set spanning its
    dimension: unit outward rows A x <= b, one per facet (rows whose
    tight points agree are one row; a facet whose points are coplanar
    only to within the tolerance may still give several, see
    hull_incidence), and a function of no arguments that gives the
    hull's volume, so that a caller who needs only the rows does not
    pay for it.

    The points are centred on their mean and divided by their largest
    coordinate offset from it.  Few points take every d-subset at once
    (_facets); more grow a candidate set from the axis-extreme points and
    a spanning simplex, adding each round the farthest point outside each
    row of the candidates' hull, until no point is outside.  When every
    row is tight at its own d points alone, every row is a simplex facet
    F and the volume is the sum of b_F |F| / d, the cones from the centre
    over the facets, with |F| its subset normal's length over (d-1)!;
    any other hull is measured as one cell, its vertices and facets read
    off the candidates' incidence (hull_incidence) and measured as
    cell_volumes measures a cell.  A 1-D hull is read off the min and
    max.  Raises Degenerate when the points span no hull."""
    stats.calls["hulls"] += 1
    points = np.asarray(points, dtype=float)
    k, d = points.shape
    if d == 1:
        lo, hi = float(points.min()), float(points.max())
        if hi == lo:
            raise Degenerate("all points coincide")
        return np.array([[-1.0], [1.0]]), np.array([-lo, hi]), lambda: hi - lo
    center = np.add.reduce(points, axis=0) / k  # the mean, bit for bit
    X = points - center
    scale = float(np.maximum.reduce(np.abs(X), axis=None))
    if scale == 0.0:
        raise Degenerate("all points coincide")
    X /= scale
    cand = np.arange(k) if math.comb(k, d) * k <= ONE_SHOT else _seeds(X)
    while True:
        A, b, T, norm, flat = _facets(X if len(cand) == k else X[cand])
        if flat or not len(A):
            raise Degenerate("points span no hull in R^%d" % d)
        if len(cand) == k:
            break
        # the farthest point outside each row joins the candidates
        side = (X[:, None, :] * A[None]).sum(axis=2) - b
        far = side.argmax(axis=0)
        out = side[far, np.arange(len(b))] > HULL_TOL
        if not out.any():
            break
        cand = np.union1d(cand, far[out])

    def volume() -> float:
        if T.sum(axis=1).max() == d:
            vol = float(np.sum(b * norm)) / (math.factorial(d - 1) * d)
        else:
            vert, _, _, on = hull_incidence(X[cand], A, b, HULL_TOL)
            vol = float(_polytope_volumes(X[cand][vert][None], np.ones((1, len(vert)), dtype=bool), on[None])[0])
        return vol * scale**d

    return A, b * scale + np.add.reduce(A * center, axis=1), volume


def _seeds(X: np.ndarray) -> np.ndarray:
    """The first candidates of hull(): the points extreme on each axis and
    a simplex spanning the points, grown greedily from the first of them
    by the point farthest from the flat of those before it."""
    d = X.shape[1]
    seeds = [*X.argmin(axis=0), *X.argmax(axis=0)]
    rel = X - X[seeds[0]]
    for _ in range(d):
        dist = (rel * rel).sum(axis=1)
        j = int(dist.argmax())
        if dist[j] <= SPAN_FLOOR**2:
            raise Degenerate("points span no hull in R^%d" % d)
        seeds.append(j)
        u = rel[j] / math.sqrt(dist[j])
        rel = rel - (rel * u).sum(axis=1)[:, None] * u
    return np.unique(seeds)


@functools.lru_cache(maxsize=32)
def _subsets(k: int, d: int) -> np.ndarray:
    """The d-subsets of range(k) (m, d), in lex order, read-only; the
    sizes a small hull repeats stay cached."""
    S = np.array(list(itertools.combinations(range(k), d)), dtype=np.intp).reshape(-1, d)
    S.setflags(write=False)
    return S


def _det(M: np.ndarray) -> np.ndarray:
    """Determinants of the stack M (..., m, m) by cofactors of the first
    row, in elementwise products and sums."""
    m = M.shape[-1]
    if m == 1:
        return M[..., 0, 0]
    out = 0.0
    for j in range(m):
        term = M[..., 0, j] * _det(np.delete(M[..., 1:, :], j, axis=-1))
        out = out + term if j % 2 == 0 else out - term
    return out


def dot0(U, V) -> np.ndarray:
    """The sum over the leading axis of U * V, term by term in order."""
    out = U[0] * V[0]
    for l in range(1, len(U)):
        out = out + U[l] * V[l]
    return out


_FLIP = np.array([[1.0], [-1.0]])
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def _normals(E: np.ndarray) -> np.ndarray:
    """A normal of the span of each edge stack, E (d, m, d-1) holding
    coordinate l of edge i at E[l, :, i], as (d, m): component l is
    (-1)^l times the minor without coordinate l (in 3-D the cross
    product), orthogonal to every edge, of length (d-1)! times the
    (d-1)-volume the edges span."""
    d = len(E)
    if d == 2:
        # (e1, -e0): a product by -1 is the negation, bit for bit
        return E[::-1, :, 0] * _FLIP
    if d == 3:
        # the cross product, each component u_i v_j - u_j v_i
        u, v = E[:, :, 0], E[:, :, 1]
        return u[_NEXT] * v[_LAST] - u[_LAST] * v[_NEXT]
    M = E.transpose(1, 2, 0)
    return np.stack([(-1.0) ** l * _det(np.delete(M, l, axis=-1)) for l in range(d)])


def _facets(X: np.ndarray):
    """The facet rows of the point set X (k, d), d >= 2, centred and
    scaled as HULL_TOL assumes, by brute force over its d-subsets.

    A subset spanning a plane gives a row when every point lies on one
    side of the plane, within HULL_TOL, oriented outward.  Rows whose tight
    points (those within HULL_TOL) agree are one row, the one of largest
    subset normal, the best conditioned.  Returns (A, b, T, norm, flat):
    unit normals A (R, d) and offsets b (R,), in subset order; tight
    points T (R, k); the length of each row's subset normal (R,), (d-1)!
    times its simplex's measure; and flat, True when the set lies within
    HULL_TOL of one plane, whose rows hold nothing.  The work runs one
    coordinate at a time, in chunks of about HULL_CHUNK subset-points,
    every step elementwise per subset and summed over the coordinates in
    order."""
    stats.calls["facets"] += 1
    k, d = X.shape
    S = _subsets(k, d)
    C = X.T  # (d, k)
    flat = False
    out = []
    step = max(1, HULL_CHUNK // max(k, 1))
    for lo in range(0, len(S), step):
        Y = C[:, S[lo : lo + step]]  # (d, m, d)
        N = _normals(Y[:, :, 1:] - Y[:, :, :1])
        norm = np.sqrt(dot0(N, N))
        live = norm > SPAN_FLOOR
        if np.count_nonzero(live) < len(live):
            Y, N, norm = Y[:, live], N[:, live], norm[live]
        n = N / norm
        offset = dot0(Y[:, :, 0], n)
        # point i's side of plane j at [i, j]: the reductions over the
        # points run along the outer axis
        side = dot0(C[:, :, None], n[:, None, :]) - offset
        below = np.maximum.reduce(side, axis=0) <= HULL_TOL
        above = np.minimum.reduce(side, axis=0) >= -HULL_TOL
        flat = flat or np.count_nonzero(below & above) > 0
        r = below ^ above
        sign = np.where(below[r], 1.0, -1.0)
        out.append(((n[:, r] * sign).T, offset[r] * sign, (np.abs(side[:, r]) <= HULL_TOL).T, norm[r]))
    if not out:
        return np.zeros((0, d)), np.zeros(0), np.zeros((0, k), dtype=bool), np.zeros(0), flat
    A, b, T, norm = out[0] if len(out) == 1 else (np.concatenate(x) for x in zip(*out))
    if np.maximum.reduce(np.add.reduce(T, axis=1), initial=0) > d:
        # a row tight at its own d points alone is the only row of its
        # tight set; the others group by tight set, the largest normal first
        bits = np.packbits(T, axis=1)
        order = np.lexsort((-norm, *bits.T[::-1]))
        key = bits[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (key[1:] != key[:-1]).any(axis=1)
        keep = np.sort(order[first])
        A, b, T, norm = A[keep], b[keep], T[keep], norm[keep]
    return A, b, T, norm, flat


def _maximal(M: np.ndarray, keep=None) -> np.ndarray:
    """Mask of the inclusion-maximal columns of the boolean M (..., k, r),
    each column read as a set of rows, among the columns marked in keep
    (..., r; all by default); of equal columns the first stands for them
    all.  A stack of matrices takes one matrix product."""
    if keep is None:
        keep = np.ones(M.shape[:-2] + M.shape[-1:], dtype=bool)
    Mf = M.astype(float)
    # sub[j, l]: column j lies inside column l; drop j when inside a
    # larger kept column or equal to an earlier one
    sub = (np.swapaxes(Mf, -1, -2) @ (1.0 - Mf)) == 0.0
    order = np.arange(M.shape[-1])
    beaten = sub & (~np.swapaxes(sub, -1, -2) | (order[:, None] > order[None, :])) & keep[..., None, :]
    return keep & ~beaten.any(axis=-1)


def incidence_faces(T: np.ndarray, vm=None, rm=None):
    """(vert, facet): masks of the vertices (..., k) and the facets
    (..., r) of a polytope, read off the incidence T (..., k, r) of its
    points (those marked in vm) on rows that hold it (those marked in rm).

    A facet is an inclusion-maximal set of points on a row, and the first
    row holding that set stands for it, so coplanar rows give one facet.
    A vertex is a point whose set of facets no other point's contains: a
    point inside a face lies only on the facets through that face, a
    subset of each of the face's vertices' facets (of equal sets, as for
    duplicates, the first point is kept)."""
    facet = _maximal(T, rm)
    vert = _maximal(np.swapaxes(T & facet[..., None, :], -1, -2), vm)
    return vert, facet


def hull_incidence(points: np.ndarray, A: np.ndarray, b: np.ndarray, tol: float):
    """(vert, A, b, T): the hull rows (A, b) of the points cut down to
    its facets, its vertices, and their incidence, all read off
    tight_rows(points, A, b, tol) by incidence_faces, so the rows hull()
    gives a facet whose points are coplanar only within tol are one row.
    vert indexes the vertices in points, in order; T (len(vert), facets)
    is their incidence on the facet rows A, b."""
    T = tight_rows(points, A, b, tol)
    vert, facet = incidence_faces(T)
    vert = np.flatnonzero(vert)
    return vert, A[facet], b[facet], T[vert][:, facet]


def simplex_facets(T: np.ndarray, d: int) -> bool:
    """Whether the hull rows of a point set in R^d, with its points'
    incidence T (k, r) on them, are all simplex facets whose points are
    all vertices, as incidence_faces reads them off T: each row is tight
    at exactly d points and no two rows at the same ones, so no row's
    points lie inside another's and every row is a facet; and no point on
    a row lies on a subset of another point's rows, so every such point
    is a vertex.  hull_incidence's answer is then the rows and the points
    on them, found with two small overlap products and not _maximal's."""
    F = T.astype(float)
    rows = F.T @ F  # points two rows share: d on the diagonal alone
    r = T.shape[1]
    if np.count_nonzero(rows.diagonal() == d) != r or np.count_nonzero(rows == d) != r:
        return False
    # rows two points share: a point on some row matches its own count
    # only on the diagonal, and a point on none matches every point
    pts = F @ F.T
    own = pts.diagonal()
    k, on = len(T), np.count_nonzero(own)
    return bool(np.count_nonzero(pts == own[:, None]) == on + (k - on) * k)


# ---------------------------------------------------------------------------
# Pulling triangulation
# ---------------------------------------------------------------------------


def simplex_measures(points: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Measures of the simplices points[S] (m, d+1), 1 <= d <= dim of
    points: |det E| / d! of the edges E from the first vertex in full
    dimension; below it, an edge's length, and a higher simplex's
    |prod diag R| / d! from a QR of its edges, whose error stays relative
    to the measure on a needle or sliver, where that of the Gram
    determinant det(E E^T) grows like eps over the squared measure."""
    return _edge_measures(points[S[:, 1:]] - points[S[:, :1]])


def _edge_measures(E: np.ndarray) -> np.ndarray:
    """simplex_measures from each simplex's edges E (m, d, dim) from its
    first vertex."""
    d = E.shape[1]
    if d == E.shape[2]:
        return np.abs(np.linalg.det(E)) / math.factorial(d)
    if d == 1:
        return np.sqrt((E[:, 0] * E[:, 0]).sum(axis=1))
    # R's diagonal is that of the raw factor, whose lower part holds the reflectors
    H, _ = np.linalg.qr(np.swapaxes(E, 1, 2), mode="raw")
    return np.abs(np.diagonal(H, axis1=1, axis2=2).prod(axis=1)) / math.factorial(d)


def _merge_repeats(idx, mask, T):
    """Each cell's indices sorted, a repeated index kept once: its first
    copy, which lies on the union of its copies' rows, stays marked."""
    K, k = idx.shape
    key = np.where(mask, idx, np.iinfo(idx.dtype).max)
    if (key[:, 1:] > key[:, :-1]).all():  # sorted, each index once
        return idx, mask, T
    order = np.argsort(key, axis=1, kind="stable")
    rows = np.arange(K)[:, None]
    idx, mask, T = idx[rows, order], mask[rows, order], T[rows, order]
    dup = np.zeros_like(mask)
    dup[:, 1:] = mask[:, 1:] & (idx[:, 1:] == idx[:, :-1])
    if dup.any():
        first = np.maximum.accumulate(np.where(dup, 0, np.arange(k)), axis=1)
        c, j = np.nonzero(dup)
        np.logical_or.at(T, (c, first[c, j]), T[c, j])
        mask = mask & ~dup
    return idx, mask, T


def _run(pts: np.ndarray, tol: float):
    """The edges (a, z), as positions in pts, between collinear points
    neighbouring along their line, each gap above the floor."""
    rel = pts - pts[0]
    direction = rel[np.argmax((rel * rel).sum(axis=1))]
    nd = math.sqrt(float(direction @ direction))
    if nd == 0.0:
        return []
    t = pts @ (direction / nd)
    order = np.argsort(t, kind="stable")
    floor = tol * max(1.0, float(np.abs(t).max()))
    gaps = np.diff(t[order])
    return [(a, z) for a, z, gap in zip(order[:-1], order[1:], gaps) if gap > floor]


def pulling_triangulation(points: np.ndarray, idx, mask, incidence, dim: int, tol: float = EPS):
    """Conforming-by-construction triangulation of a stack of convex cells.

    points: global coordinate table; idx (K, k): each cell's vertices as
    rows of points, those marked in mask (K, k) (repeats are merged);
    incidence (K, k, r): True where the vertex lies on row r of its cell,
    the rows holding every facet of the cell; dim: the cells' affine
    dimension.  Returns (S, cell, measure): the simplices (m, dim+1) as
    rows of points, the cell each lies in and each one's simplex_measures,
    by cell and, within a cell, in the order of the recursion below.  For
    dim >= 2 simplices at or below the degenerate-measure floor
    (simplex_floor of the cell's extent) are left out; an edge is kept
    when its length clears tol.

    A d-face with more than d+1 vertices is the cone from its
    lexicographically smallest vertex over the pulled triangulations of
    its facets avoiding that vertex; a facet of a face F is a maximal set
    F & G over the cell's rows G, so no hull is built.  The recursion runs
    as one array pass per face dimension over the faces of every cell at
    once; collinear vertices on a 1-face are joined in order along their
    line.  Because the anchor and the facet vertex sets depend only on
    global coordinates and on the face itself, two cells sharing a face
    induce the same triangulation on it.
    """
    points = np.asarray(points, dtype=float)
    idx = np.asarray(idx, dtype=np.intp)
    mask = np.asarray(mask, dtype=bool)
    T = np.asarray(incidence, dtype=bool) & mask[:, :, None]
    K, k = idx.shape
    idx, mask, T = _merge_repeats(idx, mask, T)
    if dim > 1:
        rank = np.empty(len(points), dtype=np.intp)
        rank[np.lexsort(points.T[::-1])] = np.arange(len(points))
    # a simplex's place in the recursion's order has one digit per level:
    # the row of each facet taken, then the edge's place along its line
    base = max(k, T.shape[2]) + 1
    # the faces of a pass: the cell each lies in, its vertices (a mask on
    # the cell's), the anchors coned over it so far, and its place
    cell, face = np.arange(K), mask
    apex = np.zeros((K, 0), dtype=np.intp)
    key = np.zeros(K, dtype=np.int64)
    out = [(np.zeros((0, dim + 1), dtype=np.intp), cell[:0], key[:0])]
    for dd in range(dim, 1, -1):
        n = face.sum(axis=1)
        i = np.flatnonzero(n == dd + 1)  # simplices already
        out.append((np.hstack([apex[i], idx[cell[i]][face[i]].reshape(-1, dd + 1)]), cell[i], key[i] * base**dd))
        i = np.flatnonzero(n > dd + 1)
        cell, face, apex, key, n = cell[i], face[i], apex[i], key[i], n[i]
        if not len(cell):
            break
        ids = idx[cell]
        M = T[cell] & face[:, :, None]
        anchor = np.where(face, rank[ids], len(points)).argmin(axis=1)
        cnt = M.sum(axis=1)
        facet = _maximal(M, (cnt >= dd) & (cnt < n[:, None])) & ~M[np.arange(len(cell)), anchor]
        f, j = np.nonzero(facet)
        apex = np.hstack([apex[f], ids[f, anchor[f]][:, None]])
        cell, face, key = cell[f], face[f] & M[f, :, j], key[f] * base + j
    # 1-faces: an edge is tested by its length, more points are a run
    n = face.sum(axis=1)
    i = np.flatnonzero(n == 2)
    if len(i):
        E = idx[cell[i]][face[i]].reshape(-1, 2)
        ok, _ = _long_edges(points[E], tol)
        out.append((np.hstack([apex[i[ok]], E[ok]]), cell[i[ok]], key[i[ok]] * base))
    for i in np.flatnonzero(n > 2):
        ids = idx[cell[i]][face[i]]
        run = np.array(_run(points[ids], tol), dtype=np.intp).reshape(-1, 2)
        out.append((np.hstack([np.repeat(apex[i : i + 1], len(run), axis=0), ids[run]]),
                    np.full(len(run), cell[i]), key[i] * base + np.arange(len(run))))
    S, cell, key = (np.concatenate(x) for x in zip(*out))
    order = np.lexsort((key, cell))
    S, cell = S[order], cell[order]
    measure = simplex_measures(points, S)
    if dim > 1 and len(S):
        # the floor scales with each cell's extent; slot 0 holds a vertex
        # of every cell with one
        P = points[idx]
        P = np.where(mask[:, :, None], P, P[:, :1])
        spread = (P.max(axis=1) - P.min(axis=1)).max(axis=1)
        keep = measure > simplex_floor(spread, dim, tol)[cell]
        S, cell, measure = S[keep], cell[keep], measure[keep]
    return S, cell, measure


def simplex_floor(spread, dim: int, tol: float = EPS):
    """The degenerate-measure floor of a simplex of a cell of extent spread:
    pulling_triangulation keeps the simplices above it."""
    return (tol * spread) ** dim / math.factorial(dim)


def _long_edges(P: np.ndarray, tol: float):
    """(keep, length): which edges P (m, 2, dim), from P[i, 0] to P[i, 1],
    pulling_triangulation keeps, those whose length clears tol times the
    larger of 1 and their ends' reach along the edge from the origin (a
    zero length clears nothing), and each edge's length, its
    simplex_measures.  A reach is at most the length times the farther
    end's norm, below sqrt(dim) times the largest coordinate, so when
    every length clears tol times that bound, every edge is kept without
    its reach."""
    p, q = P[:, 0], P[:, 1]
    e = q - p
    length = np.sqrt(np.add.reduce(e * e, axis=1))
    if len(length):
        bound = math.sqrt(P.shape[2]) * float(np.maximum.reduce(np.abs(P), axis=None))
        # the margin covers the rounding of the reach, the length and their quotient
        if np.minimum.reduce(length) > tol * max(1.0, bound) * (1.0 + 1e-9):
            return length > 0.0, length
    reach = np.maximum(np.abs(np.add.reduce(p * e, axis=1)), np.abs(np.add.reduce(q * e, axis=1)))
    return length > tol * np.maximum(1.0, reach / np.where(length > 0.0, length, 1.0)), length


def simplex_cells(points: np.ndarray, S: np.ndarray):
    """The cells points[S] (m, dim+1), dim >= 1, that are simplices
    already, as pulling_triangulation gives them: (S, keep, measure) with
    each row sorted, keep False where the row repeats a vertex or falls
    below pulling_triangulation's floor at its default tol, EPS (see
    simplex_keep), and each row's simplex_measures."""
    S = np.sort(S, axis=1)
    keep, measure = simplex_keep(points, S)
    return S, keep & (S[:, 1:] != S[:, :-1]).all(axis=1), measure


def simplex_keep(points: np.ndarray, S: np.ndarray):
    """(keep, measure) for the simplices points[S] (m, dim+1), dim >= 1:
    keep where pulling_triangulation at its default tol, EPS, keeps a
    cell that is the simplex already (an edge by its length test, a
    higher simplex by its measure floor), and each one's
    simplex_measures.  A row that repeats a vertex is simplex_cells'
    to drop."""
    P = points[S]
    if S.shape[1] == 2:
        return _long_edges(P, EPS)
    spread = np.maximum.reduce(np.maximum.reduce(P, axis=1) - np.minimum.reduce(P, axis=1), axis=1)
    measure = _edge_measures(P[:, 1:] - P[:, :1])
    return measure > simplex_floor(spread, S.shape[1] - 1, EPS), measure


# ---------------------------------------------------------------------------
# Cell volumes
# ---------------------------------------------------------------------------


def cell_volumes(cells: Cells) -> np.ndarray:
    """The volume of each cell of the stack, from its own vertices and
    incidence: one batched determinant for the cells that are simplices,
    and _polytope_volumes for the cells of more vertices; a cell of d or
    fewer vertices is flat, of volume 0.  Each cell's volume depends on
    that cell alone, whatever its stack-mates and unmarked slots."""
    B, k, d = cells.V.shape
    vol = np.zeros(B)
    count = cells.counts()
    si = np.flatnonzero(count == d + 1)
    if len(si):
        X = cells.V[si][cells.vm[si]].reshape(-1, d + 1, d)
        vol[si] = np.abs(np.linalg.det(X[:, 1:] - X[:, :1])) / math.factorial(d)
    oi = np.flatnonzero(count > d + 1)
    if len(oi):
        T = None if d == 2 else _unpack_rows(cells.bits[oi], cells.H.shape[1])
        vol[oi] = _polytope_volumes(cells.V[oi], cells.vm[oi], T)
    return vol


def _polytope_volumes(P: np.ndarray, vm: np.ndarray, T) -> np.ndarray:
    """The volume of each convex polytope of the stack P (B, k, d), its
    vertices those marked in vm (B, k) and their incidence T (B, k, r) on
    rows that hold every facet.  In 2-D, the shoelace over the vertices
    sorted by angle about their mean (T is not read); in any other
    dimension, the sum of the polytope's pulling triangulation from T at
    tol 0, so that no needle of a thin polytope is dropped.  Sums over a
    polytope's points run in order, so each volume depends on its own
    points alone."""
    B, k, d = P.shape
    if d == 2:
        count = vm.sum(axis=1)
        M = vm[:, :, None]
        mean = np.cumsum(np.where(M, P, 0.0), axis=1)[:, -1] / np.maximum(count, 1)[:, None]
        X = np.where(M, P - mean[:, None, :], 0.0)
        angle = np.where(vm, np.arctan2(X[:, :, 1], X[:, :, 0]), np.inf)
        X = np.take_along_axis(X, np.argsort(angle, axis=1, kind="stable")[:, :, None], axis=1)
        at = np.arange(k)
        nxt = np.where(at[None, :] + 1 < count[:, None], at[None, :] + 1, 0)
        Y = np.take_along_axis(X, nxt[:, :, None], axis=1)
        term = np.where(at[None, :] < count[:, None], X[:, :, 0] * Y[:, :, 1] - Y[:, :, 0] * X[:, :, 1], 0.0)
        return 0.5 * np.abs(np.cumsum(term, axis=1)[:, -1])
    points = P.reshape(B * k, d)
    _, cell, measure = pulling_triangulation(points, np.arange(B * k).reshape(B, k), vm, T, d, tol=0.0)
    return np.bincount(cell, weights=measure, minlength=B)


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------


def check_invertible(phi: np.ndarray) -> None:
    """Raise Singular unless the square matrix phi is invertible to
    working precision: its condition number is at most MAX_CONDITION."""
    sv = np.linalg.svd(phi, compute_uv=False)
    if not sv[-1] * MAX_CONDITION >= sv[0]:
        raise Singular("linear map is singular (singular values %.3g to %.3g)" % (sv[0], sv[-1]))
