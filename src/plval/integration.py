"""Exact integration of piecewise-affine functions.

Everything reduces to one fact: the pushforward of the uniform
probability measure on an n-simplex under an affine map with vertex
values v_0 <= ... <= v_n has a B-spline density of degree n-1 with knots
at the v_i.  Norms, level-set volumes and kernel integrals are then
one-dimensional integrals of a function h of one variable against that
density.  One engine computes them for a whole stack of simplices at
once, from their (m, n+1) value rows.

Scaled segments.  On each segment [v_j, v_{j+1}] of width d > 0 the
density is a polynomial in the scaled variable s = (t - v_j)/d in [0, 1].
The Cox-de Boor recursion builds it there in Bernstein form: every
factor of the recursion is a ratio of knot differences lying in [0, 1],
so every coefficient is a sum of products of numbers in [0, 1], whatever
the gaps.  A segment of 1 ulp gets coefficients as accurate as a segment
of width 1, and no coefficient grows like 1/gap.

Pieces.  h is given piece by piece (see Pieces): between consecutive cuts
it is a polynomial or C |t|^e, and 0 is always a cut.  Each segment is
split at the cuts it crosses; de Casteljau subdivision, a chain of convex
combinations, carries the Bernstein coefficients onto each sub-piece.
Polynomial pieces take Gauss-Legendre rules with enough nodes to be
exact.  A power piece does not straddle 0; with near and far its
endpoints' magnitudes, it takes a 16-node Gauss-Legendre rule when
near/far >= 1/3, where |t|^e is analytic well beyond the piece, and a
closed form through complete and incomplete Beta integrals otherwise.
Which rule a piece takes, and the powers of near/far the closed form
needs, depend on the piece alone (_Orientation).

No cancellation.  The Bernstein coefficients are nonnegative, so when h
is nonnegative (|t|^q, indicators) each sub-piece contributes a
nonnegative amount, and the sum over sub-pieces and segments cannot
cancel.  A sub-piece's amount is accurate to a few ulps of the piece it
was cut from, the row's scale, not of its own value: a thin sub-piece,
such as the sliver of a row that barely passes a cut of h, may be off
by many ulps of itself.  A value row with a zero spread is a point
mass and contributes h at its value.

Two halves.  Everything that does not depend on h is done once per
density: value_density(values) sorts the rows, builds the segments'
coefficients and cuts the segments that cross 0 (the one cut every h
has).  A layout that every kernel reads is kept on the density on first
use: each piece's side of 0 and the pieces' span, and the power rule's
orientation of the pieces, with its Gauss-Legendre abscissae and node
weights, read from each piece's end nearer 0, gathered by rule.
ValueDensity.means(h) does only what depends on h.  When no cut of h
other than 0 falls inside the pieces' span and h has the same terms on
both sides of 0 there (every power kernel and L^q norm), it integrates
the pieces whole from the layout: no crossing search, no per-piece
gather, only the kernel's powers, its tables and one bincount.
Otherwise it cuts the pieces at the cuts of h they cross, drops the
sub-pieces on which h is 0, and integrates the rest.  This module keeps
each function's density for as long as the function lives (density_of),
so z(f) under several kernels, the L^q norms and the level sets of one
function build it and its layout once;
Pieces.power and Pieces.above hand out one shared Pieces per parameter,
so a norm or a level set does not rebuild h either; simplex_means
composes the two halves for one-off rows.

Batches.  integrals(functions, h) integrates one function through its
density_of.  Two or more it integrates in one value_density over all
their rows and one means(h), and keeps that density for none of them;
each function's integral is its own simplex volumes times its own rows'
means.  lq_norm, level_set_volume and valuation.apply are that sum for
one function.

Row-local arithmetic.  A row's mean depends on that row alone: every
step is elementwise or sums one row's own pieces in order (bincount),
and every sum over a small axis (Gauss-Legendre node, Bernstein index,
power of rho) runs term by term with the stack axis last (convex.dot0),
never in a matrix product, whose BLAS blocking follows the stack's
shape.  So a function's integral is the same bits alone, in any batch
and in any order.  The price is memory: a Gauss-Legendre power piece
keeps GL_POWER_NODES node weights w_j sum_k c_k B_k(u_j), 128 bytes, in
place of its N+1 coefficients, next to its GL_POWER_NODES abscissae.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import stats
from .convex import dot0
from .errors import NonFinite

if TYPE_CHECKING:
    from .plfunction import PLFunction

# Power pieces with near/far at least this ratio take the Gauss-Legendre
# rule; |t|^e is then analytic on a disc of radius 1.5 widths around the
# piece, and GL_POWER_NODES nodes reach the rounding level.
NEAR_RATIO = 1.0 / 3.0
GL_POWER_NODES = 16


# natural logs of the smallest normal and the largest finite float
_LOG_TINY, _LOG_HUGE = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)


def _in_float_range(reach: float, exponent: float, what: str) -> None:
    """NonFinite, naming the float range, when reach**exponent (reach >= 0,
    exponent > 0) overflows or falls below the smallest normal float; a
    power of 0 is 0 exactly.  Decided on logs, so no power is taken."""
    if reach > 0.0 and not _LOG_TINY <= exponent * math.log(reach) <= _LOG_HUGE:
        raise NonFinite(
            "%s %.6g to the power %.6g leaves the float range [%.3g, %.3g]"
            % (what, reach, exponent, np.finfo(float).tiny, np.finfo(float).max)
        )


def _finite(value, name: str) -> float:
    """value as a float; NonFinite, naming it, for NaN or inf."""
    value = float(value)
    if not math.isfinite(value):
        raise NonFinite("%s must be finite, got %r" % (name, value))
    return value


def c_pn(p: float, n: int) -> float:
    """Gamma(p+1) Gamma(n+1) / Gamma(n+p+1) = n! / ((p+1) ... (p+n)): the
    p-th moment of a cone function's value distribution on any polytope,
    as that finite product."""
    if p <= -1:
        raise ValueError("exponent must exceed -1")
    return math.factorial(n) / math.prod(p + j for j in range(1, n + 1))


def sobolev_conjugate(p: float, n: int) -> float:
    """np/(n-p), the critical embedding exponent; needs p < n."""
    if not 0 < p < n:
        raise ValueError("conjugate exponent needs 0 < p < n, got p=%g n=%d" % (p, n))
    return n * p / (n - p)


def hq_complete_homogeneous(values, q: int) -> float:
    """Complete homogeneous symmetric polynomial h_q of the values.

    Stable forward recurrence H[j][k] = H[j-1][k] + v_j H[j][k-1]; all
    terms are products of inputs, so no cancellation for same-signed
    values.
    """
    values = np.asarray(values, dtype=float)
    H = np.zeros(q + 1)
    H[0] = 1.0
    for v in values:
        for k in range(1, q + 1):
            H[k] += v * H[k - 1]
    return float(H[q])


# ---------------------------------------------------------------------------
# Functions of one variable, piece by piece
# ---------------------------------------------------------------------------


class _Flags(NamedTuple):
    """The kernel-only reads of a Pieces: its cuts other than 0 (the only
    ones a density's pieces can cross), every interval's ends, which
    intervals h is not identically 0 on and which carry a polynomial, for
    each exponent of a power term the intervals carrying it, which
    neighbouring intervals carry the same terms, and the largest exponent
    > 0 of a power term (0.0 when there is none)."""

    inner: np.ndarray  # (L-1,)
    edges: np.ndarray  # (L+2,) -inf, the cuts, +inf
    active: np.ndarray  # (L+1,) bool
    poly: np.ndarray  # (L+1,) bool
    groups: tuple  # ((exponent, (L+1,) bool), ...)
    alike: np.ndarray  # (L,) bool, intervals l and l+1 carry the same terms
    top: float  # 0.0 when no power term has an exponent > 0


@dataclass(frozen=True, eq=False)
class Pieces:
    """h: R -> R given on the intervals between sorted cuts.

    Interval l runs from cuts[l-1] to cuts[l] (interval 0 from -inf,
    interval L from +inf), and there

        h(t) = sum_k coefficients[l, k] (t - anchors[l])^k
               + scales[l] |t|^exponents[l].

    0 must be one of the cuts, so no power term straddles it; a power
    term is 0 at t = 0.  At a cut, h takes the value of the interval on
    its left.  Integrals do not depend on that choice; point masses (a
    simplex with one value) do.
    """

    cuts: np.ndarray  # (L,)
    anchors: np.ndarray  # (L+1,)
    coefficients: np.ndarray  # (L+1, D+1), ascending powers of (t - anchor)
    scales: np.ndarray  # (L+1,)
    exponents: np.ndarray  # (L+1,)

    def __post_init__(self):
        if not (self.cuts == 0.0).any() or (np.diff(self.cuts) <= 0.0).any():
            raise ValueError("cuts must be strictly increasing and include 0")

    @functools.cached_property
    def flags(self) -> "_Flags":
        """What the engine reads of h alone, computed once (see _Flags);
        its arrays are write-protected."""
        poly = (self.coefficients != 0.0).any(axis=1)
        power = self.scales != 0.0
        groups = tuple((float(e), power & (self.exponents == e)) for e in np.unique(self.exponents[power]))
        flags = _Flags(
            inner=self.cuts[self.cuts != 0.0],
            edges=np.concatenate([[-np.inf], self.cuts, [np.inf]]),
            active=poly | power,
            poly=poly,
            groups=groups,
            alike=np.all([on[1:] == on[:-1] for on in (poly,) + tuple(on for _, on in groups)], axis=0),
            top=max((e for e, _ in groups if e > 0.0), default=0.0),
        )
        for arr in (flags.inner, flags.edges, flags.active, poly, flags.alike) + tuple(on for _, on in groups):
            arr.setflags(write=False)
        return flags

    @staticmethod
    def power(coefficient: float, exponent: float) -> "Pieces":
        """coefficient * |t|^exponent, both finite (else NonFinite): one
        shared, write-protected Pieces per pair."""
        return _power(_finite(coefficient, "coefficient"), _finite(exponent, "exponent"))

    @staticmethod
    def above(level: float) -> "Pieces":
        """The indicator of (level, inf), level finite (else NonFinite):
        one shared, write-protected Pieces per level."""
        return _above(_finite(level, "level"))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.cuts, t, side="left")
        loc = t - self.anchors[idx]
        C = self.coefficients[idx]
        out = np.zeros_like(t)
        for k in range(C.shape[-1] - 1, -1, -1):
            out = out * loc + C[..., k]
        nz = t != 0.0
        power = self.scales[idx] * np.abs(np.where(nz, t, 1.0)) ** self.exponents[idx]
        return out + np.where(nz, power, 0.0)


def _shared(pieces: Pieces) -> Pieces:
    for arr in (pieces.cuts, pieces.anchors, pieces.coefficients, pieces.scales, pieces.exponents):
        arr.setflags(write=False)
    return pieces


@functools.lru_cache(maxsize=64)
def _power(coefficient: float, exponent: float) -> Pieces:
    return _shared(
        Pieces(
            cuts=np.zeros(1),
            anchors=np.zeros(2),
            coefficients=np.zeros((2, 1)),
            scales=np.full(2, coefficient),
            exponents=np.full(2, exponent),
        )
    )


@functools.lru_cache(maxsize=64)
def _above(level: float) -> Pieces:
    cuts = np.union1d([0.0], [level])
    # interval l lies above the level iff it starts at or after it
    step = np.concatenate([[0.0], cuts >= level])
    return _shared(
        Pieces(
            cuts=cuts,
            anchors=np.zeros(len(cuts) + 1),
            coefficients=step[:, None],
            scales=np.zeros(len(cuts) + 1),
            exponents=np.zeros(len(cuts) + 1),
        )
    )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


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


class _Orientation(NamedTuple):
    """The h-independent half of _power_pieces for a stack of pieces that
    do not straddle 0.  With near <= far the magnitudes of a piece's ends:
    the pieces taking Gauss-Legendre (near/far >= NEAR_RATIO), with the
    rule's abscissae near + (far - near) u_j and weights w_j sum_k c_k
    B_k(u_j), and the others, which take the closed form, with far,
    rho = near/far, rho^0 .. rho^{2N}, (1 - rho)^{N+1} and their
    coefficients.  The stack axis is last."""

    quad: np.ndarray  # (a,) indices of the Gauss-Legendre pieces
    abscissae: np.ndarray  # (GL_POWER_NODES, a)
    weights: np.ndarray  # (GL_POWER_NODES, a)
    closed: np.ndarray  # (b,) indices of the closed-form pieces
    far: np.ndarray  # (b,)
    rho: np.ndarray  # (b,)
    powers: np.ndarray  # (2N+1, b)
    shrink: np.ndarray  # (b,) (1 - rho)^{N+1}
    closed_c: np.ndarray  # (N+1, b)


def _orient(lo, hi, c) -> _Orientation:
    """The _Orientation of the pieces [lo, hi] (none straddling 0) whose
    density polynomials have the Bernstein coefficients c (k, N+1), read
    from their near ends."""
    N = c.shape[1] - 1
    neg = hi <= 0.0
    near = np.where(neg, -hi, lo)
    far = np.where(neg, -lo, hi)
    quad = near >= NEAR_RATIO * far
    closed = np.flatnonzero(~quad)
    quad = np.flatnonzero(quad)
    rho = near[closed] / far[closed]
    u, w, basis = _gl_bernstein(GL_POWER_NODES, N)
    return _Orientation(
        quad=quad,
        abscissae=near[quad] + (far - near)[quad] * u[:, None],
        weights=w[:, None] * dot0(basis.T[:, :, None], c[quad].T[:, None, :]),
        closed=closed,
        far=far[closed],
        rho=rho,
        powers=rho ** np.arange(2 * N + 1)[:, None],
        shrink=(1.0 - rho) ** (N + 1),
        closed_c=c[closed].T,
    )


def _power_pieces(o: _Orientation, q: float) -> np.ndarray:
    """integral_0^1 (near + (far - near) u)^q sum_k c[p, k] B^N_k(u) du per
    piece p, for pieces oriented by o (their coefficients c read from the
    near end, u = 0 at near).

    Pieces with near/far >= NEAR_RATIO take Gauss-Legendre.  The others
    take the closed form in rho = near/far and y = t/far:

        integral_0^1 (near + (far - near) u)^q B^N_k(u) du
            = far^q C(N,k) / (1-rho)^{N+1}
              * sum_i C(k,i) (-rho)^{k-i} integral_rho^1 y^{q+i} (1-y)^{N-k} dy,

    each inner integral a complete Beta minus a short series in rho times
    rho^{q+i+1}.  At rho < 1/3 the alternating sums lose a few bits at
    most, and at rho = 0 (a piece ending at 0) only Beta terms remain.
    Exponents at or below -1 (anchored extensions away from 0) expand the
    inner integral directly instead."""
    N = len(o.closed_c) - 1
    out = np.empty(len(o.quad) + len(o.closed))
    if len(o.quad):
        out[o.quad] = dot0(o.abscissae**q, o.weights)
    if len(o.closed):
        rho, powers = o.rho, o.powers
        if q > -1.0:
            P, Q = _closed_form_tables(q, N)
            K = dot0(powers[: N + 1, None], P[:, :, None]) - rho ** (q + 1.0) * dot0(powers[:, None], Q[:, :, None])
        else:
            # the Beta integrals diverge: expand (1-y)^{N-k} and integrate
            # each power from rho to 1, (1 - rho^e)/e, or -log(rho) at e = 0
            e = q + 1.0 + np.arange(N + 1)[:, None]
            log_rho = np.log(rho)
            safe_e = np.where(e == 0.0, 1.0, e)
            inner = np.where(e == 0.0, -log_rho, -np.expm1(e * log_rho) / safe_e)
            M = _expansion_table(N).transpose(1, 0, 2)[..., None]  # (s, p, k, 1)
            K = dot0(powers[: N + 1, None], dot0(inner[:, None, None], M))
        out[o.closed] = dot0(K, o.closed_c) * o.far**q / o.shrink
    return out


def _poly_pieces(x0, x1, c, anchors, coefficients) -> np.ndarray:
    """Exact Gauss-Legendre integral of a polynomial piece against each
    sub-piece's density polynomial (c read from x0)."""
    N = c.shape[1] - 1
    D = coefficients.shape[1] - 1
    u, w, basis = _gl_bernstein((D + N) // 2 + 1, N)
    loc = x0 + (x1 - x0) * u[:, None] - anchors
    h = np.zeros_like(loc)
    for k in range(D, -1, -1):
        h = h * loc + coefficients[:, k]
    return dot0(h, w[:, None] * dot0(basis.T[:, :, None], c.T[:, None, :]))


def _crossings(lo, hi, cuts):
    """(piece, interval): one entry per sub-piece of the pieces [lo, hi]
    between consecutive sorted cuts, by piece and within a piece from low
    to high: its piece, and the interval of the cuts it lies in (interval
    l runs from cuts[l-1] to cuts[l])."""
    stats.calls["crossings"] += 1
    first = np.searchsorted(cuts, lo, side="right")
    count = np.searchsorted(cuts, hi, side="left") - first + 1
    piece = np.repeat(np.arange(len(lo)), count)
    interval = first[piece] + np.arange(len(piece)) - np.repeat(np.cumsum(count) - count, count)
    return piece, interval


def _restrict(c, lo, hi, x0, x1):
    """Bernstein coefficients (read from the low end) of the density on
    [x0, x1] within pieces [lo, hi] of coefficients c: de Casteljau
    subdivision, times the share x1 - x0 of the piece's width."""
    width = hi - lo
    c = _subdivide(c, (x0 - lo) / width, (x1 - lo) / width)
    c *= ((x1 - x0) / width)[:, None]
    return c


def _flip(c, neg):
    """Bernstein coefficients read from the other end where neg; exact,
    and its own inverse."""
    return np.where(neg[:, None], c[:, ::-1], c)


def _cut(c, lo, hi, piece, interval, edges):
    """(c, x0, x1): the part [x0, x1] of pieces[piece] in interval
    `interval` of the sorted edges, for pieces [lo, hi] with coefficients
    c read from the low end; so are the parts'.  A part that is its whole
    piece keeps the piece's coefficients."""
    x0 = np.maximum(lo[piece], edges[interval])
    x1 = np.minimum(hi[piece], edges[interval + 1])
    lo, hi, c = lo[piece], hi[piece], c[piece]
    cut = np.flatnonzero((x0 > lo) | (x1 < hi))
    if len(cut):
        c[cut] = _restrict(c[cut], lo[cut], hi[cut], x0[cut], x1[cut])
    return c, x0, x1


class _Sides(NamedTuple):
    """Which side of 0 each piece of a density lies on, and which sides
    occur.  A piece's side is its interval of h when 0 is h's only cut,
    and its interval less the number of h's other cuts at or below the
    pieces when none falls inside the pieces' span
    (ValueDensity._uncut_base)."""

    below: np.ndarray  # (k,) bool, the pieces at or below 0
    first: int  # the lowest side that occurs: 0 below, 1 above
    last: int  # the highest


@dataclass(frozen=True, eq=False)
class ValueDensity:
    """The value densities of a stack of simplices, the kernel-independent
    half of the engine: each row's vertex values sorted, the rows with zero
    spread (point masses) with their values, and the density's pieces.  A
    piece is a segment of positive width between two knots of a row, cut
    at 0 where it crosses it, so no piece straddles 0; each has its ends,
    row and Bernstein coefficients, read from its low end.

    means(h) is the kernel-dependent half.  It cuts the pieces only at
    h's cuts other than 0 that fall inside the pieces' span, so a power
    kernel or a norm cuts nothing.  What means reads of the density alone
    is computed on first use and kept in slots outside the fields: each
    piece's side of 0 (sides), the pieces' span, and the power rule's
    orientation with its Gauss-Legendre abscissae and node weights, read
    from each piece's end nearer 0, gathered by rule (orientation).  Two
    densities of the same rows have the same fields whatever kernels
    either has met, and a kernel on a kept density does only its own
    arithmetic.  The layout is linear in the pieces; its largest part is
    the power rule's abscissae and node weights, 2 GL_POWER_NODES floats
    per piece that takes it."""

    __slots__ = ("__dict__", "__weakref__", "_sides", "_span", "_reach", "_orientation")

    sorted_rows: np.ndarray  # (m, n+1)
    point_rows: np.ndarray  # (p,) indices of the point-mass rows
    point_values: np.ndarray  # (p,)
    coefficients: np.ndarray  # (k, n), see _segment_density, read from the low end
    lo: np.ndarray  # (k,)
    hi: np.ndarray  # (k,)
    piece_row: np.ndarray  # (k,)

    def _kept(self, slot: str, build):
        """The slot's value, built on first use."""
        got = getattr(self, slot, None)
        if got is None:
            got = build()
            object.__setattr__(self, slot, got)
        return got

    def sides(self) -> _Sides:
        """Each piece's side of 0, and which sides occur; needs a piece."""

        def build():
            below = self.hi <= 0.0
            count = np.count_nonzero(below)
            return _Sides(below, 0 if count else 1, 0 if count == len(below) else 1)

        return self._kept("_sides", build)

    def span(self) -> tuple:
        """The smallest and largest ends of the pieces; needs a piece."""
        return self._kept("_span", lambda: (self.lo.min(), self.hi.max()))

    def reach(self) -> float:
        """The largest |value| the rows reach, read off the pieces' span
        and the point masses."""

        def build():
            low, high = self.span() if len(self.lo) else (0.0, 0.0)
            return max(-float(low), float(high), float(np.abs(self.point_values).max(initial=0.0)))

        return self._kept("_reach", build)

    def orientation(self) -> _Orientation:
        """The power rule's orientation of this density's pieces."""
        return self._kept(
            "_orientation", lambda: _orient(self.lo, self.hi, _flip(self.coefficients, self.sides().below))
        )

    def _uncut_base(self, inner):
        """The interval of h that the pieces below 0 lie in, when none of
        h's cuts other than 0, inner, falls strictly inside the pieces'
        span (each piece then lies in the interval of its side plus that
        base); None otherwise."""
        if not len(inner):
            return 0
        low, high = self.span()
        base = int(np.searchsorted(inner, low, side="right"))
        return base if base == np.searchsorted(inner, high, side="left") else None

    def means(self, h: Pieces) -> np.ndarray:
        """Mean of h over each row's density.  When no cut of h other than
        0 falls inside the pieces' span and every term of h covers all the
        sides of 0 the pieces lie on or none, the pieces are integrated
        whole from the kept layout; otherwise they are cut at the cuts of
        h other than 0 they cross, keeping the sub-pieces on which h is
        not identically 0, and each sub-piece is integrated.  Raises
        NonFinite, before any power is taken, when the largest |value|
        to a power of h leaves the float range."""
        stats.calls["means"] += 1
        flags = h.flags
        if flags.top:
            _in_float_range(self.reach(), flags.top, "the largest |value|")
        m = len(self.sorted_rows)
        out = np.zeros(m)
        if len(self.point_rows):
            out[self.point_rows] = h(self.point_values)
        if len(self.lo) == 0:
            return out
        sides = self.sides()
        base = self._uncut_base(flags.inner)
        val = None if base is None else self._whole_means(h, flags, sides, base)
        row = self.piece_row
        if val is None:
            val, row = self._cut_means(h, flags, sides)
        out += np.bincount(row, weights=val, minlength=m)
        return out

    def _whole_means(self, h: Pieces, flags: _Flags, sides: _Sides, base: int):
        """Each piece's integral when every piece lies in the interval of
        h of its side plus base; None when a side's interval carries no
        term of h, or the two sides' intervals carry different terms."""
        first, last = base + sides.first, base + sides.last
        if not (flags.active[first] and flags.active[last]) or (first < last and not flags.alike[first]):
            return None

        def per_piece(arr):
            # the sides' one value broadcast over the pieces, if they share it
            if first == last or (arr[first] == arr[last]).all():
                return arr[first : first + 1]
            return arr[np.where(sides.below, first, last)]

        val = None
        if flags.poly[first]:
            val = _poly_pieces(self.lo, self.hi, self.coefficients, per_piece(h.anchors), per_piece(h.coefficients))
        for e, on in flags.groups:
            if on[first]:
                term = per_piece(h.scales) * _power_pieces(self.orientation(), e)
                val = term if val is None else val + term
        return val

    def _cut_means(self, h: Pieces, flags: _Flags, sides: _Sides):
        """(val, row): the integral and row of each sub-piece on which h is
        not identically 0, the pieces cut at the cuts of h other than 0."""
        piece, interval = _crossings(self.lo, self.hi, flags.inner)
        interval += ~sides.below[piece]  # a piece's side of 0 picks its interval of h
        live = flags.active[interval]
        piece, interval = piece[live], interval[live]
        c, lo, hi = _cut(self.coefficients, self.lo, self.hi, piece, interval, flags.edges)
        row, below = self.piece_row[piece], sides.below[piece]

        val = np.zeros(len(lo))
        poly = flags.poly[interval]
        if poly.any():
            ip = interval[poly]
            val[poly] = _poly_pieces(lo[poly], hi[poly], c[poly], h.anchors[ip], h.coefficients[ip])
        for e, on in flags.groups:
            sel = on[interval]
            if sel.any():
                o = _orient(lo[sel], hi[sel], _flip(c[sel], below[sel]))
                val[sel] += h.scales[interval[sel]] * _power_pieces(o, e)
        return val, row


def value_density(values) -> ValueDensity:
    """The ValueDensity of the value rows `values` (m, n+1), one simplex
    per row; its arrays are write-protected."""
    stats.calls["densities"] += 1
    V = np.sort(np.asarray(values, dtype=float), axis=1)
    n = V.shape[1] - 1
    rows = np.arange(len(V))
    point = V[:, -1] == V[:, 0]
    spread = V[~point]
    A = _segment_density(spread).reshape(-1, n)
    lo = spread[:, :-1].ravel()
    hi = spread[:, 1:].ravel()
    seg_row = np.repeat(rows[~point], n)
    live = hi > lo
    A, lo, hi, seg_row = A[live], lo[live], hi[live], seg_row[live]
    # cut every segment that crosses 0, as means would for any h
    if ((lo < 0.0) & (hi > 0.0)).any():
        seg, interval = _crossings(lo, hi, np.zeros(1))
        A, lo, hi = _cut(A, lo, hi, seg, interval, np.array([-np.inf, 0.0, np.inf]))
        seg_row = seg_row[seg]
    density = ValueDensity(V, rows[point], V[point, 0], A, lo, hi, seg_row)
    for arr in vars(density).values():
        arr.setflags(write=False)
    return density


# each function's density, freed with the function
_densities = weakref.WeakKeyDictionary()


def density_of(f: PLFunction) -> ValueDensity:
    """The ValueDensity of f's simplex value rows, built on first use and
    kept while f lives, shared by every kernel and norm integrated over
    f alone: its pieces are cut at 0 once, and oriented for power kernels
    once, so each later kernel or norm does only the work that depends on
    it (ValueDensity.means).  A batch of functions (integrals) neither
    reads nor fills it."""
    density = _densities.get(f)
    if density is None:
        density = _densities[f] = value_density(f.simplex_values())
    return density


def simplex_means(values, h: Pieces) -> np.ndarray:
    """Mean of h(f) over each simplex, f affine with the vertex values in
    each row of `values` (m, n+1): the integral of h against each row's
    value density, all rows at once.  A function integrated under several
    kernels should build its density once (density_of)."""
    return value_density(values).means(h)


def integrals(functions, h: Pieces) -> np.ndarray:
    """The integral over R^n of h(f) for each function (h(0) = 0), in
    input order: a function's simplex volumes times the means of h over
    its rows.  One function reads its density_of; two or more build one
    value_density over all their rows, run one means(h) and keep no
    density.  An empty function gives 0.  The functions must share a
    dimension.  Raises NonFinite, before any power is taken, when a
    function's own largest |value| to a power of h leaves the float
    range."""
    functions = list(functions)
    for f in functions[1:]:
        if f.dim != functions[0].dim:
            raise ValueError("dimension mismatch: %d vs %d" % (functions[0].dim, f.dim))
    out = np.zeros(len(functions))
    live = [i for i, f in enumerate(functions) if not f.complex.is_empty()]
    if len(live) == 1:
        f = functions[live[0]]
        out[live] = f.complex.simplex_volumes() @ density_of(f).means(h)
    elif live:
        rows = [functions[i].simplex_values() for i in live]
        if h.flags.top:
            for values in rows:
                _in_float_range(float(np.abs(values).max()), h.flags.top, "the largest |value|")
        means = value_density(np.concatenate(rows)).means(h)
        for i, own in zip(live, np.split(means, np.cumsum([len(values) for values in rows])[:-1])):
            out[i] = functions[i].complex.simplex_volumes() @ own
    return out


def lq_norms(functions, q: float) -> np.ndarray:
    """The L^q norm of each function (q >= 1, finite), integrated in one
    batch."""
    _finite(q, "norm exponent")
    if q < 1:
        raise ValueError("norm exponent must be >= 1")
    return np.array([float(v) ** (1.0 / q) for v in integrals(functions, Pieces.power(1.0, q))])


def lq_norm(f: PLFunction, q: float) -> float:
    """L^q norm of f (q >= 1, finite); exact per-simplex moments."""
    return float(lq_norms([f], q)[0])


def grad_p_norm(f: PLFunction, p: float) -> float:
    """L^p norm of |grad f| (p >= 1, finite); the gradient is constant
    per simplex.  Raises NonFinite when the largest |grad f| to the p
    leaves the float range."""
    _finite(p, "norm exponent")
    if p < 1:
        raise ValueError("norm exponent must be >= 1")
    if f.complex.is_empty():
        return 0.0
    grads, _ = f.affines()
    vols = f.complex.simplex_volumes()
    mags = np.linalg.norm(grads, axis=1)
    _in_float_range(float(mags.max()), p, "the largest |grad f|")
    return float(np.sum(vols * mags**p)) ** (1.0 / p)


def sobolev_norm(f: PLFunction, p: float) -> float:
    """W^{1,p} norm: (||f||_p^p + ||grad f||_p^p)^{1/p}, p >= 1 finite."""
    _finite(p, "norm exponent")
    return float((lq_norm(f, p) ** p + grad_p_norm(f, p) ** p) ** (1.0 / p))


def level_set_volume(f: PLFunction, t: float) -> float:
    """Volume of {f > t} for finite t > 0 (finite because supports are
    compact)."""
    _finite(t, "level")
    if t <= 0:
        raise ValueError("level must be positive; {f > t} has infinite volume otherwise")
    return float(integrals([f], Pieces.above(t))[0])


def fisher_matrix(f: PLFunction) -> np.ndarray:
    """Integral of grad f grad f^T, an n x n matrix."""
    if f.complex.is_empty():
        return np.zeros((f.dim, f.dim))
    grads, _ = f.affines()
    vols = f.complex.simplex_volumes()
    return np.einsum("i,ij,ik->jk", vols, grads, grads)
