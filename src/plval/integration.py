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

No cancellation.  The Bernstein coefficients are nonnegative, so when h
is nonnegative (|t|^q, indicators) each sub-piece contributes a
nonnegative amount computed to a few ulps, and the sum over sub-pieces
and segments cannot cancel.  A value row with a zero spread is a point
mass and contributes h at its value.

Two halves.  The segments' coefficients do not depend on h:
value_density(values) sorts the rows and builds them once, and
ValueDensity.means(h) does the cutting, subdivision and piece integrals
for one h.  A PLFunction caches its density (PLFunction.value_density),
so z(f) under several kernels, the L^q norms and the level sets of one
function build it once; simplex_means composes the two halves for
one-off rows.

For integer exponents there is an independent route through complete
homogeneous symmetric polynomials; the two must agree and the tests
exploit that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import beta, gammaln

from .errors import NegativeValues
from .plfunction import PLFunction

# Power pieces with near/far at least this ratio take the Gauss-Legendre
# rule; |t|^e is then analytic on a disc of radius 1.5 widths around the
# piece, and GL_POWER_NODES nodes reach the rounding level.
NEAR_RATIO = 1.0 / 3.0
GL_POWER_NODES = 16


def c_pn(p: float, n: int) -> float:
    """Gamma(p+1) Gamma(n+1) / Gamma(n+p+1): the p-th moment of a cone
    function's value distribution on any polytope."""
    if p <= -1:
        raise ValueError("exponent must exceed -1")
    return math.exp(gammaln(p + 1) + gammaln(n + 1) - gammaln(n + p + 1))


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


def integrate_power_over_simplex(values, volume: float, q: float) -> float:
    """Integral of f^q over a simplex, f affine with the given nonnegative
    vertex values.

    Integer q uses the closed form vol * n! q! / (n+q)! * h_q(values);
    other exponents go through the engine (simplex_means).
    """
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise NegativeValues("vertex values must be nonnegative for power integrals")
    n = len(values) - 1
    if q < 0:
        raise ValueError("exponent must be nonnegative, got %r" % (q,))
    if q != int(q):
        return volume * float(simplex_means(values[None, :], Pieces.power(1.0, float(q)))[0])
    q = int(q)
    coeff = math.exp(gammaln(n + 1) + gammaln(q + 1) - gammaln(n + q + 1))
    return volume * coeff * hq_complete_homogeneous(values, q)


# ---------------------------------------------------------------------------
# Functions of one variable, piece by piece
# ---------------------------------------------------------------------------


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

    @staticmethod
    def power(coefficient: float, exponent: float) -> "Pieces":
        """coefficient * |t|^exponent."""
        return Pieces(
            cuts=np.zeros(1),
            anchors=np.zeros(2),
            coefficients=np.zeros((2, 1)),
            scales=np.full(2, float(coefficient)),
            exponents=np.full(2, float(exponent)),
        )

    @staticmethod
    def above(level: float) -> "Pieces":
        """The indicator of (level, inf)."""
        cuts = np.union1d([0.0], [float(level)])
        # interval l lies above the level iff it starts at or after it
        step = np.concatenate([[0.0], cuts >= level])
        return Pieces(
            cuts=cuts,
            anchors=np.zeros(len(cuts) + 1),
            coefficients=step[:, None],
            scales=np.zeros(len(cuts) + 1),
            exponents=np.zeros(len(cuts) + 1),
        )

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
            P[k - i, k] = math.comb(N, k) * math.comb(k, i) * sign * beta(q + i + 1.0, b + 1.0)
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
        out[quad] = np.sum(((F * w) @ basis) * c[quad], axis=1)
    closed = ~quad
    if closed.any():
        rho = near[closed] / far[closed]
        powers = rho[:, None] ** np.arange(2 * N + 1)
        if q > -1.0:
            P, Q = _closed_form_tables(q, N)
            K = powers[:, : N + 1] @ P - (powers @ Q) * (rho ** (q + 1.0))[:, None]
        else:
            # the Beta integrals diverge: expand (1-y)^{N-k} and integrate
            # each power from rho to 1, (1 - rho^e)/e, or -log(rho) at e = 0
            e = q + 1.0 + np.arange(N + 1)
            log_rho = np.log(rho)[:, None]
            safe_e = np.where(e == 0.0, 1.0, e)
            inner = np.where(e == 0.0, -log_rho, -np.expm1(e * log_rho) / safe_e)
            K = np.einsum("xp,xs,psk->xk", powers[:, : N + 1], inner, _expansion_table(N))
        out[closed] = np.sum(K * c[closed], axis=1) * far[closed] ** q / (1.0 - rho) ** (N + 1)
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
    return np.sum(((h * w) @ basis) * c, axis=1)


@dataclass(frozen=True, eq=False)
class ValueDensity:
    """The value densities of a stack of simplices, the kernel-independent
    half of the engine: each row's vertex values sorted, the rows with zero
    spread (point masses) with their values, and the Bernstein
    coefficients, ends and row index of every segment of positive width.
    means(h) is the kernel-dependent half."""

    sorted_rows: np.ndarray  # (m, n+1)
    point_rows: np.ndarray  # (p,) indices of the point-mass rows
    point_values: np.ndarray  # (p,)
    coefficients: np.ndarray  # (k, n), see _segment_density
    lo: np.ndarray  # (k,)
    hi: np.ndarray  # (k,)
    seg_row: np.ndarray  # (k,)

    def means(self, h: Pieces) -> np.ndarray:
        """Mean of h over each row's density: split every segment at the
        cuts of h it crosses, then integrate each sub-piece."""
        m = len(self.sorted_rows)
        out = np.zeros(m)
        if len(self.point_rows):
            out[self.point_rows] = h(self.point_values)
        if len(self.lo) == 0:
            return out
        A, lo, hi, seg_row = self.coefficients, self.lo, self.hi, self.seg_row

        # split every segment at the cuts it crosses, keeping the sub-pieces
        # on which h is not identically 0
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
            piece_val[poly] = _poly_pieces(
                x0[poly], x1[poly], c[poly], h.anchors[ip], h.coefficients[ip]
            )
        for e in np.unique(h.exponents[power_on]):
            sel = (power_on & (h.exponents == e))[interval]
            if sel.any():
                power = _power_pieces(x0[sel], x1[sel], c[sel], float(e))
                piece_val[sel] += h.scales[interval[sel]] * power
        out += np.bincount(seg_row[seg], weights=piece_val, minlength=m)
        return out


def value_density(values) -> ValueDensity:
    """The ValueDensity of the value rows `values` (m, n+1), one simplex
    per row; its arrays are write-protected."""
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
    density = ValueDensity(
        V, rows[point], V[point, 0], A[live], lo[live], hi[live], seg_row[live]
    )
    for arr in vars(density).values():
        arr.setflags(write=False)
    return density


def simplex_means(values, h: Pieces) -> np.ndarray:
    """Mean of h(f) over each simplex, f affine with the vertex values in
    each row of `values` (m, n+1): the integral of h against each row's
    value density, all rows at once.  A function integrated under several
    kernels should build its density once (PLFunction.value_density)."""
    return value_density(values).means(h)


@dataclass(eq=False)
class PushforwardDensity:
    """Distribution of an affine function's value under the uniform
    probability measure on an n-simplex: a one-row view of the engine."""

    values: np.ndarray
    dim: int
    _density: ValueDensity = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.sort(np.asarray(self.values, dtype=float))
        if len(self.values) != self.dim + 1:
            raise ValueError("need dim+1 vertex values")
        self._density = value_density(self.values[None, :])

    @property
    def is_dirac(self) -> bool:
        return bool(self.values[-1] == self.values[0])

    def pdf(self, t):
        if self.is_dirac:
            raise ValueError("point mass has no density")
        t = np.asarray(t, dtype=float)
        V = self.values
        j = np.clip(np.searchsorted(V, t, side="right") - 1, 0, self.dim - 1)
        d = V[j + 1] - V[j]
        # segment j's place among the live ones; a dead one is masked below
        live = np.flatnonzero(V[1:] > V[:-1])
        A = self._density.coefficients[np.minimum(np.searchsorted(live, j), len(live) - 1)]
        s = (t - V[j]) / np.where(d > 0.0, d, 1.0)
        basis = _bernstein(s, self.dim - 1)
        dens = np.sum(A * basis, axis=-1) / np.where(d > 0.0, d, 1.0)
        inside = (t >= V[0]) & (t <= V[-1]) & (d > 0.0)
        return np.where(inside, dens, 0.0)

    def cdf(self, t: float) -> float:
        """Fraction of the simplex where the function is at most t."""
        return 1.0 - float(self._density.means(Pieces.above(t))[0])

    def moment_abs(self, q: float) -> float:
        """Integral of |t|^q against the density."""
        if q < 0:
            raise ValueError("exponent must be nonnegative")
        return float(self._density.means(Pieces.power(1.0, q))[0])


def lq_norm(f: PLFunction, q: float) -> float:
    """L^q norm of f (q >= 1); exact per-simplex moments."""
    if q < 1:
        raise ValueError("norm exponent must be >= 1")
    if f.complex.is_empty():
        return 0.0
    means = f.value_density().means(Pieces.power(1.0, q))
    return float(f.complex.simplex_volumes() @ means) ** (1.0 / q)


def grad_p_norm(f: PLFunction, p: float) -> float:
    """L^p norm of |grad f|; the gradient is constant per simplex."""
    if p < 1:
        raise ValueError("norm exponent must be >= 1")
    if f.complex.is_empty():
        return 0.0
    grads, _ = f.affines()
    vols = f.complex.simplex_volumes()
    mags = np.linalg.norm(grads, axis=1)
    return float(np.sum(vols * mags**p)) ** (1.0 / p)


def sobolev_norm(f: PLFunction, p: float) -> float:
    """W^{1,p} norm: (||f||_p^p + ||grad f||_p^p)^{1/p}."""
    return float((lq_norm(f, p) ** p + grad_p_norm(f, p) ** p) ** (1.0 / p))


def level_set_volume(f: PLFunction, t: float) -> float:
    """Volume of {f > t} for t > 0 (finite because supports are compact)."""
    if t <= 0:
        raise ValueError("level must be positive; {f > t} has infinite volume otherwise")
    if f.complex.is_empty():
        return 0.0
    return float(f.complex.simplex_volumes() @ f.value_density().means(Pieces.above(t)))


def fisher_matrix(f: PLFunction) -> np.ndarray:
    """Integral of grad f grad f^T, an n x n matrix."""
    if f.complex.is_empty():
        return np.zeros((f.dim, f.dim))
    grads, _ = f.affines()
    vols = f.complex.simplex_volumes()
    return np.einsum("i,ij,ik->jk", vols, grads, grads)
