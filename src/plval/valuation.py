"""Valuations z(f) = integral of h(f(x)) dx and their kernel calculus.

A kernel is a continuous h: R -> R with h(0) = 0 (so the integral over
R^n of h composed with a compactly supported function is finite).  The
cone profile c(s) = z(s * cone_P) / |P| is independent of P; it equals
the moment integral of h against the cone value density, i.e.

    c(s) = n s^{-n} * integral_0^s h(t) (s-t)^{n-1} dt,

an (n-1)-fold smoothing of h.  Differentiating n times inverts it:

    h(s) = sum_{j=0}^n  C(n,j) s^j c^{(j)}(s) / j!

which recover_kernel implements on a uniform grid, and psi_check tests
order-k versions of the same identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GridTooCoarse,
    InsufficientDecades,
    KernelNonzeroAtZero,
    NegativeValues,
)
from .integration import Pieces, c_pn, simplex_means, sobolev_conjugate
from .plfunction import PLFunction
from .serialize import read_finite

KERNEL_ZERO_TOL = 1e-12
BREAK_CONTINUITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class Kernel:
    """Base class: a function of one variable given as Pieces, callable on
    arrays."""

    def pieces(self) -> Pieces:
        raise NotImplementedError

    def __call__(self, t):
        return self.pieces()(t)

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(eq=False)
class PowerKernel(Kernel):
    """h(t) = coefficient * |t|^exponent, exponent > 0."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if self.exponent <= 0:
            raise KernelNonzeroAtZero(
                "power kernel with exponent %g does not vanish at zero" % self.exponent
            )

    def pieces(self) -> Pieces:
        return Pieces.power(self.coefficient, self.exponent)

    def to_json_dict(self):
        return {
            "type": "power",
            "coeff": float(self.coefficient),
            "exponent": float(self.exponent),
        }


def _spline_pieces(knots, rows, lower, upper) -> Pieces:
    """Pieces of the function that is the polynomial rows[i] (ascending
    powers of t - knots[i]) on [knots[i], knots[i+1]], extended beyond
    each end by the anchored power law of that end: for the anchor
    (a, h_a, e), h(t) = h_a (t/a)^e where t/a > 0, and 0 elsewhere (also
    when a = 0 or h_a = 0)."""
    cuts = np.union1d(knots, [0.0])
    # one point inside each interval; 0 is a cut, so its sign is the interval's
    reps = np.concatenate([[cuts[0] - 1.0], 0.5 * (cuts[1:] + cuts[:-1]), [cuts[-1] + 1.0]])
    idx = np.clip(np.searchsorted(knots, reps) - 1, 0, len(knots) - 2)
    inner = (reps > knots[0]) & (reps < knots[-1])
    coefficients = np.where(inner[:, None], rows[idx], 0.0)
    scales = np.zeros(len(reps))
    exponents = np.zeros(len(reps))
    for side, (a, h_a, e) in ((reps < knots[0], lower), (reps > knots[-1], upper)):
        if a == 0.0 or h_a == 0.0:
            continue
        on = side & (reps / a > 0.0)
        scales[on] = h_a / abs(a) ** e
        exponents[on] = e
    return Pieces(cuts, knots[idx], coefficients, scales, exponents)


@dataclass(eq=False)
class PiecewisePolyKernel(Kernel):
    """Polynomial pieces on [b_i, b_{i+1}] in the local basis (t - b_i),
    with anchored power-law extensions beyond the outermost breakpoints."""

    knots: np.ndarray
    coefficients: np.ndarray  # (pieces, degree+1), ascending local powers
    extension_lower: float = 0.0
    extension_upper: float = 0.0
    _pieces: Pieces = field(init=False, repr=False)

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.coefficients = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        if len(self.knots) < 2 or np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must be strictly increasing, at least two")
        if self.coefficients.shape[0] != len(self.knots) - 1:
            raise ValueError("need one coefficient row per piece")
        top = float(self._piece_eval(len(self.knots) - 2, self.knots[-1:])[0])
        self._pieces = _spline_pieces(
            self.knots,
            self.coefficients,
            (self.knots[0], float(self.coefficients[0, 0]), self.extension_lower),
            (self.knots[-1], top, self.extension_upper),
        )
        self._validate()

    def _piece_eval(self, i, t):
        loc = t - self.knots[i]
        out = np.zeros_like(loc)
        for k in range(self.coefficients.shape[1] - 1, -1, -1):
            out = out * loc + self.coefficients[i, k]
        return out

    def _validate(self):
        scale = max(1.0, float(np.max(np.abs(self.coefficients))))
        for i in range(len(self.knots) - 2):
            left = self._piece_eval(i, np.array([self.knots[i + 1]]))[0]
            right = self._piece_eval(i + 1, np.array([self.knots[i + 1]]))[0]
            if abs(left - right) > BREAK_CONTINUITY_TOL * scale:
                raise ValueError(
                    "pieces disagree by %.3g at knot %g" % (abs(left - right), self.knots[i + 1])
                )
        z = float(self(np.zeros(1))[0])
        if abs(z) > KERNEL_ZERO_TOL * scale:
            raise KernelNonzeroAtZero("kernel value %.3g at zero" % z)

    def pieces(self) -> Pieces:
        return self._pieces

    def to_json_dict(self):
        return {
            "type": "piecewise_poly",
            "knots": [float(x) for x in self.knots],
            "coefficients": [[float(c) for c in row] for row in self.coefficients],
            "extension_lower": float(self.extension_lower),
            "extension_upper": float(self.extension_upper),
        }


@dataclass(eq=False)
class TabulatedKernel(Kernel):
    """Linear interpolation through (t_i, h_i) samples, anchored power-law
    extensions outside the sampled range."""

    ts: np.ndarray
    hs: np.ndarray
    extension_lower: float = 0.0
    extension_upper: float = 0.0
    _pieces: Pieces = field(init=False, repr=False)

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.hs = np.asarray(self.hs, dtype=float)
        if len(self.ts) < 2 or np.any(np.diff(self.ts) <= 0):
            raise ValueError("sample points must be strictly increasing, at least two")
        if self.ts.shape != self.hs.shape:
            raise ValueError("sample point and value arrays must match")
        slopes = np.diff(self.hs) / np.diff(self.ts)
        self._pieces = _spline_pieces(
            self.ts,
            np.column_stack([self.hs[:-1], slopes]),
            (self.ts[0], float(self.hs[0]), self.extension_lower),
            (self.ts[-1], float(self.hs[-1]), self.extension_upper),
        )
        scale = max(1.0, float(np.max(np.abs(self.hs))))
        z = float(self(np.zeros(1))[0])
        if abs(z) > KERNEL_ZERO_TOL * scale:
            raise KernelNonzeroAtZero("kernel value %.3g at zero" % z)

    def pieces(self) -> Pieces:
        return self._pieces

    def to_json_dict(self):
        return {
            "type": "tabulated",
            "s": [float(x) for x in self.ts],
            "h": [float(x) for x in self.hs],
            "extension_lower": float(self.extension_lower),
            "extension_upper": float(self.extension_upper),
        }


def kernel_from_json_dict(data: dict) -> Kernel:
    kind = data.get("type")

    def number(key, default=None):
        return float(read_finite(data, key, "kernel", default))

    if kind == "power":
        return PowerKernel(number("coeff"), number("exponent"))
    if kind == "piecewise_poly":
        return PiecewisePolyKernel(
            read_finite(data, "knots", "kernel"),
            read_finite(data, "coefficients", "kernel"),
            number("extension_lower", 0.0),
            number("extension_upper", 0.0),
        )
    if kind == "tabulated":
        return TabulatedKernel(
            read_finite(data, "s", "kernel"),
            read_finite(data, "h", "kernel"),
            number("extension_lower", 0.0),
            number("extension_upper", 0.0),
        )
    raise ValueError("unknown kernel type %r" % kind)


def homogeneous_kernel(value: float, q: float, n: int) -> PowerKernel:
    """The kernel whose cone profile is exactly value * s^q in dimension n:
    h(t) = value / c_{q,n} * |t|^q."""
    if q <= 0:
        raise ValueError("homogeneity degree must be positive, got %g" % q)
    return PowerKernel(value / c_pn(q, n), q)


def even_odd_split(kernel: Kernel):
    """(even part, odd part) with h = even + odd, both valid kernels.

    Exact for power and piecewise-polynomial kernels; tabulated kernels
    are split on the symmetrized grid.  Extensions beyond the reflected
    span are dropped (zero), since the average of two differently
    anchored power laws is not itself one.
    """
    if isinstance(kernel, PowerKernel):
        return kernel, PowerKernel(0.0, kernel.exponent)
    if isinstance(kernel, PiecewisePolyKernel):
        # 0 joins the knot set so the parts interpolate h(0)=0 exactly
        knots = np.unique(np.concatenate([kernel.knots, -kernel.knots, [0.0]]))
        rows_e, rows_o = [], []
        ncoef = kernel.coefficients.shape[1]
        for a, b in zip(knots[:-1], knots[1:]):
            # h(t) and h(-t) are polynomials of the piece degree on [a, b],
            # so interpolation at ncoef points recovers them exactly
            ts = np.linspace(a, b, ncoef)
            hp = kernel(ts)
            hm = kernel(-ts)
            V = np.vander(ts - a, ncoef, increasing=True)
            ce = np.linalg.solve(V, 0.5 * (hp + hm))
            co = np.linalg.solve(V, 0.5 * (hp - hm))
            rows_e.append(ce)
            rows_o.append(co)
        return (
            PiecewisePolyKernel(knots, np.array(rows_e)),
            PiecewisePolyKernel(knots, np.array(rows_o)),
        )
    if isinstance(kernel, TabulatedKernel):
        ts = np.unique(np.concatenate([kernel.ts, -kernel.ts]))
        hp = kernel(ts)
        hm = kernel(-ts)
        return (
            TabulatedKernel(ts, 0.5 * (hp + hm)),
            TabulatedKernel(ts, 0.5 * (hp - hm)),
        )
    raise TypeError("cannot split kernel of type %s" % type(kernel).__name__)


# ---------------------------------------------------------------------------
# Applying a kernel to a function
# ---------------------------------------------------------------------------


def apply(kernel: Kernel, f: PLFunction) -> float:
    """z(f) = integral over R^n of kernel(f(x)) dx."""
    if f.complex.is_empty():
        return 0.0
    return float(f.complex.simplex_volumes() @ f.value_density().means(kernel.pieces()))


# ---------------------------------------------------------------------------
# Cone profiles
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _fd_weights_cached(offsets: tuple, order: int) -> tuple:
    return tuple(_fd_weights(np.array(offsets, dtype=float), 0.0, order))


def _fd_weights(nodes: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 (Fornberg)."""
    N = len(nodes) - 1
    C = np.zeros((N + 1, m + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, N + 1):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C[:, m]


def stencil_halfwidth(order: int) -> int:
    return max(2, (order + 3) // 2)


@dataclass(eq=False)
class CProfile:
    """Cone profile samples c(s_i) on a uniform grid, with derivative
    tables by finite differences."""

    s: np.ndarray
    c: np.ndarray
    dim: int
    volume: float = 1.0
    _deriv: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        if self.s.shape != self.c.shape or self.s.ndim != 1:
            raise ValueError("s and c must be matching 1-d arrays")
        if np.any(self.s < -1e-12):
            raise NegativeValues("profile grid must be nonnegative")
        if len(self.s) < 2 * self.dim + 1:
            raise GridTooCoarse(
                "need at least %d grid points for dimension %d, got %d"
                % (2 * self.dim + 1, self.dim, len(self.s))
            )
        steps = np.diff(self.s)
        self.step = float(steps[0])
        if self.step <= 0 or np.max(np.abs(steps - self.step)) > 1e-9 * max(1.0, self.step):
            raise ValueError("profile grid must be uniform and increasing")
        cscale = max(1.0, float(np.max(np.abs(self.c))))
        if abs(self.s[0]) <= 1e-12 and abs(self.c[0]) > 1e-9 * cscale:
            raise ValueError("profile must vanish at s=0, got %.3g" % self.c[0])

    def __len__(self):
        return len(self.s)

    def derivative_table(self, order: int) -> np.ndarray:
        """c^{(order)} at every grid point; centered stencils inside,
        shifted ones near the ends."""
        if order == 0:
            return self.c.copy()
        if order in self._deriv:
            return self._deriv[order]
        w = stencil_halfwidth(order)
        npts = len(self.s)
        if npts < 2 * w + 1:
            raise GridTooCoarse("grid too short for order-%d derivatives" % order)
        out = np.zeros(npts)
        for i in range(npts):
            start = min(max(i - w, 0), npts - (2 * w + 1))
            offsets = tuple(range(start - i, start - i + 2 * w + 1))
            wts = np.array(_fd_weights_cached(offsets, order))
            out[i] = wts @ self.c[start : start + 2 * w + 1] / self.step**order
        self._deriv[order] = out
        return out

    def grid_index(self, s: float) -> int:
        i = int(round((s - self.s[0]) / self.step))
        if i < 0 or i >= len(self.s) or abs(self.s[i] - s) > 1e-9 * max(1.0, abs(s)):
            raise ValueError("s=%g is not a grid point" % s)
        return i

    def to_csv(self) -> str:
        from .serialize import csv_row

        return "s,c\n" + "".join(csv_row([sv, cv]) for sv, cv in zip(self.s, self.c))

    @staticmethod
    def from_csv(text: str, dim: int) -> "CProfile":
        rows = [ln.strip() for ln in text.strip().splitlines()]
        if not rows or rows[0].lower().replace(" ", "") != "s,c":
            raise ValueError("profile CSV must start with header 's,c'")
        data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        return CProfile(s=data[:, 0], c=data[:, 1], dim=dim)


def c_profile(kernel: Kernel, P, s_grid) -> CProfile:
    """Profile c(s_j) = z(s_j * cone_P) / |P| on the given uniform grid.

    The value is independent of the polytope; passing one anyway keeps
    that independence a checkable statement rather than a construction
    artifact."""
    from . import polytope as _pt
    from .plfunction import cone_function

    s_grid = np.asarray(s_grid, dtype=float)
    if np.any(s_grid < 0):
        raise NegativeValues("profile grid must be nonnegative")
    cone = cone_function(P)
    vol = _pt.volume(P)
    rows = cone.simplex_values()
    # the value rows of s * cone for every grid point s, in one engine call
    stacked = (s_grid[:, None, None] * rows[None, :, :]).reshape(-1, rows.shape[1])
    means = simplex_means(stacked, kernel.pieces()).reshape(len(s_grid), len(rows))
    vals = means @ cone.complex.simplex_volumes() / vol
    return CProfile(s=s_grid, c=vals, dim=P.dim, volume=vol)


def recover_kernel(
    profile: CProfile, n: int = None, extension_upper: float = None
) -> TabulatedKernel:
    """Invert the profile smoothing: h(s) = sum_j C(n,j) s^j c^{(j)}(s)/j!.

    Finite differencing near the grid ends is noisy, so the result is
    tabulated on an interior window: max(w*step, 2% of span) trimmed at
    the bottom and w*step at the top, with w the stencil halfwidth.  The
    sample at s=0 is pinned to 0.
    """
    n = profile.dim if n is None else int(n)
    if n < 1:
        raise ValueError("dimension must be at least 1")
    w = stencil_halfwidth(n)
    span = profile.s[-1] - profile.s[0]
    lo_margin = max(w * profile.step, 0.02 * span)
    hi_margin = w * profile.step
    keep = (profile.s >= profile.s[0] + lo_margin - 1e-12) & (
        profile.s <= profile.s[-1] - hi_margin + 1e-12
    )
    if np.count_nonzero(keep) < 2:
        raise GridTooCoarse("no interior window left after trimming margins")

    tables = [profile.derivative_table(j) for j in range(n + 1)]
    s = profile.s[keep]
    h = np.zeros(len(s))
    for j in range(n + 1):
        h += math.comb(n, j) / math.factorial(j) * s**j * tables[j][keep]

    if extension_upper is None:
        # slope of the last decade in log-log, used for values beyond the grid
        mask = (s >= s[-1] / 10.0) & (np.abs(h) > 1e-300)
        if np.count_nonzero(mask) >= 3 and np.all(h[mask] > 0):
            A = np.column_stack([np.log(s[mask]), np.ones(np.count_nonzero(mask))])
            extension_upper = float(np.linalg.lstsq(A, np.log(h[mask]), rcond=None)[0][0])
        else:
            extension_upper = 0.0

    ts = np.concatenate([[0.0], s])
    hs = np.concatenate([[0.0], h])
    return TabulatedKernel(ts, hs, extension_lower=0.0, extension_upper=extension_upper)


# ---------------------------------------------------------------------------
# Smoothing identity and growth checks
# ---------------------------------------------------------------------------


def _weighted_h_integral(kernel: Kernel, s: float, m: int) -> float:
    """integral_0^s h(t) (s - t)^m dt.  The weight is s^{m+1}/(m+1) times
    the value density of the cone row (s, 0, ..., 0) in dimension m+1."""
    row = np.zeros((1, m + 2))
    row[0, 0] = s
    return s ** (m + 1) / (m + 1) * float(simplex_means(row, kernel.pieces())[0])


def psi_check(kernel: Kernel, P, profile: CProfile, k: int, s: float, tolerance: float = 1e-5):
    """Both sides of the order-k smoothing identity at grid point s,
    scaled by |P|, packaged as a report:

        |P| * n!/(n-1-k)! * integral_0^s h(t)(s-t)^{n-1-k} dt   (k < n)
        |P| * n! * h(s)                                          (k = n)
      =
        sum_j C(k,j) n!/(n-k+j)! s^{n-k+j} * D^j z(s)

    with D^j z(s) = |P| c^{(j)}(s).  The left side is the measure form
    integrated by parts against h, so dh itself never appears.
    """
    import time

    from . import polytope as _pt
    from .verify import make_report

    n = profile.dim
    if not 0 <= k <= n:
        raise ValueError("order k must be in 0..%d" % n)
    vol = _pt.volume(P)
    t0 = time.perf_counter()
    if k == n:
        lhs = math.factorial(n) * float(kernel(np.array([s]))[0])
    else:
        lhs = (
            math.factorial(n)
            / math.factorial(n - 1 - k)
            * _weighted_h_integral(kernel, s, n - 1 - k)
        )
    i = profile.grid_index(s)
    rhs = 0.0
    for j in range(k + 1):
        table = profile.derivative_table(j)
        rhs += (
            math.comb(k, j)
            * math.factorial(n)
            / math.factorial(n - k + j)
            * s ** (n - k + j)
            * table[i]
        )
    return make_report(
        suite="psi_identity",
        case="n=%d,k=%d,s=%g" % (n, k, s),
        left=vol * lhs,
        right=vol * rhs,
        tolerance=tolerance,
        wall_time=time.perf_counter() - t0,
    )


@dataclass
class GrowthReport:
    """Fitted power-law exponents near zero and near the largest
    sampled scale, judged against the window [p, p*]."""

    fitted_low: float
    fitted_high: float
    required_low: float
    allowed_high: float
    pass_low: bool
    pass_high: bool
    passed: bool
    residual_low: float
    residual_high: float
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "fitted_low": self.fitted_low,
            "fitted_high": self.fitted_high,
            "required_low": self.required_low,
            "allowed_high": self.allowed_high,
            "pass_low": self.pass_low,
            "pass_high": self.pass_high,
            "passed": self.passed,
            "residual_low": self.residual_low,
            "residual_high": self.residual_high,
            "notes": self.notes,
        }


def _loglog_fit(x: np.ndarray, y: np.ndarray):
    """(slope, max abs fit residual) of log|y| against log x, or
    (None, 0.0) when fewer than three samples are nonzero."""
    mask = np.abs(y) > 1e-300
    if np.count_nonzero(mask) < 3:
        return None, 0.0
    A = np.column_stack([np.log(x[mask]), np.ones(np.count_nonzero(mask))])
    ly = np.log(np.abs(y[mask]))
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(coef[0]), float(np.max(np.abs(ly - A @ coef)))


def growth_check(target, p: float, n: int = None, k: int = 0) -> GrowthReport:
    """Check power-law growth: at least s^p near zero, at most s^{p*}
    at the top of the sampled range, p* = np/(n-p); rejects p >= n.

    Kernels (k must be 0) are sampled on fixed decades [1e-4, 1e-2] and
    [1e1, 1e3], on both signs of the argument, taking the larger
    magnitude.  Profiles fit |s^k c^{(k)}(s)| on the first and last
    decade of their own grid, which must span a ratio of at least 100.
    A side with no nonzero samples passes vacuously.
    """
    if isinstance(target, CProfile):
        n = target.dim
    if n is None:
        raise ValueError("dimension n required for kernel growth checks")
    p_star = sobolev_conjugate(p, n)

    notes = []
    if isinstance(target, CProfile):
        if not 0 <= k <= n:
            raise ValueError("derivative order k must be in 0..%d" % n)
        pos = target.s[target.s > 0]
        if len(pos) < 6 or pos[-1] / pos[0] < 100.0:
            raise InsufficientDecades(
                "profile spans ratio %.3g, need >= 100" % (pos[-1] / pos[0] if len(pos) else 0.0)
            )
        table = target.derivative_table(k)
        y = target.s**k * table
        sel_lo = (target.s > 0) & (target.s <= pos[0] * 10.0)
        sel_hi = target.s >= pos[-1] / 10.0
        e_lo, r_lo = _loglog_fit(target.s[sel_lo], y[sel_lo])
        e_hi, r_hi = _loglog_fit(target.s[sel_hi], y[sel_hi])
        label = "order-%d table" % k
    else:
        if k != 0:
            raise ValueError("derivative orders only apply to profiles")
        lo = np.geomspace(1e-4, 1e-2, 40)
        hi = np.geomspace(1e1, 1e3, 40)
        e_lo, r_lo = _loglog_fit(lo, np.maximum(np.abs(target(lo)), np.abs(target(-lo))))
        e_hi, r_hi = _loglog_fit(hi, np.maximum(np.abs(target(hi)), np.abs(target(-hi))))
        label = "kernel"

    pass_low = e_lo is None or e_lo >= p - 0.1
    pass_high = e_hi is None or e_hi <= p_star + 0.1
    if e_lo is None:
        notes.append("no nonzero samples near 0")
    elif not pass_low:
        notes.append("%s grows like s^%.3f near 0, needs >= %.3f" % (label, e_lo, p))
    if e_hi is None:
        notes.append("no nonzero samples at the top")
    elif not pass_high:
        notes.append("%s grows like s^%.3f at the top, allows <= %.3f" % (label, e_hi, p_star))
    return GrowthReport(
        fitted_low=e_lo,
        fitted_high=e_hi,
        required_low=p,
        allowed_high=p_star,
        pass_low=pass_low,
        pass_high=pass_high,
        passed=pass_low and pass_high,
        residual_low=r_lo,
        residual_high=r_hi,
        notes="; ".join(notes),
    )
