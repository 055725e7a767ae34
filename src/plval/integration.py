"""Exact integration of piecewise-affine functions.

Everything reduces to one fact: the pushforward of the uniform measure
on an n-simplex under an affine map with vertex values v_0 <= ... <= v_n
has a B-spline density of degree n-1 with knots at the v_i.  Norms,
level-set volumes and kernel integrals are then one-dimensional
integrals against that density, and since the density is a polynomial
between consecutive knots, power moments have closed forms.

For integer exponents there is an independent route through complete
homogeneous symmetric polynomials; the two must agree and the tests
exploit that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline, PPoly
from scipy.special import gammaln

from .errors import NegativeValues
from .plfunction import PLFunction

# Value spread below which a simplex's value distribution counts as a
# point mass.
DIRAC_TOL = 1e-14


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
    other exponents go through the value-density moment, which is exact
    piecewise-polynomial quadrature rather than a closed form.
    """
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise NegativeValues("vertex values must be nonnegative for power integrals")
    n = len(values) - 1
    if q < 0:
        raise ValueError("exponent must be nonnegative, got %r" % (q,))
    if q != int(q):
        return volume * PushforwardDensity(values, n).moment_abs(float(q))
    q = int(q)
    coeff = math.exp(gammaln(n + 1) + gammaln(q + 1) - gammaln(n + q + 1))
    return volume * coeff * hq_complete_homogeneous(values, q)


@functools.lru_cache(maxsize=64)
def _gl_nodes(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


def _power_segment_integral(
    a: float, b: float, coeffs: np.ndarray, q: float, anchor: float = None
) -> float:
    """Integral of |t|^q * sum_k coeffs[k] (t-anchor)^k over [a, b], a*b >= 0.

    Expands (t-anchor)^k binomially (k <= 3 here, so no cancellation
    trouble) and uses the closed form for each pure power.
    """
    if b <= a:
        return 0.0
    if anchor is None:
        anchor = a
    total = 0.0
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        for j in range(k + 1):
            w = c * math.comb(k, j) * (-anchor) ** (k - j)
            e = q + j + 1.0
            if a >= 0.0:
                total += w * (b**e - (a**e if a > 0.0 else 0.0)) / e
            else:
                # b <= 0: substitute t -> -t and integrate u^{q+j} over [-b, -a]
                total += w * (-1.0) ** j * ((-a) ** e - ((-b) ** e if b < 0.0 else 0.0)) / e
    return total


@dataclass(eq=False)
class PushforwardDensity:
    """Distribution of an affine function's value under the uniform
    probability measure on an n-simplex."""

    values: np.ndarray
    dim: int
    _segments: list = field(default=None, repr=False)
    _spline: BSpline = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.sort(np.asarray(self.values, dtype=float))
        if len(self.values) != self.dim + 1:
            raise ValueError("need dim+1 vertex values")

    @property
    def is_dirac(self) -> bool:
        return self.values[-1] - self.values[0] <= DIRAC_TOL * max(
            1.0, np.max(np.abs(self.values))
        )

    def _basis(self) -> BSpline:
        if self._spline is None:
            self._spline = BSpline.basis_element(self.values, extrapolate=False)
        return self._spline

    def segments(self):
        """[(a, b, coeffs)] with density(t) = sum coeffs[k] (t-a)^k on [a,b]."""
        if self._segments is None:
            out = []
            v0, vn = float(self.values[0]), float(self.values[-1])
            scale = self.dim / (vn - v0)
            pp = PPoly.from_spline(self._basis(), extrapolate=False)
            for i in range(len(pp.x) - 1):
                a, b = float(pp.x[i]), float(pp.x[i + 1])
                mid = 0.5 * (a + b)
                # basis_element pads the knot vector; skip the padding
                # segments, they carry extrapolation garbage
                if b - a <= 0.0 or mid <= v0 or mid >= vn:
                    continue
                coeffs = pp.c[::-1, i] * scale  # ascending in (t - a)
                out.append((a, b, coeffs))
            self._segments = out
        return self._segments

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.is_dirac:
            raise ValueError("point mass has no density")
        scale = self.dim / (self.values[-1] - self.values[0])
        out = self._basis()(t) * scale
        return np.where(np.isnan(out), 0.0, out)

    def cdf(self, t: float) -> float:
        if self.is_dirac:
            return 1.0 if t >= self.values[0] else 0.0
        if t <= self.values[0]:
            return 0.0
        if t >= self.values[-1]:
            return 1.0
        total = 0.0
        for a, b, coeffs in self.segments():
            if t <= a:
                break
            hi = min(t, b)
            for k, c in enumerate(coeffs):
                total += c * (hi - a) ** (k + 1) / (k + 1)
        return float(total)

    def survival(self, t: float) -> float:
        """Fraction of the simplex where the function exceeds t."""
        return 1.0 - self.cdf(t)

    def moment_abs(self, q: float) -> float:
        """Integral of |t|^q against the density (closed form)."""
        if q < 0:
            raise ValueError("exponent must be nonnegative")
        if self.is_dirac:
            return abs(float(self.values.mean())) ** q if q > 0 else float(
                self.values.mean() != 0.0
            )
        total = 0.0
        for a, b, coeffs in self.segments():
            if a < 0.0 < b:
                total += _power_segment_integral(a, 0.0, coeffs, q, anchor=a)
                total += _power_segment_integral(0.0, b, coeffs, q, anchor=a)
            else:
                total += _power_segment_integral(a, b, coeffs, q)
        return total

    def integrate(self, fn, breakpoints=(), tol: float = 1e-12) -> float:
        """Integral of fn against the density; fn smooth between its
        breakpoints. Gauss-Legendre per subinterval with one safeguarded
        bisection cascade."""
        if self.is_dirac:
            return float(fn(np.array([self.values.mean()]))[0])
        cuts = {float(self.values[0]), float(self.values[-1])}
        for a, b, _ in self.segments():
            cuts.add(a)
            cuts.add(b)
        for t in np.atleast_1d(np.asarray(breakpoints, dtype=float)):
            if self.values[0] < t < self.values[-1]:
                cuts.add(float(t))
        grid = sorted(cuts)

        def gl(a, b, m):
            x, w = _gl_nodes(m)
            t = 0.5 * (b - a) * x + 0.5 * (a + b)
            return 0.5 * (b - a) * float(np.sum(w * fn(t) * self.pdf(t)))

        def adaptive(a, b, depth):
            i1 = gl(a, b, 16)
            i2 = gl(a, b, 32)
            if abs(i1 - i2) <= tol or depth >= 24:
                return i2
            mid = 0.5 * (a + b)
            return adaptive(a, mid, depth + 1) + adaptive(mid, b, depth + 1)

        return sum(adaptive(a, b, 0) for a, b in zip(grid[:-1], grid[1:]) if b > a)


def _per_simplex(f: PLFunction):
    vols = f.complex.simplex_volumes()
    svals = f.simplex_values()
    return vols, svals


def lq_norm(f: PLFunction, q: float) -> float:
    """L^q norm of f (q >= 1); exact per-simplex moments."""
    if q < 1:
        raise ValueError("norm exponent must be >= 1")
    if f.complex.is_empty():
        return 0.0
    vols, svals = _per_simplex(f)
    total = 0.0
    for vol, vals in zip(vols, svals):
        total += vol * PushforwardDensity(vals, f.dim).moment_abs(q)
    return total ** (1.0 / q)


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
    vols, svals = _per_simplex(f)
    total = 0.0
    for vol, vals in zip(vols, svals):
        if np.max(vals) <= t:
            continue
        total += vol * PushforwardDensity(vals, f.dim).survival(t)
    return total


def fisher_matrix(f: PLFunction) -> np.ndarray:
    """Integral of grad f grad f^T, an n x n matrix."""
    if f.complex.is_empty():
        return np.zeros((f.dim, f.dim))
    grads, _ = f.affines()
    vols = f.complex.simplex_volumes()
    return np.einsum("i,ij,ik->jk", vols, grads, grads)


def integrate_function_of_values(f: PLFunction, fn, breakpoints=(), power: float = None) -> float:
    """Integral of fn(f(x)) dx over the support.

    fn must vanish at 0 for this to equal the integral over all of R^n.
    When fn is coeff * |t|^q, pass power=q and fn(1) as the scale via the
    closed-form moment path (exact); otherwise adaptive quadrature runs
    against each simplex's value density.
    """
    if f.complex.is_empty():
        return 0.0
    vols, svals = _per_simplex(f)
    total = 0.0
    for vol, vals in zip(vols, svals):
        dens = PushforwardDensity(vals, f.dim)
        if power is not None:
            total += vol * float(fn(np.array([1.0]))[0]) * dens.moment_abs(power)
        else:
            total += vol * dens.integrate(fn, breakpoints)
    return total
