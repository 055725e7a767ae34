"""Kernels, z(f)=∫h∘f, cone profiles, kernel recovery, growth windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plval import plfunction as pf
from plval import polytope as pt
from plval.errors import (
    GridTooCoarse,
    InsufficientDecades,
    KernelNonzeroAtZero,
    NegativeValues,
    NonFinite,
)
from plval.valuation import (
    CProfile,
    PiecewisePolyKernel,
    PowerKernel,
    TabulatedKernel,
    apply,
    c_profile,
    even_odd_split,
    growth_check,
    homogeneous_kernel,
    kernel_from_json_dict,
    psi_check,
    recover_kernel,
)

import oracles


# -- kernel types ---------------------------------------------------------------


def test_power_kernel_basics():
    h = PowerKernel(2.0, 1.5)
    assert h(np.array([0.0]))[0] == 0.0
    assert h(np.array([-2.0]))[0] == pytest.approx(2.0 * 2.0**1.5)
    with pytest.raises(KernelNonzeroAtZero):
        PowerKernel(1.0, -0.5)  # |t|^{-1/2} blows up at 0


def test_tabulated_kernel_rejects_nonzero_origin():
    with pytest.raises(KernelNonzeroAtZero):
        TabulatedKernel(ts=np.array([-1.0, 0.0, 1.0]), hs=np.array([1.0, 0.5, 1.0]))


def test_piecewise_kernel_continuity_enforced():
    # two linear pieces that disagree at the shared knot
    with pytest.raises(ValueError):
        PiecewisePolyKernel(
            knots=np.array([0.0, 1.0, 2.0]),
            coefficients=np.array([[0.0, 1.0, 0.0, 0.0], [5.0, 1.0, 0.0, 0.0]]),
        )


def test_kernel_json_round_trips():
    kernels = [
        PowerKernel(1.0, 2.0),
        TabulatedKernel(ts=np.linspace(0, 1, 11), hs=np.linspace(0, 1, 11) ** 2,
                        extension_upper=2.0),
    ]
    ts = np.linspace(-3, 3, 41)
    for h in kernels:
        back = kernel_from_json_dict(h.to_json_dict())
        assert np.allclose(back(ts), h(ts), atol=1e-12)
    with pytest.raises((ValueError, KeyError)):
        kernel_from_json_dict({"type": "nope"})


@pytest.mark.parametrize(
    "data, field",
    [
        ({"type": "power", "coeff": 1.0, "exponent": float("nan")}, "exponent"),
        ({"type": "power", "coeff": float("inf"), "exponent": 2.0}, "coeff"),
        ({"type": "piecewise_poly", "knots": [0.0, float("nan")], "coefficients": [[0.0, 1.0]]}, "knots"),
        ({"type": "piecewise_poly", "knots": [0.0, 1.0], "coefficients": [[0.0, float("inf")]]}, "coefficients"),
        ({"type": "tabulated", "s": [0.0, 1.0], "h": [0.0, float("nan")]}, "h"),
        ({"type": "tabulated", "s": [0.0, 1.0], "h": [0.0, 1.0], "extension_upper": float("nan")}, "extension_upper"),
    ],
)
def test_kernel_json_rejects_non_finite_numbers(data, field):
    with pytest.raises(NonFinite, match="'%s'" % field):
        kernel_from_json_dict(data)


def test_homogeneous_kernel():
    h = homogeneous_kernel(1.0, 2.0, 2)
    assert h.coefficient == pytest.approx(6.0, rel=1e-13)  # C(4,2)
    P = pt.cube(2)
    assert apply(h, pf.cone_function(P)) == pytest.approx(pt.volume(P), rel=1e-10)
    with pytest.raises(ValueError):
        homogeneous_kernel(1.0, 0.0, 2)


def test_even_odd_split():
    even, odd = even_odd_split(PowerKernel(1.0, 2.0))
    xs = np.linspace(-2, 2, 31)
    assert np.allclose(odd(xs), 0.0, atol=1e-14)
    assert np.allclose(even(xs), xs**2, atol=1e-12)

    knots = np.array([-2.0, 2.0])
    mixed = PiecewisePolyKernel(
        knots=knots, coefficients=np.array([[-2.0 + 4.0, 1.0 + -4.0, 1.0, 0.0]]))
    # mixed(t) = t + t^2 written in the (t - knot) basis about -2
    assert np.allclose(mixed(xs), xs + xs**2, atol=1e-12)
    even, odd = even_odd_split(mixed)
    assert np.allclose(even(xs), xs**2, atol=1e-12)
    assert np.allclose(odd(xs), xs, atol=1e-12)


# -- apply -----------------------------------------------------------------------


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_apply_power_on_cone(q):
    for seed, n in ((1, 2), (2, 3)):
        P = pt.random_polytope(seed=seed, n=n, k=n + 4)
        z = apply(PowerKernel(1.0, q), pf.cone_function(P))
        assert z == pytest.approx(oracles.beta_cpn(q, n) * pt.volume(P), rel=1e-9)


def test_apply_square_literal(cone_square):
    assert apply(PowerKernel(1.0, 1.0), cone_square) == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert apply(PowerKernel(1.0, 2.0), cone_square) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_apply_zero_function(cone_square):
    zero = pf.scale_values(cone_square, 0.0)
    assert apply(PowerKernel(1.0, 2.0), zero) == 0.0


@pytest.mark.parametrize("exponent", [1.5, -0.5, -1.0, -1.5, -2.0])
def test_apply_tabulated_extension_matches_layer_cake(cone_square, exponent):
    # |t| up to 0.2, then 0.2 (t/0.2)^exponent: the cone's values run past the
    # anchor, so the extension piece spans [0.2, 1], where near/far = 0.2
    kern = TabulatedKernel([0.0, 0.2], [0.0, 0.2], extension_upper=exponent)
    h = lambda t: t if t <= 0.2 else 0.2 * (t / 0.2) ** exponent
    ref = oracles.layer_cake_cone(h, 2, 4.0)
    assert apply(kern, cone_square) == pytest.approx(ref, rel=1e-10)


# -- profiles --------------------------------------------------------------------


def test_c_profile_square_literal(square):
    grid = np.linspace(0.0, 2.0, 41)
    prof = c_profile(PowerKernel(1.0, 2.0), square, grid)
    assert np.max(np.abs(prof.c - grid**2 / 6.0)) < 1e-10
    assert prof.c[0] == 0.0
    assert prof.volume == pytest.approx(4.0)


def test_c_profile_polytope_independent(square):
    grid = np.linspace(0.0, 1.5, 31)
    h = PowerKernel(0.7, 1.5)
    prof_a = c_profile(h, square, grid)
    prof_b = c_profile(h, pt.random_polytope(seed=8, n=2, k=7), grid)
    assert np.max(np.abs(prof_a.c - prof_b.c)) < 1e-9


def test_cprofile_validation():
    with pytest.raises(ValueError):
        CProfile(s=np.array([0.0, 0.1, 0.25, 0.3, 0.4], ), c=np.zeros(5), dim=2)
    with pytest.raises(ValueError):
        CProfile(s=np.linspace(0, 1, 11), c=np.full(11, 0.3), dim=2)  # c(0) != 0
    with pytest.raises(NegativeValues):
        CProfile(s=np.linspace(-1, 1, 21), c=np.zeros(21), dim=2)
    with pytest.raises(GridTooCoarse):
        CProfile(s=np.linspace(0, 1, 4), c=np.zeros(4), dim=2)


def test_cprofile_csv_round_trip():
    prof = CProfile(s=np.linspace(0, 2, 21), c=np.linspace(0, 2, 21) ** 2, dim=2)
    back = CProfile.from_csv(prof.to_csv(), 2)
    assert np.allclose(back.s, prof.s)
    assert np.allclose(back.c, prof.c)


# -- recovery --------------------------------------------------------------------


def test_recover_linear_profile_1d():
    # c(s) = s/2 in one dimension unwinds to h(s) = s
    grid = np.linspace(0.0, 2.0, 201)
    prof = CProfile(s=grid, c=grid / 2.0, dim=1)
    kern = recover_kernel(prof, 1)
    inner = kern.ts > 0.1
    assert np.max(np.abs(kern.hs[inner] - kern.ts[inner])) < 1e-10


def test_recover_quadratic_profile_2d():
    grid = np.linspace(0.0, 2.0, 201)
    prof = CProfile(s=grid, c=grid**2 / 6.0, dim=2)
    kern = recover_kernel(prof, 2)
    inner = kern.ts > 0.1
    assert np.max(np.abs(kern.hs[inner] - kern.ts[inner] ** 2)) < 1e-9


def test_recover_zero_profile():
    grid = np.linspace(0.0, 2.0, 201)
    kern = recover_kernel(CProfile(s=grid, c=np.zeros_like(grid), dim=2), 2)
    assert np.max(np.abs(kern.hs)) == 0.0


@pytest.mark.parametrize("q,tol", [(1.0, 1e-4), (1.5, 1e-3), (2.0, 1e-4)])
def test_recover_round_trip(q, tol, square):
    grid = np.arange(0.0, 2.0 + 0.005, 0.01)
    prof = c_profile(PowerKernel(1.0, q), square, grid)
    kern = recover_kernel(prof, 2)
    s = kern.ts
    rel = np.abs(kern.hs - s**q) / np.maximum(np.abs(s) ** q, 1e-30)
    assert np.max(rel[s > 1e-9]) < tol


def test_recover_extension_exponent_fit(square):
    grid = np.arange(0.0, 2.0 + 0.005, 0.01)
    kern = recover_kernel(c_profile(PowerKernel(1.0, 1.5), square, grid), 2)
    assert kern.extension_upper == pytest.approx(1.5, abs=0.05)
    # extrapolation follows the fitted power law
    assert kern(np.array([4.0]))[0] == pytest.approx(4.0**1.5, rel=0.05)


# -- order-k identities ------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_psi_identity_power_kernel(square, k, s):
    grid = np.linspace(0.0, 2.0, 201)
    h = PowerKernel(1.0, 2.0)
    prof = c_profile(h, square, grid)
    report = psi_check(h, square, prof, k=k, s=s)
    assert report.passed, report.reason
    assert report.residual < 1e-5


def test_psi_top_order_is_kernel_value(square):
    # k = n reduces the left side to n! |P| h(s)
    import math

    grid = np.linspace(0.0, 2.0, 201)
    h = PowerKernel(1.0, 2.0)
    prof = c_profile(h, square, grid)
    report = psi_check(h, square, prof, k=2, s=1.5)
    expected = math.factorial(2) * pt.volume(square) * float(h(np.array([1.5]))[0])
    assert report.left == pytest.approx(expected, rel=1e-9)


def test_psi_at_zero(square):
    grid = np.linspace(0.0, 2.0, 201)
    h = PowerKernel(1.0, 2.0)
    prof = c_profile(h, square, grid)
    report = psi_check(h, square, prof, k=1, s=0.0)
    assert report.left == pytest.approx(0.0, abs=1e-12)
    assert report.right == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        psi_check(h, square, prof, k=3, s=1.0)


# -- growth windows -----------------------------------------------------------------


def test_growth_check_power_in_band():
    report = growth_check(PowerKernel(1.0, 1.5), p=1.0, n=2)
    assert report.passed
    assert report.fitted_low == pytest.approx(1.5, abs=1e-6)
    assert report.fitted_high == pytest.approx(1.5, abs=1e-6)


def test_growth_check_power_below_band():
    report = growth_check(PowerKernel(1.0, 0.5), p=1.0, n=2)
    assert not report.pass_low
    assert not report.passed


def test_growth_check_two_term_kernel():
    # x^p + x^{p*} shows exponent p near zero and p* at the top
    h = PiecewisePolyKernel(
        knots=np.array([0.0, 1000.0]),
        coefficients=np.array([[0.0, 1.0, 1.0, 0.0]]),
    )
    report = growth_check(h, p=1.0, n=2)
    assert report.passed
    assert oracles.loglog_slope(*_sample(h, 1e-4, 1e-2)) == pytest.approx(
        report.fitted_low, abs=1e-6)
    assert report.fitted_low == pytest.approx(1.0, abs=0.05)
    assert report.fitted_high == pytest.approx(2.0, abs=0.05)


def _sample(h, lo, hi):
    xs = np.geomspace(lo, hi, 40)
    return xs, np.maximum(np.abs(h(xs)), np.abs(h(-xs)))


def test_growth_check_profile_target(square):
    grid = np.linspace(0.0, 200.0, 2001)
    prof = c_profile(PowerKernel(1.0, 1.5), square, grid)
    report = growth_check(prof, p=1.0)
    assert report.passed
    short = CProfile(s=np.linspace(0, 1, 51), c=np.linspace(0, 1, 51) ** 2, dim=2)
    with pytest.raises(InsufficientDecades):
        growth_check(short, p=1.0)


@given(q=st.floats(1.0, 2.0), c=st.floats(0.1, 3.0))
@settings(max_examples=20, deadline=None)
def test_growth_flags_deterministic(q, c):
    a = growth_check(PowerKernel(c, q), p=1.0, n=2)
    b = growth_check(PowerKernel(c, q), p=1.0, n=2)
    assert (a.pass_low, a.pass_high, a.passed) == (b.pass_low, b.pass_high, b.passed)
    assert a.passed == (a.pass_low and a.pass_high)
