"""Exact simplex integrals, norms, level sets, densities, Fisher matrices."""

import ast
import dataclasses
import gc
import inspect
import itertools
import math
import textwrap
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plval import plfunction as pf
from plval import polytope as pt
from plval import stats
from plval.errors import NonFinite
from plval.integration import (
    Pieces,
    c_pn,
    density_of,
    fisher_matrix,
    grad_p_norm,
    level_set_volume,
    lq_norm,
    lq_norms,
    simplex_means,
    sobolev_conjugate,
    sobolev_norm,
    value_density,
)
from plval.valuation import PiecewisePolyKernel, PowerKernel, TabulatedKernel, apply, apply_each
from plval.verify import random_cone_function

import oracles


def zero_like(f: pf.PLFunction) -> pf.PLFunction:
    return pf.PLFunction(complex=f.complex, values=np.zeros(len(f.values)))


# -- powers over one simplex: the engine and the closed form ----------------


def _power_mean(vals, q):
    """The engine's mean of |f|^q over one simplex with vertex values vals."""
    return float(simplex_means(np.asarray(vals, dtype=float)[None, :], Pieces.power(1.0, float(q)))[0])


def test_power_over_interval():
    assert _power_mean([0.0, 1.0], 1) == pytest.approx(0.5, abs=1e-14)
    assert oracles.integrate_power_over_simplex([0.0, 1.0], 1.0, 1) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("q", [1, 2, 3, 1.5, 2.75])
def test_power_over_cone_simplex(q):
    # values (1, 0, ..., 0) integrate to |simplex| * c_{q,n}
    for n, vol in ((2, 0.5), (3, 2.0)):
        vals = np.zeros(n + 1)
        vals[0] = 1.0
        expected = vol * oracles.beta_cpn(float(q), n)
        assert vol * _power_mean(vals, q) == pytest.approx(expected, rel=1e-10)
        if q == int(q):
            assert oracles.integrate_power_over_simplex(vals, vol, q) == pytest.approx(expected, rel=1e-10)


def test_power_matches_adaptive_quadrature():
    rng = np.random.default_rng(7)
    tri = rng.uniform(-1, 1, (3, 2))
    vals = rng.uniform(0, 2, 3)
    vol = oracles.det_simplex_volume(tri)
    ref = oracles.quad_power_triangle(tri, vals, 3.0)
    assert vol * _power_mean(vals, 3) == pytest.approx(ref, rel=1e-9)
    assert oracles.integrate_power_over_simplex(vals, vol, 3) == pytest.approx(ref, rel=1e-9)


def test_power_rejects_negative_values():
    with pytest.raises(ValueError):
        oracles.integrate_power_over_simplex([-0.5, 1.0, 0.0], 1.0, 2)


# -- pushforward density ------------------------------------------------------


@pytest.mark.parametrize("vals", [(0.0, 1.0, 0.5), (0.2, 0.9, 0.4, 0.7), (1.0, 1.0, 1.0)])
def test_density_nonnegative_unit_mass(vals):
    # the engine's mass and the B-spline density of the oracle
    dens = oracles.PushforwardDensity(np.array(vals), len(vals) - 1)
    lo, hi = min(vals), max(vals)
    assert _power_mean(vals, 0.0) == pytest.approx(1.0, rel=1e-12)
    if dens.is_dirac:
        assert lo == hi
        return
    ts = np.linspace(lo, hi, 500)
    assert np.all(dens.pdf(ts) >= -1e-12)


def test_density_moment_matches_quadrature():
    vals = np.array([0.1, 0.8, 0.3])
    dens = oracles.PushforwardDensity(vals, 2)
    from scipy.integrate import quad

    ref, _ = quad(lambda t: t**1.7 * dens.pdf(np.array([t]))[0], 0.1, 0.8,
                  epsabs=1e-13, limit=200)
    assert _power_mean(vals, 1.7) == pytest.approx(ref, rel=1e-9)


def test_density_cdf():
    # P(f <= 0.5) for values (0.2, 0.5, 0.9) on a triangle: (0.3)^2 / (0.7 * 0.3)
    def cdf(vals, t):
        return 1.0 - float(simplex_means(np.array(vals)[None, :], Pieces.above(t))[0])

    vals = [0.9, 0.2, 0.5]
    assert [cdf(vals, t) for t in (0.1, 0.2, 0.9, 1.0)] == [0.0, 0.0, 1.0, 1.0]
    assert cdf(vals, 0.5) == pytest.approx(3.0 / 7.0, rel=1e-14)
    assert oracles.PushforwardDensity(np.full(3, 0.3), 2).is_dirac
    assert [cdf(np.full(3, 0.3), t) for t in (0.29, 0.3)] == [0.0, 1.0]


# -- norms ---------------------------------------------------------------------


def test_lq_norm_square_cone(cone_square):
    assert lq_norm(cone_square, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_lq_norm_matches_monte_carlo(cone_square):
    # 1e6-sample Monte-Carlo of the same integral
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (10**6, 2))
    mc = 4.0 * np.mean(np.maximum(1.0 - np.max(np.abs(pts), axis=1), 0.0))
    assert lq_norm(cone_square, 1.0) == pytest.approx(mc, rel=5e-3)


def test_lq_norm_zero(cone_square):
    assert lq_norm(zero_like(cone_square), 2.0) == 0.0


@given(s=st.floats(-3, 3), q=st.sampled_from([1.0, 1.5, 2.0]))
@example(s=2.732569981923868e-165, q=2.0)  # |s|^q below the smallest normal float
@settings(max_examples=30, deadline=None)
def test_lq_norm_homogeneous(s, q):
    f = pf.cone_function(pt.cube(2))
    if s != 0.0 and q * math.log(abs(s)) < math.log(np.finfo(float).tiny):
        # the cone's largest value is |s|; its q-th power would underflow
        with pytest.raises(NonFinite, match="float range"):
            lq_norm(pf.scale_values(f, s), q)
        return
    assert lq_norm(pf.scale_values(f, s), q) == pytest.approx(abs(s) * lq_norm(f, q), rel=1e-10, abs=1e-12)


def test_lq_norm_splits_sign_changes(square):
    # odd function: |f| integrates like the positive tent on each half
    cx = pf.central_triangulation(square)
    vals = np.where(cx.vertices[:, 0] > 0.5, 1.0, 0.0) - np.where(cx.vertices[:, 0] < -0.5, 1.0, 0.0)
    f = pf.PLFunction(complex=cx, values=vals)
    ref = oracles.quad_lq_power_2d(cx.vertices, [list(t) for t in cx.simplices], vals, 1.0)
    assert lq_norm(f, 1.0) == pytest.approx(ref, rel=1e-9)


def test_grad_p_norm_square(cone_square):
    assert grad_p_norm(cone_square, 1.0) == pytest.approx(4.0, rel=1e-12)
    assert grad_p_norm(cone_square, 2.0) == pytest.approx(2.0, rel=1e-12)
    assert grad_p_norm(zero_like(cone_square), 1.5) == 0.0


def test_sobolev_norm(cone_square):
    assert sobolev_norm(zero_like(cone_square), 1.0) == 0.0
    assert sobolev_norm(cone_square, 1.0) == pytest.approx(16.0 / 3.0, rel=1e-12)
    for s in (0.2, 0.7, 0.95):
        assert sobolev_norm(pf.scale_values(cone_square, s), 1.0) < sobolev_norm(cone_square, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda f, x: PowerKernel(1.0, x),
        lambda f, x: PowerKernel(x, 2.0),
        lambda f, x: Pieces.power(1.0, x),
        lambda f, x: Pieces.power(x, 2.0),
        lambda f, x: Pieces.above(x),
        lambda f, x: lq_norm(f, x),
        lambda f, x: lq_norms([f, f], x),
        lambda f, x: grad_p_norm(f, x),
        lambda f, x: sobolev_norm(f, x),
        lambda f, x: level_set_volume(f, x),
    ],
    ids=["power_exponent", "power_coefficient", "pieces_exponent", "pieces_coefficient", "above",
         "lq_norm", "lq_norms", "grad_p_norm", "sobolev_norm", "level_set_volume"],
)
def test_non_finite_parameters_are_refused_before_any_arithmetic(monkeypatch, cone_square, call, bad):
    # a NaN or infinite exponent, coefficient or level once gave a silent
    # number (PowerKernel(1, nan) integrated to 0, an infinite q to 1)
    from plval import integration

    monkeypatch.setattr(integration, "integrals", lambda *args: pytest.fail("integrated"))
    monkeypatch.setattr(pf.PLFunction, "affines", lambda self: pytest.fail("took gradients"))
    with pytest.raises(NonFinite, match="finite"):
        call(pf.scale_values(cone_square, 2.0), bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda two, small: lq_norm(two, 1100.0),
        lambda two, small: lq_norm(two, 1e300),
        lambda two, small: lq_norm(small, 150.0),
        lambda two, small: grad_p_norm(two, 1100.0),
        lambda two, small: sobolev_norm(two, 1100.0),
        lambda two, small: apply(PowerKernel(1.0, 1e300), two),
        lambda two, small: lq_norms([two, small], 1100.0),
        # a stack is judged function by function: the small one underflows
        # alone, whichever side of the large one it is stacked on
        lambda two, small: lq_norms([two, small], 150.0),
        lambda two, small: lq_norms([small, two], 150.0),
        lambda two, small: apply_each(PowerKernel(1.0, 150.0), [two, small]),
        lambda two, small: apply_each(PowerKernel(1.0, 150.0), [small, two]),
    ],
    ids=["lq_norm_overflow", "lq_norm_1e300", "lq_norm_underflow", "grad_p_norm", "sobolev_norm", "apply",
         "lq_norms", "lq_norms_small_last", "lq_norms_small_first", "apply_each_small_last",
         "apply_each_small_first"],
)
def test_powers_beyond_the_float_range_are_refused_before_any_power(cone_square, call):
    # the largest |value| (or |grad f|) to the kernel's power overflows or
    # falls below the smallest normal float: these once gave inf, nan or
    # 0.0 after RuntimeWarnings, which Tier-1 turns into errors
    two, small = pf.scale_values(cone_square, 2.0), pf.scale_values(cone_square, 1e-3)
    with pytest.raises(NonFinite, match="float range"):
        call(two, small)


def test_powers_inside_the_float_range_are_integrated(cone_square):
    # next to the refused probes: ||s f||_q = s (c_{q,2} vol)^(1/q) for the
    # cone f on the square, and |grad 2f| = 2 on every simplex
    for s, q in ((1e-3, 100.0), (2.0, 1000.0)):
        want = s * (c_pn(q, 2) * 4.0) ** (1.0 / q)
        assert lq_norm(pf.scale_values(cone_square, s), q) == pytest.approx(want, rel=1e-12)
    assert grad_p_norm(pf.scale_values(cone_square, 2.0), 1000.0) == pytest.approx(2.0 * 4.0 ** 1e-3, rel=1e-12)


def test_sobolev_conjugate():
    assert sobolev_conjugate(1.0, 2) == pytest.approx(2.0)
    assert sobolev_conjugate(2.0, 3) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        sobolev_conjugate(2.0, 2)


# -- level sets ----------------------------------------------------------------


def test_level_set_volume_square(cone_square):
    assert level_set_volume(cone_square, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert level_set_volume(cone_square, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert level_set_volume(cone_square, 2.0) == 0.0
    assert level_set_volume(cone_square, 1e-9) == pytest.approx(4.0, rel=1e-6)


@given(t=st.floats(0.01, 0.99))
@settings(max_examples=25, deadline=None)
def test_level_set_scaling_law(t):
    f = pf.cone_function(pt.cube(2))
    assert level_set_volume(f, t) == pytest.approx(4.0 * (1.0 - t) ** 2, rel=1e-10)


# -- kernel integration against the value density -------------------------------


def test_integrate_power_path(cone_square):
    # closed-form moment path, exact: c_{q,2} * |P|
    val = apply(PowerKernel(1.0, 2.0), cone_square)
    assert val == pytest.approx(oracles.beta_cpn(2.0, 2) * 4.0, rel=1e-12)


def test_integrate_zero_function_of_values(cone_square):
    assert apply(TabulatedKernel([0.0, 1.0], [0.0, 0.0]), cone_square) == 0.0


def test_integrate_hat_matches_layer_cake(cone_square):
    got = apply(TabulatedKernel([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]), cone_square)
    ref = oracles.layer_cake_cone(lambda t: min(2 * t, 2 - 2 * t), 2, 4.0)
    assert ref == pytest.approx(2.0, abs=1e-12)  # oracle value, derived once
    assert got == pytest.approx(ref, abs=1e-10)


# -- the engine against the decimal oracle ----------------------------------------


def _kuhn_square(cells, interior):
    """Kuhn triangulation of [-1, 1]^2 with `cells` squares per side, zero
    on the boundary and the given values at the interior vertices in
    row-major order."""
    side = cells + 1
    grid = np.indices((side, side)).reshape(2, -1).T
    corners = np.indices((cells, cells)).reshape(2, -1).T @ np.array([side, 1])
    simplices = [
        corners[:, None] + np.cumsum([0] + [(side, 1)[a] for a in perm])[None, :]
        for perm in itertools.permutations(range(2))
    ]
    values = np.zeros(len(grid))
    values[np.all((grid > 0) & (grid < cells), axis=1)] = interior
    cx = pf.SimplicialComplex(
        dim=2,
        vertices=-1.0 + 2.0 * grid / cells,
        simplices=np.concatenate(simplices),
    )
    return pf.PLFunction(complex=cx, values=values)


def test_near_tie_square_integral():
    # 0.1 + 0.2 is 0.3 plus one ulp: knots one ulp apart inside a simplex
    f = _kuhn_square(3, [0.3, 0.1 + 0.2, 0.7, 0.1 + 0.2 + 0.4])
    vols = f.complex.simplex_volumes()
    ref = sum(
        vol * oracles.integrate_power_over_simplex(np.abs(v), 1.0, 2)
        for vol, v in zip(vols, f.simplex_values())
    )
    assert apply(PowerKernel(1.0, 2.0), f) == pytest.approx(ref, rel=1e-12)
    assert lq_norm(f, 2.0) ** 2 == pytest.approx(ref, rel=1e-12)


ULP_GAPS = [1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0.0]  # 0.0: one ulp


def _spread(v, gap):
    """The float above v by a relative gap, at least one ulp."""
    return max(v + gap * abs(v), np.nextafter(v, np.inf))


def _row(family, n, rng):
    """A sorted row of n+1 distinct values from one of the hard families."""
    v = np.sort(rng.uniform(-1.0, 1.0, n + 1))
    if family == "near_tie":
        j = int(rng.integers(n))
        v[j + 1] = _spread(v[j], ULP_GAPS[int(rng.integers(len(ULP_GAPS)))])
    elif family == "triple" and n >= 2:
        j = int(rng.integers(n - 1))
        v[j + 1] = _spread(v[j], ULP_GAPS[int(rng.integers(len(ULP_GAPS)))])
        v[j + 2] = _spread(v[j + 1], ULP_GAPS[int(rng.integers(len(ULP_GAPS)))])
    elif family == "near_zero":
        v[int(rng.integers(n + 1))] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15, -9)
    elif family == "wide":
        v = rng.choice([-1.0, 1.0]) * np.abs(v)
        v[0], v[1] = np.sign(v[0]) * 1e-3, np.sign(v[0]) * 1.0
    v = np.sort(v)
    if len(set(v.tolist())) <= n:
        v = v + np.arange(n + 1) * 1e-3  # a draw that tied exactly; spread it
    return v


@given(
    n=st.integers(1, 4),
    q=st.floats(0.5, 4.0),
    family=st.sampled_from(["mixed", "near_tie", "triple", "near_zero", "wide"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_engine_matches_decimal_oracle(n, q, family, seed):
    rng = np.random.default_rng(seed)
    rows = np.array([_row(family, n, rng) for _ in range(6)])
    got = simplex_means(rows[:, rng.permutation(n + 1)], Pieces.power(1.0, q))
    for row, g in zip(rows, got):
        want = oracles.decimal_power_mean(row, q)
        assert abs(g - want) <= 1e-12 * want, (row.tolist(), q, g, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.7, 3.0, 4.0])
def test_engine_exact_ties_cone_rows(n, q):
    # ties at 0: the cone row (s, 0, ..., 0) has mean |s|^q c_{q,n}
    for s in (0.8, -1.3):
        row = np.zeros(n + 1)
        row[-1] = s
        got = simplex_means(row[None, :], Pieces.power(1.0, q))[0]
        assert got == pytest.approx(abs(s) ** q * c_pn(q, n), rel=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_engine_exact_ties_same_sign(q):
    # mean of f^q is n! q! / (n+q)! h_q(values) for same-signed values
    rows = [
        [0.4, 0.4, 0.9],
        [0.4, 0.9, 0.9],
        [0.3, 0.3, 0.3, 0.8],
        [0.2, 0.7, 0.7, 0.7, 0.5],
        [0.6, 0.6, 0.6, 0.6],
        [0.25, 0.25, 0.9, 0.9, 0.9],
    ]
    for row in rows:
        for sign in (1.0, -1.0):
            v = sign * np.array(row)
            n = len(v) - 1
            want = oracles.complete_homogeneous(row, q) / math.comb(n + q, q)
            got = simplex_means(v[None, :], Pieces.power(1.0, q))[0]
            assert got == pytest.approx(want, rel=1e-12)


# -- Fisher matrix ---------------------------------------------------------------


def test_fisher_square(cone_square):
    M = fisher_matrix(cone_square)
    assert np.allclose(M, np.diag([2.0, 2.0]), atol=1e-12)


def test_fisher_zero(cone_square):
    assert np.allclose(fisher_matrix(zero_like(cone_square)), 0.0)


def test_fisher_contravariance(cone_square):
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = rng.uniform(-1.5, 1.5, 2)
        phi = np.array([[1.0, a], [0.0, 1.0]]) @ np.array([[1.0, 0.0], [b, 1.0]])
        lhs = fisher_matrix(pf.compose_affine(cone_square, phi, np.zeros(2)))
        inv = np.linalg.inv(phi)
        rhs = inv.T @ fisher_matrix(cone_square) @ inv
        assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, np.abs(rhs).max()))


# -- one value density per function -------------------------------------------


def _tied_mesh() -> pf.PLFunction:
    """Two triangles per cell of a 4 x 4 grid on [-1, 1]^2, values drawn
    from {0, 0.25, 0.5}: tied knots, point masses at 0, and a plateau at
    0.5 that puts point masses away from 0."""
    cells, side = 4, 5
    grid = np.indices((side, side)).reshape(2, -1).T
    simplices = []
    for a in (grid[:, 0] * side + grid[:, 1])[(grid < cells).all(axis=1)]:
        simplices += [(a, a + side, a + side + 1), (a, a + 1, a + side + 1)]
    values = np.random.default_rng(8).choice([0.0, 0.25, 0.5], size=side * side)
    values[[6, 7, 11, 12]] = 0.5
    values[((grid == 0) | (grid == cells)).any(axis=1)] = 0.0
    cx = pf.SimplicialComplex(dim=2, vertices=-1.0 + 0.5 * grid, simplices=simplices)
    return pf.PLFunction(complex=cx, values=values)


def _mesh_kernels():
    return {
        "power": PowerKernel(1.0, 1.5),
        "piecewise_poly": PiecewisePolyKernel([-1.5, 0.0, 1.5], [[2.25, -3.0, 1.0], [0.0, 0.0, 1.0]], 2.0, 2.0),
        "tabulated": TabulatedKernel([-1.5, 0.0, 1.5], [1.5, 0.0, 1.5], 1.0, 1.0),
    }


def test_one_density_serves_every_kernel_and_norm(counted_densities):
    f = _tied_mesh()
    for kernel in _mesh_kernels().values():
        apply(kernel, f)
    lq_norm(f, 2.0)
    level_set_volume(f, 0.25)
    apply(PowerKernel(1.0, 1.5), f)
    assert len(counted_densities) == 1


@pytest.mark.parametrize(
    "name", ["power", "piecewise_poly", "tabulated", "above_tie", "above_between"]
)
def test_cached_density_matches_a_fresh_engine_call(name):
    f = _tied_mesh()
    density = density_of(f)
    assert {0.0, 0.5} <= set(density.point_values)
    assert not density.coefficients.flags.writeable
    pieces = {k: kern.pieces() for k, kern in _mesh_kernels().items()}
    pieces["above_tie"] = Pieces.above(0.25)
    pieces["above_between"] = Pieces.above(0.3)
    h = pieces[name]
    fresh = simplex_means(f.simplex_values(), h)
    for other in pieces.values():  # the density now serves every kernel
        density.means(other)
    assert density_of(f) is density
    assert np.array_equal(density.means(h), fresh)
    vols = f.complex.simplex_volumes()
    if name in _mesh_kernels():
        assert apply(_mesh_kernels()[name], f) == float(vols @ fresh)
    elif name == "above_tie":
        assert level_set_volume(f, 0.25) == float(vols @ fresh)


def test_density_is_freed_with_its_function():
    f = _tied_mesh()
    lq_norm(f, 2.0)
    ref = weakref.ref(density_of(f))
    del f
    gc.collect()
    assert ref() is None


# -- stacks of rows and batches of functions --------------------------------------

def _stack_row(kind, n, rng):
    """'far' keeps away from 0 (a power piece's Gauss-Legendre route),
    'near' starts at 0 and may cross it (the closed form), 'tied' repeats
    values and 'point' is a point mass."""
    if kind == "far":
        return rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0, n + 1)
    if kind == "near":
        return np.concatenate([[0.0], rng.uniform(-1.0, 1.5, n)])
    if kind == "tied":
        return rng.choice([0.0, 0.5, -0.75, 1.25], n + 1)
    return np.full(n + 1, rng.uniform(-2.0, 2.0))


def _stack_kernel(kind, q) -> Pieces:
    """A power, the piecewise t^2, a tabulated kernel whose cuts fall
    inside the rows' values (the cut route) with extensions of exponents
    -1.5 and -2 that take both power rules, and an indicator."""
    if kind == "power":
        return Pieces.power(1.0, q)
    if kind == "poly":
        return _mesh_kernels()["piecewise_poly"].pieces()
    if kind == "tabulated":
        return TabulatedKernel([-0.5, 0.0, 0.4, 0.6], [0.5, 0.0, 0.7, -0.2], -1.5, -2.0).pieces()
    return Pieces.above(0.3)


def _row_function(row):
    """The affine function on the standard simplex with vertex values row."""
    n = len(row) - 1
    simplex = pf.SimplicialComplex(n, np.vstack([np.zeros(n), np.eye(n)]), [np.arange(n + 1)])
    return pf.PLFunction(complex=simplex, values=row)


@given(
    n=st.integers(1, 4),
    q=st.floats(0.5, 3.7),
    kernel=st.sampled_from(["power", "poly", "tabulated", "above"]),
    seed=st.integers(0, 2**32 - 1),
)
# two draws whose stacked means differed from the rows' own when the
# pieces contracted by matrix product
@example(n=3, q=1.5, kernel="power", seed=0)
@example(n=2, q=1.5, kernel="tabulated", seed=0)
@settings(max_examples=60, deadline=None)
def test_row_mean_alone_and_in_any_stack_agree(n, q, kernel, seed):
    # bit for bit: every sum over a node, power or Bernstein index runs in
    # order, not in a matrix product whose blocking follows the stack
    rng = np.random.default_rng(seed)
    kinds = ("far", "near", "tied", "point")
    rows = np.array([_stack_row(kind, n, rng) for kind in kinds for _ in range(3)])
    h = _stack_kernel(kernel, q)
    alone = np.array([simplex_means(row[None, :], h)[0] for row in rows])
    norms = np.array([lq_norm(_row_function(row), q + 0.5) for row in rows])
    for size in (1, 2, 5, len(rows), 3 * len(rows)):
        pick = rng.choice(len(rows), size, replace=size > len(rows))
        got = simplex_means(rows[pick], h)
        assert np.array_equal(got, alone[pick]), (rows[pick].tolist(), got, alone[pick])
        assert np.array_equal(lq_norms([_row_function(row) for row in rows[pick]], q + 0.5), norms[pick])


def _fresh(f):
    """f as a new function with no density built yet."""
    return pf.PLFunction(complex=f.complex, values=f.values)


def _batch_pool():
    rng = np.random.default_rng(21)
    cones = [random_cone_function(rng, 2) for _ in range(4)]
    return cones + [_tied_mesh(), pf.PLFunction.zero(2), zero_like(cones[0])]


@given(q=st.floats(0.5, 3.7), seed=st.integers(0, 2**32 - 1), size=st.integers(1, 9))
@settings(max_examples=25, deadline=None)
def test_apply_each_agrees_with_apply_in_any_order_and_stack(q, seed, size):
    pool = _batch_pool()
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(pool), size)
    h = PowerKernel(1.0, q)
    alone = [apply(h, _fresh(pool[i])) for i in pick]
    # half the members come with their density already built
    batch = [_fresh(pool[i]) for i in pick]
    for f in batch[: size // 2]:
        density_of(f)
    got = apply_each(h, batch)
    assert got.shape == (size,)
    assert np.array_equal(got, alone), (got, alone)


def test_apply_each_of_no_functions_is_an_empty_array():
    got = apply_each(PowerKernel(1.0, 1.5), [])
    assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_apply_each_gives_zero_for_empty_and_zero_functions():
    f = _tied_mesh()
    got = apply_each(PowerKernel(1.0, 1.5), [pf.PLFunction.zero(2), f, zero_like(f)])
    assert got[0] == 0.0 and got[2] == 0.0
    assert got[1] > 0.0


def test_apply_each_refuses_a_batch_of_mixed_dimensions():
    with pytest.raises(ValueError):
        apply_each(PowerKernel(1.0, 1.5), [_tied_mesh(), pf.cone_function(pt.cube(3))])


def test_a_function_twice_in_a_batch_builds_one_density(counted_densities):
    f, g = _fresh(_tied_mesh()), _fresh(_tied_mesh())
    got = apply_each(PowerKernel(1.0, 1.5), [f, g, f])
    assert len(counted_densities) == 1
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("kept", [(), (0, 2, 4), (0, 1, 2, 3, 4, 5)], ids=["none", "some", "all"])
def test_a_batch_builds_one_density_and_keeps_none(counted_densities, kept):
    # a batch of two or more builds one density over all its members' rows,
    # whatever densities they kept, and leaves each member as it found it
    h = PowerKernel(1.0, 1.5)
    pool = [p for p in _batch_pool() if not p.complex.is_empty()]
    alone = [apply(h, _fresh(f)) for f in pool]
    batch = [_fresh(f) for f in pool]
    densities = {i: density_of(batch[i]) for i in kept}
    arrays = {i: {name: arr.copy() for name, arr in vars(d).items()} for i, d in densities.items()}
    del counted_densities[:]
    got = apply_each(h, batch)
    assert len(counted_densities) == 1
    assert np.array_equal(got, alone), (got, alone)
    for i, density in densities.items():
        assert density_of(batch[i]) is density
        for name, arr in vars(density).items():
            assert np.array_equal(arr, arrays[i][name]) and not arr.flags.writeable, name
    assert len(counted_densities) == 1
    fresh = [f for i, f in enumerate(batch) if i not in densities]
    for f in fresh:
        density_of(f)  # built now: the batch kept none for it
    assert len(counted_densities) == 1 + len(fresh)


# -- the engine against raw segments cut at every cut --------------------------

# Outside power kernels, a piece that crosses 0 and another cut of h is cut
# twice (at 0 once per density, then at the other cut) where the raw-segment
# engine cuts it once.  The two agree to this many ulps of the row's largest
# |h| over its values: each subdivision's error is relative to the piece it
# cuts, not to a thin sub-piece, on which either engine may be off by many
# ulps of the sub-piece's own mean.
CUT_ULPS = 4


def _oracle_row(kind, n, rng):
    """Rows with exact zeros, ties, point masses (at 0 and away from it),
    all-negative rows and rows of one sign, next to generic ones."""
    if kind == "mixed":
        return rng.uniform(-1.4, 1.4, n + 1)
    if kind == "zeros":
        row = rng.uniform(-1.4, 1.4, n + 1)
        row[rng.choice(n + 1, rng.integers(1, n + 1), replace=False)] = 0.0
        return row
    if kind == "tied":
        return rng.choice([0.0, -0.5, 0.3, 0.3, 1.1, -1.2], n + 1)
    if kind == "point":
        return np.full(n + 1, rng.choice([0.0, 0.3, -0.8]))
    if kind == "negative":
        return -rng.uniform(0.05, 1.6, n + 1)
    return rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 1.6, n + 1)  # one sign


def _oracle_rows(n, rng, size=36):
    kinds = ("mixed", "zeros", "tied", "point", "negative", "one_sign")
    return np.array([_oracle_row(kinds[i % len(kinds)], n, rng) for i in rng.permutation(size)])


def _shifted(p, b):
    """Coefficients of p(t) in ascending powers of (t - b)."""
    return np.polynomial.Polynomial(p)(np.polynomial.Polynomial([b, 1.0])).coef


def _crossing_kernel(kind, rng) -> Pieces:
    """A kernel whose cuts fall inside the rows' values, with power-law
    extensions (exponents at or below -1 among them) beyond its knots."""
    if kind == "above":
        return Pieces.above(float(rng.choice([0.3, rng.uniform(0.01, 1.3)])))
    knots = np.union1d(np.round(rng.uniform(-1.2, 1.2, rng.integers(1, 4)), 2), [0.0])
    if len(knots) < 2:
        knots = np.array([0.0, 0.7])
    ext = [float(e) for e in rng.choice([-1.5, -1.0, 0.5, 2.0], 2)]
    if kind == "tabulated":
        hs = rng.uniform(-1.0, 1.0, len(knots))
        hs[knots == 0.0] = 0.0
        return TabulatedKernel(knots, hs, *ext).pieces()
    p = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, 3)])  # p(0) = 0
    rows = np.array([_shifted(p, b)[:4] for b in knots[:-1]])
    return PiecewisePolyKernel(knots, rows, *ext).pieces()


def _row_scale(h, rows):
    """The largest |h| over each row's values, sampled."""
    t = rows.min(axis=1)[:, None] + np.linspace(0.0, 1.0, 129) * np.ptp(rows, axis=1)[:, None]
    return np.abs(h(t)).max(axis=1)


@given(n=st.integers(1, 4), q=st.floats(0.25, 4.5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_power_means_equal_the_raw_segment_engine_bit_for_bit(n, q, seed):
    rng = np.random.default_rng(seed)
    rows = _oracle_rows(n, rng)
    for h in (Pieces.power(1.0, q), Pieces.power(-2.5, round(q)), Pieces.power(0.7, q + 0.5)):
        got = value_density(rows).means(h)
        assert np.array_equal(got, oracles.means_split_at_all_cuts(rows, h))


@given(q=st.floats(1.0, 4.5), seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_lq_norms_equal_the_raw_segment_engine_bit_for_bit(q, seed, size):
    rng = np.random.default_rng(seed)
    pool = _batch_pool()
    pool += [pf.PLFunction(complex=f.complex, values=f.values - 0.25) for f in pool[:4]]
    batch = [pool[i] for i in rng.choice(len(pool), size)]
    rows = np.concatenate([f.simplex_values() for f in batch if not f.complex.is_empty()] + [np.zeros((0, 3))])
    means = oracles.means_split_at_all_cuts(rows, Pieces.power(1.0, q))
    want, start = [], 0
    for f in batch:
        stop = start + len(f.complex)
        want.append(float(f.complex.simplex_volumes() @ means[start:stop]) ** (1.0 / q) if len(f.complex) else 0.0)
        start = stop
    got = lq_norms([_fresh(f) for f in batch], q)
    assert np.array_equal(got, want), (got, want)


@given(
    n=st.integers(1, 4),
    kind=st.sampled_from(["piecewise", "tabulated", "above"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_kernels_with_other_cuts_agree_with_the_raw_segment_engine(n, kind, seed):
    rng = np.random.default_rng(seed)
    rows = _oracle_rows(n, rng)
    h = _crossing_kernel(kind, rng)
    got = value_density(rows).means(h)
    want = oracles.means_split_at_all_cuts(rows, h)
    scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), _row_scale(h, rows))
    bad = np.abs(got - want) > CUT_ULPS * np.spacing(scale)
    assert not bad.any(), (rows[bad].tolist(), got[bad], want[bad])


def _kept_kernels(rows, rng):
    """Power kernels, polynomial kernels whose knots lie beyond the rows'
    values (no cut but 0 inside them) and among them, a kernel with
    different terms on the two sides of 0, and indicators above a level
    inside and outside the values."""
    wide = 2.0  # beyond every _oracle_row value
    inside = float(rng.uniform(rows.min(), rows.max()))
    # t below 0, |t|^1.5 above
    two_sided = Pieces(np.zeros(1), np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0]),
                       np.array([0.0, 1.5]))
    return [Pieces.power(1.0, q) for q in (0.5, 1.0, 1.5, 2.0, 3.0)] + [
        two_sided,
        PiecewisePolyKernel([-wide, 0.0, wide], [[wide * wide, -2.0 * wide, 1.0], [0.0, 0.0, 1.0]], 2.0, 2.0).pieces(),
        TabulatedKernel([-wide, 0.0, wide], [wide, 0.0, wide], 1.0, 1.0).pieces(),
        _crossing_kernel("piecewise", rng),
        _crossing_kernel("tabulated", rng),
        Pieces.above(inside),
        Pieces.above(float(rows.max()) + 0.5),
        Pieces.above(float(rows.min()) - 0.5),
    ]


@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_a_kept_density_gives_a_fresh_densitys_means_bit_for_bit(n, seed):
    # rows with tied knots, zeros, point masses and both signs
    rng = np.random.default_rng(seed)
    rows = _oracle_rows(n, rng)
    kernels = _kept_kernels(rows, rng)
    kept = value_density(rows)
    for i in rng.permutation(len(kernels)):  # the kept density meets every kernel first
        kept.means(kernels[i])
    for h in kernels:
        fresh = value_density(rows)
        want = fresh.means(h)
        assert np.array_equal(kept.means(h), want)
        assert np.array_equal(want, value_density(rows).means(h))
        # where the pieces are integrated whole, the cut route's
        # arithmetic gives the same amount for every piece
        base = fresh._uncut_base(h.flags.inner)
        whole = None if base is None else fresh._whole_means(h, h.flags, fresh.sides(), base)
        if whole is not None:
            assert np.array_equal(whole, fresh._cut_means(h, h.flags, fresh.sides())[0])
    assert list(vars(kept)) == list(vars(fresh)) == [f.name for f in dataclasses.fields(kept)]


def test_norms_and_level_sets_share_one_write_protected_pieces():
    for make, arg in ((lambda x: Pieces.power(1.0, x), 2.5), (Pieces.above, 0.3)):
        h = make(arg)
        assert make(arg) is h and make(np.float64(arg)) is h
        for arr in (h.cuts, h.anchors, h.coefficients, h.scales, h.exponents, h.flags.active, h.flags.alike):
            assert not arr.flags.writeable
    assert PowerKernel(2.0, 1.5).pieces() is Pieces.power(2, 1.5)


def test_power_kernels_and_norms_cut_nothing_and_orient_once(monkeypatch, counted_densities):
    # three power kernels, a norm and a level set on one function whose
    # values cross 0: the only cut at 0 is the density build's, no power
    # kernel or norm looks for crossings or subdivides, and the pieces are
    # oriented once
    from plval import integration

    inside, crossed, restricted, oriented = [], [], [], []
    build, crossings, restrict, orient = (
        integration.value_density, integration._crossings, integration._restrict, integration._orient)

    def building(values):
        inside.append(True)
        try:
            return build(values)
        finally:
            inside.pop()

    def crossing(lo, hi, cuts):
        crossed.append((bool(inside), cuts.tolist()))
        return crossings(lo, hi, cuts)

    def restricting(*args):
        restricted.append(bool(inside))
        return restrict(*args)

    def orienting(*args):
        oriented.append(len(args[0]))
        return orient(*args)

    for name, fn in (("value_density", building), ("_crossings", crossing),
                     ("_restrict", restricting), ("_orient", orienting)):
        monkeypatch.setattr(integration, name, fn)
    f = _tied_mesh()
    f = pf.PLFunction(complex=f.complex, values=f.values - 0.3 * (f.values > 0.0))
    for q in (1.0, 1.5, 2.5):
        apply(PowerKernel(1.0, q), f)
    lq_norm(f, 3.0)
    assert len(counted_densities) == 1
    assert crossed == [(True, [0.0])] and restricted == [True]
    assert oriented == [len(density_of(f).lo)]
    level_set_volume(f, 0.1)
    assert crossed[-1] == (False, [0.1]) and len(counted_densities) == 1
    assert [c for c in crossed if 0.0 in c[1]] == [(True, [0.0])]
    assert len(oriented) == 1


def test_a_density_searches_for_crossings_only_when_a_segment_crosses_0():
    f = _tied_mesh()  # values in {0, 0.25, 0.5}: no segment crosses 0
    before = stats.calls["crossings"]
    density_of(f)
    assert stats.calls["crossings"] == before
    g = pf.PLFunction(complex=f.complex, values=f.values - 0.3 * (f.values > 0.0))
    density_of(g)
    assert stats.calls["crossings"] == before + 1


# -- no matrix product over the stack ------------------------------------------

PRODUCTS = ("dot", "matmul", "einsum", "tensordot", "inner", "vdot")
# the engine's kernel-dependent contractions and the orientation they read
KERNEL_HALF = ("_orient", "_power_pieces", "_poly_pieces", "ValueDensity")


def matrix_products(source: str) -> list:
    """(line, form) for each matrix product in source, by line: `@` and
    `@=`, and calls of numpy's PRODUCTS, as np.<name>, a.<name> or a bare
    name."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in PRODUCTS:
                found.append((node.lineno, name))
    return sorted(found)


def test_the_kernel_half_takes_no_matrix_product_over_the_stack():
    # a BLAS product picks its blocking from the stack's shape, so a row's
    # bits would depend on its stack-mates
    from plval import integration

    source = inspect.getsource(integration)
    parts = {
        node.name: ast.get_source_segment(source, node)
        for node in ast.parse(source).body
        if getattr(node, "name", None) in KERNEL_HALF
    }
    found = {name: matrix_products(part) for name, part in parts.items()}
    assert not any(found.values()), found
    assert sorted(parts) == sorted(KERNEL_HALF)


def test_the_product_finder_sees_every_form():
    source = """
    def f(a, b):
        c = a @ b
        c @= b
        np.dot(a, b)
        numpy.matmul(a, b)
        np.einsum("ij,jk", a, b)
        np.tensordot(a, b)
        np.inner(a, b)
        np.vdot(a, b)
        a.dot(b)
        dot(a, b)
        return a * b + np.sum(a, axis=0) + np.add.reduce(a)
    """
    assert [form for _, form in matrix_products(source)] == [
        "@", "@", "dot", "matmul", "einsum", "tensordot", "inner", "vdot", "dot", "dot"]


# -- the combinatorial constant ---------------------------------------------------


def test_c_pn_values():
    assert c_pn(1.0, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert c_pn(1.0, 1) == pytest.approx(0.5, rel=1e-14)
    from math import comb

    for p in (1, 2, 3):
        for n in (1, 2, 3, 4):
            assert c_pn(float(p), n) == pytest.approx(1.0 / comb(n + p, n), rel=1e-13)


@given(p=st.floats(1.0, 4.0), n=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_c_pn_matches_beta_oracle(p, n):
    assert c_pn(p, n) == pytest.approx(oracles.beta_cpn(p, n), rel=1e-9)
