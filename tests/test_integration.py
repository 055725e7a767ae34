"""Exact simplex integrals, norms, level sets, densities, Fisher matrices."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plval import plfunction as pf
from plval import polytope as pt
from plval.errors import NegativeValues
from plval.integration import (
    Pieces,
    PushforwardDensity,
    c_pn,
    fisher_matrix,
    grad_p_norm,
    integrate_power_over_simplex,
    level_set_volume,
    lq_norm,
    simplex_means,
    sobolev_conjugate,
    sobolev_norm,
)
from plval.valuation import PiecewisePolyKernel, PowerKernel, TabulatedKernel, apply

import oracles


def zero_like(f: pf.PLFunction) -> pf.PLFunction:
    return pf.PLFunction(complex=f.complex, values=np.zeros(len(f.values)))


# -- integrate_power_over_simplex -------------------------------------------


def test_power_over_interval():
    assert integrate_power_over_simplex([0.0, 1.0], 1.0, 1) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("q", [1, 2, 3, 1.5, 2.75])
def test_power_over_cone_simplex(q):
    # values (1, 0, ..., 0) integrate to |simplex| * c_{q,n}
    for n, vol in ((2, 0.5), (3, 2.0)):
        vals = np.zeros(n + 1)
        vals[0] = 1.0
        expected = vol * oracles.beta_cpn(float(q), n)
        assert integrate_power_over_simplex(vals, vol, q) == pytest.approx(expected, rel=1e-10)


def test_power_matches_adaptive_quadrature():
    rng = np.random.default_rng(7)
    tri = rng.uniform(-1, 1, (3, 2))
    vals = rng.uniform(0, 2, 3)
    vol = oracles.det_simplex_volume(tri)
    ref = oracles.quad_power_triangle(tri, vals, 3.0)
    assert integrate_power_over_simplex(vals, vol, 3) == pytest.approx(ref, rel=1e-9)


def test_power_rejects_negative_values():
    with pytest.raises(NegativeValues):
        integrate_power_over_simplex([-0.5, 1.0, 0.0], 1.0, 2)


# -- pushforward density ------------------------------------------------------


@pytest.mark.parametrize("vals", [(0.0, 1.0, 0.5), (0.2, 0.9, 0.4, 0.7), (1.0, 1.0, 1.0)])
def test_density_nonnegative_unit_mass(vals):
    dens = PushforwardDensity(np.array(vals), len(vals) - 1)
    lo, hi = min(vals), max(vals)
    if dens.is_dirac:
        assert lo == hi
        return
    ts = np.linspace(lo, hi, 500)
    assert np.all(dens.pdf(ts) >= -1e-12)
    assert dens.moment_abs(0.0) == pytest.approx(1.0, rel=1e-12)


def test_density_moment_matches_quadrature():
    vals = np.array([0.1, 0.8, 0.3])
    dens = PushforwardDensity(vals, 2)
    from scipy.integrate import quad

    ref, _ = quad(lambda t: t**1.7 * dens.pdf(np.array([t]))[0], 0.1, 0.8,
                  epsabs=1e-13, limit=200)
    assert dens.moment_abs(1.7) == pytest.approx(ref, rel=1e-9)


def test_density_cdf():
    # P(f <= 0.5) for values (0.2, 0.5, 0.9) on a triangle: (0.3)^2 / (0.7 * 0.3)
    dens = PushforwardDensity(np.array([0.9, 0.2, 0.5]), 2)
    assert [dens.cdf(t) for t in (0.1, 0.2, 0.9, 1.0)] == [0.0, 0.0, 1.0, 1.0]
    assert dens.cdf(0.5) == pytest.approx(3.0 / 7.0, rel=1e-14)
    point = PushforwardDensity(np.full(3, 0.3), 2)
    assert point.is_dirac and [point.cdf(t) for t in (0.29, 0.3)] == [0.0, 1.0]


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
@settings(max_examples=30, deadline=None)
def test_lq_norm_homogeneous(s, q):
    f = pf.cone_function(pt.cube(2))
    assert lq_norm(pf.scale_values(f, s), q) == pytest.approx(abs(s) * lq_norm(f, q), rel=1e-10, abs=1e-12)


def test_lq_norm_splits_sign_changes(square):
    # odd function: |f| integrates like the positive tent on each half
    cx = pt.central_triangulation(square)
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
        simplices=tuple(map(tuple, np.concatenate(simplices))),
    )
    return pf.PLFunction(complex=cx, values=values)


def test_near_tie_square_integral():
    # 0.1 + 0.2 is 0.3 plus one ulp: knots one ulp apart inside a simplex
    f = _kuhn_square(3, [0.3, 0.1 + 0.2, 0.7, 0.1 + 0.2 + 0.4])
    vols = f.complex.simplex_volumes()
    ref = sum(
        vol * integrate_power_over_simplex(np.abs(v), 1.0, 2)
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


@pytest.fixture
def counted_densities(monkeypatch):
    """A list that grows by one each time the engine builds segment
    densities."""
    from plval import integration

    build = integration._segment_density
    calls = []

    def counting(V):
        calls.append(len(V))
        return build(V)

    monkeypatch.setattr(integration, "_segment_density", counting)
    return calls


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
    density = f.value_density()
    assert {0.0, 0.5} <= set(density.point_values)
    assert not density.coefficients.flags.writeable
    pieces = {k: kern.pieces() for k, kern in _mesh_kernels().items()}
    pieces["above_tie"] = Pieces.above(0.25)
    pieces["above_between"] = Pieces.above(0.3)
    h = pieces[name]
    fresh = simplex_means(f.simplex_values(), h)
    for other in pieces.values():  # the density now serves every kernel
        density.means(other)
    assert f.value_density() is density
    assert np.array_equal(density.means(h), fresh)
    vols = f.complex.simplex_volumes()
    if name in _mesh_kernels():
        assert apply(_mesh_kernels()[name], f) == float(vols @ fresh)
    elif name == "above_tie":
        assert level_set_volume(f, 0.25) == float(vols @ fresh)


def test_density_is_freed_with_its_function():
    f = _tied_mesh()
    lq_norm(f, 2.0)
    ref = weakref.ref(f.value_density())
    del f
    gc.collect()
    assert ref() is None


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
