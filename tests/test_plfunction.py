"""Cone functions, evaluation, lattice operations, tent decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plval import convex, overlay
from plval import plfunction as pf
from plval import polytope as pt
from plval.errors import (
    ConstructionFailure,
    InvalidComplex,
    NonFinite,
    OverlayFailure,
    PLValError,
    Singular,
)
from plval.integration import lq_norm

import oracles


def fan_function(seed: int, pieces: int = 6) -> pf.PLFunction:
    from plval.verify import random_fan_function

    return random_fan_function(seed, pieces)


def test_cone_square_values(cone_square):
    assert pf.evaluate(cone_square, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert pf.evaluate(cone_square, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert pf.evaluate(cone_square, [0.5, 0.0]) == pytest.approx(0.5, abs=1e-12)
    assert pf.evaluate(cone_square, [5.0, 5.0]) == 0.0


def test_simplex_volumes_match_per_simplex_measure():
    rng = np.random.default_rng(5)
    P = pt.hull_from_points(rng.normal(size=(9, 3)))
    phi = rng.uniform(0.5, 2.0) * np.eye(3)
    f = pf.compose_affine(pf.cone_function(P), phi, rng.normal(size=3))
    cx = f.complex
    vols = cx.simplex_volumes()
    assert len(vols) == len(cx) > 8
    for vol, s in zip(vols, cx.simplices):
        assert vol == pytest.approx(oracles.det_simplex_volume(cx.vertices[s]), rel=1e-14)


def test_cone_gradients_are_scaled_normals(square, cone_square):
    # each central simplex sits under one facet; gradient must be -u_i/h_i
    expected = {tuple(np.round(-np.asarray(f.normal) / f.support, 9)) for f in square.facets}
    got = {tuple(np.round(g, 9)) for g in cone_square.affines()[0]}
    assert got == expected


def test_cone_zero_outside(cone_square, rng):
    for _ in range(200):
        x = rng.uniform(-4, 4, size=2)
        if np.max(np.abs(x)) > 1.0 + 1e-9:
            assert pf.evaluate(cone_square, x) == 0.0


def test_evaluate_at_vertices(cone_square):
    cx = cone_square.complex
    for i, v in enumerate(cx.vertices):
        assert pf.evaluate(cone_square, v) == pytest.approx(cone_square.values[i], abs=1e-12)


def test_gradient_field_constant_zero(square):
    cx = pf.central_triangulation(square)
    zero = pf.PLFunction(complex=cx, values=np.zeros(len(cx.vertices)))
    grads, _ = zero.affines()
    assert len(grads) == len(cx)
    assert np.allclose(grads, 0.0, atol=1e-14)


def test_gradient_field_affine_exact(square):
    # affine data is reproduced exactly on every simplex
    cx = pf.central_triangulation(square)
    a = np.array([0.7, -0.3])
    vals = cx.vertices @ a + 0.25
    f = pf.PLFunction(complex=cx, values=vals)
    grads, _ = f.affines()
    assert len(grads) == len(cx)
    assert np.allclose(grads, a, atol=1e-12)


def test_scale_values(cone_square):
    same = pf.scale_values(cone_square, 1.0)
    assert np.allclose(same.values, cone_square.values)
    zero = pf.scale_values(cone_square, 0.0)
    assert np.allclose(zero.values, 0.0)


def test_scale_values_norm_homogeneity(cone_square):
    # oracle: adaptive quadrature of |s f|^q per triangle
    s, q = -1.7, 2.0
    scaled = pf.scale_values(cone_square, s)
    cx = cone_square.complex
    direct = oracles.quad_lq_power_2d(
        cx.vertices, [list(t) for t in cx.simplices], scaled.values, q)
    assert lq_norm(scaled, q) ** q == pytest.approx(direct, rel=1e-10)
    assert lq_norm(scaled, q) == pytest.approx(abs(s) * lq_norm(cone_square, q), rel=1e-10)


def test_compose_affine_identity(cone_square):
    g = pf.compose_affine(cone_square, np.eye(2), np.zeros(2))
    for x in np.random.default_rng(1).uniform(-1.5, 1.5, (100, 2)):
        assert pf.evaluate(g, x) == pytest.approx(pf.evaluate(cone_square, x), abs=1e-12)


def test_compose_affine_unimodular_preserves_norms(square, cone_square):
    phi = np.array([[1.0, 0.8], [0.0, 1.0]])
    g = pf.compose_affine(cone_square, phi, np.zeros(2))
    # same function as the cone over the sheared polytope
    ref = pf.cone_function(pt.apply_unimodular(square, phi))
    for x in np.random.default_rng(2).uniform(-2, 2, (100, 2)):
        assert pf.evaluate(g, x) == pytest.approx(pf.evaluate(ref, x), abs=1e-10)
    for q in (1.0, 2.0):
        assert lq_norm(g, q) == pytest.approx(lq_norm(cone_square, q), rel=1e-8)


def test_compose_affine_translation(cone_square):
    t = np.array([3.0, -2.0])
    g = pf.compose_affine(cone_square, np.eye(2), t)
    assert pf.evaluate(g, t) == pytest.approx(1.0, abs=1e-12)
    assert lq_norm(g, 1.0) == pytest.approx(lq_norm(cone_square, 1.0), rel=1e-10)


def test_singular_maps_are_judged_by_condition_number():
    # a small multiple of the identity is perfectly conditioned, though
    # its determinant (7.29e-13) is tiny; a rank-1 map is singular at any scale
    cube = pt.cube(3)
    small = 9e-5 * np.eye(3)
    assert pt.volume(pt.apply_unimodular(cube, small)) == pytest.approx(8 * 9e-5**3, rel=1e-12)
    g = pf.compose_affine(pf.cone_function(cube), small)
    assert pf.evaluate(g, np.zeros(3)) == pytest.approx(1.0)
    rank1 = np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5])
    with pytest.raises(Singular):
        pt.apply_unimodular(cube, rank1)
    with pytest.raises(Singular):
        pf.compose_affine(pf.cone_function(cube), rank1)


def test_join_of_cones_over_convex_union():
    # slabs whose union is the square; the join must be the square's cone
    P = pt.hull_from_points([[1, 1], [-1, 1], [1, -0.5], [-1, -0.5]])
    Q = pt.hull_from_points([[1, 0.5], [-1, 0.5], [1, -1], [-1, -1]])
    joined = pf.join(pf.cone_function(P), pf.cone_function(Q))
    ref = pf.cone_function(pt.cube(2))
    for x in np.random.default_rng(3).uniform(-1.3, 1.3, (300, 2)):
        assert pf.evaluate(joined, x) == pytest.approx(pf.evaluate(ref, x), abs=1e-9)


def test_join_idempotent(cone_square, rng):
    joined = pf.join(cone_square, cone_square)
    for x in rng.uniform(-1.5, 1.5, (200, 2)):
        assert pf.evaluate(joined, x) == pytest.approx(pf.evaluate(cone_square, x), abs=1e-10)


def test_join_meet_l1_additivity():
    f = fan_function(1)
    g = fan_function(2)
    lhs = lq_norm(pf.join(f, g), 1.0) + lq_norm(pf.meet(f, g), 1.0)
    rhs = lq_norm(f, 1.0) + lq_norm(g, 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-8)


@pytest.mark.parametrize("n, examples", [pytest.param(2, 12, id="2"), pytest.param(3, 4, id="3")])
def test_lattice_laws_sampled(n, examples):
    from plval.verify import random_cone_function

    # 3-D pairs are 5-point cones, as in the battery; one such case costs
    # 0.1-9 s, so its draw is fixed to keep the test's time stable
    @given(seed=st.integers(0, 25))
    @settings(max_examples=examples, deadline=None, derandomize=n == 3)
    def check(seed):
        rng = np.random.default_rng(seed)
        points = 5 if n == 3 else None
        f = random_cone_function(rng, n, points)
        g = random_cone_function(rng, n, points)
        jo, me = pf.join(f, g), pf.meet(f, g)
        jo_swap = pf.join(g, f)
        absorb = pf.meet(f, jo)
        pts = rng.uniform(-2, 2, (80, n))
        for x in pts:
            fv, gv = pf.evaluate(f, x), pf.evaluate(g, x)
            assert pf.evaluate(jo, x) == pytest.approx(max(fv, gv), abs=1e-9)
            assert pf.evaluate(me, x) == pytest.approx(min(fv, gv), abs=1e-9)
            assert pf.evaluate(jo_swap, x) == pytest.approx(max(fv, gv), abs=1e-9)
            assert pf.evaluate(absorb, x) == pytest.approx(fv, abs=1e-9)

    check()


def test_partition_check_rejects_duplicated_and_dropped_cells(monkeypatch):
    from plval.verify import random_cone_function

    rng = np.random.default_rng(3)
    f = random_cone_function(rng, 3, points=5)
    g = random_cone_function(rng, 3, points=5)
    pieces = overlay._pieces_pairwise(overlay._prep([(f, g)]))
    supp = np.array([f.support_volume() + g.support_volume()])
    assert overlay._cover_failures(pieces, supp) == {}
    assert not pf.join(f, g).is_zero()
    every = np.arange(len(pieces.vol))
    big = int(np.argmax(pieces.vol))
    for idx in (np.append(every, big), np.delete(every, big)):
        changed = overlay._Pieces(pieces.cells.take(idx), *(x[idx] for x in pieces[1:]))
        (failure,) = overlay._cover_failures(changed, supp).values()
        assert "cover" in str(failure)
        # join and meet run the balance on the cells they are given
        monkeypatch.setattr(overlay, "_pieces_pairwise", lambda mesh, changed=changed: changed)
        for op in (pf.join, pf.meet):
            overlay._pair.cache_clear()
            with pytest.raises(OverlayFailure, match="cover"):
                op(f, g)


@pytest.fixture
def counted_cuts(monkeypatch):
    """The pair API's kept pair emptied, and a list that grows by one
    each time the overlay cuts two meshes against each other."""
    cut = overlay._pieces_pairwise
    calls = []

    def counting(*args):
        calls.append(1)
        return cut(*args)

    overlay._pair.cache_clear()
    monkeypatch.setattr(overlay, "_pieces_pairwise", counting)
    yield calls
    overlay._pair.cache_clear()


def _cone_pairs(count):
    from plval.verify import random_cone_function

    rng = np.random.default_rng(11)
    return [random_cone_function(rng, 2) for _ in range(2 * count)]


@pytest.mark.parametrize(
    "first, second", [(pf.join, pf.meet), (pf.meet, pf.join)], ids=["join-meet", "meet-join"]
)
def test_join_and_meet_of_one_pair_cut_once(counted_cuts, first, second):
    f, g = _cone_pairs(1)
    first(f, g)
    second(f, g)
    assert len(counted_cuts) == 1


def test_memo_holds_only_the_last_pair(counted_cuts):
    f, g, h, k = _cone_pairs(2)
    pf.join(f, g)
    pf.join(h, k)
    pf.meet(f, g)
    assert len(counted_cuts) == 3


def test_memo_keys_on_identity_not_content(counted_cuts):
    f, g = _cone_pairs(1)
    twin = pf.PLFunction(complex=g.complex, values=g.values.copy())
    pf.join(f, g)
    pf.meet(f, twin)
    assert len(counted_cuts) == 2


def test_memo_hit_matches_a_fresh_cut(counted_cuts):
    f, g = _cone_pairs(1)
    pf.join(f, g)
    hit = pf.meet(f, g)
    overlay._pair.cache_clear()
    fresh = pf.meet(f, g)
    assert len(counted_cuts) == 2
    assert hit.complex.vertices.tobytes() == fresh.complex.vertices.tobytes()
    assert np.array_equal(hit.complex.simplices, fresh.complex.simplices)
    assert hit.values.tobytes() == fresh.values.tobytes()


def test_memo_releases_the_previous_pair(counted_cuts):
    import gc
    import weakref

    f, g, h, k = _cone_pairs(2)
    pf.join(f, g)
    pf.join(h, k)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_join_carries_winning_gradient():
    rng = np.random.default_rng(4)
    from plval.verify import random_cone_function

    f = random_cone_function(rng, 2)
    g = random_cone_function(rng, 2)
    jo = pf.join(f, g)
    grads, fg, gg = (h.affines()[0] for h in (jo, f, g))

    def source_gradient(func, table, x):
        # gradient of the simplex of func containing x, if x is interior
        cx = func.complex
        for si, s in enumerate(cx.simplices):
            if np.all(oracles.barycentric(cx.vertices[s], x) > 1e-7):
                return table[si]
        return None

    checked = 0
    for si, s in enumerate(jo.complex.simplices):
        c = jo.complex.vertices[s].mean(axis=0)
        fv, gv = pf.evaluate(f, c), pf.evaluate(g, c)
        if abs(fv - gv) < 1e-6:
            continue
        winner, table = (f, fg) if fv > gv else (g, gg)
        expected = source_gradient(winner, table, c)
        if expected is None:
            continue  # centroid sits where the winner is identically 0
        assert np.allclose(grads[si], expected, atol=1e-8)
        checked += 1
    assert checked > 0


def test_outputs_pass_complex_invariants():
    f = fan_function(5)
    g = fan_function(6)
    for out in (pf.join(f, g), pf.meet(f, g)):
        assert oracles.check_complex_invariants(out.complex) == []


# z under h(t) = t^2 of the join and the meet of random_cone_function pairs
# (rng seeded with the key's seed, default point counts), frozen from the
# overlay before it merged cells or subtracted supports whole
FROZEN_Z = {
    (2, 0): (1.8240764147194393, 0.006867775983308943),
    (2, 4): (0.7000508162695118, 0.2478281148214479),
    (2, 9): (1.467196493409766, 0.21980579425514024),
    (2, 14): (0.6601212475147579, 0.29969222827682823),
    (2, 17): (0.29984355208800384, 0.09008401460674967),
    (2, 23): (1.3755653938532264, 0.5678620211599483),
    (3, 0): (0.37085787092765965, 0.0),
    (3, 1): (0.8679008421022266, 0.061580402701648614),
    (3, 2): (0.14401724707443275, 1.8537514520583242e-05),
    (3, 3): (0.16616731498326826, 8.438612860745816e-06),
}


@pytest.mark.parametrize("n, seed", sorted(FROZEN_Z), ids=["%d-%d" % k for k in sorted(FROZEN_Z)])
def test_chained_meets_stay_coarse(n, seed):
    from plval.valuation import PowerKernel, apply
    from plval.verify import random_cone_function

    rng = np.random.default_rng(seed)
    f = random_cone_function(rng, n)
    g = random_cone_function(rng, n)
    jo, me = pf.join(f, g), pf.meet(f, g)
    h = PowerKernel(1.0, 2.0)
    z_join, z_meet = FROZEN_Z[(n, seed)]
    assert apply(h, jo) == pytest.approx(z_join, rel=1e-12)
    assert apply(h, me) == pytest.approx(z_meet, rel=1e-12)
    # absorption: f's pieces and the join's copies of them merge back
    # into f's simplices, whichever argument comes first (3-D seed 1 gave
    # 590 simplices for a 12-simplex f before cells were merged)
    for absorbed in (pf.meet(f, jo), pf.meet(jo, f)):
        assert len(absorbed.complex) <= 2 * len(f.complex)
        assert apply(h, absorbed) == pytest.approx(apply(h, f), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_meet_with_the_join_gives_back_f(n):
    # absorption, f ^ (f v g) = f, down to the simplex count in either
    # order: f's pieces and the join's copies of them merge back whole
    from plval.verify import random_cone_function

    for seed in range(26):
        rng = np.random.default_rng(seed)
        f = random_cone_function(rng, n)
        g = random_cone_function(rng, n)
        jo = pf.join(f, g)
        for absorbed in (pf.meet(f, jo), pf.meet(jo, f)):
            assert len(absorbed.complex) == len(f.complex), seed


def test_an_absorption_meet_chains_no_simplex_it_covers():
    # in f ^ (f v g) every simplex of f is covered by the join's simplices
    # it meets, and runs no difference chain against them: the 3-D seed-1
    # pair's two absorption meets take 16 stacked cuts or fewer (594 when
    # each covered simplex chained against every simplex it met)
    from plval import stats
    from plval.verify import random_cone_function

    rng = np.random.default_rng(1)
    f = random_cone_function(rng, 3)
    g = random_cone_function(rng, 3)
    jo = overlay.overlays([(f, g)], ("join",))["join"][0]
    before = stats.calls["splits"]
    met = overlay.overlays([(f, jo)], ("meet",))["meet"] + overlay.overlays([(jo, f)], ("meet",))["meet"]
    assert stats.calls["splits"] - before <= 16
    assert [len(h.complex) for h in met] == [len(f.complex)] * 2


def test_a_complex_keeps_its_rows_and_scale_write_protected():
    from plval.verify import random_cone_function

    cx = random_cone_function(np.random.default_rng(3), 3).complex
    for kept in (cx.simplex_rows, cx.locator):
        first = kept()
        assert kept() is first and all(not a.flags.writeable for a in first)
    assert cx.scale() == max(1.0, float(np.abs(cx.vertices).max()))
    assert pf.PLFunction.zero(2).complex.scale() == 1.0


@pytest.mark.parametrize("n", [2, 3])
def test_evaluate_each_builds_what_its_functions_lack_in_one_stack(monkeypatch, n):
    # the locators and affine pieces of several new functions come from
    # one np.linalg.inv and one np.linalg.solve, each bit the one a
    # function builds alone; what a function has already is not rebuilt
    from plval.verify import random_cone_function

    def fresh():
        out = []
        for seed in range(8):
            f = random_cone_function(np.random.default_rng(seed), n)
            cx = pf.SimplicialComplex(dim=n, vertices=f.complex.vertices, simplices=f.complex.simplices)
            out.append(pf.PLFunction(complex=cx, values=f.values))
        return out + [pf.PLFunction.zero(n)]

    alone = fresh()
    for f in alone:
        f.complex.locator(), f.affines()
    stacked = fresh()
    stacked[0].affines()
    stacked[1].complex.locator()
    calls = []
    for name in ("inv", "solve"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _fn=fn, _name=name: calls.append((_name, len(a)))
                            or _fn(a, *args))
    X = np.random.default_rng(9).uniform(-2.0, 2.0, size=(50 * len(stacked), n))
    at = np.repeat(np.arange(len(stacked)), 50)
    got = pf.evaluate_each(stacked, X, at)
    monkeypatch.undo()
    total = sum(len(f.complex) for f in stacked)
    assert calls == [("inv", total - len(stacked[1].complex)), ("solve", total - len(stacked[0].complex))]
    assert got.tobytes() == pf.evaluate_each(alone, X, at).tobytes()
    for a, b in zip(alone, stacked):
        for x, y in zip(a.complex.locator() + a.affines(), b.complex.locator() + b.affines()):
            assert x.tobytes() == y.tobytes() and not y.flags.writeable


def _disjoint_cones():
    P = pt.cube(2)
    return (
        pf.compose_affine(pf.cone_function(P), np.eye(2), [-2.0, 0.0]),
        pf.compose_affine(pf.cone_function(P), np.eye(2), [2.0, 0.5]),
    )


def test_convex_support_detected():
    from plval.verify import random_cone_function

    rng = np.random.default_rng(2)
    f = random_cone_function(rng, 2)
    g = random_cone_function(rng, 2)
    me = pf.meet(f, g)
    assert not me.is_zero()
    for fn in (f, me):
        A, b = fn.complex.convex_support
        V = fn.complex.vertices
        assert np.all(V @ A.T <= b + 1e-12)
        assert np.allclose(np.linalg.norm(A, axis=1), 1.0)
        # every row is a facet: dim vertices or more lie on it
        assert np.all((np.abs(V @ A.T - b) <= 1e-12).sum(axis=0) >= 2)
    assert pf.join(*_disjoint_cones()).complex.convex_support is None
    assert pf.PLFunction.zero(2).complex.convex_support is None


@pytest.mark.parametrize("convex_other", [True, False], ids=["convex", "not-convex"])
def test_one_lockstep_clips_every_near_pair_and_chains_against_whole_supports(monkeypatch, convex_other):
    f = pf.cone_function(pt.cube(2))
    g = pf.compose_affine(pf.cone_function(pt.cube(2)), np.eye(2), [0.7, 0.4])
    if not convex_other:
        g = pf.join(g, _disjoint_cones()[0])
    supports = [fn.complex.convex_support for fn in (f, g)]
    assert (supports[1] is not None) == convex_other
    lockstep = convex.clip_rows
    calls = []

    def counting(cells, A, b, tol, clip=None, flat=False):
        got = lockstep(cells, A, b, tol, clip, flat)
        # each cell, clip or chain, gives its role's every-row cells
        _assert_roles_match_their_oracles(cells, A, b, tol, clip, got)
        calls.append((cells, A, clip))
        return got

    overlay._pair.cache_clear()
    monkeypatch.setattr(convex, "clip_rows", counting)
    pf.join(f, g)
    overlay._pair.cache_clear()

    def whole(A):
        # a whole support's rows, padded with zero rows
        return np.array([
            any(len(Ai) >= len(S[0]) and np.array_equal(Ai[: len(S[0])], S[0]) and not Ai[len(S[0]) :].any()
                for S in supports if S is not None)
            for Ai in A
        ], dtype=bool)

    # the first call clips every near pair by a simplex's rows, next to one
    # difference chain per simplex against the other's whole support
    cells, A, clip = calls[0]
    assert clip.any() and (~clip).any()
    assert not whole(A[clip]).any() and whole(A[~clip]).all()
    starts = [cells.cell(i)[0].tobytes() for i in np.flatnonzero(~clip)]
    assert len(set(starts)) == len(starts) <= len(f.complex) + len(g.complex)
    if convex_other:
        assert len(calls) == 1
    else:
        # g's simplices chain against f's support whole in the lockstep, f's
        # against g's simplices one at a time after it
        assert len(calls) > 1
        assert not any(clip.any() or whole(A).any() for _, A, clip in calls[1:])


def _assert_roles_match_their_oracles(cells, A, b, tol, clip, got):
    """The (cells, src) that convex.clip_rows gave for the stack cells:
    its chain cells' pieces are the every-row chains'
    (oracles.subtract_every_row) and its clip cells' the every-row clips'
    (oracles.clip_every_row), bit for bit, the clips also once cut by an
    affine function that crosses each cell, as the overlay cuts them where
    f = g."""
    from plval import convex, overlay

    out, src = got
    chain = np.flatnonzero(~clip)
    mine = np.flatnonzero(~clip[src])
    wcells, wsrc = oracles.subtract_every_row(convex, cells.take(chain), A[chain], b[chain], tol[chain], convex.EPS)
    _assert_same_pieces((out.take(mine), src[mine]), (wcells, chain[wsrc]))
    # an affine function through each cell's first vertex
    grad = np.random.default_rng(len(cells)).normal(size=cells.V.shape[::2])
    off = -convex.dot_rows(cells.V[:, :1], grad)[:, 0]
    at = np.flatnonzero(clip)
    mine = np.flatnonzero(clip[src])
    wcells, wsrc = oracles.clip_every_row(convex, cells.take(at), A[at], b[at], tol[at])
    _assert_same_pieces((out.take(mine), src[mine]), (wcells, at[wsrc]))
    s, ws = src[mine], at[wsrc]
    cut, csrc, _ = overlay._cut_by_affine(out.take(mine), grad[s], off[s], tol[s])
    wcut, wcsrc, _ = overlay._cut_by_affine(wcells, grad[ws], off[ws], tol[ws])
    _assert_same_pieces((cut, s[csrc]), (wcut, ws[wcsrc]))


def _assert_same_pieces(got, want):
    """Two (cells, src) results of a cut (a clip or a difference chain)
    hold the same cells bit for bit once compacted: vertices, rows,
    incidence and marks, in the same (src, row) order."""
    (cells, src), (wcells, wsrc) = got, want
    assert np.array_equal(src, wsrc)
    cells, wcells = cells.compact(), wcells.compact()
    assert cells.V.shape == wcells.V.shape and cells.H.shape == wcells.H.shape
    assert np.array_equal(cells.vm, wcells.vm) and np.array_equal(cells.live, wcells.live)
    assert np.array_equal(cells.bits, wcells.bits)
    # a slot no vertex or row holds is never read
    assert cells.V[cells.vm].tobytes() == wcells.V[wcells.vm].tobytes()
    assert cells.H[cells.rm].tobytes() == wcells.H[wcells.rm].tobytes()


def _simplex_stack(V):
    """The simplices V (m, d+1, d) as a convex.Cells stack, row j opposite
    vertex j."""
    from plval import convex

    m, k, d = V.shape
    cx = pf.SimplicialComplex(dim=d, vertices=V.reshape(-1, d), simplices=np.arange(m * k).reshape(m, k))
    return convex.Cells.of_simplices(V, *cx.simplex_rows())


@given(
    d=st.sampled_from([2, 3]),
    region=st.sampled_from(["support", "simplex"]),
    size=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_lockstep_cells_equal_their_roles_every_row_cells(d, region, size, seed):
    # a stack of simplices, each a clip or a chain, across, inside, far
    # outside or touching its region (a vertex or a facet within 0, +-EPS
    # or +-tol of one of its rows), cut by a whole convex support padded
    # with 0.x <= 1 rows or, as a clip or a chain against a non-convex
    # support does, each by its own simplex: the lockstep that cuts each
    # cell only by the rows that may cross it gives each cell its role's
    # every-row cells bit for bit, a clip's also once cut where f = g
    from plval import convex, overlay

    rng = np.random.default_rng(seed)
    tol = overlay.CLIP_TOL * 10.0 ** rng.uniform(0, 2, size)
    clip = rng.random(size) < 0.5
    if region == "support":
        A, b, _ = convex.hull(rng.normal(size=(d + 1 + int(rng.integers(0, 6)), d)))
        pad = int(rng.integers(0, 3))
        A = np.broadcast_to(np.concatenate([A, np.zeros((pad, d))]), (size, len(A) + pad, d)).copy()
        b = np.broadcast_to(np.concatenate([b, np.ones(pad)]), (size, len(b) + pad)).copy()
    else:
        region_cells = _simplex_stack(rng.normal(size=(max(size, 1), d + 1, d)))
        A, b = region_cells.A[:size].copy(), region_cells.b[:size].copy()
    V = np.zeros((size, d + 1, d))
    offsets = np.array([0.0, 1.0, -1.0, 1.0 + 1e-6, -1.0 - 1e-6, 1.0 - 1e-6, -1.0 + 1e-6, 2.0, -2.0]) * convex.EPS
    for i in range(size):
        # a point of the region (where its rows meet) as the cell's centre
        inside = rng.choice(len(A[i]), d, replace=False)
        centre = np.linalg.lstsq(A[i, inside], b[i, inside], rcond=None)[0]
        kind = rng.choice(["across", "inside", "outside", "touch"])
        radius = {"inside": 1e-3, "across": rng.uniform(0.2, 2.0)}.get(kind, rng.uniform(0.2, 1.0))
        if kind == "inside":
            centre = centre - 0.1 * A[i, inside].sum(axis=0)
        elif kind == "outside":
            centre = centre + 10.0 * A[i, inside[0]]
        V[i] = centre + radius * rng.normal(size=(d + 1, d))
        if kind == "touch":
            # 1..d vertices moved onto row q, then off it by an offset
            q = int(rng.integers(len(A[i])))
            a = A[i, q]
            if not a.any():
                continue
            off = np.where(rng.random(d) < 0.5, rng.choice(offsets, d), rng.choice([1.0, -1.0], d) * tol[i])
            for j, o in zip(rng.choice(d + 1, int(rng.integers(1, d + 1)), replace=False), off):
                V[i, j] -= (V[i, j] @ a - b[i, q] - o) * a / (a @ a)
    cells = _simplex_stack(V) if size else _simplex_stack(np.eye(d + 1, d)[None]).take(np.arange(0))
    got = convex.clip_rows(cells, A, b, tol, clip)
    _assert_roles_match_their_oracles(cells, A, b, tol, clip, got)
    # a stack of clips alone, flat or not, gives the every-row clips too
    for flat in (False, True):
        _assert_same_pieces(convex.clip_rows(cells, A, b, tol, flat=flat),
                            oracles.clip_every_row(convex, cells, A, b, tol, flat))


def _octagon_and_triangle():
    """A cone over a regular 8-gon and a small triangle's cone across one
    of its edges."""
    angle = np.pi / 8
    f = pf.cone_function(pt.hull_from_points(np.column_stack([np.cos(2 * angle * np.arange(8)),
                                                              np.sin(2 * angle * np.arange(8))])))
    turn = angle + np.pi + 2 * np.pi * np.arange(3) / 3
    g = pf.cone_function(pt.simplex_polytope(0.2 * np.column_stack([np.cos(turn), np.sin(turn)])))
    return f, pf.compose_affine(g, np.eye(2), np.cos(angle) * np.array([np.cos(angle), np.sin(angle)]))


def _lockstep_depth(cells, A, b, clip):
    """The most rows any cell of a convex.clip_rows call may be cut by: a
    clip's and an uncertified chain's rows that a vertex lies less than
    EPS inside."""
    from plval import convex

    D = np.einsum("ikd,ird->ikr", cells.V, A) - b[:, None, :]
    vm = cells.vm[:, :, None]
    disjoint = np.where(vm, D >= convex.EPS, True).all(axis=1).any(axis=1)
    covered = np.where(vm, D <= convex.EPS, True).all(axis=(1, 2))
    need = np.where(vm, D > -convex.EPS, False).any(axis=1).sum(axis=1)
    return int(need[clip | ~(disjoint | covered)].max(initial=0))


def test_lockstep_splits_only_as_deep_as_its_deepest_cell(monkeypatch):
    # the 8-gon's and the triangle's simplices clip each other and chain
    # against the other's support, 8 rows or 3, yet no cell may be crossed
    # by more than 3: the lockstep makes 3 stacked cuts, where the
    # every-row clips and chains make 3 each
    from plval import convex, overlay

    f, g = _octagon_and_triangle()
    lockstep, split = convex.clip_rows, convex.split
    calls = []

    def counted_split(*args, **kwargs):
        calls[-1]["splits"] += 1
        return split(*args, **kwargs)

    def counting(cells, A, b, tol, clip=None, flat=False):
        calls.append({"cells": cells, "A": A, "b": b, "tol": tol, "clip": clip, "splits": 0})
        monkeypatch.setattr(convex, "split", counted_split)
        try:
            return lockstep(cells, A, b, tol, clip, flat)
        finally:
            monkeypatch.setattr(convex, "split", split)

    monkeypatch.setattr(convex, "clip_rows", counting)
    overlay.overlays([(f, g)], ("join", "meet"))
    assert len(calls) == 1
    call = calls[0]
    cells, A, b, tol, clip = (call[k] for k in ("cells", "A", "b", "tol", "clip"))
    assert A.shape[1] == 8 and clip.any() and (~clip).any()
    assert call["splits"] == _lockstep_depth(cells, A, b, clip) == 3
    every = []
    monkeypatch.setattr(convex, "split", lambda *args, **kwargs: every.append(1) or split(*args, **kwargs))
    chain, at = np.flatnonzero(~clip), np.flatnonzero(clip)
    oracles.subtract_every_row(convex, cells.take(chain), A[chain], b[chain], tol[chain], convex.EPS)
    assert len(every) == 3
    oracles.clip_every_row(convex, cells.take(at), A[at], b[at], tol[at])
    assert len(every) == 6


@pytest.mark.parametrize(
    "mesh, pairs",
    [("kuhn", 1 << 14), ("folded", 1 << 14), ("small chunks", 4)],
)
def test_validate_cuts_each_chunk_only_as_deep_as_its_deepest_pair(monkeypatch, mesh, pairs):
    # validate clips CLIP_PAIRS pairs at a time in one convex.clip_rows:
    # each chunk takes as many stacked splits as its pair with the most
    # rows that may cross it.  On the 2-D Kuhn mesh of 40^2 squares and its
    # planted fold every full chunk holds a pair of one square, which
    # needs all 3 rows; chunks of 4 pairs of a small mesh need 2 or 3,
    # where a clip by every row would take 3 each
    from plval import stats

    f = oracles.kuhn_function(2, 3 if mesh == "small chunks" else 40)
    if mesh == "folded":
        f = _folded(f)
    monkeypatch.setattr(pf, "CLIP_PAIRS", pairs)
    clip_rows = convex.clip_rows
    chunks = []

    def counting(cells, A, b, tol, clip=None, flat=False):
        before = stats.calls["splits"]
        got = clip_rows(cells, A, b, tol, clip, flat)
        chunks.append((stats.calls["splits"] - before, _lockstep_depth(cells, A, b, np.ones(len(cells), dtype=bool))))
        return got

    monkeypatch.setattr(convex, "clip_rows", counting)
    if mesh == "folded":
        with pytest.raises(InvalidComplex, match="simplices 984 and 1025 overlap"):
            f.validate()
    else:
        f.validate()
    splits, depths = (np.array(x) for x in zip(*chunks))
    assert len(chunks) > 1 and np.array_equal(splits, depths)
    if mesh == "small chunks":
        assert set(depths) == {2, 3}


def test_an_overlay_splits_as_deep_as_its_lockstep_and_one_affine_cut(monkeypatch):
    # one overlays call of the 8-gon and the triangle: the lockstep's depth
    # in stacked cuts, and one more where f = g, 4 in all (the separate
    # clips, chains and cut made 6)
    from plval import stats

    f, g = _octagon_and_triangle()
    lockstep = convex.clip_rows
    depths = []

    def recording(cells, A, b, tol, clip=None, flat=False):
        depths.append(_lockstep_depth(cells, A, b, clip))
        return lockstep(cells, A, b, tol, clip, flat)

    monkeypatch.setattr(convex, "clip_rows", recording)
    before = stats.calls["splits"]
    overlay.overlays([(f, g)], ("join", "meet"))
    assert len(depths) == 1
    assert stats.calls["splits"] - before == depths[0] + 1 <= 4


def test_tent_decomposition_raises_typed_error_when_it_cannot_converge(monkeypatch, cone_square):
    def spilling(functions, simplices, M):
        # a tent reaching past f's bounding box is rejected every time
        return [[pf.compose_affine(f, np.eye(f.dim), np.full(f.dim, 10.0)) for _ in chosen]
                for f, chosen in zip(functions, simplices)]

    monkeypatch.setattr(overlay, "_build_tents", spilling)
    with pytest.raises(ConstructionFailure, match="did not converge"):
        overlay._raise_first(overlay.tent_decomposition([cone_square]))
    assert issubclass(ConstructionFailure, PLValError)


@pytest.mark.parametrize(
    "delta, error", [(0.0, ValueError), (-0.01, ValueError), (np.inf, NonFinite), (np.nan, NonFinite)]
)
def test_tent_decomposition_refuses_a_bad_delta_before_any_work(monkeypatch, cone_square, delta, error):
    built = []
    monkeypatch.setattr(overlay, "_build_tents", lambda *args: built.append(args))
    with pytest.raises(error, match="delta"):
        overlay.tent_decomposition([cone_square], delta)
    assert built == []


def test_tent_decomposition_central_fan(square, cone_square):
    (tents,) = overlay.tent_decomposition([cone_square])
    assert len(tents) == len(square.facets)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-1.4, 1.4, (500, 2)):
        best = max(pf.evaluate(t, x) for t in tents)
        assert best == pytest.approx(pf.evaluate(cone_square, x), abs=1e-9)


def test_tent_cuts_its_cells_in_one_stacked_chain(monkeypatch, cone_square):
    from plval import convex

    split = convex.split
    stacks = []

    def counting(cells, *args, **kwargs):
        stacks.append(len(cells))
        return split(cells, *args, **kwargs)

    monkeypatch.setattr(convex, "split", counting)
    overlay._build_tents([cone_square], [[0]], [[4.0]])
    # the central simplex and n + 1 wedges, each cut by the n + 1 rows of
    # its region and then by its own piece >= 0
    n = cone_square.dim
    assert stacks[0] == n + 2 and len(stacks) <= n + 2


def test_tent_is_assembled_by_the_overlay(monkeypatch, cone_square):
    assemble = overlay.assemble_cells
    stacks = []

    def counted(cells, *args):
        stacks.append(len(cells))
        return assemble(cells, *args)

    monkeypatch.setattr(overlay, "assemble_cells", counted)
    ((t,),) = overlay._build_tents([cone_square], [[0]], [[4.0]])
    # the central simplex and the wedges that are not empty, assembled in
    # one call
    assert len(stacks) == 1 and 0 < stacks[0] <= cone_square.dim + 2
    x = cone_square.complex.simplex_arrays()[0].mean(axis=0)
    assert t.evaluate(x) == pytest.approx(cone_square.evaluate(x), abs=1e-12)


def test_tent_cell_volumes_are_checked(monkeypatch, cone_square):
    from plval import convex

    volumes = convex.cell_volumes

    def corrupted(cells):
        vol = volumes(cells).copy()
        vol[0] *= 1.5
        return vol

    monkeypatch.setattr(convex, "cell_volumes", corrupted)
    with pytest.raises(OverlayFailure, match="triangulates"):
        overlay._raise_first(overlay._build_tents([cone_square], [[0]], [[4.0]]))


def test_shared_vertex_takes_the_least_steep_value():
    # two triangles sharing the edge (1, 0)-(0, 1): a steep piece, off by
    # 1e-9 there as a piece placed a little off would be, on the first
    # simplex in lex order, and a flat piece equal to 1 on the second
    from plval import convex, overlay

    V = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
    cx = pf.SimplicialComplex(dim=2, vertices=V.reshape(-1, 2), simplices=((0, 1, 2), (3, 4, 5)))
    cells = convex.Cells.of_simplices(V, *cx.simplex_rows())
    grad = np.array([[1000.0, 1000.0], [0.0, 0.0]])
    off = np.array([-999.0 + 1e-9, 1.0])
    (f,) = overlay.assemble_cells(cells, np.array([0.5, 0.5]), grad, off, 2, np.ones(1), np.zeros(2, dtype=int))
    verts = f.complex.vertices.tolist()
    assert 1000.0 + off[0] != 1.0  # the steep piece at either shared vertex
    for shared in ([1.0, 0.0], [0.0, 1.0]):
        assert f.values[verts.index(shared)] == 1.0
    assert f.values[verts.index([0.0, 0.0])] == off[0]


def test_tent_decomposition_single_simplex():
    cx = pf.SimplicialComplex(
        dim=2,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        simplices=((0, 1, 2),),
    )
    f = pf.PLFunction(complex=cx, values=np.array([1.0, 0.0, 0.0]))
    (tents,) = overlay.tent_decomposition([f])
    assert len(tents) == 1
    for x in np.random.default_rng(6).uniform(-0.2, 1.2, (100, 2)):
        assert pf.evaluate(tents[0], x) == pytest.approx(pf.evaluate(f, x), abs=1e-12)


def test_tent_decomposition_random_fan():
    f = fan_function(7)
    (tents,) = overlay.tent_decomposition([f])
    rng = np.random.default_rng(7)
    lo = f.complex.vertices.min(axis=0) - 0.1
    hi = f.complex.vertices.max(axis=0) + 0.1
    pts = rng.uniform(lo, hi, (10000, 2))
    # every tent at every point in one location; each value is evaluate's
    at = np.repeat(np.arange(len(tents)), len(pts))
    best = pf.evaluate_each(tents, np.tile(pts, (len(tents), 1)), at).reshape(len(tents), -1).max(axis=0)
    assert np.max(np.abs(best - f.evaluate_many(pts))) < 1e-9


def test_evaluate_outside_a_large_simplex():
    # barycentric coordinates are dimensionless: at 1e6 scale a point
    # 0.4 % of the simplex outside it is outside, as at unit scale
    cx = pf.SimplicialComplex(dim=2, vertices=[[0, 0], [1e6, 0], [0, 1e6]], simplices=[(0, 1, 2)])
    f = pf.PLFunction(complex=cx, values=[0.0, 0.0, 1.0])
    assert f.evaluate([0.502e6, 0.502e6]) == 0.0
    assert f.evaluate([0.25e6, 0.5e6]) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_validate_accepts_conforming_mesh_at_any_scale(scale):
    verts = np.array([[0, 0], [1, 0], [0, 1], [0.502, 0.502]]) * scale
    cx = pf.SimplicialComplex(dim=2, vertices=verts, simplices=[(0, 1, 2), (1, 2, 3)])
    cx.validate()


def test_json_round_trip(cone_square):
    data = cone_square.to_json_dict()
    back = pf.from_json_dict(data)
    assert np.allclose(back.values, cone_square.values)
    assert np.allclose(back.complex.vertices, cone_square.complex.vertices)


@pytest.mark.parametrize(
    "field, index, bad", [("values", 4, np.nan), ("values", 0, -np.inf), ("vertices", 1, np.inf)]
)
def test_json_rejects_non_finite_numbers(cone_square, field, index, bad):
    data = cone_square.to_json_dict()
    entry = data[field][index]
    data[field][index] = [bad] * len(entry) if isinstance(entry, list) else bad
    with pytest.raises(NonFinite, match="'%s'" % field):
        pf.from_json_dict(data)


def test_json_rejects_nonconforming():
    # two triangles overlapping in their interiors, not along a face
    data = {
        "dim": 2,
        "vertices": [[0, 0], [2, 0], [0, 2], [1, 0.2], [1.5, 1.5], [0.2, 1]],
        "simplices": [[0, 1, 2], [3, 4, 5]],
        "values": [0, 0, 0, 0, 0, 0],
    }
    with pytest.raises((InvalidComplex, ValueError)) as err:
        pf.from_json_dict(data)
    assert "simplex" in str(err.value) or "simplices" in str(err.value)


def _json_bytes(f):
    from plval.serialize import dumps_canonical

    return dumps_canonical(f.to_json_dict())


def _round_trips(f) -> bool:
    import json

    text = _json_bytes(f)
    return _json_bytes(pf.from_json_dict(json.loads(text))) == text


def test_overlay_results_read_back_from_their_own_json(monkeypatch):
    # every join, meet and f ^ (f v g) of the random cone pairs at seeds
    # 0-25, every tent of the fans at seeds 0-5, every subset meet of
    # inclusion-exclusion at seed 0 and every result of the 3-D identity
    # suite at seed 1, one of whose joins leaves a facet uncovered by
    # 1.1e-9 of its area, a sliver narrower than the clip tolerance; many
    # are partitions with T-junctions
    from plval.valuation import PowerKernel
    from plval.verify import default_battery, inclusion_exclusion_suite, random_cone_function

    outputs = []
    for n in (2, 3):
        pairs = []
        for seed in range(26):
            rng = np.random.default_rng(seed)
            pairs.append((random_cone_function(rng, n), random_cone_function(rng, n)))
        joins = overlay.overlays(pairs, ("join",))["join"]
        outputs += joins + overlay.overlays(pairs, ("meet",))["meet"]
        outputs += overlay.overlays([(f, h) for (f, _), h in zip(pairs, joins)], ("meet",))["meet"]
    for tents in overlay.tent_decomposition([fan_function(seed) for seed in range(6)]):
        outputs += tents
    batched = overlay.overlays

    def recorded(pairs, ops):
        out = batched(pairs, ops)
        outputs.extend(h for got in out.values() for h in got if isinstance(h, pf.PLFunction))
        return out

    # inclusion-exclusion meets in batches, the identity suite joins and
    # meets all its pairs in one call; both go through overlays
    monkeypatch.setattr(overlay, "overlays", recorded)
    inclusion_exclusion_suite(PowerKernel(1.0, 1.5), [(0, fan_function(0))])
    dict(default_battery(1))["valuation_identity_3d"]()
    assert len(outputs) > 156 + 36 + 60
    assert [k for k, f in enumerate(outputs) if not _round_trips(f)] == []


@pytest.mark.parametrize("scale", [1e-10, 1e-4, 1e6])
def test_json_round_trip_at_any_scale(scale):
    from plval.verify import random_cone_function

    rng = np.random.default_rng(1)
    join = pf.join(random_cone_function(rng, 2), random_cone_function(rng, 2))
    for f in (pf.cone_function(pt.cube(2)), pf.cone_function(pt.cube(3)), join):
        g = pf.scale_values(pf.compose_affine(f, scale * np.eye(f.dim)), scale)
        assert _round_trips(g)


@pytest.mark.parametrize(
    "simplices",
    [[[0, 1, 99]], [[0, 1, 0.9]], [[0, 1, 4, 1, 2, 4]], [[-1, 0, 1]], [[0, 1]], [[0, 1, 4], [1, 2]]],
    ids=["out-of-range", "fraction", "one-flat-row", "negative", "short-row", "ragged"],
)
def test_json_simplices_must_be_rows_of_vertex_indices(cone_square, simplices):
    data = cone_square.to_json_dict()
    data["simplices"] = simplices
    with pytest.raises(InvalidComplex, match="field 'simplices'"):
        pf.from_json_dict(data)


def test_validate_finds_boundary_on_a_partly_covered_facet():
    # the cone over [-1, 1]^2 (apex 0), its right triangle cut at the
    # midpoint 1 of the edge it shares with the bottom one, a T-junction
    # on that edge; without the cut triangle's outer half, the edge is
    # covered only from 0 to 1, so the rest of it is boundary and the
    # apex, whose other facets are all covered, must be 0
    V = np.array([[0, 0], [0.5, -0.5], [-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    S = [(0, 2, 3), (0, 1, 4), (0, 4, 5), (0, 5, 2), (1, 3, 4)]
    values = np.array([1.0, 0.5, 0, 0, 0, 0])
    pf.PLFunction(pf.SimplicialComplex(2, V, S), values).validate()
    cx = pf.SimplicialComplex(2, V, S[:-1])
    cx.validate()
    with pytest.raises(InvalidComplex, match="boundary vertex 0 has nonzero value 1"):
        pf.PLFunction(cx, values).validate()


def _folded(f):
    """f with the interior vertex nearest (0.26, ...) moved 1.5 cells along
    a skew direction, so that its star folds over its neighbours."""
    V = f.complex.vertices.copy()
    v = int(np.argmin(np.abs(V - 0.26).sum(axis=1)))
    step = np.ptp(V[:, 0]) / round(len(V) ** (1 / f.dim) - 1)
    V[v] += 1.5 * step * np.linspace(1.0, 0.6, f.dim)
    return pf.PLFunction(complex=pf.SimplicialComplex(f.dim, V, f.complex.simplices), values=f.values)


def _torn(f):
    """f with the later half of the star of the vertex nearest (-0.3, ...)
    on a copy of that vertex whose value is 0.01 higher."""
    V, S = f.complex.vertices, f.complex.simplices.copy()
    v = int(np.argmin(np.abs(V + 0.3).sum(axis=1)))
    star = np.flatnonzero((S == v).any(axis=1))
    later = star[len(star) // 2 :]
    S[later] = np.where(S[later] == v, len(V), S[later])
    return pf.PLFunction(complex=pf.SimplicialComplex(f.dim, np.vstack([V, V[v]]), S),
                         values=np.append(f.values, f.values[v] + 0.01))


@pytest.mark.parametrize(
    "n, cells, overlap, tear",
    [
        (2, 40, "simplices 984 and 1025 overlap", "simplices 533 and 2133 differ by 0.01 where they meet"),
        (3, 6, "simplices 129 and 172 overlap", "simplices 43 and 691 differ by 0.01 where they meet"),
    ],
    ids=["2d", "3d"],
)
def test_validate_on_the_grid_names_the_first_offender(n, cells, overlap, tear):
    # a Kuhn mesh big enough that validate finds its meeting simplices on
    # box_pairs' grid passes, and a planted fold and a planted tear name
    # the pair the all-pairs search named, the first in (i, j) order
    f = oracles.kuhn_function(n, cells)
    m = len(f.complex)
    assert m * (m - 1) // 2 > convex.BOX_BLOCK
    f.validate()
    for plant, message in ((_folded, overlap), (_torn, tear)):
        with pytest.raises(InvalidComplex) as exc:
            plant(f).validate()
        assert str(exc.value) == message


@pytest.mark.parametrize("n, cells", [(2, 40), (3, 8)], ids=["2d", "3d"])
def test_evaluate_many_on_the_grid_matches_the_pointwise_oracle(n, cells):
    # a Kuhn mesh big enough that point location runs on box_pairs' grid:
    # every vertex gives its value, every edge midpoint the mean of its
    # ends' values, and a sample of both, with random points in and out
    # of the support, gives the brute-force oracle's values
    f = oracles.kuhn_function(n, cells)
    cx = f.complex
    edges = np.unique(np.concatenate([cx.simplices[:, [a, b]] for a in range(n + 1) for b in range(a + 1, n + 1)]), axis=0)
    mid = cx.vertices[edges].mean(axis=1)
    assert len(cx) * 8 > convex.BOX_BLOCK
    assert np.max(np.abs(f.evaluate_many(cx.vertices) - f.values)) <= 1e-12
    assert np.max(np.abs(f.evaluate_many(mid) - f.values[edges].mean(axis=1))) <= 1e-12
    rng = np.random.default_rng(12)
    pts = np.vstack([cx.vertices[rng.choice(len(cx.vertices), 8, replace=False)],
                     mid[rng.choice(len(mid), 8, replace=False)], rng.uniform(-1.2, 1.2, (8, n))])
    want = oracles.evaluate_pl_brute(cx.vertices, cx.simplices, f.values, pts)
    assert np.max(np.abs(f.evaluate_many(pts) - want)) <= 1e-12


def test_boundary_values_vanish():
    f = fan_function(8)
    cx = f.complex
    # edges used once are boundary; their endpoints must carry value 0
    from collections import Counter

    edge_count = Counter()
    for s in cx.simplices:
        for a in s:
            for b in s:
                if a < b:
                    edge_count[(a, b)] += 1
    boundary_vertices = {v for e, c in edge_count.items() if c == 1 for v in e}
    for v in boundary_vertices:
        assert f.values[v] == pytest.approx(0.0, abs=1e-12)


def _nan_apex_cone():
    f = pf.cone_function(pt.cube(2))
    values = f.values.copy()
    values[np.flatnonzero((f.complex.vertices == 0.0).all(axis=1))] = np.nan
    return f.complex, values


@pytest.mark.parametrize("route", ["apply", "lq_norm", "join"])
def test_code_built_function_rejects_non_finite_values(route):
    # a NaN apex once integrated to 0 under apply and lq_norm and joined
    # into a 4-simplex result; now the function is refused when built
    from plval import valuation as va

    routes = {
        "apply": lambda f: va.apply(va.PowerKernel(1.0, 2.0), f),
        "lq_norm": lambda f: lq_norm(f, 2.0),
        "join": lambda f: pf.join(f, pf.cone_function(pt.cube(2))),
    }
    cx, values = _nan_apex_cone()
    with pytest.raises(NonFinite, match="values"):
        routes[route](pf.PLFunction(complex=cx, values=values))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_code_built_complex_rejects_non_finite_vertices(bad):
    cx = pf.cone_function(pt.cube(2)).complex
    V = cx.vertices.copy()
    V[1, 0] = bad
    with pytest.raises(NonFinite, match="vertices"):
        pf.SimplicialComplex(dim=2, vertices=V, simplices=cx.simplices)


@pytest.mark.parametrize(
    "simplices",
    [((2, 0, 1), (3, 2, 1)), [[2, 0, 1], [3, 2, 1]], np.array([[2, 0, 1], [3, 2, 1]]), ()],
    ids=["tuples", "list", "ndarray", "empty"],
)
def test_complex_holds_simplices_as_one_sorted_read_only_int_array(simplices):
    want = np.sort(np.reshape(simplices, (-1, 3)), axis=1)
    cx = pf.SimplicialComplex(dim=2, vertices=[[0, 0], [1, 0], [0, 1], [1, 1]], simplices=simplices)
    S = cx.simplices
    assert isinstance(S, np.ndarray) and S.dtype.kind == "i"
    assert S.shape == (len(want), 3) == (len(cx), cx.dim + 1)
    assert np.array_equal(S, want) and (np.diff(S, axis=1) > 0).all()
    with pytest.raises(ValueError, match="read-only"):
        S[...] = 0


def test_transforms_refuse_non_finite_results():
    f = pf.cone_function(pt.cube(2))
    with pytest.raises(NonFinite, match="values"):
        pf.scale_values(f, np.nan)
    with pytest.raises(NonFinite, match="vertices"):
        pf.compose_affine(f, np.eye(2), [np.inf, 0.0])
