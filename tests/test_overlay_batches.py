"""Batched overlays: a batch of pairs cut, assembled and checked in one
stacked pass gives each pair the result it gets alone, bit for bit."""

import numpy as np
import pytest

from plval import convex, overlay, stats, verify
from plval import plfunction as pf
from plval import polytope as pt
from plval.errors import NotNonnegative, OverlayFailure
from plval.valuation import PowerKernel, apply
from plval.verify import inclusion_exclusion_suite, random_cone_function, random_fan_function

import oracles


def _same(a, b):
    return (
        a.complex.vertices.tobytes() == b.complex.vertices.tobytes()
        and np.array_equal(a.complex.simplices, b.complex.simplices)
        and a.values.tobytes() == b.values.tobytes()
    )


def _cones(n, seed):
    rng = np.random.default_rng(seed)
    points = 5 if n == 3 else None
    return random_cone_function(rng, n, points), random_cone_function(rng, n, points)


def _scaled_cones(n, seed):
    """_cones, with positions times 40 at seeds 1 mod 3 and values times
    50 at seeds 2 mod 3, so that pairs of one batch differ in scale."""
    f, g = _cones(n, seed)
    if seed % 3 == 1:
        return tuple(pf.compose_affine(fn, 40.0 * np.eye(n), np.full(n, 7.0)) for fn in (f, g))
    if seed % 3 == 2:
        return tuple(pf.scale_values(fn, 50.0) for fn in (f, g))
    return f, g


@pytest.mark.parametrize("n", [2, 3])
def test_batched_overlays_match_single_calls(n):
    # joins, meets and chained meets over seeds 0-11, at three scales,
    # with zero pairs in the batch, forward and reversed
    zero = pf.PLFunction.zero(n)
    cases = {"join": [], "meet": []}
    for seed in range(12):
        f, g = _scaled_cones(n, seed)
        jo = overlay.lattice_overlay(f, g, "join")
        cases["join"].append((f, g))
        cases["meet"] += [(f, g), (f, jo), (jo, f)]
    for op, pairs in cases.items():
        pairs = pairs + [(zero, zero), (pairs[0][0], zero)]
        alone = []
        for f, g in pairs:
            overlay._pair.cache_clear()
            alone.append(overlay.lattice_overlay(f, g, op))
        for order in (np.arange(len(pairs)), np.arange(len(pairs))[::-1]):
            got = overlay.overlays([pairs[k] for k in order], (op,))[op]
            assert len(got) == len(pairs)
            assert all(_same(h, alone[k]) for h, k in zip(got, order))
        assert alone[-2].is_zero() and not alone[-3].is_zero()
    overlay._pair.cache_clear()


@pytest.mark.parametrize("n", [2, 3])
def test_batched_tents_match_single_tents(n):
    # every tent of a function built in one batch equals the tent built
    # alone, for cone functions at seeds 0-11 and three scales
    for seed in range(12):
        f = _scaled_cones(n, seed)[0]
        peak = f.simplex_values().max(axis=1)
        active = np.flatnonzero(peak > convex.EPS)
        M = peak[active] / 0.01
        (batch,) = overlay._build_tents([f], [active], [M])
        assert len(batch) == len(active)
        for t, si, Mk in zip(batch, active, M):
            ((alone,),) = overlay._build_tents([f], [[si]], [[Mk]])
            assert _same(t, alone)


def _planted():
    """The pair of default_rng(5) with positions times 1e-8: its cells
    miss a sliver of its supports, so it fails the cover balance."""
    f, g = _cones(2, 5)
    return tuple(pf.compose_affine(fn, 1e-8 * np.eye(2)) for fn in (f, g))


PLANTED_FAILURE = "cells cover volume 2.593722927967423e-16, the two supports 2.5997568975031539e-16"


def test_a_failing_pair_fails_alone_in_its_batch():
    # the planted pair fails alone and in a batch, for both ops, with the
    # same failure; its batch-mates get the results they get alone
    tiny = _planted()
    good = [_cones(2, 6), _cones(2, 7)]
    for op in ("join", "meet"):
        overlay._pair.cache_clear()
        with pytest.raises(OverlayFailure) as exc:
            overlay.lattice_overlay(*tiny, op)
        assert str(exc.value) == PLANTED_FAILURE
        alone = [overlay.overlays([pair], (op,))[op][0] for pair in good]
        first, failed, last = overlay.overlays([good[0], tiny, good[1]], (op,))[op]
        assert isinstance(failed, OverlayFailure) and str(failed) == PLANTED_FAILURE
        assert _same(first, alone[0]) and _same(last, alone[1])
    got = overlay.overlays([good[0], tiny, good[1]], ("join", "meet"))
    for op, (first, failed, last) in got.items():
        assert isinstance(failed, OverlayFailure) and str(failed) == PLANTED_FAILURE
        assert _same(first, overlay.overlays([good[0]], (op,))[op][0])
        assert _same(last, overlay.overlays([good[1]], (op,))[op][0])
        assert not first.is_zero() and not last.is_zero()
    overlay._pair.cache_clear()


def test_an_assembly_with_every_simplex_below_the_floor_fails_the_fill_check(monkeypatch):
    # a degenerate floor above every output simplex leaves the assembly no
    # simplex: each pair fails the fill check, and its margin records it
    pairs = [_cones(2, 6), _cones(2, 7)]
    mesh = overlay._prep(pairs)
    pieces = overlay._pieces_pairwise(mesh)
    win = overlay._winners(pieces, mesh)["join"]
    monkeypatch.setattr(overlay, "EPS", 1e6)  # the assembly reads EPS only for its floor
    k = np.flatnonzero(win >= 0)
    supp = np.array([f.support_volume() + g.support_volume() for f, g in pairs])
    stats.clear()
    got = overlay.assemble_cells(pieces.cells.take(k), pieces.vol[k], mesh.grad[win[k]], mesh.off[win[k]], 2,
                                 supp, pieces.pair[k])
    assert [str(h).startswith("a cell of volume") for h in got] == [True, True]
    assert stats.worst["fill"] > 1.0 and stats.seconds["assemble"] > 0.0


def test_batches_refuse_mixed_dimensions():
    f2, f3 = _cones(2, 0)[0], _cones(3, 0)[0]
    with pytest.raises(ValueError, match="dimension mismatch"):
        overlay.overlays([(f2, f2), (f3, f3)], ("join",))
    assert overlay.overlays([], ("meet",)) == {"meet": []}


@pytest.mark.parametrize("n", [2, 3])
def test_tents_of_several_functions_match_one_call_per_function(n):
    # the tents of the cone functions at seeds 0-11 and three scales,
    # built in one call, are the ones each function's own call builds
    functions = [_scaled_cones(n, seed)[0] for seed in range(12)]
    peaks = [f.simplex_values().max(axis=1) for f in functions]
    active = [np.flatnonzero(peak > convex.EPS) for peak in peaks]
    M = [peak[a] / 0.01 for peak, a in zip(peaks, active)]
    every = overlay._build_tents(functions, active, M)
    assert len(every) == len(functions)
    for f, got, a, Mk in zip(functions, every, active, M):
        (alone,) = overlay._build_tents([f], [a], [Mk])
        assert len(got) == len(alone) == len(a)
        assert all(_same(t, u) for t, u in zip(got, alone))


def test_tent_decomposition_of_several_functions_matches_one_call_per_function(monkeypatch):
    # at delta 0.5 the square's cone converges in 2 rounds, the seed-2 cone
    # in 4 and the seed-0 fan in 3; with a function that is negative
    # somewhere, one affine on a single simplex and the zero function,
    # each gets in one lockstep the tents, or the error, its own call
    # gives, and the lockstep runs as many rounds as the slowest function
    square = pf.scale_values(pf.cone_function(pt.cube(2)), 1.2)
    cone = random_cone_function(np.random.default_rng(2), 2)
    single = pf.PLFunction(complex=pf.SimplicialComplex(dim=2, vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                                        simplices=[[0, 1, 2]]), values=[1.0, 0.0, 0.0])
    functions = [square, cone, pf.scale_values(square, -1.0), random_fan_function(0), single, pf.PLFunction.zero(2)]
    build, rounds = overlay._build_tents, []

    def counted(fs, simplices, M):
        rounds.append(len(fs))
        return build(fs, simplices, M)

    monkeypatch.setattr(overlay, "_build_tents", counted)
    alone = []
    for f in functions:
        alone += overlay.tent_decomposition([f], 0.5)
    assert rounds == [1] * (2 + 4 + 3)
    rounds.clear()
    got = overlay.tent_decomposition(functions, 0.5)
    assert rounds == [3, 3, 2, 1]
    assert isinstance(got[2], NotNonnegative) and str(got[2]) == str(alone[2])
    assert got[4] == [single] and got[5] == []
    for k in (0, 1, 3):
        assert len(got[k]) == len(alone[k]) > 1
        assert all(_same(t, u) for t, u in zip(got[k], alone[k]))


def test_inclusion_exclusion_in_lockstep_matches_one_call_per_fan():
    # the battery's two fans, and the random fans at seeds 0-5, in one
    # call each give the report they get alone, bit for bit
    h = PowerKernel(1.0, 1.5)
    battery = [(0, pf.scale_values(pf.cone_function(pt.cube(2)), 1.2)), (4, random_fan_function(4))]
    for fans in (battery, [(seed, random_fan_function(seed)) for seed in range(6)]):
        got = inclusion_exclusion_suite(h, fans)
        alone = [r for fan in fans for r in inclusion_exclusion_suite(h, [fan])]
        assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in alone]


@pytest.mark.parametrize("seed", range(6))
def test_inclusion_exclusion_matches_one_meet_at_a_time(seed):
    # the subsets of one size are met in one batch; the sum equals the one
    # of a meet per subset, bit for bit
    h = PowerKernel(1.0, 1.5)
    f = random_fan_function(seed)
    (report,) = inclusion_exclusion_suite(h, [(seed, f)])
    want = oracles.inclusion_exclusion_one_meet_at_a_time(
        overlay.tent_decomposition([f])[0], pf.meet, lambda fn: apply(h, fn), lambda fn: fn.is_zero()
    )
    assert report.left == want


def test_inclusion_exclusion_makes_one_overlay_per_subset_size(monkeypatch):
    # one fan of 6 tents: one meet round per subset size 2-6; the battery's
    # two fans (4 and 6 tents) in lockstep: still 5 rounds, the first
    # meeting both fans' pairs (6 + 15), one tent round and one apply_each
    batched, build, integrate = overlay.overlays, overlay._build_tents, verify.apply_each
    calls, tents, applies = [], [], []

    def counted(pairs, ops):
        calls.append((len(pairs), ops))
        return batched(pairs, ops)

    def built(functions, simplices, M):
        tents.append(len(functions))
        return build(functions, simplices, M)

    def applied(h, functions):
        applies.append(len(functions))
        return integrate(h, functions)

    monkeypatch.setattr(overlay, "overlays", counted)
    monkeypatch.setattr(overlay, "_build_tents", built)
    monkeypatch.setattr(verify, "apply_each", applied)
    (report,) = inclusion_exclusion_suite(PowerKernel(1.0, 1.5), [(0, random_fan_function(0))])
    assert report.passed and "tents=6" in report.case
    assert [ops for _, ops in calls] == [("meet",)] * 5
    assert calls[0][0] == 15
    calls.clear()
    tents.clear()
    applies.clear()
    reports = dict(verify.default_battery(0))["inclusion_exclusion"]()
    assert [r.case for r in reports] == ["seed=0,tents=4", "seed=4,tents=6"] and all(r.passed for r in reports)
    assert [ops for _, ops in calls] == [("meet",)] * 5
    assert calls[0][0] == 6 + 15
    assert tents == [2] and len(applies) == 1


def _planted_rounds(monkeypatch, plants):
    """A function run(fans, first=0) that runs the inclusion-exclusion
    suite on fans, numbered from first, with the meet of the first pair
    of fan k in round s (the subsets of size s) failing with the message
    "planted k s", for each (k, s) in plants.  A pair's fan is told by its
    tent."""
    decompose, batched = overlay.tent_decomposition, overlay.overlays
    fan_of, rounds, first = {}, [], [0]

    def recorded(functions, delta=1e-2):
        got = decompose(functions, delta)
        fan_of.update({id(t): first[0] + k for k, tents in enumerate(got) for t in tents})
        return got

    def planting(pairs, ops):
        out = batched(pairs, ops)
        rounds.append(None)
        size, hit = len(rounds) + 1, set()
        for i, (_, tent) in enumerate(pairs):
            k = fan_of[id(tent)]
            if (k, size) in plants and k not in hit:
                out["meet"][i] = OverlayFailure("planted %d %d" % (k, size))
                hit.add(k)
        return out

    monkeypatch.setattr(overlay, "tent_decomposition", recorded)
    monkeypatch.setattr(overlay, "overlays", planting)

    def run(fans, start=0):
        fan_of.clear()
        rounds.clear()
        first[0] = start
        return inclusion_exclusion_suite(PowerKernel(1.0, 1.5), fans)

    return run


def test_inclusion_exclusion_raises_the_first_failing_fans_error(monkeypatch):
    # fan 0 fails in round 3, fan 1 in round 2: in lockstep the suite
    # raises fan 0's failure, as one call per fan in order does; alone,
    # fan 1 raises its own, and fan 2 passes
    fans = [(seed, random_fan_function(seed)) for seed in (0, 1, 2)]
    run = _planted_rounds(monkeypatch, {(0, 3), (1, 2)})
    with pytest.raises(OverlayFailure, match="^planted 0 3$"):
        run(fans)
    with pytest.raises(OverlayFailure, match="^planted 0 3$"):
        run(fans[:1])
    with pytest.raises(OverlayFailure, match="^planted 1 2$"):
        run(fans[1:], start=1)
    (report,) = run(fans[2:], start=2)
    assert report.passed


def test_tent_decomposition_builds_a_round_in_one_chain(monkeypatch):
    # every tent of a round is cut in one stacked chain and assembled in
    # one batched call
    f = random_fan_function(3)
    split, assemble = convex.split, overlay.assemble_cells
    stacks, batches = [], []

    def counting_split(cells, *args, **kwargs):
        stacks.append(len(cells))
        return split(cells, *args, **kwargs)

    def counting_assemble(cells, vol, grad, off, dim, supp, batch):
        batches.append(len(supp))
        return assemble(cells, vol, grad, off, dim, supp, batch)

    monkeypatch.setattr(convex, "split", counting_split)
    monkeypatch.setattr(overlay, "assemble_cells", counting_assemble)
    (tents,) = overlay.tent_decomposition([f])
    n = f.dim
    assert len(tents) == 6
    assert batches == [6] * len(batches)
    assert stacks[0] == 6 * (n + 2) and len(stacks) <= (n + 2) * len(batches)


def test_join_and_meet_of_one_batch_cut_once(monkeypatch):
    # one overlays call for both ops cuts, assembles and locates once, and
    # gives the results of one overlays call per op
    pairs = [_cones(2, seed) for seed in range(3)]
    want = {op: overlay.overlays(pairs, (op,))[op] for op in ("join", "meet")}
    with monkeypatch.context() as m:
        calls = [_counted(m, name) for name in ("_pieces_pairwise", "assemble_cells", "evaluate_each")]
        got = overlay.overlays(pairs, ("join", "meet"))
        assert [len(c) for c in calls] == [1, 1, 1]
    assert all(_same(h, w) for op in want for h, w in zip(got[op], want[op]))


@pytest.mark.parametrize("api", ["pair", "batch", "ops"])
def test_an_unknown_op_is_refused_before_any_cut(monkeypatch, api):
    calls = _counted(monkeypatch, "_pieces_pairwise")
    overlay._pair.cache_clear()
    f, g = _cones(2, 0)
    with pytest.raises(ValueError, match="'union'"):
        if api == "pair":
            overlay.lattice_overlay(f, g, "union")
        elif api == "batch":
            overlay.overlays([(f, g)], ("union",))
        else:
            overlay.overlays([(f, g)], ("join", "union"))
    assert calls == [] and overlay._pair.cache_info().currsize == 0


def _counted(monkeypatch, name):
    """A list that grows by one each time overlay's name is called."""
    fn = getattr(overlay, name)
    calls = []

    def counting(*args):
        calls.append(name)
        return fn(*args)

    monkeypatch.setattr(overlay, name, counting)
    return calls


@pytest.mark.parametrize("n", [2, 3])
def test_the_pair_api_builds_both_ops_in_one_pass(monkeypatch, n):
    # join and meet through the pair API are the ones a batch of one
    # builds op by op, bit for bit; join then meet of a pair cuts once,
    # assembles once and locates points once
    for seed in range(26):
        rng = np.random.default_rng(seed)
        f, g = random_cone_function(rng, n), random_cone_function(rng, n)
        want = {op: overlay.overlays([(f, g)], (op,))[op][0] for op in ("join", "meet")}
        overlay._pair.cache_clear()
        with monkeypatch.context() as m:
            calls = [_counted(m, name) for name in ("_pieces_pairwise", "assemble_cells", "evaluate_each")]
            got = {"join": pf.join(f, g), "meet": pf.meet(f, g)}
            assert [len(c) for c in calls] == [1, 1, 1]
        assert all(_same(got[op], want[op]) for op in got)
    overlay._pair.cache_clear()


def test_a_meet_fault_leaves_the_join_alone(monkeypatch):
    # two planted faults that break the meet only: meet keeps the join's
    # pieces (caught by the sampled check), or f's piece wherever f is
    # (caught by the assembly's value check, which fails the meet's batch
    # of the joint assembly only).  The join is the one built without the
    # fault, bit for bit, and the meet raises its own failure, every time
    # it is asked for.
    f, g = _cones(2, 3)
    overlay._pair.cache_clear()
    clean = pf.join(f, g)
    winners = overlay._winners

    def joins_twice(pieces, mesh):
        win = winners(pieces, mesh)
        return {"join": win["join"], "meet": win["join"]}

    def f_wins(pieces, mesh):
        win = winners(pieces, mesh)
        return {"join": win["join"], "meet": np.where(pieces.f >= 0, pieces.f, pieces.g)}

    for fault, message in ((joins_twice, "disagrees with pointwise meet"), (f_wins, "value disagreement")):
        overlay._pair.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(overlay, "_winners", fault)
            assert _same(pf.join(f, g), clean)
            for _ in range(2):
                with pytest.raises(OverlayFailure, match=message):
                    pf.meet(f, g)
    overlay._pair.cache_clear()


def test_the_identity_suite_skips_a_pair_both_ops_fail(monkeypatch):
    # the pair of default_rng(5) with positions times 1e-8 fails the
    # cover balance for join and meet alike; the suite, which draws that
    # pair at seed 5, reports it as a skip with the cover failure's text
    import plval.verify as verify

    draw = verify.random_cone_function
    monkeypatch.setattr(verify, "random_cone_function",
                        lambda rng, n, points=None: pf.compose_affine(draw(rng, n, points), 1e-8 * np.eye(n)))
    rng = np.random.default_rng(5)
    f, g = verify.random_cone_function(rng, 2), verify.random_cone_function(rng, 2)
    for op in (pf.join, pf.meet):
        overlay._pair.cache_clear()
        with pytest.raises(OverlayFailure) as exc:
            op(f, g)
        assert str(exc.value) == PLANTED_FAILURE
    (report,) = verify.valuation_identity_suite(PowerKernel(1.0, 2.0), seed=5, count=1)
    assert report.status == "skip" and report.reason == "overlay: " + PLANTED_FAILURE
    overlay._pair.cache_clear()


def test_a_planted_pair_skips_alone_in_the_identity_suite(monkeypatch):
    # the suite overlays all its pairs in one call: with the planted pair
    # drawn second, that row is the cover failure's skip and every other
    # row is the one the suite gives without it
    import plval.verify as verify

    h = PowerKernel(1.0, 2.0)
    clean = verify.valuation_identity_suite(h, seed=0, count=4)
    draw, drawn = verify.random_cone_function, []

    def planting(rng, n, points=None):
        # the pair's draws come third and fourth; the planted ones stand in
        # for them, and rng advances as it does without them
        fn = draw(rng, n, points)
        drawn.append(fn)
        return _planted()[len(drawn) - 3] if len(drawn) in (3, 4) else fn

    monkeypatch.setattr(verify, "random_cone_function", planting)
    rows = verify.valuation_identity_suite(h, seed=0, count=4)
    assert rows[1].status == "skip"
    assert rows[1].reason == "overlay: " + PLANTED_FAILURE
    assert [r.to_json_dict() for k, r in enumerate(rows) if k != 1] == [
        r.to_json_dict() for k, r in enumerate(clean) if k != 1]
    assert all(r.status == "pass" for r in clean)


def test_the_sampled_check_draws_its_points_once_per_dimension():
    # the 128 draws from default_rng(424242), kept read-only per dimension
    for n in (2, 3):
        U = overlay._sample_unit(n)
        assert overlay._sample_unit(n) is U and not U.flags.writeable
        assert U.tobytes() == np.random.default_rng(424242).random((128, n)).tobytes()


@pytest.mark.parametrize("zero_first", [False, True], ids=["f-zero", "zero-f"])
def test_the_sampled_check_spreads_over_the_nonempty_functions_box(monkeypatch, zero_first):
    # f is the square's cone moved to (1000, 1000) and the other function
    # is zero, whose box is the origin: every point the check locates (f,
    # the zero function, join and meet, 128 each) lies in f's support, so
    # the check compares values where f is not 0
    f = pf.compose_affine(pf.cone_function(pt.cube(2)), np.eye(2), [1000.0, 1000.0])
    zero = pf.PLFunction.zero(2)
    locate = overlay.evaluate_each
    seen = []

    def capturing(functions, X, which):
        seen.append(X)
        return locate(functions, X, which)

    monkeypatch.setattr(overlay, "evaluate_each", capturing)
    got = overlay.overlays([(zero, f) if zero_first else (f, zero)], ("join", "meet"))
    (X,) = seen
    assert len(X) == 4 * 128
    assert np.all(pf.evaluate_each([f], X, np.zeros(len(X), dtype=int)) > 0.0)
    assert got["join"][0].support_volume() == pytest.approx(f.support_volume(), rel=1e-12)
    assert got["meet"][0].is_zero()
