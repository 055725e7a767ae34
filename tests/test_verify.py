"""Report plumbing and the certification suites themselves."""

import json
import math

import numpy as np
import pytest

from plval import plfunction as pf
from plval import polytope as pt
from plval.valuation import PowerKernel, apply
from plval.verify import (
    PropertyReport,
    continuity_example_1,
    continuity_example_2,
    continuity_example_3,
    default_battery,
    homogeneity_suite,
    inclusion_exclusion_suite,
    invariance_suite,
    make_report,
    random_fan_function,
    random_unimodular,
    relative_residual,
    reports_to_jsonl,
    skip_report,
    summarize_csv,
    valuation_identity_suite,
)


def test_relative_residual():
    assert relative_residual(2.0, 2.0) == 0.0
    assert relative_residual(0.0, 0.0) == 0.0
    assert relative_residual(1.0, 2.0) == pytest.approx(0.5)
    assert relative_residual(float("nan"), 1.0) == float("inf")


def test_make_report_threshold():
    good = make_report("s", "c", 1.0, 1.0 + 1e-10, tolerance=1e-8)
    bad = make_report("s", "c", 1.0, 1.01, tolerance=1e-8)
    assert good.passed and good.status == "pass"
    assert not bad.passed and bad.status == "fail"
    sk = skip_report("s", "c", "because")
    assert sk.status == "skip" and not sk.passed


def test_jsonl_and_csv_shapes():
    reports = [
        make_report("a", "x", 1.0, 1.0, 1e-8),
        make_report("a", "y", 1.0, 2.0, 1e-8),
        skip_report("b", "z", "nope"),
    ]
    lines = reports_to_jsonl(reports).strip().splitlines()
    assert len(lines) == 3
    row = json.loads(lines[0])
    assert row["status"] == "pass" and "wall_time" not in row
    assert json.loads(lines[2])["left"] is None  # skips carry no numbers
    csv = summarize_csv(reports)
    assert csv.splitlines()[0] == "suite,cases,passes,max_residual,skips"
    assert [row.rsplit(",", 1)[1] for row in csv.splitlines()[1:]] == ["0", "1"]
    assert csv.count("\n") == 3


def test_random_unimodular_has_unit_determinant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        phi = random_unimodular(rng, 2)
        assert np.linalg.det(phi) == pytest.approx(1.0, rel=1e-10)


def test_identity_suite_small_run():
    reports = valuation_identity_suite(PowerKernel(1.0, 2.0), seed=1, count=8)
    executed = [r for r in reports if r.status != "skip"]
    assert len(reports) == 8
    assert all(r.passed for r in executed)
    assert len(executed) >= 7


def test_identity_trivial_cases(cone_square):
    h = PowerKernel(1.0, 2.0)
    # f = g: join and meet are both f
    same = apply(h, pf.join(cone_square, cone_square)) + apply(h, pf.meet(cone_square, cone_square))
    assert same == pytest.approx(2 * apply(h, cone_square), rel=1e-10)
    # disjoint supports: join integrates additively, meet is null
    g = pf.compose_affine(cone_square, np.eye(2), np.array([10.0, 0.0]))
    assert apply(h, pf.join(cone_square, g)) == pytest.approx(
        apply(h, cone_square) + apply(h, g), rel=1e-9)
    assert apply(h, pf.meet(cone_square, g)) == pytest.approx(0.0, abs=1e-12)


def test_identity_suite_deterministic():
    a = reports_to_jsonl(valuation_identity_suite(PowerKernel(1.0, 1.0), seed=3, count=5))
    b = reports_to_jsonl(valuation_identity_suite(PowerKernel(1.0, 1.0), seed=3, count=5))
    assert a == b


def test_invariance_suite():
    reports = invariance_suite(PowerKernel(1.0, 2.0), seed=2, count=10)
    assert len(reports) == 20  # one shear and one translation per case
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_homogeneity_suite_passes_in_band(q):
    reports = homogeneity_suite(q, p=1.0, n=2, seed=0)
    real = [r for r in reports if r.status != "skip"]
    assert all(r.passed for r in real), [r.case for r in real if not r.passed]


def test_homogeneity_suite_flags_small_exponent():
    # q = p/2 grows too slowly near 0; the growth case must flag it
    reports = homogeneity_suite(0.5, p=1.0, n=2, seed=0)
    growth = [r for r in reports if "growth" in r.case]
    assert growth and all(r.passed for r in growth)
    assert any("0.5" in r.reason or "needs" in r.reason for r in growth)


def test_continuity_example_1():
    reports = continuity_example_1(pt.cube(2), s=1.5, k_max=4, p=1.0)
    formula = [r for r in reports if "norm" in r.case and r.status != "skip"]
    assert formula and all(r.passed for r in formula)
    k1 = [r for r in formula if r.case.startswith("k=1,")]
    assert k1  # k=1 reduces to the plain norms and must be present
    mono = [r for r in reports if "monotone" in r.case]
    assert mono and mono[0].passed


def test_continuity_example_1_known_sum():
    # k=4, p=1, n=2: the packed p-norm sum is sum_i 4^{-2i} * base
    reports = continuity_example_1(pt.cube(2), s=1.0, k_max=4, p=1.0)
    target = [r for r in reports if r.case == "k=4,p_norm"]
    assert len(target) == 1
    base = 4.0 / 3.0
    expected = base * sum(4.0 ** (-2 * i) for i in range(1, 5))  # one copy per i=1..k
    assert target[0].left == pytest.approx(expected, rel=1e-8)


def test_continuity_example_2_suite():
    reports = continuity_example_2(pt.cube(2), growth_fn_id="log", k_max=5, p=1.0)
    real = [r for r in reports if r.status != "skip"]
    assert real and all(r.passed for r in real), [r.case for r in real if not r.passed]


def test_continuity_example_2_log_value_at_e4():
    # same construction at scale k = e^4: log k = 4, so the norm is base/4
    k = math.e**4
    lam = (k / math.log(k)) ** 0.5
    f_k = pf.scale_values(
        pf.cone_function(pt.hull_from_points(pt.cube(2).vertices * lam)), 1.0 / k)
    from plval.integration import lq_norm

    assert lq_norm(f_k, 1.0) == pytest.approx((1.0 / 3.0) * 4.0 / 4.0, rel=1e-8)


def test_continuity_example_3_decays():
    reports = continuity_example_3(pt.cube(2), growth_fn_id="sqrt", k_max=5, p=1.0)
    real = [r for r in reports if r.status != "skip"]
    assert real and all(r.passed for r in real)
    decay = [r for r in reports if "decay" in r.case or "monotone" in r.case]
    assert decay and all(r.passed for r in decay)


def test_inclusion_exclusion_square(cone_square):
    reports = inclusion_exclusion_suite(PowerKernel(1.0, 2.0), [(0, cone_square)])
    assert len(reports) == 1
    assert reports[0].passed
    assert "tents=4" in reports[0].case


def test_inclusion_exclusion_single_simplex():
    cx = pf.SimplicialComplex(
        dim=2,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        simplices=((0, 1, 2),),
    )
    f = pf.PLFunction(complex=cx, values=np.array([1.0, 0.0, 0.0]))
    reports = inclusion_exclusion_suite(PowerKernel(1.0, 1.5), [(0, f)])
    assert reports[0].passed
    assert "tents=1" in reports[0].case


# fan seeds 12, 25, 111 and 114 are battery seeds 8, 21, 107 and 110 (the
# suite draws its fan from seed + 4); each broke the overlay's old
# conformity repair, with a residual of 1.09e-5 or an OverlayFailure
@pytest.mark.parametrize("seed", [2, 12, 25, 111, 114])
def test_inclusion_exclusion_random_fan(seed):
    f = random_fan_function(seed)
    reports = inclusion_exclusion_suite(PowerKernel(1.0, 1.5), [(0, f)])
    assert reports[0].passed
    assert reports[0].residual < 1e-7


def test_inclusion_exclusion_residual_stays_at_rounding_level():
    # a tent vertex takes its value from its least steep piece; from the
    # wedges' steep pieces (slope peak over ring width) the residual rises
    # about fortyfold
    reports = inclusion_exclusion_suite(PowerKernel(1.0, 1.5), [(s, random_fan_function(s)) for s in range(10)])
    worst = max(r.residual for r in reports)
    assert worst <= 5e-15


# Each suite integrates all its functions under one kernel in one engine
# pass, so it builds one density per call and kernel; homogeneity also
# integrates its normalized kernel's cone and its c_profile grid.
@pytest.mark.parametrize(
    "suite,densities",
    [
        (lambda: valuation_identity_suite(PowerKernel(1.0, 2.0), seed=0, count=3, n=2), 1),
        (lambda: valuation_identity_suite(PowerKernel(1.0, 1.5), seed=1, count=2, n=3, points=5), 1),
        (lambda: invariance_suite(PowerKernel(1.0, 2.0), seed=2, count=5), 1),
        (lambda: inclusion_exclusion_suite(PowerKernel(1.0, 1.5), [(4, random_fan_function(4))]), 1),
        (lambda: continuity_example_1(pt.cube(2), s=1.5, k_max=4, p=1.0), 1),
        (lambda: continuity_example_2(pt.cube(2), growth_fn_id="log", k_max=4, p=1.0), 1),
        (lambda: continuity_example_3(pt.cube(2), growth_fn_id="sqrt", k_max=4, p=1.0), 1),
        (lambda: homogeneity_suite(1.5, p=1.0, n=2, seed=3), 3),
    ],
    ids=["identity", "identity_3d", "invariance", "inclusion_exclusion", "continuity_1", "continuity_2",
         "continuity_3", "homogeneity"],
)
def test_suite_builds_one_density_per_kernel(suite, densities, counted_densities):
    suite()
    assert len(counted_densities) == densities


# The continuity families dilate their input polytope (polytope.dilate),
# and homogeneity builds its polytopes once for all its exponents: the
# number of hulls each makes.
@pytest.mark.parametrize(
    "suite",
    [
        lambda P: continuity_example_1(P, 1.5, k_max=6, p=1.0),
        lambda P: continuity_example_2(P, "log", k_max=6, p=1.0),
        lambda P: continuity_example_3(P, "sqrt", k_max=6, p=1.0),
    ],
    ids=["continuity_1", "continuity_2", "continuity_3"],
)
def test_continuity_suites_build_no_hull_beyond_their_input(suite, counted_hulls):
    P = pt.cube(2)
    assert len(counted_hulls) == 1
    suite(P)
    assert len(counted_hulls) == 1


HOMOGENEITY_QS = (1.0, 1.5, 2.0, 0.5)


def test_homogeneity_builds_as_many_hulls_for_four_exponents_as_for_one(counted_hulls):
    homogeneity_suite(1.5, p=1.0, n=2, seed=3)
    one = len(counted_hulls)
    homogeneity_suite(HOMOGENEITY_QS, p=1.0, n=2, seed=3)
    assert len(counted_hulls) == 2 * one


def test_homogeneity_exponents_give_the_rows_each_gives_alone():
    # the exponents share the cube, the cones and their cached densities;
    # each q's rows are byte for byte those of a call with q alone
    together = reports_to_jsonl(homogeneity_suite(HOMOGENEITY_QS, p=1.0, n=2, seed=3))
    alone = [reports_to_jsonl(homogeneity_suite((q,), p=1.0, n=2, seed=3)) for q in HOMOGENEITY_QS]
    assert together == "".join(alone)
    assert reports_to_jsonl(homogeneity_suite(0.5, p=1.0, n=2, seed=3)) == alone[-1]


def test_battery_repeats_byte_for_byte_in_one_process():
    # nothing a suite caches (densities on shared functions, derivative
    # tables, stencil weights) carries from one run into the next
    def run():
        return [
            reports_to_jsonl(thunk())
            for name, thunk in default_battery(0)
            if not name.startswith("valuation_identity")
        ]

    assert run() == run()


def test_default_battery_names_unique():
    names = [name for name, _ in default_battery(0)]
    assert len(names) == len(set(names))
    assert "valuation_identity" in names and "kernel_recovery" in names


def test_identity_suites_get_separate_summary_rows():
    reports = valuation_identity_suite(PowerKernel(1.0, 2.0), seed=0, count=1, n=2)
    reports += valuation_identity_suite(PowerKernel(1.0, 1.5), seed=1, count=1, n=3, points=5)
    rows = [line.split(",")[0] for line in summarize_csv(reports).splitlines()[1:]]
    assert rows == ["valuation_identity", "valuation_identity_3d"]


def test_report_json_round_trip():
    r = make_report("suite", "case", 1.5, 1.5000001, 1e-3)
    d = r.to_json_dict()
    assert d["suite"] == "suite"
    assert d["status"] == "pass"
    assert isinstance(d["residual"], float)
    assert PropertyReport(**{k: v for k, v in d.items()}).passed
