"""Acceptance gate: every releasable property, at its stated tolerance.

Each test is one acceptance criterion.  Runtime bounds are asserted
where the criterion states one.
"""

import time

import numpy as np
import pytest

from plval import plfunction as pf
from plval import polytope as pt
from plval.errors import OverlayFailure
from plval.integration import c_pn, fisher_matrix, grad_p_norm, lq_norm
from plval.valuation import PowerKernel, apply, c_profile, recover_kernel
from plval.verify import (
    continuity_example_1,
    continuity_example_2,
    continuity_example_3,
    homogeneity_suite,
    inclusion_exclusion_suite,
    invariance_suite,
    psi_check,
    random_cone_function,
    random_fan_function,
)


def test_criterion_1_norm_identities():
    # 20 seeded polytopes, n in {2,3}, p in {1, 1.5, 2}, both norms, 1e-8
    start = time.perf_counter()
    cases = [(seed, 2) for seed in range(10)] + [(seed, 3) for seed in range(10)]
    for seed, n in cases:
        P = pt.random_polytope(seed=seed, n=n, k=n + 4)
        cone = pf.cone_function(P)
        vol = pt.volume(P)
        for p in (1.0, 1.5, 2.0):
            lhs = lq_norm(cone, p) ** p
            assert abs(lhs - c_pn(p, n) * vol) <= 1e-8 * max(abs(lhs), 1e-30)
            ghs = grad_p_norm(cone, p) ** p
            ref = pt.p_surface_area(P, p) / n
            assert abs(ghs - ref) <= 1e-8 * max(abs(ghs), abs(ref))
    assert time.perf_counter() - start <= 10.0


def test_criterion_2_valuation_identity():
    # 100 pairs, n=2, three kernels on the shared overlays; <= 5 skips,
    # zero failures at 1e-8 relative, 60 s budget
    start = time.perf_counter()
    kernels = [PowerKernel(1.0, 1.0), PowerKernel(1.0, 1.5), PowerKernel(1.0, 2.0)]
    rng = np.random.default_rng(0)
    executed = skipped = 0
    worst = 0.0
    for _ in range(100):
        f = random_cone_function(rng, 2)
        g = random_cone_function(rng, 2)
        try:
            joined = pf.join(f, g)
            met = pf.meet(f, g)
        except OverlayFailure:
            skipped += 1
            continue
        executed += 1
        for h in kernels:
            lhs = apply(h, joined) + apply(h, met)
            rhs = apply(h, f) + apply(h, g)
            resid = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, resid)
            assert resid <= 1e-8
    assert executed >= 95 and skipped <= 5
    assert time.perf_counter() - start <= 60.0


def test_criterion_3_invariance():
    reports = invariance_suite(PowerKernel(1.0, 2.0), seed=0, count=50)
    shears = [r for r in reports if "shear" in r.case]
    translations = [r for r in reports if "translate" in r.case]
    assert len(shears) == 50 and len(translations) == 50
    for r in shears + translations:
        assert r.status == "pass", (r.case, r.residual)
        assert r.residual <= 1e-8


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_criterion_4_homogeneity(q):
    reports = homogeneity_suite(q, p=1.0, n=2, seed=0)
    scaling = [r for r in reports if "scale" in r.case or "s=" in r.case]
    kernel_vol = [r for r in reports if "normalized_kernel_volume" in r.case]
    assert len(scaling) >= 6
    for r in scaling:
        assert r.status == "pass" and r.tolerance <= 1e-9, (r.case, r.residual)
    assert kernel_vol and kernel_vol[0].passed and kernel_vol[0].tolerance <= 1e-9


@pytest.mark.parametrize("q,tol", [(1.0, 1e-4), (1.5, 1e-3), (2.0, 1e-4)])
def test_criterion_5_kernel_recovery(q, tol):
    errs = []
    for step in (0.01, 0.005):
        grid = np.arange(0.0, 2.0 + 0.5 * step, step)
        prof = c_profile(PowerKernel(1.0, q), pt.cube(2), grid)
        kern = recover_kernel(prof, 2)
        keep = kern.ts > 1e-9
        rel = np.abs(kern.hs - kern.ts**q)[keep] / kern.ts[keep] ** q
        errs.append(float(np.max(rel)))
    assert errs[0] <= tol
    assert errs[1] <= tol
    if errs[0] > 1e-9:
        # truncation-dominated regime: halving the step must pay off
        assert errs[0] / errs[1] >= 1.5
    # integer exponents hit the stencils' polynomial-exactness floor
    # (~1e-11), where halving only reshuffles roundoff; the bound above
    # still pins both steps under the stated tolerance


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_criterion_6_psi_recursion(k, s):
    square = pt.cube(2)
    h = PowerKernel(1.0, 2.0)
    prof = c_profile(h, square, np.linspace(0.0, 2.0, 201))
    report = psi_check(h, square, prof, k=k, s=s, tolerance=1e-5)
    assert report.passed
    assert report.residual <= 1e-5


def test_criterion_7_continuity_examples():
    reports = continuity_example_1(pt.cube(2), s=1.5, k_max=6, p=1.0, tolerance=1e-8)
    for r in reports:
        if r.status != "skip":
            assert r.passed, (r.case, r.residual)
    for example, maker in ((2, continuity_example_2), (3, continuity_example_3)):
        for growth in ("log", "sqrt"):
            reports = maker(pt.cube(2), growth_fn_id=growth, k_max=6, p=1.0, tolerance=1e-8)
            decays = [r for r in reports if "decay" in r.case]
            assert decays, "example %d lost its decay checks" % example
            for r in reports:
                if r.status != "skip":
                    assert r.passed, (example, growth, r.case, r.residual)


def test_criterion_8_inclusion_exclusion():
    square_reports = inclusion_exclusion_suite(
        PowerKernel(1.0, 2.0), [(0, pf.cone_function(pt.cube(2)))], tolerance=1e-7)
    fans = [
        inclusion_exclusion_suite(PowerKernel(1.0, 1.5), [(seed, random_fan_function(seed))], tolerance=1e-7)
        for seed in (0, 1, 2)
    ]
    for reports in [square_reports] + fans:
        for r in reports:
            assert r.status == "pass", (r.case, r.reason, r.residual)
            assert r.residual <= 1e-7


def test_criterion_9_fisher_matrix():
    cone = pf.cone_function(pt.cube(2))
    M = fisher_matrix(cone)
    assert np.max(np.abs(M - np.diag([2.0, 2.0]))) <= 1e-12
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.uniform(-2.0, 2.0, 2)
        phi = np.array([[1.0, a], [0.0, 1.0]]) @ np.array([[1.0, 0.0], [b, 1.0]])
        lhs = fisher_matrix(pf.compose_affine(cone, phi, np.zeros(2)))
        inv = np.linalg.inv(phi)
        rhs = inv.T @ M @ inv
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, float(np.max(np.abs(rhs))))


def test_criterion_10_full_battery(tmp_path):
    from plval.cli import main

    out = tmp_path / "battery.jsonl"
    start = time.perf_counter()
    code = main(["verify", "--output", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed <= 300.0
    lines = out.read_text().strip().splitlines()
    assert len(lines) > 100
    import json

    statuses = [json.loads(ln)["status"] for ln in lines]
    assert statuses.count("fail") == 0
