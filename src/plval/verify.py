"""Property suites: structural facts about valuations run as batches of
numerical experiments, each case reduced to a left/right comparison.

Every suite is deterministic for a fixed seed.
A report never passes on a NaN or Inf residual.  Overlay failures turn
into skipped cases where the contract allows it (the join/meet identity
suite); elsewhere they propagate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import polytope as pt
from .errors import OverlayFailure, PackingFailure
from .integration import c_pn, grad_p_norm, lq_norm, sobolev_conjugate, sobolev_norm
from .polytope import p_surface_area
from .plfunction import (
    PLFunction,
    SimplicialComplex,
    compose_affine,
    cone_function,
    join,
    meet,
    scale_values,
    tent_decomposition,
)
from .valuation import (
    Kernel,
    PowerKernel,
    apply,
    c_profile,
    growth_check,
    homogeneous_kernel,
)

IDENTITY_TOL = 1e-8
INVARIANCE_TOL = 1e-8
HOMOGENEITY_TOL = 1e-9
CONTINUITY_TOL = 1e-8
INCL_EXCL_TOL = 1e-7


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class PropertyReport:
    """One checked case: left and right quantities, their relative
    residual, and a pass/fail/skip verdict."""

    suite: str
    case: str
    left: float
    right: float
    residual: float
    tolerance: float
    status: str
    reason: str = ""
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        def fin(x):
            return float(x) if math.isfinite(x) else None

        return {
            "suite": self.suite,
            "case": self.case,
            "left": fin(self.left),
            "right": fin(self.right),
            "residual": fin(self.residual),
            "tolerance": float(self.tolerance),
            "status": self.status,
            "reason": self.reason,
            "wall_time": float(self.wall_time),
        }


def relative_residual(left: float, right: float) -> float:
    """|left - right| over the larger magnitude; absolute when both are 0."""
    diff = abs(left - right)
    if not math.isfinite(diff):
        return math.inf
    denom = max(abs(left), abs(right))
    return diff / denom if denom > 0 else diff


def make_report(
    suite: str,
    case: str,
    left: float,
    right: float,
    tolerance: float,
    wall_time: float = 0.0,
    reason: str = "",
) -> PropertyReport:
    residual = relative_residual(float(left), float(right))
    ok = math.isfinite(residual) and residual <= tolerance
    return PropertyReport(
        suite=suite,
        case=case,
        left=float(left),
        right=float(right),
        residual=residual,
        tolerance=float(tolerance),
        status="pass" if ok else "fail",
        reason=reason,
        wall_time=float(wall_time),
    )


def skip_report(suite: str, case: str, reason: str, wall_time: float = 0.0) -> PropertyReport:
    return PropertyReport(
        suite=suite,
        case=case,
        left=math.nan,
        right=math.nan,
        residual=math.nan,
        tolerance=0.0,
        status="skip",
        reason=reason,
        wall_time=float(wall_time),
    )


def reports_to_jsonl(reports, include_timing: bool = True) -> str:
    """One canonical JSON object per line.  With include_timing=False
    wall times are written as 0.0 so outputs are byte-identical across
    runs."""
    from .serialize import dumps_canonical

    out = []
    for r in reports:
        d = r.to_json_dict()
        if not include_timing:
            d["wall_time"] = 0.0
        out.append(dumps_canonical(d))
    return "".join(out)


def summarize_csv(reports) -> str:
    """Per-suite summary: suite, cases, passes, max residual (skips
    excluded from the residual), skips."""
    from .serialize import csv_row

    order, groups = [], {}
    for r in reports:
        if r.suite not in groups:
            order.append(r.suite)
            groups[r.suite] = []
        groups[r.suite].append(r)
    lines = ["suite,cases,passes,max_residual,skips\n"]
    for name in order:
        rs = groups[name]
        resids = [r.residual for r in rs if r.status != "skip" and math.isfinite(r.residual)]
        lines.append(
            csv_row(
                [
                    name,
                    len(rs),
                    sum(1 for r in rs if r.passed),
                    max(resids) if resids else 0.0,
                    sum(1 for r in rs if r.status == "skip"),
                ]
            )
        )
    return "".join(lines)


# ---------------------------------------------------------------------------
# Random test functions
# ---------------------------------------------------------------------------


def random_cone_function(rng: np.random.Generator, n: int, points: int = None) -> PLFunction:
    """Scaled, translated cone over a random origin-interior polytope."""
    seed = int(rng.integers(0, 2**31 - 1))
    k = n + 3 + int(rng.integers(0, 4)) if points is None else points
    P = pt.random_polytope(seed, n, k=k)
    f = scale_values(cone_function(P), float(rng.uniform(0.4, 2.0)))
    t = rng.uniform(-0.8, 0.8, size=n)
    return compose_affine(f, np.eye(n), t)


def random_fan_function(seed: int, pieces: int = 6) -> PLFunction:
    """Planar cone over a jittered polygon with exactly `pieces` boundary
    edges, so the central fan has `pieces` triangles."""
    rng = np.random.default_rng(seed)
    ang = 2.0 * np.pi * np.arange(pieces) / pieces + rng.uniform(-0.15, 0.15, size=pieces)
    rad = rng.uniform(0.9, 1.1, size=pieces)
    # radius jitter this small keeps every point outside its neighbors'
    # chord, so the hull keeps all `pieces` vertices
    verts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    P = pt.hull_from_points(verts)
    if len(P.vertices) != pieces:
        raise RuntimeError("fan lost vertices under hull (seed=%d)" % seed)
    return scale_values(cone_function(P), float(rng.uniform(0.5, 2.0)))


def random_unimodular(rng: np.random.Generator, n: int) -> np.ndarray:
    """Product of 4 unit shears with off-diagonal entries in [-2, 2];
    determinant exactly 1, condition number stays moderate."""
    phi = np.eye(n)
    for _ in range(4):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n - 1))
        j = j + 1 if j >= i else j
        S = np.eye(n)
        S[i, j] = float(rng.uniform(-2.0, 2.0))
        phi = phi @ S
    return phi


# ---------------------------------------------------------------------------
# Lattice identity and invariance
# ---------------------------------------------------------------------------


def valuation_identity_suite(
    h: Kernel,
    seed: int = 0,
    count: int = 100,
    n: int = 2,
    tolerance: float = IDENTITY_TOL,
    points: int = None,
):
    """z(f v g) + z(f ^ g) = z(f) + z(g) on random cone pairs.  The
    reports carry suite name valuation_identity for n = 2 and
    valuation_identity_3d for n = 3."""
    if n not in (2, 3):
        raise ValueError("identity suite supports n in {2, 3}")
    suite = "valuation_identity" if n == 2 else "valuation_identity_3d"
    rng = np.random.default_rng(seed)
    reports = []
    for idx in range(count):
        f = random_cone_function(rng, n, points)
        g = random_cone_function(rng, n, points)
        case = "seed=%d,n=%d,pair=%d" % (seed, n, idx)
        t0 = time.perf_counter()
        try:
            lhs = apply(h, join(f, g)) + apply(h, meet(f, g))
        except OverlayFailure as exc:
            reports.append(
                skip_report(suite, case, "overlay: %s" % exc, time.perf_counter() - t0)
            )
            continue
        rhs = apply(h, f) + apply(h, g)
        reports.append(
            make_report(suite, case, lhs, rhs, tolerance, time.perf_counter() - t0)
        )
    return reports


def invariance_suite(
    h: Kernel, seed: int = 0, count: int = 50, n: int = 2, tolerance: float = INVARIANCE_TOL
):
    """z is unchanged by volume-preserving linear maps and translations.
    Emits one shear case and one translation case per index."""
    rng = np.random.default_rng(seed)
    reports = []
    for idx in range(count):
        f = random_cone_function(rng, n)
        zf = apply(h, f)
        phi = random_unimodular(rng, n)
        t0 = time.perf_counter()
        z_shear = apply(h, compose_affine(f, phi))
        reports.append(
            make_report(
                "invariance",
                "seed=%d,n=%d,shear=%d" % (seed, n, idx),
                z_shear,
                zf,
                tolerance,
                time.perf_counter() - t0,
            )
        )
        t = rng.uniform(-10.0, 10.0, size=n)
        t0 = time.perf_counter()
        z_trans = apply(h, compose_affine(f, np.eye(n), t))
        reports.append(
            make_report(
                "invariance",
                "seed=%d,n=%d,translate=%d" % (seed, n, idx),
                z_trans,
                zf,
                tolerance,
                time.perf_counter() - t0,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Homogeneity
# ---------------------------------------------------------------------------

HOMOGENEITY_SCALES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def homogeneity_suite(q: float, p: float = 1.0, n: int = 2, seed: int = 0):
    """Degree-q scaling law of power kernels, the normalized-kernel
    volume relation, the q-norm relation, and the growth window
    [p, p*]: a profile with exponent outside it must fail growth_check.
    """
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    rng = np.random.default_rng(seed)
    h = PowerKernel(1.0, q)
    reports = []

    cases = [("square", cone_function(pt.cube(n))), ("random", random_cone_function(rng, n))]
    for name, f in cases:
        zf = apply(h, f)
        for s in HOMOGENEITY_SCALES:
            t0 = time.perf_counter()
            zsf = apply(h, scale_values(f, s))
            reports.append(
                make_report(
                    "homogeneity",
                    "q=%g,f=%s,s=%g" % (q, name, s),
                    zsf,
                    abs(s) ** q * zf,
                    HOMOGENEITY_TOL,
                    time.perf_counter() - t0,
                )
            )

    P = pt.random_polytope(seed + 17, n, n + 4)
    t0 = time.perf_counter()
    reports.append(
        make_report(
            "homogeneity",
            "q=%g,normalized_kernel_volume" % q,
            apply(homogeneous_kernel(1.0, q, n), cone_function(P)),
            pt.volume(P),
            HOMOGENEITY_TOL,
            time.perf_counter() - t0,
        )
    )

    f = random_cone_function(rng, n)
    if q >= 1:
        t0 = time.perf_counter()
        reports.append(
            make_report(
                "homogeneity",
                "q=%g,q_norm_relation" % q,
                apply(h, f),
                lq_norm(f, q) ** q,
                HOMOGENEITY_TOL,
                time.perf_counter() - t0,
            )
        )
    else:
        reports.append(
            skip_report(
                "homogeneity", "q=%g,q_norm_relation" % q, "q < 1 is outside the norm domain"
            )
        )

    # growth window: the profile of |t|^q grows like s^q at both ends,
    # so growth_check passes exactly when q sits inside [p, p*]
    t0 = time.perf_counter()
    prof = c_profile(h, pt.cube(n), np.linspace(0.0, 2.0, 201))
    growth = growth_check(prof, p)
    p_star = sobolev_conjugate(p, n)
    expected = (p - 0.1) <= q <= (p_star + 0.1)
    reports.append(
        PropertyReport(
            suite="homogeneity",
            case="q=%g,growth_window" % q,
            left=float(growth.passed),
            right=float(expected),
            residual=0.0 if growth.passed == expected else 1.0,
            tolerance=0.5,
            status="pass" if growth.passed == expected else "fail",
            reason=growth.notes
            or "fitted %s near 0, %s at top" % (growth.fitted_low, growth.fitted_high),
            wall_time=time.perf_counter() - t0,
        )
    )
    return reports


# ---------------------------------------------------------------------------
# Continuity counterexample families
# ---------------------------------------------------------------------------


def _diameter(P: pt.Polytope) -> float:
    d = P.vertices[:, None, :] - P.vertices[None, :, :]
    return float(np.sqrt(np.max(np.sum(d * d, axis=-1))))


def _stack_disjoint(cones, dim: int) -> PLFunction:
    """One function from cones with pairwise disjoint supports."""
    verts, simplices, values = [], [], []
    off = 0
    for f in cones:
        cx = f.complex
        verts.append(cx.vertices)
        simplices.extend(tuple(i + off for i in s) for s in cx.simplices)
        values.append(f.values)
        off += len(cx.vertices)
    cx = SimplicialComplex(dim=dim, vertices=np.vstack(verts), simplices=tuple(simplices))
    return PLFunction(complex=cx, values=np.concatenate(values))


def _packed_copies(P: pt.Polytope, k: int):
    """Cones over P/k^i, i = 1..k, translated along the first axis with
    gaps of a tenth of the larger neighbor's diameter."""
    n = P.dim
    diam = _diameter(P)
    x_lo = float(np.min(P.vertices[:, 0]))
    x_hi = float(np.max(P.vertices[:, 0]))
    cones, spans = [], []
    cursor = 0.0
    for i in range(1, k + 1):
        lam = float(k) ** (-i)
        cone = cone_function(pt.hull_from_points(P.vertices * lam))
        if i > 1:
            cursor += diam * float(k) ** (-(i - 1)) / 10.0
        shift = cursor - lam * x_lo
        t = np.zeros(n)
        t[0] = shift
        cones.append(compose_affine(cone, np.eye(n), t))
        spans.append((shift + lam * x_lo, shift + lam * x_hi))
        cursor = shift + lam * x_hi
    for (a0, a1), (b0, b1) in zip(spans[:-1], spans[1:]):
        if b0 <= a1:
            raise PackingFailure("copies overlap: [%g,%g] then [%g,%g]" % (a0, a1, b0, b1))
    return cones


def continuity_example_1(
    P: pt.Polytope,
    s: float,
    k_max: int = 6,
    p: float = 1.0,
    q: float = None,
    tolerance: float = CONTINUITY_TOL,
):
    """Joins of k shrinking disjoint copies of the cone over P, scaled
    by s.  The measured p-norms must match the closed forms

        |f_k|_p^p     = |s|^p |cone_P|_p^p     * sum_i k^(-i n)
        |grad f_k|_p^p = |s|^p |grad cone_P|_p^p * sum_i k^(-i (n-p))

    and the Sobolev norm must decrease in k.  The valuation trend under
    |t|^q is reported, not asserted."""
    n = P.dim
    q = p if q is None else q
    base = cone_function(P)
    base_lp = lq_norm(base, p) ** p
    base_gp = grad_p_norm(base, p) ** p
    reports = []
    sobolev_seq, z_seq = [], []
    for k in range(1, k_max + 1):
        t0 = time.perf_counter()
        f_k = scale_values(_stack_disjoint(_packed_copies(P, k), n), s)
        geom_n = sum(float(k) ** (-i * n) for i in range(1, k + 1))
        geom_g = sum(float(k) ** (-i * (n - p)) for i in range(1, k + 1))
        reports.append(
            make_report(
                "continuity_example_1",
                "k=%d,p_norm" % k,
                lq_norm(f_k, p) ** p,
                abs(s) ** p * base_lp * geom_n,
                tolerance,
                time.perf_counter() - t0,
            )
        )
        t0 = time.perf_counter()
        reports.append(
            make_report(
                "continuity_example_1",
                "k=%d,grad_norm" % k,
                grad_p_norm(f_k, p) ** p,
                abs(s) ** p * base_gp * geom_g,
                tolerance,
                time.perf_counter() - t0,
            )
        )
        sobolev_seq.append(sobolev_norm(f_k, p))
        z_seq.append(apply(PowerKernel(1.0, q), f_k))
    increase = max(
        (b - a for a, b in zip(sobolev_seq[:-1], sobolev_seq[1:])), default=0.0
    )
    reports.append(
        PropertyReport(
            suite="continuity_example_1",
            case="sobolev_monotone,k<=%d" % k_max,
            left=sobolev_seq[0],
            right=sobolev_seq[-1],
            residual=max(increase, 0.0),
            tolerance=0.0,
            status="pass" if increase <= 0.0 else "fail",
            reason="sequence " + ",".join("%.6g" % v for v in sobolev_seq),
        )
    )
    reports.append(
        skip_report(
            "continuity_example_1",
            "z_trend,q=%g" % q,
            "informational: z(f_k) = "
            + ",".join("%.6g" % v for v in z_seq)
            + "; norms vanish while the valuation tracks the mass of the largest copy",
        )
    )
    return reports


GROWTH_FN_IDS = ("log", "sqrt")


def _growth_value(growth_fn_id: str, k: float) -> float:
    """Divergent factor at parameter k: log(k) or sqrt(k)."""
    if growth_fn_id == "log":
        return math.log(k)
    if growth_fn_id == "sqrt":
        return math.sqrt(k)
    raise ValueError("unknown growth function %r, want one of %s" % (growth_fn_id, GROWTH_FN_IDS))


def _decay_report(suite: str, case: str, values) -> PropertyReport:
    increase = max((b - a for a, b in zip(values[:-1], values[1:])), default=0.0)
    return PropertyReport(
        suite=suite,
        case=case,
        left=values[0] if values else 0.0,
        right=values[-1] if values else 0.0,
        residual=max(increase, 0.0),
        tolerance=0.0,
        status="pass" if increase <= 0.0 and len(values) >= 2 else "fail",
        reason="sequence " + ",".join("%.6g" % v for v in values),
    )


def continuity_example_2(
    P: pt.Polytope,
    growth_fn_id: str = "log",
    k_max: int = 6,
    p: float = 1.0,
    tolerance: float = CONTINUITY_TOL,
):
    """Cones over P blown up by (k^p / g(k))^(1/n) and divided by k,
    with g divergent.  Norm closed forms:

        |f_k|_p^p      = c_{p,n} |P| / g(k)
        |grad f_k|_p^p = k^(-p^2/n) g(k)^(-(n-p)/n) S_p(P) / n

    both checked against direct integration and for monotone decay; the
    slow 1/g valuation decay is reported, not asserted."""
    n = P.dim
    volP = pt.volume(P)
    sp = p_surface_area(P, p)
    reports = []
    lp_seq, gp_seq, z_seq = [], [], []
    for k in range(1, k_max + 1):
        g = _growth_value(growth_fn_id, float(k))
        case = "g=%s,k=%d" % (growth_fn_id, k)
        if g <= 0.0:
            reports.append(
                skip_report(
                    "continuity_example_2", case, "growth value %g gives no finite scale" % g
                )
            )
            continue
        lam = (float(k) ** p / g) ** (1.0 / n)
        t0 = time.perf_counter()
        f_k = scale_values(cone_function(pt.hull_from_points(P.vertices * lam)), 1.0 / k)
        lp = lq_norm(f_k, p) ** p
        gp = grad_p_norm(f_k, p) ** p
        reports.append(
            make_report(
                "continuity_example_2",
                case + ",p_norm",
                lp,
                c_pn(p, n) * volP / g,
                tolerance,
                time.perf_counter() - t0,
            )
        )
        reports.append(
            make_report(
                "continuity_example_2",
                case + ",grad_norm",
                gp,
                float(k) ** (-p * p / n) * g ** (-(n - p) / n) * sp / n,
                tolerance,
            )
        )
        lp_seq.append(lp)
        gp_seq.append(gp)
        z_seq.append(apply(PowerKernel(1.0, p), f_k))
    reports.append(_decay_report("continuity_example_2", "g=%s,p_norm_decay" % growth_fn_id, lp_seq))
    reports.append(
        _decay_report("continuity_example_2", "g=%s,grad_norm_decay" % growth_fn_id, gp_seq)
    )
    reports.append(
        skip_report(
            "continuity_example_2",
            "g=%s,z_trend" % growth_fn_id,
            "informational: z(f_k) under |t|^p = "
            + ",".join("%.6g" % v for v in z_seq)
            + "; decays only like 1/g(k), which pins the kernel to O(t^p) at zero",
        )
    )
    return reports


def continuity_example_3(
    P: pt.Polytope,
    growth_fn_id: str = "log",
    k_max: int = 6,
    p: float = 1.0,
    tolerance: float = CONTINUITY_TOL,
):
    """Cones over P shrunk by (k^p* g(k))^(-1/n) and multiplied by k.
    Norm closed forms:

        |f_k|_p^p      = c_{p,n} |P| k^(p - p*) / g(k)
        |grad f_k|_p^p = g(k)^(-(n-p)/n) S_p(P) / n

    checked and monotone; the top-end valuation decay 1/g under |t|^p*
    is reported, not asserted."""
    n = P.dim
    p_star = sobolev_conjugate(p, n)
    volP = pt.volume(P)
    sp = p_surface_area(P, p)
    reports = []
    lp_seq, gp_seq, z_seq = [], [], []
    for k in range(1, k_max + 1):
        g = _growth_value(growth_fn_id, float(k))
        case = "g=%s,k=%d" % (growth_fn_id, k)
        if g <= 0.0:
            reports.append(
                skip_report(
                    "continuity_example_3", case, "growth value %g gives no finite scale" % g
                )
            )
            continue
        lam = (float(k) ** p_star * g) ** (-1.0 / n)
        t0 = time.perf_counter()
        f_k = scale_values(cone_function(pt.hull_from_points(P.vertices * lam)), float(k))
        lp = lq_norm(f_k, p) ** p
        gp = grad_p_norm(f_k, p) ** p
        reports.append(
            make_report(
                "continuity_example_3",
                case + ",p_norm",
                lp,
                c_pn(p, n) * volP * float(k) ** (p - p_star) / g,
                tolerance,
                time.perf_counter() - t0,
            )
        )
        reports.append(
            make_report(
                "continuity_example_3",
                case + ",grad_norm",
                gp,
                g ** (-(n - p) / n) * sp / n,
                tolerance,
            )
        )
        lp_seq.append(lp)
        gp_seq.append(gp)
        z_seq.append(apply(PowerKernel(1.0, p_star), f_k))
    reports.append(_decay_report("continuity_example_3", "g=%s,p_norm_decay" % growth_fn_id, lp_seq))
    reports.append(
        _decay_report("continuity_example_3", "g=%s,grad_norm_decay" % growth_fn_id, gp_seq)
    )
    reports.append(
        skip_report(
            "continuity_example_3",
            "g=%s,z_trend" % growth_fn_id,
            "informational: z(f_k) under |t|^p* = "
            + ",".join("%.6g" % v for v in z_seq)
            + "; decays only like 1/g(k), which pins the kernel to O(t^p*) at infinity",
        )
    )
    return reports


# ---------------------------------------------------------------------------
# Inclusion-exclusion over tent decompositions
# ---------------------------------------------------------------------------


def inclusion_exclusion_suite(
    h: Kernel, f: PLFunction = None, seed: int = 0, tolerance: float = INCL_EXCL_TOL
):
    """z(f) = sum over nonempty tent subsets J of (-1)^(|J|-1) z(meet J).

    f defaults to a random 6-piece fan for the given seed.  Subset meets
    are built incrementally (meet of the subset without its lowest tent,
    then one more meet), so each of the 2^m - 1 functions costs one
    overlay.  Overlay failures propagate."""
    if f is None:
        f = random_fan_function(seed)
    t0 = time.perf_counter()
    tents = tent_decomposition(f)
    m = len(tents)
    if m > 8:
        raise ValueError("need at most 8 tents for subset enumeration, got %d" % m)
    case = "seed=%d,tents=%d" % (seed, m)
    if m == 0:
        return [
            make_report(
                "inclusion_exclusion", case, 0.0, apply(h, f), tolerance, time.perf_counter() - t0
            )
        ]
    memo = {}
    total = 0.0
    for mask in range(1, 2**m):
        low = mask & -mask
        rest = mask ^ low
        idx = low.bit_length() - 1
        if rest == 0:
            f_j = tents[idx]
        else:
            prev = memo[rest]
            f_j = PLFunction.zero(f.dim) if prev.is_zero() else meet(prev, tents[idx])
        memo[mask] = f_j
        if not f_j.is_zero():
            sign = 1.0 if bin(mask).count("1") % 2 == 1 else -1.0
            total += sign * apply(h, f_j)
    return [
        make_report(
            "inclusion_exclusion", case, total, apply(h, f), tolerance, time.perf_counter() - t0
        )
    ]


# ---------------------------------------------------------------------------
# Default battery
# ---------------------------------------------------------------------------


def default_battery(seed: int = 0):
    """Named thunks covering every suite at battery-sized parameters.
    Running all of them is the repository's main verification gate."""
    from .valuation import CProfile, psi_check, recover_kernel

    square = pt.cube(2)

    def psi_thunk():
        h = PowerKernel(1.0, 2.0)
        prof = c_profile(h, square, np.linspace(0.0, 2.0, 201))
        return [
            psi_check(h, square, prof, k, s)
            for k in (1, 2)
            for s in (0.5, 1.0, 1.5)
        ]

    def recovery_thunk():
        reports = []
        for q, tol in ((1.0, 1e-4), (1.5, 1e-3), (2.0, 1e-4)):
            t0 = time.perf_counter()
            prof = c_profile(PowerKernel(1.0, q), square, np.arange(0.0, 2.0 + 1e-12, 0.01))
            rec = recover_kernel(prof)
            inner = rec.ts[1:]
            worst = int(np.argmax(np.abs(rec.hs[1:] - inner**q) / inner**q))
            reports.append(
                make_report(
                    "kernel_recovery",
                    "q=%g" % q,
                    float(rec.hs[1:][worst]),
                    float(inner[worst] ** q),
                    tol,
                    time.perf_counter() - t0,
                )
            )
        return reports

    return [
        ("valuation_identity", lambda: valuation_identity_suite(
            PowerKernel(1.0, 2.0), seed=seed, count=30, n=2)),
        ("valuation_identity_3d", lambda: valuation_identity_suite(
            PowerKernel(1.0, 1.5), seed=seed + 1, count=30, n=3, points=5)),
        ("invariance", lambda: invariance_suite(
            PowerKernel(1.0, 2.0), seed=seed + 2, count=25, n=2)),
        ("homogeneity", lambda: [
            r for q in (1.0, 1.5, 2.0, 0.5)
            for r in homogeneity_suite(q, p=1.0, n=2, seed=seed + 3)]),
        ("psi_identity", psi_thunk),
        ("kernel_recovery", recovery_thunk),
        ("continuity_example_1", lambda: continuity_example_1(square, 1.5, k_max=6, p=1.0)),
        ("continuity_example_2", lambda: [
            r for g in GROWTH_FN_IDS
            for r in continuity_example_2(square, g, k_max=6, p=1.0)]),
        ("continuity_example_3", lambda: [
            r for g in GROWTH_FN_IDS
            for r in continuity_example_3(square, g, k_max=6, p=1.0)]),
        ("inclusion_exclusion", lambda: (
            inclusion_exclusion_suite(PowerKernel(1.0, 1.5),
                                      scale_values(cone_function(square), 1.2))
            + inclusion_exclusion_suite(PowerKernel(1.0, 1.5), seed=seed + 4))),
    ]
