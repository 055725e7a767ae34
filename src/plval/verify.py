"""Property suites: structural facts about valuations run as batches of
numerical experiments, each case reduced to a left/right comparison.

Every suite is deterministic for a fixed seed.  A suite builds its
functions first and integrates those under one kernel in one engine pass
(valuation.apply_each).  Reports carry no timing: a suite is timed as a
whole by its caller (`plval verify --timing`).
A report never passes on a NaN or Inf residual.  Overlay failures turn
into skipped cases where the contract allows it (the join/meet identity
suite); elsewhere they propagate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import overlay, stats
from . import polytope as pt
from .errors import ConstructionFailure, OverlayFailure, PackingFailure, PLValError
from .integration import c_pn, grad_p_norm, lq_norm, lq_norms, simplex_means, sobolev_conjugate
from .polytope import p_surface_area
from .plfunction import PLFunction, SimplicialComplex, compose_affine, cone_function, scale_values
from .serialize import csv_row, dumps_canonical
from .valuation import (
    CProfile,
    Kernel,
    PowerKernel,
    apply,
    apply_each,
    c_profile,
    growth_check,
    homogeneous_kernel,
    recover_kernel,
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
    """One checked case: left and right quantities, a residual, and a
    pass/fail/skip verdict.  comparison is True when the residual is the
    relative residual of left and right (make_report), so the verdict
    can be judged again at another tolerance; a decay, monotonicity or
    growth-window verdict is not such a comparison."""

    suite: str
    case: str
    left: float
    right: float
    residual: float
    tolerance: float
    status: str
    reason: str = ""
    comparison: bool = False

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def rejudged(self, tolerance: float) -> "PropertyReport":
        """This report at another tolerance: a comparison is judged again
        and keeps its reason; any other verdict stands as it is."""
        if not self.comparison:
            return self
        return make_report(self.suite, self.case, self.left, self.right, tolerance, self.reason)

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
        comparison=True,
    )


def skip_report(suite: str, case: str, reason: str) -> PropertyReport:
    return PropertyReport(
        suite=suite,
        case=case,
        left=math.nan,
        right=math.nan,
        residual=math.nan,
        tolerance=0.0,
        status="skip",
        reason=reason,
    )


def reports_to_jsonl(reports) -> str:
    """One canonical JSON object per line, byte-identical across runs."""
    return "".join(dumps_canonical(r.to_json_dict()) for r in reports)


def summarize_csv(reports, timing: dict = None) -> str:
    """Per-suite summary: suite, cases, passes, max residual (skips
    excluded from the residual), skips; given timing, a map from suite
    name to its measured seconds followed by its stats.COUNTS, SECONDS
    and MARGINS, those as last columns (stats.COLUMNS)."""
    order, groups = [], {}
    for r in reports:
        if r.suite not in groups:
            order.append(r.suite)
            groups[r.suite] = []
        groups[r.suite].append(r)
    columns = "" if timing is None else "," + ",".join(stats.COLUMNS)
    lines = ["suite,cases,passes,max_residual,skips%s\n" % columns]
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
                + ([] if timing is None else timing[name])
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
        raise ConstructionFailure("fan lost vertices under hull (seed=%d)" % seed)
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
    """z(f v g) + z(f ^ g) = z(f) + z(g) on random cone pairs, all joined
    and met in one overlay.overlays call; a pair whose join (else meet)
    fails is a skip with that failure as its reason.  The four functions
    of every other pair are integrated in one apply_each call.  The
    reports carry suite name valuation_identity for n = 2 and
    valuation_identity_3d for n = 3."""
    if n not in (2, 3):
        raise ValueError("identity suite supports n in {2, 3}")
    suite = "valuation_identity" if n == 2 else "valuation_identity_3d"
    rng = np.random.default_rng(seed)
    pairs = [(random_cone_function(rng, n, points), random_cone_function(rng, n, points)) for _ in range(count)]
    got = overlay.overlays(pairs, ("join", "meet"))
    reports, kept, functions = [None] * count, [], []
    for idx, ((f, g), jo, me) in enumerate(zip(pairs, got["join"], got["meet"])):
        case = "seed=%d,n=%d,pair=%d" % (seed, n, idx)
        failed = [r for r in (jo, me) if isinstance(r, OverlayFailure)]
        if failed:
            reports[idx] = skip_report(suite, case, "overlay: %s" % failed[0])
        else:
            kept.append((idx, case))
            functions += [jo, me, f, g]
    for (idx, case), (z_jo, z_me, z_f, z_g) in zip(kept, apply_each(h, functions).reshape(-1, 4)):
        reports[idx] = make_report(suite, case, z_jo + z_me, z_f + z_g, tolerance)
    return reports


def invariance_suite(
    h: Kernel, seed: int = 0, count: int = 50, n: int = 2, tolerance: float = INVARIANCE_TOL
):
    """z is unchanged by volume-preserving linear maps and translations.
    Emits one shear case and one translation case per index.  Every
    function is built first, in the rng's draw order, and all are
    integrated in one apply_each call."""
    rng = np.random.default_rng(seed)
    functions = []
    for idx in range(count):
        f = random_cone_function(rng, n)
        shear = compose_affine(f, random_unimodular(rng, n))
        trans = compose_affine(f, np.eye(n), rng.uniform(-10.0, 10.0, size=n))
        functions += [f, shear, trans]
    z = apply_each(h, functions).reshape(count, 3)
    return [
        make_report(
            "invariance", "seed=%d,n=%d,%s=%d" % (seed, n, kind, idx), z_moved, zf, tolerance
        )
        for idx, (zf, z_shear, z_trans) in enumerate(z)
        for kind, z_moved in (("shear", z_shear), ("translate", z_trans))
    ]


# ---------------------------------------------------------------------------
# Homogeneity
# ---------------------------------------------------------------------------

HOMOGENEITY_SCALES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def homogeneity_suite(qs, p: float = 1.0, n: int = 2, seed: int = 0):
    """Degree-q scaling law of power kernels, the normalized-kernel
    volume relation, the q-norm relation, and the growth window
    [p, p*]: a profile with exponent outside it must fail growth_check.

    qs is one exponent or a sequence of them.  The cube, the random cones
    and the polytope of the volume relation are built once, and each q's
    rows, in the order of qs, are those a call with q alone gives."""
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    rng = np.random.default_rng(seed)
    cube = pt.cube(n)
    cases = [("square", cone_function(cube)), ("random", random_cone_function(rng, n))]
    f = random_cone_function(rng, n)
    scaled = [(name, s, scale_values(base, s)) for name, base in cases for s in HOMOGENEITY_SCALES]
    P = pt.random_polytope(seed + 17, n, n + 4)
    cone_P = cone_function(P)
    grid = np.linspace(0.0, 2.0, 201)
    p_star = sobolev_conjugate(p, n)
    reports = []
    for q in np.atleast_1d(np.asarray(qs, dtype=float)).tolist():
        h = PowerKernel(1.0, q)
        # every function under h is integrated in one apply_each call
        functions = [base for _, base in cases] + [g for _, _, g in scaled] + ([f] if q >= 1 else [])
        z = apply_each(h, functions)
        z_base = {name: zf for (name, _), zf in zip(cases, z)}
        for (name, s, _), zsf in zip(scaled, z[len(cases) :]):
            reports.append(
                make_report(
                    "homogeneity",
                    "q=%g,f=%s,s=%g" % (q, name, s),
                    zsf,
                    abs(s) ** q * z_base[name],
                    HOMOGENEITY_TOL,
                )
            )

        reports.append(
            make_report(
                "homogeneity",
                "q=%g,normalized_kernel_volume" % q,
                apply(homogeneous_kernel(1.0, q, n), cone_P),
                pt.volume(P),
                HOMOGENEITY_TOL,
            )
        )

        if q >= 1:
            reports.append(
                make_report(
                    "homogeneity",
                    "q=%g,q_norm_relation" % q,
                    z[-1],
                    lq_norm(f, q) ** q,
                    HOMOGENEITY_TOL,
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
        growth = growth_check(c_profile(h, cube, grid), p)
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
    counts = [len(f.complex.vertices) for f in cones]
    offs = np.cumsum(counts) - counts
    cx = SimplicialComplex(
        dim=dim,
        vertices=np.vstack([f.complex.vertices for f in cones]),
        simplices=np.concatenate([f.complex.simplices + off for f, off in zip(cones, offs)]),
    )
    return PLFunction(complex=cx, values=np.concatenate([f.values for f in cones]))


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
        cone = cone_function(pt.dilate(P, lam))
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
    |t|^q is reported, not asserted.  f_1..f_kmax are built first; their
    p-norms and the base cone's take one batched call (lq_norms) and their
    z one apply_each call."""
    n = P.dim
    q = p if q is None else q
    base = cone_function(P)
    base_gp = grad_p_norm(base, p) ** p
    reports = []
    fs = [scale_values(_stack_disjoint(_packed_copies(P, k), n), s) for k in range(1, k_max + 1)]
    base_norm, *norms = lq_norms([base] + fs, p)
    base_lp = float(base_norm) ** p
    sobolev_seq = []
    for k, f_k, lp in zip(range(1, k_max + 1), fs, norms):
        lp = float(lp)
        geom_n = sum(float(k) ** (-i * n) for i in range(1, k + 1))
        geom_g = sum(float(k) ** (-i * (n - p)) for i in range(1, k + 1))
        reports.append(
            make_report(
                "continuity_example_1",
                "k=%d,p_norm" % k,
                lp ** p,
                abs(s) ** p * base_lp * geom_n,
                tolerance,
            )
        )
        gp = grad_p_norm(f_k, p)
        reports.append(
            make_report(
                "continuity_example_1",
                "k=%d,grad_norm" % k,
                gp ** p,
                abs(s) ** p * base_gp * geom_g,
                tolerance,
            )
        )
        # sobolev_norm(f_k, p), from the norms at hand
        sobolev_seq.append(float((lp ** p + gp ** p) ** (1.0 / p)))
    z_seq = apply_each(PowerKernel(1.0, q), fs)
    reports.append(
        _decay_report("continuity_example_1", "sobolev_monotone,k<=%d" % k_max, sobolev_seq)
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


def _vanishing_cones(suite, P, growth_fn_id, k_max, p, tolerance, shape, closed_forms, q, q_name, end):
    """The body of continuity_example_2 and _3.  For k = 1..k_max, f_k
    is the cone over lam P with its values times mult, (lam, mult) =
    shape(k, g(k)); its p-norm and gradient p-norm, each to the power p, are
    checked against closed_forms(k, g(k)) and for monotone decay, and
    z(f_k) under |t|^q is reported, not asserted.  The f_k are built
    first; their p-norms take one batched call (lq_norms) and their z one
    apply_each call."""
    cases, fs = [], []
    for k in range(1, k_max + 1):
        g = _growth_value(growth_fn_id, float(k))
        cases.append((k, g))
        if g > 0.0:
            lam, mult = shape(float(k), g)
            fs.append(scale_values(cone_function(pt.dilate(P, lam)), mult))
    live = iter(zip(fs, lq_norms(fs, p)))
    reports = []
    lp_seq, gp_seq = [], []
    for k, g in cases:
        case = "g=%s,k=%d" % (growth_fn_id, k)
        if g <= 0.0:
            reports.append(skip_report(suite, case, "growth value %g gives no finite scale" % g))
            continue
        f_k, lp = next(live)
        lp = float(lp) ** p
        gp = grad_p_norm(f_k, p) ** p
        lp_form, gp_form = closed_forms(float(k), g)
        reports.append(make_report(suite, case + ",p_norm", lp, lp_form, tolerance))
        reports.append(make_report(suite, case + ",grad_norm", gp, gp_form, tolerance))
        lp_seq.append(lp)
        gp_seq.append(gp)
    z_seq = apply_each(PowerKernel(1.0, q), fs)
    reports.append(_decay_report(suite, "g=%s,p_norm_decay" % growth_fn_id, lp_seq))
    reports.append(_decay_report(suite, "g=%s,grad_norm_decay" % growth_fn_id, gp_seq))
    reports.append(
        skip_report(
            suite,
            "g=%s,z_trend" % growth_fn_id,
            "informational: z(f_k) under |t|^%s = " % q_name
            + ",".join("%.6g" % v for v in z_seq)
            + "; decays only like 1/g(k), which pins the kernel to O(t^%s) at %s" % (q_name, end),
        )
    )
    return reports


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
    return _vanishing_cones(
        "continuity_example_2", P, growth_fn_id, k_max, p, tolerance,
        lambda k, g: ((k ** p / g) ** (1.0 / n), 1.0 / k),
        lambda k, g: (c_pn(p, n) * volP / g, k ** (-p * p / n) * g ** (-(n - p) / n) * sp / n),
        p, "p", "zero",
    )


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
    return _vanishing_cones(
        "continuity_example_3", P, growth_fn_id, k_max, p, tolerance,
        lambda k, g: ((k ** p_star * g) ** (-1.0 / n), k),
        lambda k, g: (c_pn(p, n) * volP * k ** (p - p_star) / g, g ** (-(n - p) / n) * sp / n),
        p_star, "p*", "infinity",
    )


# ---------------------------------------------------------------------------
# Smoothing identity
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
    n = profile.dim
    if not 0 <= k <= n:
        raise ValueError("order k must be in 0..%d" % n)
    vol = pt.volume(P)
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
    )


# ---------------------------------------------------------------------------
# Inclusion-exclusion over tent decompositions
# ---------------------------------------------------------------------------


def inclusion_exclusion_suite(h: Kernel, fans, tolerance: float = INCL_EXCL_TOL):
    """z(f) = sum over nonempty tent subsets J of (-1)^(|J|-1) z(meet J),
    one report per (seed, f) of fans: f a nonnegative PL function, its
    case labelled by seed.

    The fans run in lockstep.  Their tents come from one
    overlay.tent_decomposition call.  The meet of a subset is the meet of
    the subset without its lowest tent with that tent, so round s meets
    the size-s subsets of every fan in one overlay.overlays call.  Every
    nonzero subset meet and every f are integrated in one apply_each
    call, and each fan's z is summed in subset order.  So each fan gets
    the report it gets alone.  A fan fails on an overlay or tent failure,
    or on more than 8 tents (ValueError); the first fan that fails raises
    its error, as one call per fan would, and the fans after it stop."""
    fans = list(fans)
    errors, memo = [None] * len(fans), [None] * len(fans)
    for k, tents in enumerate(overlay.tent_decomposition([f for _, f in fans])):
        if isinstance(tents, PLValError):
            errors[k] = tents
        elif len(tents) > 8:
            errors[k] = ValueError("need at most 8 tents for subset enumeration, got %d" % len(tents))
        else:
            memo[k] = {1 << idx: tent for idx, tent in enumerate(tents)}

    def live():
        """The fans before the first that failed."""
        return range(next((k for k, e in enumerate(errors) if e is not None), len(fans)))

    tents = {k: len(memo[k]) for k in live()}
    for size in range(2, max(tents.values(), default=0) + 1):
        owner, masks, pairs = [], [], []
        for k in (k for k in live() if tents[k] >= size):
            for mask in range(1, 2 ** tents[k]):
                if bin(mask).count("1") != size:
                    continue
                low = mask & -mask
                prev = memo[k][mask ^ low]
                if prev.is_zero():
                    memo[k][mask] = PLFunction.zero(prev.dim)
                else:
                    owner.append(k)
                    masks.append(mask)
                    pairs.append((prev, memo[k][low]))
        if not pairs:
            continue
        for k, mask, met in zip(owner, masks, overlay.overlays(pairs, ("meet",))["meet"]):
            if isinstance(met, OverlayFailure) and errors[k] is None:
                errors[k] = met
            memo[k][mask] = met
    done = live()
    masks = {k: [mask for mask in range(1, 2 ** tents[k]) if not memo[k][mask].is_zero()] for k in done}
    functions = [fn for k in done for fn in [memo[k][mask] for mask in masks[k]] + [fans[k][1]]]
    z = apply_each(h, functions) if functions else []
    if len(done) < len(fans):
        raise errors[len(done)]
    reports, at = [], 0
    for k, (seed, _) in enumerate(fans):
        total = 0.0
        for mask, z_j in zip(masks[k], z[at:]):
            sign = 1.0 if bin(mask).count("1") % 2 == 1 else -1.0
            total += sign * float(z_j)
        at += len(masks[k]) + 1
        case = "seed=%d,tents=%d" % (seed, tents[k])
        reports.append(make_report("inclusion_exclusion", case, total, z[at - 1], tolerance))
    return reports


# ---------------------------------------------------------------------------
# Default battery
# ---------------------------------------------------------------------------


def default_battery(seed: int = 0):
    """Named thunks covering every suite at battery-sized parameters.
    Running all of them is the repository's main verification gate."""
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
        ("homogeneity", lambda: homogeneity_suite((1.0, 1.5, 2.0, 0.5), p=1.0, n=2, seed=seed + 3)),
        ("psi_identity", psi_thunk),
        ("kernel_recovery", recovery_thunk),
        ("continuity_example_1", lambda: continuity_example_1(square, 1.5, k_max=6, p=1.0)),
        ("continuity_example_2", lambda: [
            r for g in GROWTH_FN_IDS
            for r in continuity_example_2(square, g, k_max=6, p=1.0)]),
        ("continuity_example_3", lambda: [
            r for g in GROWTH_FN_IDS
            for r in continuity_example_3(square, g, k_max=6, p=1.0)]),
        ("inclusion_exclusion", lambda: inclusion_exclusion_suite(PowerKernel(1.0, 1.5), [
            (0, scale_values(cone_function(square), 1.2)), (seed + 4, random_fan_function(seed + 4))])),
    ]
