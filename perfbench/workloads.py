"""Workload inputs and cases.

Each prepare_* function builds its inputs from the seed with numpy and
plval's public constructors, and returns the ordered case list of one
pass together with a SHA-256 fingerprint of the inputs.  A case is one
unit of certified work: its run() calls plval's public functions, each
inside a tracer span named <layer>.<function>, and its check() judges
the outputs.  No input is made with plval.verify's random generators or
its battery, so a change to them changes no workload's inputs;
verify_cli runs the battery suites themselves, by name, through the CLI.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from plval import cli
from plval import integration as ig
from plval import plfunction as pf
from plval import polytope as pt
from plval import valuation as va
from plval.errors import Degenerate, OriginNotInterior, PLValError

IDENTITY_TOL = 1e-8
PROFILE_VERTICES = 6  # of the integrate workload's profile polygon
CROSS_ROUTE_TOL = 1e-10
RECOVERY_TOL = 1e-3  # the battery's tolerance for q = 1.5

# lattice2d and lattice3d draw their pair shapes from these fixed library
# seeds; the run seed only moves them (see prepare_lattice3d).
LATTICE2D_LIBRARY_SEED = 2015
LATTICE3D_LIBRARY_SEED = 1505
# verify_cli runs the battery at this seed, the CLI's default, whatever
# the run seed (see prepare_verify_cli).
VERIFY_CLI_SEED = 0
# Battery suites reached through the CLI: all but the two identity
# suites, which lattice2d and lattice3d cover with their own inputs.
# The first suite doubles as the warm-up case.
VERIFY_SUITES = (
    "homogeneity",
    "psi_identity",
    "invariance",
    "kernel_recovery",
    "continuity_example_1",
    "continuity_example_2",
    "continuity_example_3",
    "inclusion_exclusion",
)


@dataclass
class Case:
    name: str
    run: Callable  # run(tracer) -> tuple of outputs
    check: Callable  # check(outputs, done) -> None or a failure message;
    # done maps names of the cases already run in this pass to outputs


@dataclass
class Prepared:
    cases: list
    fingerprint: str
    inputs: dict = field(default_factory=dict)  # input sizes, for the record


class _Fingerprint:
    def __init__(self):
        self._h = hashlib.sha256()

    def add_function(self, f):
        cx = f.complex
        self._h.update(np.ascontiguousarray(cx.vertices, dtype="<f8").tobytes())
        self._h.update(np.asarray(cx.simplices, dtype="<i8").tobytes())
        self._h.update(np.ascontiguousarray(f.values, dtype="<f8").tobytes())

    def add_json(self, obj):
        self._h.update(json.dumps(obj, sort_keys=True).encode())

    def hexdigest(self):
        return self._h.hexdigest()


def _within(label, got, want, tol):
    """None when got matches want to relative tolerance tol, else a message."""
    scale = max(abs(got), abs(want))
    r = abs(got - want) / scale if scale > 0 else abs(got - want)
    if not r <= tol:  # also catches NaN
        return "%s: residual %.3g exceeds %.0e (got %r, want %r)" % (label, r, tol, got, want)
    return None


# ---------------------------------------------------------------------------
# Traced calls into plval
# ---------------------------------------------------------------------------


def _hull(tr, pts):
    with tr.span("polytope.hull_from_points", points=len(pts)):
        return pt.hull_from_points(pts)


def _cone(tr, P):
    with tr.span("plfunction.cone_function") as s:
        f = pf.cone_function(P)
        s["simplices"] = len(f.complex)
    return f


def _place(tr, f, scale, phi, shift):
    """s * f pushed through x -> phi x + shift."""
    with tr.span("plfunction.mesh_build", simplices=len(f.complex)):
        return pf.compose_affine(pf.scale_values(f, scale), phi, shift)


def _overlay(tr, op, f, g):
    fn = pf.join if op == "join" else pf.meet
    with tr.span("overlay." + op, simplices_in=len(f.complex) + len(g.complex)) as s:
        out = fn(f, g)
        s["simplices_out"] = len(out.complex)
    return out


def _apply(tr, kind, kernel, f):
    with tr.span("valuation.apply", kernel=kind, simplices=len(f.complex)):
        return va.apply(kernel, f)


def _integration(tr, name, f, arg):
    with tr.span("integration." + name, simplices=len(f.complex)):
        return getattr(ig, name)(f, arg)


# ---------------------------------------------------------------------------
# Lattice workloads: z(f v g) + z(f ^ g) = z(f) + z(g)
# ---------------------------------------------------------------------------


def _random_polytope(tr, rng, n, k):
    """Hull of k jittered unit-sphere points with all k as vertices and
    the origin at least 0.1 inside every facet."""
    while True:
        dirs = rng.normal(size=(k, n))
        pts = dirs / np.linalg.norm(dirs, axis=1)[:, None] * rng.uniform(0.8, 1.2, size=k)[:, None]
        try:
            P = _hull(tr, pts)
        except (Degenerate, OriginNotInterior):
            continue
        if len(P.vertices) == k and min(fc.support for fc in P.facets) > 0.1:
            return P


def _lattice_case(name, f, g, kernels):
    """join, meet, then every kernel applied to f, g, f v g and f ^ g."""

    def run(tr):
        J = _overlay(tr, "join", f, g)
        M = _overlay(tr, "meet", f, g)
        out = []
        for kind, kern in kernels:
            out.extend(_apply(tr, kind, kern, h) for h in (f, g, J, M))
        return tuple(out)

    def check(out, done):
        for i, (_, kern) in enumerate(kernels):
            zf, zg, zj, zm = out[4 * i : 4 * i + 4]
            msg = _within("%s identity q=%g" % (name, kern.exponent), zj + zm, zf + zg, IDENTITY_TOL)
            if msg:
                return msg
        return None

    return Case(name, run, check)


def prepare_lattice2d(seed, tr, tiny=False, **_):
    """2-D cone pairs over random polygons with 5-8 vertices, scaled and
    translated.  Pair cost varies by a factor of ten with the vertex
    counts and the overlap, so both are stratified: the pairs cycle
    through all 16 vertex-count combinations, and each pair draws its
    centre distance from its own stratum of [0, 1.6].  As in lattice3d,
    the pairs come from a fixed library seed and the run seed moves each
    one by a uniform scaling, a translation and a common value scale:
    with seeded shapes, the median pair cost moved by 15 % between
    seeds."""
    lib = np.random.default_rng(LATTICE2D_LIBRARY_SEED)
    rng = np.random.default_rng([seed, 2])
    kernels = [("power", va.PowerKernel(1.0, q)) for q in (1.0, 1.5, 2.0)]
    pairs = 2 if tiny else 64
    strata = lib.permutation(pairs)
    fp = _Fingerprint()
    cases = []
    simplices = 0
    for i in range(pairs):
        u = lib.normal(size=2)
        offset = 1.6 * (strata[i] + lib.uniform()) / pairs * u / np.linalg.norm(u)
        centre = lib.uniform(-0.4, 0.4, size=2)
        phi = rng.uniform(0.5, 2.0) * np.eye(2)
        t = rng.uniform(-1.0, 1.0, size=2)
        scale = rng.uniform(0.5, 2.0)
        fg = []
        for k, shift in ((5 + i % 4, centre - offset / 2), (5 + i // 4 % 4, centre + offset / 2)):
            P = _random_polytope(tr, lib, 2, k)
            f = _place(tr, _cone(tr, P), scale * lib.uniform(0.4, 2.0), phi, phi @ shift + t)
            fp.add_function(f)
            simplices += len(f.complex)
            fg.append(f)
        cases.append(_lattice_case("pair%d" % i, fg[0], fg[1], kernels))
    return Prepared(cases, fp.hexdigest(), {"pairs": pairs, "input_simplices": simplices})


def prepare_lattice3d(seed, tr, tiny=False, **_):
    """3-D cone pairs over 5-point polytopes: one with disjoint supports,
    then twice one where a vertex of g pokes into f.  With the poke pair
    in two thirds of the cases, the median case is always a poke pair.

    Arrangement-mode overlay cost depends on the pair's shape far more
    than on anything else (1 s to 90 s per pair on a 2-core box), so a
    seeded choice of shapes would make one run's figure depend on which
    shapes were drawn.  The shapes therefore come from a fixed library
    seed, and the run seed draws a uniform scaling, a translation and a
    common value scale for each case: every input coordinate changes
    with the seed, the arrangement the overlay resolves does not.  No
    rotation: it reorders the overlay's cutting planes, which alone
    moves the cost of a pair by about 25 %."""
    lib = np.random.default_rng(LATTICE3D_LIBRARY_SEED)
    shapes = {}
    for kind in ("disjoint", "poke"):
        P = _random_polytope(tr, lib, 3, 5)
        Q = _random_polytope(tr, lib, 3, 5)
        if kind == "disjoint":
            shift = np.array([2.6, 0.0, 0.0])  # circumradii are at most 1.2
        else:
            a = P.vertices[int(lib.integers(len(P.vertices)))]
            b = Q.vertices[int(np.argmin(Q.vertices @ a))]
            shift = 0.9 * a - b  # b lands just inside P, near its vertex a
        shapes[kind] = (_cone(tr, P), _cone(tr, Q), shift)
    rng = np.random.default_rng([seed, 3])
    kernels = [("power", va.PowerKernel(1.0, 1.5))]
    fp = _Fingerprint()
    cases = []
    simplices = 0
    kinds = ("disjoint",) if tiny else ("disjoint", "poke", "poke")
    for i, kind in enumerate(kinds):
        cone_p, cone_q, shift = shapes[kind]
        phi = rng.uniform(0.5, 2.0) * np.eye(3)
        t = rng.uniform(-1.0, 1.0, size=3)
        scale = rng.uniform(0.5, 2.0)
        f = _place(tr, cone_p, scale, phi, t)
        g = _place(tr, cone_q, 1.3 * scale, phi, phi @ shift + t)
        for h in (f, g):
            fp.add_function(h)
            simplices += len(h.complex)
        cases.append(_lattice_case("%s%d" % (kind, i), f, g, kernels))
    return Prepared(cases, fp.hexdigest(), {"pairs": len(kinds), "input_simplices": simplices})


# ---------------------------------------------------------------------------
# integrate: kernels and norms on Kuhn-grid meshes, no overlay
# ---------------------------------------------------------------------------


def _kuhn_mesh(tr, rng, n, cells):
    """Kuhn triangulation of [-1, 1]^n with `cells` cubes per side; values
    uniform in [-1, 1], zero on the boundary and at about 20 % of the
    interior vertices, so simplices carry tied knots at 0."""
    side = cells + 1
    grid = np.indices((side,) * n).reshape(n, -1).T
    verts = -1.0 + 2.0 * grid / cells
    strides = side ** np.arange(n)[::-1]
    corners = np.indices((cells,) * n).reshape(n, -1).T @ strides
    simplices = []
    for perm in itertools.permutations(range(n)):
        path = np.cumsum([0] + [strides[a] for a in perm])
        simplices.append(corners[:, None] + path[None, :])
    simplices = np.concatenate(simplices)
    values = rng.uniform(-1.0, 1.0, size=len(verts))
    values[rng.random(len(verts)) < 0.2] = 0.0
    values[np.any((grid == 0) | (grid == cells), axis=1)] = 0.0
    with tr.span("plfunction.mesh_build", simplices=len(simplices)):
        cx = pf.SimplicialComplex(dim=n, vertices=verts, simplices=tuple(map(tuple, simplices)))
        return pf.PLFunction(complex=cx, values=values)


def _mesh_references(f, level):
    """Independent numpy routes: integral of f^2 (closed form through the
    complete homogeneous polynomial h_2), gradient 2-norm, and volume of
    {f > level} (divided difference of (x - level)_+^n, exact when the
    values above the level are distinct)."""
    n = f.dim
    idx = np.asarray(f.complex.simplices)
    X = f.complex.vertices[idx]
    v = f.values[idx]
    E = X[:, 1:, :] - X[:, :1, :]
    vols = np.abs(np.linalg.det(E)) / math.factorial(n)
    h2 = np.array([ig.hq_complete_homogeneous(row, 2) for row in v])
    sq = float(np.sum(vols * h2)) * 2.0 * math.factorial(n) / math.factorial(n + 2)
    grads = np.linalg.solve(E, (v[:, 1:] - v[:, :1])[..., None])[..., 0]
    grad2 = math.sqrt(float(np.sum(vols * np.sum(grads**2, axis=1))))
    frac = np.zeros(len(v))
    for i in range(n + 1):
        den = np.ones(len(v))
        for j in range(n + 1):
            if j != i:
                den = den * (v[:, i] - v[:, j])
        above = v[:, i] > level
        frac[above] += (v[above, i] - level) ** n / den[above]
    return sq, grad2, float(np.sum(vols * frac))


def _mesh_cases(tag, f, level):
    sq, grad2, lsv = _mesh_references(f, level)
    R = 1.5  # beyond max |value| = 1
    powers = {q: va.PowerKernel(1.0, q) for q in (1.0, 1.5, 2.0)}
    # t^2 on [-R, R] in the local basis (t - knot) of each piece
    piecewise = va.PiecewisePolyKernel([-R, 0.0, R], [[R * R, -2.0 * R, 1.0], [0.0, 0.0, 1.0]], 2.0, 2.0)
    tabulated = va.TabulatedKernel([-R, 0.0, R], [R, 0.0, R], 1.0, 1.0)  # |t|

    def apply_case(q):
        return lambda tr: (_apply(tr, "power", powers[q], f),)

    def no_check(out, done):
        return None

    def q2_check(out, done):
        return _within(tag + " |t|^2 vs closed form", out[0], sq, CROSS_ROUTE_TOL)

    def against(label, out, ref):
        if ref is None:
            return "%s: the reference case failed in this pass" % label
        return _within(label, out[0], ref[0], CROSS_ROUTE_TOL)

    def piecewise_check(out, done):
        return against(tag + " piecewise t^2 vs power q=2", out, done.get(tag + ".power2"))

    def tabulated_check(out, done):
        return against(tag + " tabulated |t| vs power q=1", out, done.get(tag + ".power1"))

    def lq_check(out, done):
        return _within(tag + " ||f||_2^2 vs closed form", out[0] ** 2, sq, CROSS_ROUTE_TOL)

    def grad_check(out, done):
        return _within(tag + " ||grad f||_2 vs numpy", out[0], grad2, CROSS_ROUTE_TOL)

    def level_check(out, done):
        return _within(tag + " |{f > %g}| vs divided difference" % level, out[0], lsv, CROSS_ROUTE_TOL)

    return [
        Case(tag + ".power1", apply_case(1.0), no_check),
        Case(tag + ".power1.5", apply_case(1.5), no_check),
        Case(tag + ".power2", apply_case(2.0), q2_check),
        Case(tag + ".piecewise", lambda tr: (_apply(tr, "piecewise_poly", piecewise, f),), piecewise_check),
        Case(tag + ".tabulated", lambda tr: (_apply(tr, "tabulated", tabulated, f),), tabulated_check),
        Case(tag + ".lq_norm", lambda tr: (_integration(tr, "lq_norm", f, 2.0),), lq_check),
        Case(tag + ".grad_p_norm", lambda tr: (_integration(tr, "grad_p_norm", f, 2.0),), grad_check),
        Case(
            tag + ".level_set_volume",
            lambda tr: (_integration(tr, "level_set_volume", f, level),),
            level_check,
        ),
    ]


def _profile_case(P, q):
    """c_profile of |t|^q on a polygon cone (one apply per grid point),
    then recover_kernel back to |t|^q."""
    kernel = va.PowerKernel(1.0, q)
    grid = np.arange(0.0, 2.0 + 1e-12, 0.01)
    cpn = ig.c_pn(q, P.dim)

    def run(tr):
        with tr.span("valuation.c_profile", points=len(grid)):
            prof = va.c_profile(kernel, P, grid)
        with tr.span("valuation.recover_kernel"):
            rec = va.recover_kernel(prof)
        inner = rec.ts[1:]
        rel = np.abs(rec.hs[1:] - inner**q) / inner**q
        c_err = float(np.max(np.abs(prof.c - cpn * grid**q))) / float(cpn * grid[-1] ** q)
        return (c_err, float(np.max(rel)), float(np.sum(prof.c)))

    def check(out, done):
        if not out[0] <= CROSS_ROUTE_TOL:
            return "profile deviates from c_{q,n} s^q by %.3g" % out[0]
        if not out[1] <= RECOVERY_TOL:
            return "recovered kernel deviates from |t|^%g by %.3g" % (q, out[1])
        return None

    return Case("profile", run, check)


def prepare_integrate(seed, tr, tiny=False, **_):
    rng = np.random.default_rng([seed, 4])
    fp = _Fingerprint()
    cases = []
    sizes = {}
    for n, cells in ((2, 3 if tiny else 24), (3, 2 if tiny else 6)):
        f = _kuhn_mesh(tr, rng, n, cells)
        fp.add_function(f)
        sizes["mesh%dd_simplices" % n] = len(f.complex)
        cases.extend(_mesh_cases("mesh%dd" % n, f, 0.3))
    # a fixed vertex count: the profile's cost grows with it, and a seeded
    # count moved the median case by up to 15 %
    P = _random_polytope(tr, rng, 2, PROFILE_VERTICES)
    fp.add_json(P.vertices.tolist())
    cases.append(_profile_case(P, 1.5))
    return Prepared(cases, fp.hexdigest(), sizes)


# ---------------------------------------------------------------------------
# verify_cli: the battery through plval.cli.main
# ---------------------------------------------------------------------------


def _verify_case(suite, seed, out_dir):
    path = os.path.join(out_dir, "verify_%s.jsonl" % suite)
    argv = ["verify", "--suite", suite, "--seed", str(seed), "--output", path]

    def run(tr):
        if os.path.exists(path):
            os.remove(path)
        sink = io.StringIO()
        with tr.span("cli.verify", suite=suite) as s:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
            said = sink.getvalue().strip().splitlines()
            said = said[-1] if said else ""
            if rc == 2:  # the CLI caught a typed error (or a usage error) and reported it
                raise PLValError("plval verify --suite %s --seed %d: %s" % (suite, seed, said))
        with open(path, "rb") as fh:
            data = fh.read()
        rows = [json.loads(line) for line in data.decode().splitlines()]
        fails = sum(1 for r in rows if r["status"] == "fail")
        s["cases"] = len(rows)
        s["failed"] = fails
        return (rc, len(rows), fails, hashlib.sha256(data).hexdigest(), said)

    def check(out, done):
        rc, rows, fails, _, said = out
        if rc != 0 or rows == 0 or fails:
            return "plval verify --suite %s --seed %d: exit %d, %d rows, %d failed: %s" % (
                suite, seed, rc, rows, fails, said)
        return None

    return argv, Case(suite, run, check)


def prepare_verify_cli(seed, tr, tiny=False, out_dir="."):
    """The battery at VERIFY_CLI_SEED, the seed `plval verify` runs at by
    default; the run seed does not change it.  plval generates these
    inputs itself from the CLI seed, and the battery at other seeds is
    not fit to time: inclusion_exclusion's random fan makes the overlay
    raise OverlayFailure at some of them (CLI seeds 21, 107 and 110 among
    28 tried), and its cost varies with the fan.  The fingerprint covers
    the argument vectors."""
    fp = _Fingerprint()
    cases = []
    for suite in VERIFY_SUITES[:2] if tiny else VERIFY_SUITES:
        argv, case = _verify_case(suite, VERIFY_CLI_SEED, out_dir)
        fp.add_json(argv[:-1])  # the output path depends on the checkout
        cases.append(case)
    return Prepared(cases, fp.hexdigest(), {"suites": len(cases)})


WORKLOADS = {
    "lattice2d": prepare_lattice2d,
    "lattice3d": prepare_lattice3d,
    "integrate": prepare_integrate,
    "verify_cli": prepare_verify_cli,
}
