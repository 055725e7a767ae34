"""Polytope builds, pinned to the byte: the SHA-256 of every field of the
Polytope that hull_from_points, random_polytope, translate,
apply_unimodular and dilate give on seeded draws in R^n, n = 1-4, from
k = n+1 to 12 points, or the type and message of what they raise.
The draws take Gaussian clouds (the origin inside or not), small integer
lattices (exact repeats, coplanar points, non-simplex facets), clouds
with a repeat and a near pair, and flat and nearly flat sets.  A change that moves a
byte updates tests/data/polytope_digests.json:

    PYTHONPATH=src python tests/test_polytope_digests.py > tests/data/polytope_digests.json
"""

import hashlib
import json
import pathlib
import sys

import numpy as np

from plval import polytope as pt
from plval.errors import ConstructionFailure

PATH = pathlib.Path(__file__).parent / "data" / "polytope_digests.json"
SEEDS = (0, 1, 2)


def _text(P) -> str:
    """Every field of P, exactly: its arrays' dtype, shape, flags and
    bytes, and the repr of its facets (shortest round-trip floats, and
    the types of their entries)."""
    arrays = [
        "%s %s %s %s" % (a.dtype.str, a.shape, a.flags.writeable, a.tobytes().hex())
        for a in (P.vertices, P.facet_simplices)
    ]
    return "\n".join([repr((P.dim, P.origin_interior)), *arrays, repr(P.facets)])


def _digest(build) -> str:
    """The digest of build()'s polytope, or the type and message of the
    exception it raises."""
    try:
        P = build()
    except Exception as e:
        return "raises %s: %s" % (type(e).__name__, e)
    return hashlib.sha256(_text(P).encode()).hexdigest()


def _clouds(n: int, k: int, seed: int) -> dict:
    """{name: points (k, n)} drawn at one seed."""
    rng = np.random.default_rng([n, k, seed])
    gauss = rng.normal(size=(k, n))
    lattice = rng.integers(-2, 3, size=(k, n)).astype(float)
    near = rng.normal(size=(k, n))
    if k >= 3:
        near[-1] = near[0]
        near[-2] = near[1] + 3e-10 * rng.normal(size=n)
    flat = rng.normal(size=(k, n))
    flat[:, -1] = 0.25 * flat[:, 0] if n > 1 else 0.5
    # thicker than the hull's tolerance, thinner than the incidence's
    thin = flat + np.eye(n)[-1] * 3e-9 * rng.normal(size=(k, 1))
    return {"gauss": gauss, "lattice": lattice, "near": near, "flat": flat, "thin": thin}


def _base(n: int, k: int):
    """The first random_polytope from seed 7 on that builds at (n, k):
    the polytope the transforms act on (few points on a sphere may leave
    the origin too near the boundary)."""
    for seed in range(7, 64):
        try:
            return pt.random_polytope(seed, n, k)
        except ConstructionFailure:
            continue
    raise AssertionError("no base polytope at n=%d k=%d" % (n, k))


def _builds(n: int, k: int) -> dict:
    """{name: build} for the draws at (n, k)."""
    builds = {}
    for seed in SEEDS:
        for name, pts in _clouds(n, k, seed).items():
            builds["hull_from_points %s seed=%d" % (name, seed)] = lambda pts=pts: pt.hull_from_points(pts)
        builds["random_polytope seed=%d" % seed] = lambda seed=seed: pt.random_polytope(seed, n, k)
    rng = np.random.default_rng([n, k, 99])
    P = _base(n, k)
    shifts = {"small": 0.05 * rng.normal(size=n), "far": 3.0 + rng.normal(size=n)}
    for name, t in shifts.items():
        builds["translate %s" % name] = lambda t=t: pt.translate(P, t)
    phi = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    singular = np.ones((n, n))
    builds["apply_unimodular"] = lambda: pt.apply_unimodular(P, phi)
    builds["apply_unimodular singular"] = lambda: pt.apply_unimodular(P, singular if n > 1 else [[0.0]])
    builds["apply_unimodular far"] = lambda: pt.apply_unimodular(pt.translate(P, shifts["far"]), phi)
    for lam in (0.5, 3.0, -1.0):
        builds["dilate %g" % lam] = lambda lam=lam: pt.dilate(P, lam)
    builds["dilate far"] = lambda: pt.dilate(pt.translate(P, shifts["far"]), 2.0)
    return builds


def _digests() -> dict:
    """{"n=.. k=..": {name: digest}}."""
    return {
        "n=%d k=%d" % (n, k): {name: _digest(build) for name, build in _builds(n, k).items()}
        for n in range(1, 5)
        for k in range(n + 1, 13)
    }


def test_polytope_builds_match_the_pinned_digests():
    golden = json.loads(PATH.read_text())
    got = _digests()
    assert sorted(got) == sorted(golden)
    for key, digests in golden.items():
        assert got[key] == digests, key


def test_the_polytope_pin_covers_builds_and_raises():
    # the pin holds polytopes with and without the origin inside, and each
    # kind of raise a build or transform can give
    texts = set()
    for n, k in ((1, 2), (2, 5), (3, 7), (4, 12)):
        for build in _builds(n, k).values():
            try:
                P = build()
                texts.add(P.origin_interior)
            except Exception as e:
                texts.add(type(e).__name__)
    assert {True, False, "Degenerate", "OriginNotInterior", "Singular", "ValueError"} <= texts


if __name__ == "__main__":
    sys.stdout.write(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
