#!/usr/bin/env python3
"""Time polytope builds (polytope.hull_from_points) on small point sets.

For each dimension and point count it draws --draws seeded point sets as
random_polytope draws them, k points on the unit sphere with radii in
[0.8, 1.2], builds each once untimed, then times --repeat passes over
them all and prints the best pass's microseconds per build, how many of
the draws raise (the origin too near the boundary, or a degenerate set),
and the steps each build took, read from plval.stats.calls: hulls
(convex.hull), facets (its brute-force facet searches) and builds (the
finish past the hull).  Run it against another checkout's sources by
putting them first on PYTHONPATH.

Usage: PYTHONPATH=src python scripts/build_cost.py --dims 2,3 --points 5:9
"""

import argparse
import time

import numpy as np

from plval import stats
from plval.errors import PLValError
from plval.polytope import hull_from_points

STEPS = ("hulls", "facets", "builds")


def draws(seed: int, n: int, k: int, count: int) -> list:
    rng = np.random.default_rng([seed, n, k])
    out = []
    for _ in range(count):
        dirs = rng.normal(size=(k, n))
        out.append(dirs / np.linalg.norm(dirs, axis=1)[:, None] * rng.uniform(0.8, 1.2, size=(k, 1)))
    return out


def build_all(sets) -> int:
    """Build every set; the number that raise."""
    raised = 0
    for pts in sets:
        try:
            hull_from_points(pts)
        except PLValError:
            raised += 1
    return raised


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dims", default="2,3", help="comma-separated dimensions")
    ap.add_argument("--points", default="5:9", help="start:stop point counts")
    ap.add_argument("--draws", type=int, default=200, help="point sets per dimension and count")
    ap.add_argument("--repeat", type=int, default=5, help="timed passes; the best is reported")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.points.split(":"))
    total = [0, 0.0]
    for n in (int(x) for x in args.dims.split(",")):
        for k in range(lo, hi):
            sets = draws(args.seed, n, k, args.draws)
            before = stats.calls.copy()
            raised = build_all(sets)
            steps = [(stats.calls[s] - before[s]) / len(sets) for s in STEPS]
            best = float("inf")
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                build_all(sets)
                best = min(best, time.perf_counter() - t0)
            total[0] += len(sets)
            total[1] += best
            print("n=%d k=%2d  %4d builds, %3d raise  %7.1f us/build  per build: %s" % (
                n, k, len(sets), raised, 1e6 * best / len(sets),
                ", ".join("%s %.2f" % (s, x) for s, x in zip(STEPS, steps))))
    print("all  %d builds  %.1f us/build" % (total[0], 1e6 * total[1] / max(total[0], 1)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
