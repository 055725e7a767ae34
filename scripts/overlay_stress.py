#!/usr/bin/env python3
"""Run the inclusion_exclusion suite at many CLI seeds in one process.

For each seed it prints the suite's status (pass, the failed cases, or the
error raised), its worst relative residual |z(f) - sum over tent subsets|,
the worst cover-balance residual over the overlay calls the suite made:
|covered volume - (vol supp f + vol supp g)| divided by that sum, which
the overlay requires to stay within COVER_TOL (a call that fails the
balance counts too), the number of overlays (overlay.lattice_overlay
calls) with the simplices they returned in total, so that output growing
more fragmented shows in the log, the number of qhull hulls built (calls
to convex.hull, from polytopes and convex supports), the merge groups
the assembly tested and merged (overlay._merges), the qhull hulls built
inside the assembly (convex.hull calls and scipy ConvexHull
constructions; there must be none), and where the time went: the seconds
spent refining pairs (overlay._refine, the cutting) and assembling cells
into functions (overlay.assemble_cells, for the overlays' results and
the tents alike), with the number of stacked cuts (convex.split calls)
made inside the refinements.  It exits 1 if any seed fails or builds a
hull inside the assembly.

Usage: PYTHONPATH=src python scripts/overlay_stress.py --seeds 0:60
"""

import argparse
import sys
import time

from plval import convex, overlay
from plval.verify import default_battery


def seed_range(text: str) -> range:
    lo, hi = text.split(":")
    return range(int(lo), int(hi))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=range(0, 60), help="start:stop")
    args = ap.parse_args()

    worst = [0.0]
    calls = [0, 0]  # overlays, simplices returned
    seconds = {"refine": 0.0, "assemble": 0.0}
    cuts = [0, 0]  # convex.split calls, those made inside overlay._refine
    refine, assemble, check_cover = overlay._refine, overlay.assemble_cells, overlay._check_cover
    lattice_overlay = overlay.lattice_overlay
    split, hull = convex.split, convex.hull

    def timed_refine(f, g):
        t0, before = time.perf_counter(), cuts[0]
        try:
            return refine(f, g)
        finally:
            seconds["refine"] += time.perf_counter() - t0
            cuts[1] += cuts[0] - before

    def recorded_check_cover(pieces, supp):
        # recorded before the check can raise, so a failing call counts
        worst[0] = max(worst[0], abs(overlay._cover(pieces) - supp) / supp)
        check_cover(pieces, supp)

    assembling = [False]

    def timed_assemble(*args):
        t0 = time.perf_counter()
        assembling[0] = True
        try:
            return assemble(*args)
        finally:
            assembling[0] = False
            seconds["assemble"] += time.perf_counter() - t0

    def counted_overlay(f, g, op):
        out = lattice_overlay(f, g, op)
        calls[0] += 1
        calls[1] += len(out.complex)
        return out

    def counted_split(*args, **kwargs):
        cuts[0] += 1
        return split(*args, **kwargs)

    hulls = [0, 0]  # convex.hull calls, hulls built inside the assembly
    groups = [0, 0]  # merge groups tested, merged

    def counted_hull(points):
        hulls[0] += 1
        hulls[1] += assembling[0]
        return hull(points)

    def counted_qhull(*args, **kwargs):
        hulls[1] += assembling[0]
        return qhull(*args, **kwargs)

    def counted_merges(*args):
        out = merges(*args)
        groups[0] += len(out)
        groups[1] += int(out.sum())
        return out

    merges, qhull = overlay._merges, convex.ConvexHull
    overlay._refine, overlay.assemble_cells = timed_refine, timed_assemble
    overlay.lattice_overlay = counted_overlay
    overlay._check_cover = recorded_check_cover
    overlay._merges = counted_merges
    convex.split, convex.hull = counted_split, counted_hull
    convex.ConvexHull = overlay.ConvexHull = counted_qhull
    failed = 0
    for seed in args.seeds:
        worst[0] = 0.0
        calls[:] = [0, 0]
        seconds.update(refine=0.0, assemble=0.0)
        cuts[:] = [0, 0]
        hulls[:] = [0, 0]
        groups[:] = [0, 0]
        t0 = time.perf_counter()
        suite = dict(default_battery(seed))["inclusion_exclusion"]
        residual = float("nan")
        try:
            reports = suite()
            fails = sum(1 for r in reports if r.status == "fail")
            status = "pass" if not fails else "fail: %d of %d cases" % (fails, len(reports))
            residual = max(r.residual for r in reports)
        except Exception as exc:  # a typed PLValError or a defect: both fail the seed
            fails = 1
            status = "error: %s: %s" % (type(exc).__name__, exc)
        failed += fails > 0 or hulls[1] > 0
        print(
            "seed %3d  %-12s residual %.2e  worst cover residual %.2e  %3d overlays -> %5d simplices"
            "  %4d hulls  %4d groups -> %4d merged  %d assembly hulls  refine %.3f s (%4d cuts)  assemble %.3f s"
            "  %5.1f s"
            % (seed, status, residual, worst[0], calls[0], calls[1], hulls[0], groups[0], groups[1], hulls[1],
               seconds["refine"], cuts[1], seconds["assemble"], time.perf_counter() - t0),
            flush=True,
        )
    print("%d of %d seeds failed" % (failed, len(args.seeds)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
