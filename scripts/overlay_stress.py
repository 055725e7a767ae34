#!/usr/bin/env python3
"""Run the inclusion_exclusion suite at many CLI seeds in one process.

For each seed it prints the suite's status (pass, the failed cases, or the
error raised), its worst relative residual |z(f) - sum over tent subsets|,
the worst cover-balance residual over the pairs the suite overlaid:
|covered volume - (vol supp f + vol supp g)| divided by that sum, which
the overlay requires to stay within COVER_TOL (a pair that fails the
balance counts too), the number of pairs overlaid and of batched overlay
calls (overlay.lattice_overlays) with the simplices they returned in
total, so that output growing more fragmented shows in the log, the
number of hulls built (calls to convex.hull, from polytopes and convex
supports), the merge groups the assembly tested and merged
(overlay._merges), the hull kernels run inside the assembly (calls to
convex.hull and to convex._facets, its brute-force facet pass; cells are
measured and triangulated from their incidence, so there must be none),
and where the time went: the seconds spent cutting batches of pairs
against each other (overlay._pieces_pairwise) and assembling cells into
functions (overlay.assemble_cells, for the overlays' results and the
tents alike), each in total and per batch, with the number of stacked
cuts (convex.split calls) made inside the cutting.  Every overlay result
is also written as JSON and read back (plfunction.from_json_dict), and
the log gives how many read back to the same bytes; a result refused or
changed on the way fails its seed.  It exits 1 if any seed fails or
builds a hull inside the assembly.

Usage: PYTHONPATH=src python scripts/overlay_stress.py --seeds 0:60
"""

import argparse
import json
import sys
import time

import numpy as np

from plval import convex, overlay
from plval.errors import PLValError
from plval.plfunction import from_json_dict
from plval.serialize import dumps_canonical
from plval.verify import default_battery


def seed_range(text: str) -> range:
    lo, hi = text.split(":")
    return range(int(lo), int(hi))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=range(0, 60), help="start:stop")
    args = ap.parse_args()

    worst = [0.0]
    calls = [0, 0, 0]  # pairs overlaid, batched overlay calls, simplices returned
    seconds = {"cut": 0.0, "assemble": 0.0}
    batches = {"cut": 0, "assemble": 0}
    splits = [0, 0]  # convex.split calls, those made inside overlay._pieces_pairwise
    cut, assemble, cover_failures = overlay._pieces_pairwise, overlay.assemble_cells, overlay._cover_failures
    lattice_overlays = overlay.lattice_overlays
    split, hull = convex.split, convex.hull

    def timed_cut(mesh):
        t0, before = time.perf_counter(), splits[0]
        try:
            return cut(mesh)
        finally:
            seconds["cut"] += time.perf_counter() - t0
            batches["cut"] += 1
            splits[1] += splits[0] - before

    def recorded_cover_failures(pieces, supp):
        residual = np.abs(overlay._cover(pieces, len(supp)) - supp) / supp
        worst[0] = max(worst[0], float(residual.max(initial=0.0)))
        return cover_failures(pieces, supp)

    assembling = [False]

    def timed_assemble(*args):
        t0 = time.perf_counter()
        assembling[0] = True
        try:
            return assemble(*args)
        finally:
            assembling[0] = False
            seconds["assemble"] += time.perf_counter() - t0
            batches["assemble"] += 1

    trips = [0, 0]  # results read back from JSON to the same bytes, results refused or changed

    def read_back(h) -> bool:
        text = dumps_canonical(h.to_json_dict())
        try:
            return dumps_canonical(from_json_dict(json.loads(text)).to_json_dict()) == text
        except PLValError:
            return False

    def counted_overlays(pairs, op):
        out = lattice_overlays(pairs, op)
        calls[0] += len(out)
        calls[1] += 1
        calls[2] += sum(len(h.complex) for h in out)
        for h in out:
            trips[read_back(h)] += 1
        return out

    def counted_split(*args, **kwargs):
        splits[0] += 1
        return split(*args, **kwargs)

    hulls = [0, 0]  # convex.hull calls, hulls built inside the assembly
    groups = [0, 0]  # merge groups tested, merged

    def counted_hull(points):
        hulls[0] += 1
        hulls[1] += assembling[0]
        return hull(points)

    def counted_facets(*args, **kwargs):
        hulls[1] += assembling[0]
        return facets(*args, **kwargs)

    def counted_merges(*args):
        out = merges(*args)
        groups[0] += len(out)
        groups[1] += int(out.sum())
        return out

    merges, facets = overlay._merges, convex._facets
    overlay._pieces_pairwise, overlay.assemble_cells = timed_cut, timed_assemble
    overlay.lattice_overlays = counted_overlays
    overlay._cover_failures = recorded_cover_failures
    overlay._merges = counted_merges
    convex.split, convex.hull = counted_split, counted_hull
    convex._facets = counted_facets
    failed = 0
    for seed in args.seeds:
        worst[0] = 0.0
        calls[:] = [0, 0, 0]
        seconds.update(cut=0.0, assemble=0.0)
        batches.update(cut=0, assemble=0)
        splits[:] = [0, 0]
        hulls[:] = [0, 0]
        groups[:] = [0, 0]
        trips[:] = [0, 0]
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
        failed += fails > 0 or hulls[1] > 0 or trips[0] > 0
        per = {k: seconds[k] / max(batches[k], 1) for k in seconds}
        print(
            "seed %3d  %-12s residual %.2e  worst cover residual %.2e  %3d overlays in %2d batches -> %5d simplices"
            "  %4d hulls  %4d groups -> %4d merged  %d assembly hulls  %3d of %3d read back"
            "  cut %.3f s (%.4f s/batch, %4d splits)  assemble %.3f s (%.4f s/batch)  %5.1f s"
            % (seed, status, residual, worst[0], calls[0], calls[1], calls[2], hulls[0], groups[0], groups[1],
               hulls[1], trips[1], sum(trips), seconds["cut"], per["cut"], splits[1], seconds["assemble"],
               per["assemble"], time.perf_counter() - t0),
            flush=True,
        )
    print("%d of %d seeds failed" % (failed, len(args.seeds)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
