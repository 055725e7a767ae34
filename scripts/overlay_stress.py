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
number of hulls built (from polytopes and convex supports), the merge
groups the assembly tested and merged, the hull kernels run inside the
assembly (hulls and brute-force facet passes; cells are measured and
triangulated from their incidence, so there must be none), and where the
time went: the seconds spent cutting batches of pairs against each other
(overlay._pieces_pairwise) and assembling cells into functions
(overlay.assemble_cells, for the overlays' results and the tents alike),
each in total and per batch, with the number of stacked cuts made inside
the cutting.  The counts are read from plval.stats.calls (hulls, facets,
merge_groups, merged, splits).  Every overlay result
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

from plval import overlay, stats
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
    inside = {"splits": 0, "hulls": 0}  # stacked cuts inside the cutting, hull kernels inside the assembly
    cut, assemble, cover_failures = overlay._pieces_pairwise, overlay.assemble_cells, overlay._cover_failures
    lattice_overlays = overlay.lattice_overlays

    def hull_kernels() -> int:
        return stats.calls["hulls"] + stats.calls["facets"]

    def timed_cut(mesh):
        t0, before = time.perf_counter(), stats.calls["splits"]
        try:
            return cut(mesh)
        finally:
            seconds["cut"] += time.perf_counter() - t0
            batches["cut"] += 1
            inside["splits"] += stats.calls["splits"] - before

    def recorded_cover_failures(pieces, supp):
        residual = np.abs(overlay._cover(pieces, len(supp)) - supp) / supp
        worst[0] = max(worst[0], float(residual.max(initial=0.0)))
        return cover_failures(pieces, supp)

    def timed_assemble(*args):
        t0, before = time.perf_counter(), hull_kernels()
        try:
            return assemble(*args)
        finally:
            seconds["assemble"] += time.perf_counter() - t0
            batches["assemble"] += 1
            inside["hulls"] += hull_kernels() - before

    trips = [0, 0]  # results refused or changed on the way back from JSON, results read back to the same bytes

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

    overlay._pieces_pairwise, overlay.assemble_cells = timed_cut, timed_assemble
    overlay.lattice_overlays = counted_overlays
    overlay._cover_failures = recorded_cover_failures
    failed = 0
    for seed in args.seeds:
        worst[0] = 0.0
        calls[:] = [0, 0, 0]
        seconds.update(cut=0.0, assemble=0.0)
        batches.update(cut=0, assemble=0)
        inside.update(splits=0, hulls=0)
        trips[:] = [0, 0]
        stats.calls.clear()
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
        failed += fails > 0 or inside["hulls"] > 0 or trips[0] > 0
        per = {k: seconds[k] / max(batches[k], 1) for k in seconds}
        print(
            "seed %3d  %-12s residual %.2e  worst cover residual %.2e  %3d overlays in %2d batches -> %5d simplices"
            "  %4d hulls  %4d groups -> %4d merged  %d assembly hulls  %3d of %3d read back"
            "  cut %.3f s (%.4f s/batch, %4d splits)  assemble %.3f s (%.4f s/batch)  %5.1f s"
            % (seed, status, residual, worst[0], calls[0], calls[1], calls[2], stats.calls["hulls"],
               stats.calls["merge_groups"], stats.calls["merged"], inside["hulls"], trips[1], sum(trips),
               seconds["cut"], per["cut"], inside["splits"], seconds["assemble"], per["assemble"],
               time.perf_counter() - t0),
            flush=True,
        )
    print("%d of %d seeds failed" % (failed, len(args.seeds)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
