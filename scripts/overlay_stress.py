#!/usr/bin/env python3
"""Run the inclusion_exclusion suite at many CLI seeds in one process.

For each seed it prints the suite's status (pass, the failed cases, or the
error raised), its worst relative residual |z(f) - sum over tent subsets|,
the worst cover-balance residual over the pairs the suite overlaid:
|covered volume - (vol supp f + vol supp g)| divided by that sum, which
the overlay requires to stay within COVER_TOL (a pair that fails the
balance counts too), the number of results overlaid (one per op and
pair) and of batched overlay calls (overlay.overlays) with the simplices
they returned in total, so that output growing more fragmented shows in
the log, the
number of hulls built (from polytopes and convex supports), the merge
groups the assembly tested and merged, and where the time went: the
seconds spent cutting batches of pairs against each other
(overlay._pieces_pairwise) and assembling cells into functions
(overlay.assemble_cells, for the overlays' results and the tents alike),
each in total and per batch, with the number of stacked cuts
(convex.split) the seed made in all, not only those inside the cutting.
All but the overlay calls are read from plval.stats, which plval keeps
itself: the counts from stats.calls (hulls, merge_groups, merged, splits,
cuts, assemblies), the seconds from stats.seconds, and the cover residual
from the cover check's margin, stats.worst["cover"] times COVER_TOL.
The one wrapper it installs is on overlay.overlays: every overlay result
(an OverlayFailure in its place is left to the suite) is written as JSON
and read back (plfunction.from_json_dict), and the log gives how many
read back to the same bytes; a result refused or changed on the way
fails its seed.  It exits 1 if any seed fails.

Usage: PYTHONPATH=src python scripts/overlay_stress.py --seeds 0:60
"""

import argparse
import json
import sys
import time

from plval import overlay, stats
from plval.errors import PLValError
from plval.plfunction import PLFunction, from_json_dict
from plval.serialize import dumps_canonical
from plval.verify import default_battery


def seed_range(text: str) -> range:
    lo, hi = text.split(":")
    return range(int(lo), int(hi))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=range(0, 60), help="start:stop")
    args = ap.parse_args()

    calls = [0, 0, 0]  # results overlaid, batched overlay calls, simplices returned
    overlays = overlay.overlays
    trips = [0, 0]  # results refused or changed on the way back from JSON, results read back to the same bytes

    def read_back(h) -> bool:
        text = dumps_canonical(h.to_json_dict())
        try:
            return dumps_canonical(from_json_dict(json.loads(text)).to_json_dict()) == text
        except PLValError:
            return False

    def counted_overlays(pairs, ops):
        out = overlays(pairs, ops)
        got = [h for results in out.values() for h in results if isinstance(h, PLFunction)]
        calls[0] += len(got)
        calls[1] += 1
        calls[2] += sum(len(h.complex) for h in got)
        for h in got:
            trips[read_back(h)] += 1
        return out

    overlay.overlays = counted_overlays
    failed = 0
    for seed in args.seeds:
        calls[:] = [0, 0, 0]
        trips[:] = [0, 0]
        stats.clear()
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
        failed += fails > 0 or trips[0] > 0
        cuts, assemblies = max(stats.calls["cuts"], 1), max(stats.calls["assemblies"], 1)
        print(
            "seed %3d  %-12s residual %.2e  worst cover residual %.2e  %3d overlays in %2d batches -> %5d simplices"
            "  %4d hulls  %4d groups -> %4d merged  %3d of %3d read back"
            "  cut %.3f s (%.4f s/batch, %4d splits)  assemble %.3f s (%.4f s/batch)  %5.1f s"
            % (seed, status, residual, stats.worst["cover"] * overlay.COVER_TOL, calls[0], calls[1], calls[2],
               stats.calls["hulls"], stats.calls["merge_groups"], stats.calls["merged"], trips[1], sum(trips),
               stats.seconds["cut"], stats.seconds["cut"] / cuts, stats.calls["splits"], stats.seconds["assemble"],
               stats.seconds["assemble"] / assemblies, time.perf_counter() - t0),
            flush=True,
        )
    print("%d of %d seeds failed" % (failed, len(args.seeds)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
