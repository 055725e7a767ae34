#!/usr/bin/env python3
"""Run the default verification battery and write JSONL + CSV reports.

Usage: python scripts/run_battery.py [--seed N] [--out DIR]

Each suite's line gives, next to its seconds, the number of hulls it
built (calls to convex.hull, from polytope builds and convex supports),
of polytope builds that got past the hull (calls to polytope._finish;
hulls less builds are random_polytope draws rejected on their rows, and
convex supports), of overlay cuts (calls to overlay._pieces_pairwise,
one per batch of pairs), of overlay assemblies (calls to
overlay.assemble_cells, for overlay results and tents alike), of
stacked cuts (calls to convex.split: the overlay's pair clips, cuts by
f = g and difference chains, the tents' cells and the overlap test of
SimplicialComplex.validate alike), of batched point locations (calls
to plfunction.evaluate_each, from overlay checks, tent checks and
evaluation), of value-density builds (calls to
integration.value_density, one per batch of functions that lack one
and one per simplex_means call), of engine passes (calls to
integration.ValueDensity.means, one per kernel or norm per batch) and
of crossing searches (calls to integration._crossings: one per density
build, and one per engine pass whose kernel has a cut other than 0
inside the density's values, or differs on the two sides of 0; power
kernels and norms make none).  It
ends with the SHA-256 of its JSONL bytes as `plval verify` writes them,
so two checkouts' outputs at one seed can be compared line by line.
summary.csv ends in each suite's wall seconds, as with `plval verify
--timing`.
"""

import argparse
import collections
import hashlib
import pathlib
import sys
import time

from plval import convex, integration, overlay, plfunction, polytope
from plval.verify import default_battery, reports_to_jsonl, summarize_csv


def count_calls(calls, key, *places):
    """Count calls of the function at each (module, name) of places under
    calls[key], one counter for all of them."""
    for module, name in places:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, **kwargs):
            calls[key] += 1
            return _fn(*args, **kwargs)

        setattr(module, name, counted)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("battery_out"))
    args = ap.parse_args()

    calls = collections.Counter()
    count_calls(calls, "hulls", (convex, "hull"))
    count_calls(calls, "builds", (polytope, "_finish"))
    count_calls(calls, "cuts", (overlay, "_pieces_pairwise"))
    count_calls(calls, "assemblies", (overlay, "assemble_cells"))
    # overlay and convex.clip both call split through the module
    count_calls(calls, "splits", (convex, "split"))
    # overlay imports evaluate_each by name; plfunction calls its own
    count_calls(calls, "locates", (overlay, "evaluate_each"), (plfunction, "evaluate_each"))
    # plfunction imports value_density at each call, so the module's name serves all
    count_calls(calls, "densities", (integration, "value_density"))
    count_calls(calls, "means", (integration.ValueDensity, "means"))
    count_calls(calls, "crossings", (integration, "_crossings"))
    args.out.mkdir(parents=True, exist_ok=True)
    all_reports, wall = [], {}
    for name, thunk in default_battery(args.seed):
        calls.clear()
        t0 = time.perf_counter()
        reports = thunk()
        wall[name] = time.perf_counter() - t0
        fails = sum(1 for r in reports if r.status == "fail")
        digest = hashlib.sha256(reports_to_jsonl(reports).encode()).hexdigest()
        print(
            "%-24s %3d cases  %d failed  %.3fs  %4d hulls  %4d builds  %3d cuts  %3d assemblies  %4d splits"
            "  %3d locates  %4d densities  %4d means  %4d crossings  sha256 %s"
            % (name, len(reports), fails, wall[name], calls["hulls"], calls["builds"], calls["cuts"],
               calls["assemblies"], calls["splits"], calls["locates"], calls["densities"], calls["means"],
               calls["crossings"], digest)
        )
        all_reports.extend(reports)

    summary = summarize_csv(all_reports, wall)
    (args.out / "reports.jsonl").write_text(reports_to_jsonl(all_reports))
    (args.out / "summary.csv").write_text(summary)
    print(summary)
    failures = sum(1 for r in all_reports if r.status == "fail")
    print("total: %d cases, %d failed" % (len(all_reports), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
