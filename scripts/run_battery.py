#!/usr/bin/env python3
"""Run the default verification battery and write JSONL + CSV reports.

Usage: python scripts/run_battery.py [--seed N] [--out DIR]

Each suite's line gives the number of hulls it built (calls to
convex.hull, from polytopes and convex supports) next to its seconds, and
ends with the SHA-256 of its JSONL bytes as `plval verify` writes them,
so two checkouts' outputs at one seed can be compared line by line.
summary.csv ends in each suite's wall seconds, as with `plval verify
--timing`.
"""

import argparse
import hashlib
import pathlib
import sys
import time

from plval import convex
from plval.verify import default_battery, reports_to_jsonl, summarize_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("battery_out"))
    args = ap.parse_args()

    hulls = [0]
    hull = convex.hull

    def counted_hull(points):
        hulls[0] += 1
        return hull(points)

    convex.hull = counted_hull
    args.out.mkdir(parents=True, exist_ok=True)
    all_reports, wall = [], {}
    for name, thunk in default_battery(args.seed):
        hulls[0] = 0
        t0 = time.perf_counter()
        reports = thunk()
        wall[name] = time.perf_counter() - t0
        fails = sum(1 for r in reports if r.status == "fail")
        digest = hashlib.sha256(reports_to_jsonl(reports).encode()).hexdigest()
        print(
            "%-24s %3d cases  %d failed  %.3fs  %4d hulls  sha256 %s"
            % (name, len(reports), fails, wall[name], hulls[0], digest)
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
