"""Summarise benchmark results files, or compare a parent against a change.

    python3 perfbench/compare.py RESULTS_DIR              # spread per metric
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR    # verdict per metric

Reads the untraced results files (*-trace0-*.json) that run.py writes to
.perfbench/results/.  For each workload and end-to-end metric it prints
the run count, the median, the quartiles and the spread (interquartile
distance over the median) against the metric's bound in BENCHMARK.json.
With two directories it also prints the change's median against the
parent's, marks a metric worse by more than its bound as REGRESSION and
one whose parent spread exceeds its bound as unresolved, and flags every
workload whose input fingerprint differs between the two sides for the
same seed: such a comparison measures different inputs.  Exits 1 when
any regression, fingerprint mismatch or failed run is found.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: [record, ...]} from the untraced results files under path."""
    out = {}
    for fn in sorted(glob.glob(os.path.join(path, "*-trace0-*.json"))):
        with open(fn) as fh:
            rec = json.load(fh)
        out.setdefault(rec["workload"], []).append(rec)
    return out


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def values(records, name):
    return [r["result"]["metrics"][name]["value"] for r in records if name in r["result"]["metrics"]]


def main(argv):
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sides = [load(p) for p in argv]
    bad = False
    for wl in spec["workloads"]:
        name = wl["name"]
        recs = [side.get(name, []) for side in sides]
        if not all(recs):
            print("%s: no results on %s" % (name, "both sides" if len(recs) == 2 else "this side"))
            continue
        failed = sum(r["result"]["failed"] for side in recs for r in side)
        attempted = sum(r["result"]["attempted"] for side in recs for r in side)
        print("%s: %s runs, %d of %d cases failed" % (name, "+".join(str(len(s)) for s in recs), failed, attempted))
        bad |= failed > 0 or not all(r["result"]["correct"] for side in recs for r in side)
        if len(recs) == 2:
            prints = [{r["seed"]: r["input_fingerprint"] for r in side} for side in recs]
            differ = sorted(s for s in prints[0] if s in prints[1] and prints[0][s] != prints[1][s])
            if differ:
                bad = True
                print("  INPUTS DIFFER for seeds %s: the two sides measured different inputs" % differ)
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            med, q1, q3, spread = stats(values(recs[0], m))
            line = "  %-12s %-4s median %.6g  q1 %.6g  q3 %.6g  spread %.3f (bound %.2f)" % (
                m, metric["unit"], med, q1, q3, spread, bound)
            if len(recs) == 2:
                cmed = stats(values(recs[1], m))[0]
                worse = (cmed - med) / med if metric["better"] == "lower" else (med - cmed) / med
                verdict = "REGRESSION" if worse > bound else "ok"
                if spread > bound and m != "setup_s":
                    verdict = "unresolved"
                bad |= verdict == "REGRESSION"
                line += "  change %.6g (%+.1f%% worse) %s" % (cmed, 100 * worse, verdict)
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
