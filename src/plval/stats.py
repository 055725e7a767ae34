"""plval's record of its own work, always on, each part added to where its
step runs.  calls counts steps:

    hulls, facets         convex.hull, convex._facets (brute-force facets)
    builds                polytope._finish (polytope builds past the hull)
    splits                convex.split (stacked cuts)
    cuts, assemblies      overlay._pieces_pairwise, overlay.assemble_cells
    merge_groups, merged  overlay._merges: the groups it tests, those merged
    locates               plfunction.evaluate_each (batched point locations)
    densities, means      integration.value_density, ValueDensity.means
    crossings             integration._crossings (crossing searches)

seconds times the stages cut (overlay._pieces_pairwise) and assemble
(overlay.assemble_cells, tents included), and build, the polytope builds
(polytope._hull and polytope._finish, hull included; random_polytope's
rejected draws too).  worst keeps each overlay
check's largest value over its bound, so a margin at most 1 passes:
cover (overlay._cover_failures), fill and spread (assemble_cells) and
sample (overlay._sample_failures).  plval only adds to them and no
computation reads them, so no result depends on them.  `plval verify
--timing` clears them before each suite and reports its row(); other
callers read differences.
"""

import collections

import numpy as np

calls, seconds, worst = collections.Counter(), collections.Counter(), collections.Counter()

# the keys `plval verify --timing` reports per suite, in column order
COUNTS = ("hulls", "builds", "cuts", "assemblies", "splits", "locates", "densities", "means", "crossings")
SECONDS, MARGINS = ("cut", "assemble", "build"), ("cover", "fill", "spread", "sample")
COLUMNS = ("wall_s",) + COUNTS + tuple(key + "_s" for key in SECONDS) + MARGINS


def clear() -> None:
    for record in (calls, seconds, worst):
        record.clear()


def row() -> list:
    """The records under COLUMNS after wall_s, in column order."""
    return [calls[k] for k in COUNTS] + [seconds[k] for k in SECONDS] + [worst[k] for k in MARGINS]


def margin(key: str, ratios) -> None:
    """worst[key] = the largest of its ratios (values over bounds) so far."""
    worst[key] = max(worst[key], float(np.asarray(ratios).max(initial=0.0)))
