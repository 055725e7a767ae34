"""plval's count of its own work: calls, one always-on Counter that each
counted step adds to where it runs.

    hulls, facets         convex.hull, convex._facets (brute-force facets)
    builds                polytope._finish (polytope builds past the hull)
    splits                convex.split (stacked cuts)
    cuts, assemblies      overlay._pieces_pairwise, overlay.assemble_cells
    merge_groups, merged  overlay._merges: the groups it tests, those merged
    locates               plfunction.evaluate_each (batched point locations)
    densities, means      integration.value_density, ValueDensity.means
    crossings             integration._crossings (crossing searches)

plval only adds to it and no computation reads it, so no result depends
on it.  `plval verify --timing` clears it before each suite and reports
the suite's COUNTS; other callers read differences.
"""

import collections

calls = collections.Counter()

# the keys `plval verify --timing` reports per suite, in column order
COUNTS = ("hulls", "builds", "cuts", "assemblies", "splits", "locates", "densities", "means", "crossings")
