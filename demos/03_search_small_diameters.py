"""Reproduce the minimum diameters of small point sets in general position.

The search walks diameters upward; for each diameter d it groups candidate
points over the base edge (0,0)-(d,0) by characteristic and extends cliques
of the compatibility graph.  The smallest diameters admitting 3, 4, 5 and 6
points are 1, 8, 73 and 174.  The n=6 scan takes a few seconds; pass
--skip-six to leave it out.
"""

import sys
import time

from intpoints import SearchConfig, minimum_diameter, search

for n, cap in ((3, 10), (4, 20), (5, 100)):
    t0 = time.perf_counter()
    d = minimum_diameter(n, cap)
    print(f"minimum diameter for n={n}: {d}  ({time.perf_counter() - t0:.2f}s)")

print("\nthe (unique) smallest 4-point set:")
for m in search(SearchConfig(4, 8, 8)):
    for row in m.rows:
        print("   ", row)

if "--skip-six" not in sys.argv:
    t0 = time.perf_counter()
    d = minimum_diameter(6, 200)
    print(f"\nminimum diameter for n=6: {d}  ({time.perf_counter() - t0:.1f}s)")
