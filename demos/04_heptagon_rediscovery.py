"""Re-derive the seven-point certificates from nothing but search parameters.

Fixing the diameter and the characteristic turns candidate generation into
table lookups, so the seven-point sets fall out in seconds.  At diameter
66810 = 3 * 22270 with characteristic 2002 the search finds the shipped
second certificate and the first one scaled by 3, and no further heptagon.
"""

import time
from pathlib import Path

from intpoints import (
    CharFilter,
    DistanceMatrix,
    SearchConfig,
    canonical_form,
    parse_matrix_text,
    search,
    verify,
)

DATA = Path(__file__).resolve().parent.parent / "data"
known1 = parse_matrix_text((DATA / "heptagon1.txt").read_text())
known2 = parse_matrix_text((DATA / "heptagon2.txt").read_text())

t0 = time.perf_counter()
found = list(search(SearchConfig(7, 22270, 22270, CharFilter.fixed(2002))))
print(f"diameter 22270, characteristic 2002: {len(found)} set(s) in {time.perf_counter() - t0:.1f}s")
print("matches the shipped certificate:", found == [known1])

t0 = time.perf_counter()
found = list(search(SearchConfig(7, 66810, 66810, CharFilter.fixed(2002))))
print(f"\ndiameter 66810, characteristic 2002: {len(found)} set(s) in {time.perf_counter() - t0:.1f}s")
scaled1 = canonical_form(DistanceMatrix([[3 * x for x in row] for row in known1.rows]))[0]
for m in found:
    if m == known2:
        tag = "the shipped second certificate"
    elif m == scaled1:
        tag = "the first certificate scaled by 3"
    else:
        tag = "a further heptagon"
    print(f"\n{tag} (verify passes: {verify(m).passed}):")
    for row in m.rows:
        print("   ", row)
