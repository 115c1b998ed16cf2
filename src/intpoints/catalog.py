"""Known reference values for plane integral point sets in general position."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    value: int
    note: str


# Smallest possible diameters of n-point plane integral point sets in
# general position (no three collinear, no four concyclic).  The values
# for n <= 6 are reproducible with this package's search engine at small
# diameter caps; n = 7 is certified by the shipped heptagon matrix.
MIN_DIAMETERS = {3: 1, 4: 8, 5: 73, 6: 174, 7: 22270}

# Product of the primes up to 29; the characteristic-restricted search
# mode admits exactly the characteristics dividing this bound.
CHARACTERISTIC_SEARCH_BOUND = 6469693230
CHARACTERISTIC_SEARCH_BOUND_FACTORS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def entries() -> list[CatalogEntry]:
    out = [
        CatalogEntry(
            f"min_diameter_general_position n={n}",
            d,
            "smallest diameter of an n-point integral set in general position",
        )
        for n, d in sorted(MIN_DIAMETERS.items())
    ]
    out.append(
        CatalogEntry(
            "heptagon_characteristic",
            2002,
            "characteristic (2*7*11*13) of both known diameter-minimal heptagons",
        )
    )
    out.append(
        CatalogEntry(
            "smallest_6_2_cluster_diameter",
            1886,
            "smallest 6-point planar cluster with integral coordinates and distances "
            "(equivalently: general position, characteristic 1)",
        )
    )
    out.append(
        CatalogEntry(
            "restricted_search_characteristic_bound",
            CHARACTERISTIC_SEARCH_BOUND,
            "= " + "*".join(str(p) for p in CHARACTERISTIC_SEARCH_BOUND_FACTORS)
            + "; characteristic-restricted searches admit exactly the characteristics dividing it",
        )
    )
    return out
