"""Exact-arithmetic toolkit for plane integral point sets in general position.

Searching, embedding and verifying sets of plane points with pairwise
integer distances, no three on a line and no four on a circle, plus the
relaxed analogue over Z_n x Z_n.
"""

from .arith import squarefree_part
from .modplane import (
    ModContext,
    ModSearchResult,
    mod_integral_distance,
    mod_is_collinear,
    mod_max_general_position,
    mod_on_circle,
)
from .pointset import (
    DistanceMatrix,
    EmbeddedPointSet,
    VerificationReport,
    canonical_form,
    distances_from_embedding,
    embed,
    is_canonical,
    is_collinear_triple,
    is_concyclic_or_collinear,
    parse_matrix_text,
    pointset_characteristic,
    triangle_characteristic,
    verify,
)
from .search import (
    CharFilter,
    SearchConfig,
    enumerate_triangles,
    minimum_diameter,
    search,
)

__all__ = [
    "squarefree_part",
    "ModContext",
    "ModSearchResult",
    "mod_integral_distance",
    "mod_is_collinear",
    "mod_max_general_position",
    "mod_on_circle",
    "DistanceMatrix",
    "EmbeddedPointSet",
    "VerificationReport",
    "canonical_form",
    "distances_from_embedding",
    "embed",
    "is_canonical",
    "is_collinear_triple",
    "is_concyclic_or_collinear",
    "parse_matrix_text",
    "pointset_characteristic",
    "triangle_characteristic",
    "verify",
    "CharFilter",
    "SearchConfig",
    "enumerate_triangles",
    "minimum_diameter",
    "search",
]

__version__ = "0.1.0"
