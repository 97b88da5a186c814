"""Exact mesh-pattern statistics on king permutations.

The package enumerates king permutations (adjacent entries always differ by
more than one), counts mesh-pattern occurrences under the shaded-region
semantics, builds the known closed-form generating functions with exact
truncated power-series arithmetic over Z[u], and mechanically cross-checks
closed forms, functional equations and brute-force enumeration against each
other.
"""

from .kings import (
    KingClass,
    complement,
    count_class,
    count_kings,
    enumerate_kings,
    in_class,
    is_king,
    reduced,
    reverse,
)
from .mesh import (
    CatalogEntry,
    CompiledPatterns,
    MeshPattern,
    PatternSyntaxError,
    avoids,
    catalog,
    catalog_pattern,
    count_occurrences,
    occurrence_counts,
    parse_pattern,
    render_pattern,
)
from .series import NonUnitConstantTermError, Series, UPoly, format_upoly, parse_upoly
from .gfs import (
    avoidance_series,
    class_series,
    distribution_series,
    king_series,
    series_by_name,
    strong_point_series,
)
from .oracle import DistributionTable, distribution_table, distribution_tables
from .verify import CheckReport, verify_all, verify_equation, verify_theorem

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CheckReport",
    "CompiledPatterns",
    "DistributionTable",
    "KingClass",
    "MeshPattern",
    "NonUnitConstantTermError",
    "PatternSyntaxError",
    "Series",
    "UPoly",
    "avoidance_series",
    "avoids",
    "catalog",
    "catalog_pattern",
    "class_series",
    "complement",
    "count_class",
    "count_kings",
    "count_occurrences",
    "distribution_series",
    "distribution_table",
    "distribution_tables",
    "enumerate_kings",
    "format_upoly",
    "in_class",
    "is_king",
    "king_series",
    "occurrence_counts",
    "parse_pattern",
    "parse_upoly",
    "reduced",
    "render_pattern",
    "reverse",
    "series_by_name",
    "strong_point_series",
    "verify_all",
    "verify_equation",
    "verify_theorem",
]
