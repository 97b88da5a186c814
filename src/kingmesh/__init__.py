"""Exact mesh-pattern statistics on king permutations.

The package enumerates king permutations (adjacent entries always differ by
more than one), counts mesh-pattern occurrences under the shaded-region
semantics, builds the known closed-form generating functions with exact
truncated power-series arithmetic over Z[u], and mechanically cross-checks
closed forms, functional equations and brute-force enumeration against each
other.

Importing the package loads none of its modules: each public name below is
read from its home module, which is imported on the first read (PEP 562), so
that a command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the home module of every public name
_HOMES = {
    "kings": (
        "KingClass", "complement", "count_class", "count_kings", "enumerate_kings", "in_class",
        "is_king", "reduced", "reverse",
    ),
    "mesh": (
        "CatalogEntry", "CompiledPatterns", "MeshPattern", "PatternSyntaxError", "avoids",
        "catalog", "catalog_pattern", "count_occurrences", "occurrence_counts", "parse_pattern",
        "render_pattern",
    ),
    "series": ("NonUnitConstantTermError", "Series", "UPoly", "format_upoly", "parse_upoly"),
    "gfs": (
        "avoidance_series", "class_series", "distribution_series", "king_series",
        "series_by_name", "strong_point_series",
    ),
    "oracle": ("DistributionTable", "distribution_table", "distribution_tables"),
    "verify": ("CheckReport", "verify_all", "verify_equation", "verify_theorem"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
