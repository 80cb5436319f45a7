"""Base-rate analytics for code size and growth of open-source project populations.

The pipeline ingests monthly project facts, validates them against a
small set of exclusion rules, derives yearly code-size and code-growth
metrics, and reports robust summary statistics alongside base-rate
posteriors. A line-classification counter produces size facts directly
from source trees.

Each exported name loads its module on first use (PEP 562), so a caller
that only counts lines never imports the analysis modules.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every exported name and the module that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ["ActivityRecord", "Enlistment", "FactKey", "ProjectMeta", "SizeRecord",
         "YearlyAggregate", "join_facts"],
        "facts",
    ),
    **dict.fromkeys(
        ["IngestError", "IngestReport", "read_facts", "read_metadata", "write_facts"],
        "ingest",
    ),
    **dict.fromkeys(
        ["GROWTHLESS_POLICIES", "GROWTHLESS_UNDEFINED", "GROWTHLESS_ZERO",
         "aggregate_all", "write_aggregates_csv"],
        "metrics",
    ),
    **dict.fromkeys(
        ["Report", "build_report", "render_boxplot_svg", "render_json", "render_text"],
        "report",
    ),
    **dict.fromkeys(
        ["FileCount", "LanguageSyntax", "LineCounts", "TreeCount", "classify_lines",
         "count_file", "count_tree", "default_registry", "load_registry",
         "snapshot_to_size_facts"],
        "sloc",
    ),
    **dict.fromkeys(
        ["BoxplotData", "Metric", "MetricSummary", "Observation", "base_rate_posterior",
         "boxplot_data", "quantile", "summarize", "tukey_fences"],
        "stats",
    ),
    **dict.fromkeys(
        ["SVN_URL_PATTERNS", "ValidationReport", "check_svn_enlistments",
         "validate_dataset"],
        "validate",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
