"""Base-rate analytics for code size and growth of open-source project populations.

The pipeline ingests monthly project facts, validates them against a
small set of exclusion rules, derives yearly code-size and code-growth
metrics, and reports robust summary statistics alongside base-rate
posteriors. A line counter writes the code, comment and blank line
counts of a source tree, per file and in total, as CSV.

Each exported name loads its module on first use (PEP 562), so a caller
that only counts lines never imports the analysis modules.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every exported name and the module that defines it: the surface README
# "Library use" lists, name for name. The CLI's own helpers stay importable
# from their modules, unpromised.
_EXPORTS = {
    **dict.fromkeys(
        ["Enlistment", "FactKey", "ProjectMeta", "SizeRecord", "YearlyAggregate",
         "join_facts"],
        "facts",
    ),
    **dict.fromkeys(["IngestError", "IngestReport", "read_facts", "read_metadata"], "ingest"),
    **dict.fromkeys(["aggregate_all"], "metrics"),
    **dict.fromkeys(
        ["FileCount", "LanguageSyntax", "LineCounts", "TreeCount", "classify_lines",
         "count_file", "count_tree", "default_registry"],
        "sloc",
    ),
    **dict.fromkeys(
        ["BoxplotData", "Metric", "MetricSummary", "Observation", "base_rate_posterior",
         "boxplot_data", "summarize"],
        "stats",
    ),
    **dict.fromkeys(["ValidationReport", "validate_dataset"], "validate"),
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
