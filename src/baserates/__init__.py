"""Base-rate analytics for code size and growth of open-source project populations.

The pipeline ingests monthly project facts, validates them against a
small set of exclusion rules, derives yearly code-size and code-growth
metrics, and reports robust summary statistics alongside base-rate
posteriors. A line-classification counter produces size facts directly
from source trees.
"""

from .facts import (
    ActivityRecord,
    Enlistment,
    FactKey,
    ProjectMeta,
    SizeRecord,
    YearlyAggregate,
    join_facts,
)
from .ingest import IngestError, IngestReport, read_facts, read_metadata, write_facts
from .metrics import (
    GROWTHLESS_POLICIES,
    GROWTHLESS_UNDEFINED,
    GROWTHLESS_ZERO,
    aggregate_all,
    write_aggregates_csv,
)
from .report import Report, build_report, render_boxplot_svg, render_json, render_text
from .sloc import (
    FileCount,
    LanguageSyntax,
    LineCounts,
    TreeCount,
    classify_lines,
    count_file,
    count_tree,
    default_registry,
    load_registry,
    snapshot_to_size_facts,
)
from .stats import (
    BoxplotData,
    Metric,
    MetricSummary,
    Observation,
    base_rate_posterior,
    boxplot_data,
    quantile,
    summarize,
    tukey_fences,
)
from .validate import (
    SVN_URL_PATTERNS,
    ValidationReport,
    check_svn_enlistments,
    validate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityRecord",
    "BoxplotData",
    "Enlistment",
    "FactKey",
    "FileCount",
    "GROWTHLESS_POLICIES",
    "GROWTHLESS_UNDEFINED",
    "GROWTHLESS_ZERO",
    "IngestError",
    "IngestReport",
    "LanguageSyntax",
    "LineCounts",
    "Metric",
    "MetricSummary",
    "Observation",
    "ProjectMeta",
    "Report",
    "SVN_URL_PATTERNS",
    "SizeRecord",
    "TreeCount",
    "ValidationReport",
    "YearlyAggregate",
    "aggregate_all",
    "base_rate_posterior",
    "boxplot_data",
    "build_report",
    "check_svn_enlistments",
    "classify_lines",
    "count_file",
    "count_tree",
    "default_registry",
    "join_facts",
    "load_registry",
    "quantile",
    "read_facts",
    "read_metadata",
    "render_boxplot_svg",
    "render_json",
    "render_text",
    "snapshot_to_size_facts",
    "summarize",
    "tukey_fences",
    "validate_dataset",
    "write_aggregates_csv",
    "write_facts",
]
