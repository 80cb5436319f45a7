"""Value types, the results included: field names, reprs and immutability."""

from __future__ import annotations

import pytest

from baserates import sloc
from baserates.facts import Enlistment, FactKey, ProjectMeta, SizeRecord, YearlyAggregate
from baserates.ingest import IngestReport, RecordDiagnostic
from baserates.report import MetricSection
from baserates.sloc import FileCount, LanguageSyntax, LineCounts, TreeCount
from baserates.stats import BoxplotData, Metric, MetricSummary
from baserates.validate import AfterCutoff, ValidationReport
from conftest import SLOC_DIR

ENLISTMENT = Enlistment("svn", "http://x/trunk")
AFTER = AfterCutoff(1, 12, 1)
BOX = BoxplotData(1.0, 2.0, 3.0, 0.5, 3.5, (9.0,))
SUMMARY = MetricSummary(Metric.CS, 10.0, (("p", 2012),), 0.0, 1, 0, BOX)
SECTION = MetricSection(SUMMARY, 1)
COUNTS = LineCounts(1, 2, 3)
FILE = FileCount("a.c", "c", COUNTS)
DIAGNOSTIC = RecordDiagnostic("m.jsonl", 3, "bad")
VALIDATION = ValidationReport(3, 1, 1, 1, 14, 2, 12, 1, AFTER)

# Each type's sample, its field names in order, and the sample's repr.
IMMUTABLE = [
    (ENLISTMENT, "kind url", "Enlistment(kind='svn', url='http://x/trunk')"),
    (
        ProjectMeta("p", (ENLISTMENT,)),
        "name enlistments",
        "ProjectMeta(name='p', enlistments=(Enlistment(kind='svn', url='http://x/trunk'),))",
    ),
    (
        SizeRecord(FactKey("p", 2012, 6), -5),
        "key loc",
        "SizeRecord(key=FactKey(project='p', year=2012, month=6), loc=-5)",
    ),
    (
        YearlyAggregate("p", 2012, 10, 2, 1.5, 0, 12),
        "project year cs cga cgi age months_present",
        "YearlyAggregate(project='p', year=2012, cs=10, cga=2, cgi=1.5, age=0,"
        " months_present=12)",
    ),
    (DIAGNOSTIC, "file line reason", "RecordDiagnostic(file='m.jsonl', line=3, reason='bad')"),
    (AFTER, "projects months years", "AfterCutoff(projects=1, months=12, years=1)"),
    (
        VALIDATION,
        "projects_collected excluded_missing_data excluded_svn_config projects_remaining"
        " months_before_rule3 excluded_negative_size months_remaining years_remaining"
        " after_cutoff",
        "ValidationReport(projects_collected=3, excluded_missing_data=1,"
        " excluded_svn_config=1, projects_remaining=1, months_before_rule3=14,"
        " excluded_negative_size=2, months_remaining=12, years_remaining=1,"
        " after_cutoff=AfterCutoff(projects=1, months=12, years=1))",
    ),
    (
        SUMMARY,
        "metric median median_attainers iqr observations outliers boxplot",
        "MetricSummary(metric=<Metric.CS: 'CS'>, median=10.0, median_attainers=(('p', 2012),),"
        " iqr=0.0, observations=1, outliers=0, boxplot=BoxplotData(q1=1.0, median=2.0, q3=3.0,"
        " whisker_low=0.5, whisker_high=3.5, outlier_values=(9.0,)))",
    ),
    (
        BOX,
        "q1 median q3 whisker_low whisker_high outlier_values",
        "BoxplotData(q1=1.0, median=2.0, q3=3.0, whisker_low=0.5, whisker_high=3.5,"
        " outlier_values=(9.0,))",
    ),
    (
        SECTION,
        "summary undefined_excluded",
        "MetricSection(summary=MetricSummary(metric=<Metric.CS: 'CS'>, median=10.0,"
        " median_attainers=(('p', 2012),), iqr=0.0, observations=1, outliers=0,"
        " boxplot=BoxplotData(q1=1.0, median=2.0, q3=3.0, whisker_low=0.5, whisker_high=3.5,"
        " outlier_values=(9.0,))), undefined_excluded=1)",
    ),
    (
        LanguageSyntax("c", (".c",), ("//",), (("/*", "*/"),), ('"',)),
        "name extensions line_comments block_comments string_delimiters",
        "LanguageSyntax(name='c', extensions=('.c',), line_comments=('//',),"
        " block_comments=(('/*', '*/'),), string_delimiters=('\"',))",
    ),
    (COUNTS, "code comment blank", "LineCounts(code=1, comment=2, blank=3)"),
    (
        FILE,
        "path language counts",
        "FileCount(path='a.c', language='c', counts=LineCounts(code=1, comment=2, blank=3))",
    ),
    (
        IngestReport(1, 2, [DIAGNOSTIC]),
        "projects_read records_read malformed",
        "IngestReport(projects_read=1, records_read=2,"
        " malformed=[RecordDiagnostic(file='m.jsonl', line=3, reason='bad')])",
    ),
    (
        TreeCount([FILE], {"c": COUNTS}, COUNTS, 1, ["x: y"]),
        "files by_language total skipped unreadable",
        "TreeCount(files=[FileCount(path='a.c', language='c', counts=LineCounts(code=1,"
        " comment=2, blank=3))], by_language={'c': LineCounts(code=1, comment=2, blank=3)},"
        " total=LineCounts(code=1, comment=2, blank=3), skipped=1, unreadable=['x: y'])",
    ),
]


def ids(cases):
    return [type(value).__name__ for value, _, _ in cases]


@pytest.mark.parametrize("value, fields, text", IMMUTABLE, ids=ids(IMMUTABLE))
def test_immutable_type_fields_repr_and_no_instance_dict(value, fields, text):
    assert type(value)._fields == tuple(fields.split())
    assert repr(value) == text
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        setattr(value, type(value)._fields[0], None)
    # A value is its fields as a tuple: it unpacks and compares as one.
    assert value == tuple(getattr(value, name) for name in fields.split())


def test_count_tree_compiles_one_token_regex_per_syntax():
    sloc._tokens.cache_clear()
    tree = sloc.count_tree(SLOC_DIR, sloc.default_registry())
    languages = {file.language for file in tree.files}
    assert len(languages) > 1
    info = sloc._tokens.cache_info()
    assert (info.misses, info.hits) == (len(languages), len(tree.files) - len(languages))
    # An equal syntax built again shares the compiled regex.
    clike = sloc.default_registry()[0]
    assert sloc._tokens(clike) is sloc._tokens(sloc.default_registry()[0]) is not None
