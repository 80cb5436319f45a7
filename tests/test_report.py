"""Report assembly: JSON/text parity, golden outputs, determinism, SVG."""

from __future__ import annotations

import json

import pytest

from baserates.report import (
    NO_METRICS_NOTE,
    MetricSection,
    build_report,
    format_number,
    render_boxplot_svg,
    render_json,
    render_text,
)
from baserates.stats import Metric, Observation, boxplot_data, summarize
from baserates.validate import AfterCutoff, ValidationReport, table_rows
from conftest import GOLDEN, GOLDEN_FILES, run_pipeline

VALIDATION = ValidationReport(10, 2, 1, 7, 70, 1, 69, 11, AfterCutoff(6, 63, 8))
CONFIG = {
    "metadata": "metadata.jsonl",
    "facts": "facts.csv",
    "cutoff_year": 2012,
    "growthless_year_policy": "undefined",
    "out": "out",
    "svg": False,
}


def sample_report():
    values = [1.0, 1.0, 1.0, 1.0, 100.0]
    observations = [Observation(f"p{i}", 2012, v) for i, v in enumerate(values)]
    summary = summarize(observations, Metric.CS)
    return build_report(VALIDATION, [MetricSection(summary, 2)], CONFIG)


class TestBuildReport:
    def test_sections_pair_summary_with_boxplot(self):
        doc = sample_report()
        assert list(doc) == ["config", "validation", "metrics"]
        assert len(doc["metrics"]) == 1
        section = doc["metrics"][0]
        assert section["metric"] == "CS" and section["median"] == 1.0
        assert section["undefined_excluded"] == 2
        assert section["boxplot"]["outlier_values"] == [100.0]


class TestParity:
    def test_every_validation_row_appears_in_both_renderings(self):
        doc = sample_report()
        text = render_text(doc)
        for label, value in table_rows(VALIDATION.to_dict()):
            assert label in text
        flat = doc["validation"]
        assert flat["projects_collected"] == 10
        assert "10" in text

    def test_metric_fields_appear_in_both_renderings(self):
        doc = sample_report()
        text = render_text(doc)
        section = doc["metrics"][0]
        assert section["metric"] == "CS" and "CS" in text
        assert "Median project(s)" in text
        assert "Undefined excluded" in text
        assert "Whisker high" in text
        parsed = json.loads(render_json(doc))
        assert parsed == doc
        assert render_text(parsed) == text  # the text reads only the document

    def test_empty_metrics_note_in_both_renderings(self):
        doc = build_report(VALIDATION, [], CONFIG)
        assert doc["note"] == NO_METRICS_NOTE
        assert doc["metrics"] == []
        assert NO_METRICS_NOTE in render_text(doc)
        assert json.loads(render_json(doc))["note"] == NO_METRICS_NOTE

    def test_config_echo_in_both_renderings(self):
        doc = sample_report()
        text = render_text(doc)
        assert doc["config"]["cutoff_year"] == 2012
        assert "cutoff_year: 2012" in text
        assert "growthless_year_policy: undefined" in text

    def test_renderings_are_deterministic(self):
        first = sample_report()
        second = sample_report()
        assert render_json(first) == render_json(second)
        assert render_text(first) == render_text(second)


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1028, "1,028"),
            (27998.5, "27,998.5"),
            (115047.0, "115,047"),
            (1.054, "1.054"),
            (0.343, "0.343"),
            (0, "0"),
            (-1234, "-1,234"),
        ],
    )
    def test_rendering(self, value, expected):
        assert format_number(value) == expected


class TestAttainersFormatting:
    def build(self, names):
        values = list(range(1, len(names) + 1))
        observations = [
            Observation(name, 2012, float(v)) for name, v in zip(names, values)
        ]
        summary = summarize(observations, Metric.CGA)
        return build_report(VALIDATION, [MetricSection(summary)], CONFIG)

    def test_two_attainers_joined_with_and(self):
        # even count with distinct middles: both bracketing projects named
        text = render_text(self.build(["w", "x", "y", "z"]))
        assert "'x' (2012) and 'y' (2012)" in text

    def test_many_attainers_collapse_to_count(self):
        observations = [Observation(f"p{i}", 2012, 5.0) for i in range(10)]
        summary = summarize(observations, Metric.CGA)
        report = build_report(VALIDATION, [MetricSection(summary)], CONFIG)
        assert "'p0' (2012) and 9 others" in render_text(report)


class TestPercentRendering:
    def test_outlier_percent_rounded_to_whole(self):
        text = render_text(sample_report())
        assert "1 (20%)" in text  # 1 outlier of 5 observations

    def test_full_precision_rate_in_json(self):
        doc = sample_report()
        assert doc["metrics"][0]["outlier_rate"] == pytest.approx(0.2)


class TestSvg:
    def test_structure_and_labels(self):
        box = boxplot_data([1.0, 2.0, 3.0, 4.0, 5.0])
        svg = render_boxplot_svg(box, "CS boxplot")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "CS boxplot" in svg
        assert svg.count("<rect") == 1
        assert "median" in svg

    def test_outliers_beyond_zoom_are_invisible(self):
        box = boxplot_data([1.0, 1.0, 1.0, 1.0, 1000.0])
        svg = render_boxplot_svg(box, "zoomed")
        assert "<circle" not in svg  # 1000 lies far outside the padded whisker span
        # Outlier 20 lies inside the span 4-19 padded up to 21.25, so it is drawn.
        svg = render_boxplot_svg(boxplot_data([4, 6, 7, 7, 7, 12, 12, 19, 20]), "in range")
        assert svg.count("<circle") == 1
        assert '<circle cx="220.00" cy="73.64" r="3" fill="none" stroke="black"/>' in svg

    def test_escapes_markup(self):
        box = boxplot_data([1.0, 2.0, 3.0])
        svg = render_boxplot_svg(box, "<&>")
        assert "&lt;&amp;&gt;" in svg

    def test_deterministic(self):
        box = boxplot_data([1.0, 2.0, 3.0, 9.0])
        assert render_boxplot_svg(box, "t") == render_boxplot_svg(box, "t")


class TestGolden:
    def test_pipeline_reproduces_golden_outputs_byte_for_byte(self, tmp_path):
        out = run_pipeline(tmp_path)
        for name in GOLDEN_FILES:
            expected = (GOLDEN / name).read_bytes()
            produced = (out / name).read_bytes()
            assert produced == expected, f"golden mismatch for {name}"

    def test_two_runs_are_byte_identical(self, tmp_path):
        # separate interpreters with different string-hash seeds, so an output
        # that follows set iteration order differs between the two runs
        first = run_pipeline(tmp_path / "a", hash_seed=1)
        second = run_pipeline(tmp_path / "b", hash_seed=12345)
        for name in GOLDEN_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes()
