"""Assembly of validation accounting and metric summaries into the report document.

``build_report`` builds one document per run, the dict that report.json
holds; the JSON and text renderings are both generated from it, so every
field present in one is present in the other and identical inputs always
yield byte-identical output.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .stats import BoxplotData, MetricSummary
from .validate import ValidationReport, table_rows

NO_METRICS_NOTE = "no metrics computed"


class MetricSection(NamedTuple):
    summary: MetricSummary
    undefined_excluded: int = 0


def build_report(validation: ValidationReport, sections, config: dict) -> dict:
    """The report document of the validation accounting, metric sections and run configuration."""
    doc = {
        "config": {key: config[key] for key in sorted(config)},
        "validation": validation.to_dict(),
        "metrics": [_section_to_dict(section) for section in sections],
    }
    if not doc["metrics"]:
        doc["note"] = NO_METRICS_NOTE
    return doc


def _section_to_dict(section: MetricSection) -> dict:
    summary = section.summary
    fields = summary._asdict()
    box = fields.pop("boxplot")  # it goes last, after the keys that follow from the summary
    # A key given again keeps its first place, so the fields stay in MetricSummary's order.
    return {
        **fields,
        "metric": summary.metric.value,
        "median_attainers": [
            {"project": project, "year": year} for project, year in summary.median_attainers
        ],
        "outlier_rate": summary.outlier_rate,
        "undefined_excluded": section.undefined_excluded,
        "boxplot": {**box._asdict(), "outlier_values": list(box.outlier_values)},
    }


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def format_number(value) -> str:
    """Thousands-separated integers; floats trimmed to six significant digits."""
    if isinstance(value, int):
        return f"{value:,}"
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return f"{int(number):,}"
    return f"{number:,.6g}"


def _format_config_value(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _format_attainers(attainers: list[dict]) -> str:
    parts = [f"'{a['project']}' ({a['year']})" for a in attainers]
    if len(parts) <= 2:
        return " and ".join(parts)
    return f"{parts[0]} and {len(parts) - 1} others"


def _render_table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(row))))
    return lines


def _metric_table(metrics: list[dict]) -> list[str]:
    rows = [
        [
            "Metric",
            "Median",
            "Median project(s)",
            "IQR",
            "Observations",
            "Outliers (%)",
            "Undefined excluded",
        ]
    ]
    for m in metrics:
        percent = round(m["outlier_rate"] * 100)
        rows.append(
            [
                m["metric"],
                format_number(m["median"]),
                _format_attainers(m["median_attainers"]),
                format_number(m["iqr"]),
                format_number(m["observations"]),
                f"{m['outliers']:,} ({percent}%)",
                format_number(m["undefined_excluded"]),
            ]
        )
    return _render_table(rows)


def _boxplot_table(metrics: list[dict]) -> list[str]:
    rows = [
        [
            "Metric",
            "Whisker low",
            "Q1",
            "Median",
            "Q3",
            "Whisker high",
            "Beyond whiskers",
        ]
    ]
    for m in metrics:
        box = m["boxplot"]
        values = (box["whisker_low"], box["q1"], box["median"], box["q3"], box["whisker_high"],
                  len(box["outlier_values"]))
        rows.append([m["metric"], *map(format_number, values)])
    return _render_table(rows)


def _heading(title: str, rule: str = "-") -> list[str]:
    return [title, rule * len(title)]


def render_text(doc: dict) -> str:
    """Aligned text tables: configuration, validation accounting, metric summary."""
    out = [*_heading("Code size and growth base rates", "="), "", *_heading("Configuration")]
    out += [f"{key}: {_format_config_value(value)}" for key, value in doc["config"].items()]
    out += ["", *_heading("Data set validation")]
    rows = table_rows(doc["validation"])
    label_width = max(len(label) for label, _ in rows)
    value_width = max(len(format_number(value)) for _, value in rows)
    for label, value in rows:
        out.append(f"{label:<{label_width}}  {format_number(value):>{value_width}}")
    out += ["", *_heading("Metric summary")]
    if doc["metrics"]:
        out += _metric_table(doc["metrics"])
        out += ["", *_heading("Boxplot summary")]
        out += _boxplot_table(doc["metrics"])
    else:
        out.append(doc["note"])
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_boxplot_svg(box: BoxplotData, title: str) -> str:
    """Standalone SVG boxplot zoomed so the whiskers span most of the axis.

    The vertical range is the whisker span padded by 15 percent on each
    side, so outliers beyond that range are not visible by design.
    """
    width, height = 360.0, 480.0
    margin_top, margin_bottom = 48.0, 32.0
    plot_height = height - margin_top - margin_bottom
    span = box.whisker_high - box.whisker_low
    pad = span * 0.15 if span > 0 else max(abs(box.whisker_high), 1.0) * 0.1
    y_min = box.whisker_low - pad
    y_max = box.whisker_high + pad

    def y(value: float) -> float:
        return margin_top + (y_max - value) / (y_max - y_min) * plot_height

    cx = 220.0
    half = 60.0
    cap = 30.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}"'
        f' viewBox="0 0 {width:g} {height:g}">',
        f"  <title>{_escape(title)}</title>",
        f'  <text x="{cx:g}" y="24" text-anchor="middle" font-family="sans-serif"'
        f' font-size="14">{_escape(title)}</text>',
    ]
    # whisker stems and caps
    for lo, hi in ((box.whisker_low, box.q1), (box.q3, box.whisker_high)):
        parts.append(
            f'  <line x1="{cx:.2f}" y1="{y(lo):.2f}" x2="{cx:.2f}" y2="{y(hi):.2f}"'
            ' stroke="black" stroke-dasharray="4 3"/>'
        )
    for value in (box.whisker_low, box.whisker_high):
        parts.append(
            f'  <line x1="{cx - cap:.2f}" y1="{y(value):.2f}" x2="{cx + cap:.2f}"'
            f' y2="{y(value):.2f}" stroke="black"/>'
        )
    # box and median
    parts.append(
        f'  <rect x="{cx - half:.2f}" y="{y(box.q3):.2f}" width="{2 * half:.2f}"'
        f' height="{y(box.q1) - y(box.q3):.2f}" fill="none" stroke="black"/>'
    )
    parts.append(
        f'  <line x1="{cx - half:.2f}" y1="{y(box.median):.2f}" x2="{cx + half:.2f}"'
        f' y2="{y(box.median):.2f}" stroke="black" stroke-width="2"/>'
    )
    # outliers that fall inside the zoomed range
    for value in box.outlier_values:
        if y_min <= value <= y_max:
            parts.append(
                f'  <circle cx="{cx:.2f}" cy="{y(value):.2f}" r="3" fill="none"'
                ' stroke="black"/>'
            )
    # axis labels for the five summary values
    for label, value in (
        ("whisker high", box.whisker_high),
        ("q3", box.q3),
        ("median", box.median),
        ("q1", box.q1),
        ("whisker low", box.whisker_low),
    ):
        parts.append(
            f'  <text x="{cx - half - 12:.2f}" y="{y(value) + 4:.2f}" text-anchor="end"'
            f' font-family="sans-serif" font-size="11">{label}: {format_number(value)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
