"""Correctness gate applied to every timed run of the benchmark.

Each check returns a list of error strings; an empty list means the run
passed. The expected values come from the generator's sidecar (see
gen.py), from stdlib ``statistics`` and from the input files' bytes,
never from baserates itself.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import gen

# Outputs `analyze --svg` writes for a data set whose three metrics are all defined.
ANALYZE_OUTPUTS = (
    "report.json",
    "report.txt",
    "yearly_aggregates.csv",
    "boxplot_cs.svg",
    "boxplot_cga.svg",
    "boxplot_cgi.svg",
)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_analyze(exit_code: int, out_dir, sidecar: dict) -> list[str]:
    """Exit code, validation accounting and summary statistics of one analyze run."""
    if exit_code != 0:
        return [f"analyze exited {exit_code}"]
    out_dir = Path(out_dir)
    missing = [name for name in ANALYZE_OUTPUTS if not (out_dir / name).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    errors = []
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    validation = report["validation"]
    if validation != sidecar["validation"]:
        errors.append(f"validation {validation} != expected {sidecar['validation']}")

    # The sidecar puts every joined month in exactly one bucket, so a table
    # equal to it accounts for every month; the survivors must also be the
    # months behind the aggregates.
    after = validation["after_cutoff"]
    with (out_dir / "yearly_aggregates.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if sum(int(row["months_present"]) for row in rows) != after["months"]:
        errors.append("yearly_aggregates.csv months_present do not sum to the surviving months")
    samples = {
        "CS": [float(r["cs"]) for r in rows if int(r["year"]) == gen.CUTOFF_YEAR],
        "CGa": [float(r["cga"]) for r in rows if r["cga"] != ""],
        "CGi": [float(r["cgi"]) for r in rows if r["cgi"] != ""],
    }
    sections = {m["metric"]: m for m in report["metrics"]}
    if set(sections) != {name for name, values in samples.items() if values}:
        errors.append(f"report has metrics {sorted(sections)}")
    for name, section in sections.items():
        values = samples.get(name, [])
        if section["observations"] != len(values):
            errors.append(f"{name}: {section['observations']} observations, CSV has {len(values)}")
            continue
        q1, median, q3 = _quartiles(values)
        if not (_close(section["median"], median) and _close(section["iqr"], q3 - q1)):
            errors.append(
                f"{name}: median/IQR {section['median']}/{section['iqr']}"
                f" != statistics.quantiles {median}/{q3 - q1}"
            )
    return errors


def _read_count_csv(path) -> tuple[dict, dict]:
    """Per-file rows and per-language totals ("(all)" included) of a count CSV."""
    files, totals = {}, {}
    with Path(path).open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != ["path", "language", "code", "comment", "blank"]:
            raise ValueError("unexpected count CSV header")
        for path_cell, language, *counts in reader:
            target = totals if path_cell == "(total)" else files
            target[language if path_cell == "(total)" else path_cell] = (
                language,
                *map(int, counts),
            )
    return files, totals


def _physical_lines(data: bytes) -> int:
    """Physical lines as README defines them: a final unterminated line counts."""
    return data.count(b"\n") + (1 if data and not data.endswith(b"\n") else 0)


def check_count(exit_code: int, csv_path, root, sidecar: dict) -> list[str]:
    """Exit code, per-file counts and totals of one count run over ``root``."""
    if exit_code != 0:
        return [f"count exited {exit_code}"]
    try:
        files, totals = _read_count_csv(csv_path)
    except (OSError, ValueError) as exc:
        return [f"unreadable count CSV: {exc}"]
    errors = []
    expected = {
        rel: (f["language"], f["code"], f["comment"], f["blank"])
        for rel, f in sidecar["files"].items()
    }
    if files != expected:
        wrong = sorted(set(files.items()) ^ set(expected.items()))[:3]
        errors.append(f"per-file counts differ from the generated truth, e.g. {wrong}")
    for rel, (_, code, comment, blank) in files.items():
        physical = _physical_lines((Path(root) / rel).read_bytes())
        if code + comment + blank != physical:
            errors.append(f"{rel}: code + comment + blank != {physical} physical lines")
            break
    want = {lang: (lang, *c) for lang, c in sidecar["by_language"].items()}
    want["(all)"] = ("(all)", *sidecar["total"])
    if totals != want:
        errors.append(f"totals {totals} != expected {want}")
    return errors


def check_identical(dir_a, dir_b, names) -> list[str]:
    """Files that differ, or are missing, between two output directories."""
    errors = []
    for name in names:
        a, b = Path(dir_a) / name, Path(dir_b) / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            errors.append(f"{name} differs between the CLI and the traced pass")
    return errors
