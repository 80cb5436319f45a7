"""Quick self-check of the benchmark on tiny inputs (under a minute).

    python3 bench/selfcheck.py

Checks that run.py measures every metric BENCHMARK.json names, with its
unit; that both passes over tiny versions of each workload pass the gate
and report every metric, with nonzero time in every stage the workload
runs; and that corrupted outputs fail the gate. Exits 1 on any failure.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys

import gate
import gen
import run

TINY = (
    run.Workload("tiny-long", "analyze", shape=dataclasses.replace(gen.LONG, projects=30)),
    run.Workload("tiny-wide", "analyze", shape=dataclasses.replace(gen.WIDE, projects=300)),
    run.Workload("tiny-tree", "count", tree_bytes=60_000),
)


def _check(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)


def check_names(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    _check(declared == run.END_TO_END, f"end_to_end {declared} != run.py {run.END_TO_END}", failures)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _check(declared == run.PER_LAYER, "per_layer names or units differ from run.py", failures)
    _check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names differ", failures)


def check_passes(work, failures: list[str]) -> None:
    for workload in TINY:
        for trace in (False, True):
            result = run.measure(workload, 7, 0, trace, work)
            shutil.rmtree(work)
            work.mkdir()
            label = f"{workload.name} trace={int(trace)}"
            _check(result["correct"], f"{label}: gate failed", failures)
            names = run.PER_LAYER if trace else run.END_TO_END
            _check(set(result["metrics"]) == set(names), f"{label}: metric names differ", failures)
            if trace:
                own = run.ANALYZE_LAYERS if workload.command == "analyze" else run.COUNT_LAYERS
                idle = [n for n in own if n.endswith(".s") and not result["metrics"][n]["value"] > 0]
                _check(not idle, f"{label}: stages without time: {idle}", failures)
            else:
                idle = [n for n, m in result["metrics"].items() if not m["value"] > 0]
                _check(not idle, f"{label}: zero end-to-end metrics: {idle}", failures)


def check_corruption(work, failures: list[str]) -> None:
    analyze = run.Run(TINY[1], 7, work / "analyze")
    _, errors = analyze.cli()
    out = work / "analyze" / "cli" / "out"
    _check(not errors, f"clean analyze run failed the gate: {errors}", failures)
    _check(bool(gate.check_analyze(3, out, analyze.sidecar)), "exit code 3 passed the gate", failures)

    report_path = out / "report.json"
    clean_report = report_path.read_text(encoding="utf-8")
    doc = json.loads(clean_report)
    doc["validation"]["excluded_negative_size"] += 1
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    _check(bool(gate.check_analyze(0, out, analyze.sidecar)), "corrupted validation passed", failures)
    doc = json.loads(clean_report)
    doc["metrics"][1]["median"] += 1
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    _check(bool(gate.check_analyze(0, out, analyze.sidecar)), "corrupted median passed", failures)
    report_path.write_text(clean_report, encoding="utf-8")

    csv_path = out / "yearly_aggregates.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    csv_path.write_text("".join(lines[:-1]), encoding="utf-8")
    _check(bool(gate.check_analyze(0, out, analyze.sidecar)), "dropped aggregate row passed", failures)
    other = work / "analyze" / "other"
    other.mkdir()
    copy = other / "report.json"
    shutil.copyfile(report_path, copy)
    _check(not gate.check_identical(out, other, ["report.json"]), "an exact copy compared different", failures)
    data = bytearray(copy.read_bytes())
    data[len(data) // 2] ^= 1
    copy.write_bytes(data)
    _check(bool(gate.check_identical(out, other, ["report.json"])), "differing outputs compared identical", failures)

    count = run.Run(TINY[2], 7, work / "count")
    _, errors = count.cli()
    _check(not errors, f"clean count run failed the gate: {errors}", failures)
    counts_path = work / "count" / "cli" / "counts.csv"
    with counts_path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    rows[1][2] = str(int(rows[1][2]) + 1)
    with counts_path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    _check(bool(gate.check_count(0, counts_path, count.tree, count.sidecar)), "corrupted file count passed", failures)


def main() -> int:
    if not (run.SRC / "baserates" / "__init__.py").is_file():
        print(f"selfcheck: no baserates package under {run.SRC}", file=sys.stderr)
        return 2
    failures: list[str] = []
    work = run.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_names(failures)
        check_passes(work, failures)
        check_corruption(work, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    for failure in failures:
        print(f"selfcheck: FAILED: {failure}", file=sys.stderr)
    print("selfcheck: ok" if not failures else f"selfcheck: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
