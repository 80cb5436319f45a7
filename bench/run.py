"""Benchmark of the baserates CLI: whole runs, and a traced pass per stage.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a full checkout; the CLI runs as a child process,
`python -m baserates analyze|count`, with the checkout's absolute ``src`` on
PYTHONPATH. Inputs come from gen.py with ``--seed``, are written under
``.bench_work/`` in the checkout before any clock starts, and are removed at
the end. One child runs at a time and nothing else runs beside it.

Times are in reference seconds. The machine is shared: other tenants' load
slowed the same CLI run by up to 1.9x within a minute and shifted the
median of a 35 s window by up to 40% over ten minutes, so raw times from
two sets of runs could not be compared. Every timed child therefore runs
between two runs of probe.py, a fixed stdlib-only job that shares no code
with baserates, and its wall time is multiplied by PROBE_REF_S / (their
mean wall time). Over seven 35 s windows in which the raw median of
analyze-long drifted from 2.2 s to 1.5 s, the spread (IQR / median) of the
raw medians was 0.28 and that of the scaled ones 0.02; on count-tree,
whose per-character loop tracks the probe less closely, 0.15 and 0.10.
Raw and scaled times of every run are printed.

``--trace 0`` measures what a user sees, for ``--seconds`` seconds and at
least three runs, and reports medians:

- ``wall_s``: from spawning the CLI to its exit;
- ``input_mb_per_s``: input bytes (facts.csv + metadata.jsonl, or the
  registered source files) / 1e6 / ``wall_s``;
- ``peak_rss_mb``: the child's own ``ru_maxrss`` from ``os.wait4``, read by
  launch.py (``RUSAGE_CHILDREN`` would be the maximum over every child run
  so far, and a child of this process would inherit its high-water mark);
- ``setup_s``: a fresh interpreter importing ``baserates.cli`` and building
  its parser, which users pay on every invocation (5 runs).

Each run gives one sample of each, so no tail percentile is reported.

``--trace 1`` alternates untraced CLI runs with trace_pass.py, which runs
the CLI's own code with the public calls of each module timed from
outside, and reports per-stage
medians; ``cli.other.s`` is the untraced ``wall_s`` minus the sum of the
stage spans (interpreter start, argument parsing, stderr diagnostics).
Stages of a module a workload never runs report 0.

Every timed run passes gate.py or counts as failed; failed / attempted is
printed as ``failed_ratio``. The last stdout line is the JSON result; the
exit code is 1 if any run failed and 2 if the checkout has no ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import gate
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_PASS = Path(__file__).resolve().parent / "trace_pass.py"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
PROBE = Path(__file__).resolve().parent / "probe.py"

MIN_RUNS = 3
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 120
SETUP_CODE = "import baserates.cli as cli; cli.build_parser()"
# About probe.py's wall time on an idle 2-vCPU machine, so that reference
# seconds read close to seconds on such a machine.
PROBE_REF_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "analyze" or "count"
    shape: gen.FactsShape | None = None  # analyze inputs
    tree_bytes: int = 0  # count inputs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-long", "analyze", shape=gen.LONG),
        Workload("analyze-wide", "analyze", shape=gen.WIDE),
        Workload("count-tree", "count", tree_bytes=4_000_000),
    )
}

END_TO_END = {"wall_s": "s", "input_mb_per_s": "MB/s", "peak_rss_mb": "MiB", "setup_s": "s"}

_ANALYZE_STAGES = {
    "ingest.read_metadata": ("records",),
    "ingest.read_facts": ("records", "malformed"),
    "facts.join": ("in", "out", "duplicates"),
    "validate": ("months_in", "months_out"),
    "metrics.aggregate": ("project_years",),
    "stats.summarize": ("observations",),
    "report.render_write": ("bytes_out",),
}
_COUNT_STAGES = ("sloc.walk", "sloc.read", "sloc.decode", "sloc.classify")


def _stage_metrics(stage: str, counts=()) -> dict[str, str]:
    out = {f"{stage}.s": "s", f"{stage}.peak_rss_mb": "MiB"}
    out.update({f"{stage}.{c}": "bytes" if c == "bytes_out" else "count" for c in counts})
    return out


ANALYZE_LAYERS = {
    k: unit
    for stage, counts in _ANALYZE_STAGES.items()
    for k, unit in _stage_metrics(stage, counts).items()
}
COUNT_LAYERS = {k: unit for stage in _COUNT_STAGES for k, unit in _stage_metrics(stage).items()}
COUNT_LAYERS.update({"sloc.files": "count", "sloc.files_skipped": "count", "sloc.lines": "count"})
PER_LAYER = {**ANALYZE_LAYERS, **COUNT_LAYERS, "cli.other.s": "s"}


class Child(NamedTuple):
    wall: float  # seconds from spawn to exit, as measured
    peak_rss_mb: float  # the child's own ru_maxrss
    code: int
    scale: float = 1.0  # PROBE_REF_S / mean wall time of the reference jobs around it

    @property
    def ref_s(self) -> float:
        """Wall time in reference seconds."""
        return self.wall * self.scale


def spawn(argv: list[str], cwd: Path, log: Path) -> Child:
    """Run one child through launch.py and read back its figures."""
    launcher = [sys.executable, "-S", str(LAUNCH), str(CHILD_TIMEOUT_S)]
    logs = [str(log.with_suffix(".out")), str(log.with_suffix(".err"))]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        launcher + logs + argv, cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    wall, peak_kib, code = done.stdout.split()
    return Child(float(wall), int(peak_kib) / 1024, int(code))


class Clock:
    """Runs children between runs of the reference job and scales their times.

    Each child is timed between two reference runs (the one after it is
    the one before the next child), and scaled by PROBE_REF_S over their
    mean wall time.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self.last = self._probe()

    def _probe(self) -> float:
        probe = spawn([sys.executable, str(PROBE)], self.work, self.work / "logs" / "probe")
        if probe.code != 0:
            raise RuntimeError(f"reference job probe.py exited {probe.code}")
        return probe.wall

    def run(self, argv: list[str], cwd: Path, log: Path) -> Child:
        child = spawn(argv, cwd, log)
        after = self._probe()
        scale = 2 * PROBE_REF_S / (self.last + after)
        self.last = after
        return child._replace(scale=scale)


class Run:
    """Inputs, sidecar and scratch directories of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        inputs = work / "in"
        if workload.command == "analyze":
            self.sidecar = gen.write_facts_inputs(inputs, seed, workload.shape)
            # Relative paths, so the config echo in report.json is the same
            # for the CLI (run in cli/) and the traced pass (run in trace/).
            self.args = [
                "--metadata", "../in/metadata.jsonl", "--facts", "../in/facts.csv",
                "--cutoff-year", str(gen.CUTOFF_YEAR), "--out", "out", "--svg",
            ]
            self.output = "out"
        else:
            self.tree = inputs / "tree"
            self.sidecar = gen.write_source_tree(self.tree, seed, workload.tree_bytes)
            self.args = ["--root", "../in/tree", "--out", "counts.csv"]
            self.output = "counts.csv"
        for name in ("cli", "trace", "logs"):
            (work / name).mkdir()
        self.clock = Clock(work)

    def _clear(self, cwd: Path) -> None:
        target = cwd / self.output
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()

    def cli(self) -> tuple[Child, list[str]]:
        """One timed CLI run and its gate errors."""
        cwd = self.work / "cli"
        self._clear(cwd)
        argv = [sys.executable, "-m", "baserates", self.workload.command, *self.args]
        child = self.clock.run(argv, cwd, self.work / "logs" / "cli")
        if self.workload.command == "analyze":
            errors = gate.check_analyze(child.code, cwd / "out", self.sidecar)
        else:
            errors = gate.check_count(child.code, cwd / "counts.csv", self.tree, self.sidecar)
        return child, errors

    def traced(self) -> tuple[dict, list[str]]:
        """One traced pass, gated against the last CLI run's outputs and the sidecar.

        Stage times come back in reference seconds, like the CLI's.
        """
        cwd = self.work / "trace"
        self._clear(cwd)
        log = self.work / "logs" / "trace"
        argv = [sys.executable, str(TRACE_PASS), self.workload.command, *self.args]
        child = self.clock.run(argv, cwd, log)
        if child.code != 0:
            return {}, [f"traced pass exited {child.code}"]
        stages = json.loads(log.with_suffix(".out").read_text().splitlines()[-1])
        stages = {k: v * child.scale if k.endswith(".s") else v for k, v in stages.items()}
        expected = ANALYZE_LAYERS if self.workload.command == "analyze" else COUNT_LAYERS
        errors = [f"traced pass lacks {m}" for m in expected if m not in stages]
        if self.workload.command == "analyze":
            theirs, ours = self.work / "cli" / "out", cwd / "out"
            names = sorted(p.name for p in theirs.iterdir())
            ingest = self.sidecar["ingest"]
            after = self.sidecar["validation"]["after_cutoff"]
            want = {
                "ingest.read_metadata.records": ingest["metadata_records"],
                "ingest.read_facts.records": ingest["facts_records"],
                "ingest.read_facts.malformed": ingest["facts_malformed"],
                "facts.join.out": self.sidecar["joined_months"],
                "validate.months_out": after["months"],
                "metrics.aggregate.project_years": after["years"],
            }
        else:
            theirs, ours, names = self.work / "cli", cwd, ["counts.csv"]
            want = {
                "sloc.files": len(self.sidecar["files"]),
                "sloc.files_skipped": self.sidecar["skipped"],
                "sloc.lines": self.sidecar["lines"],
            }
        errors += [f"{k} = {stages.get(k)}, expected {v}" for k, v in want.items() if stages.get(k) != v]
        errors += gate.check_identical(theirs, ours, names)
        return stages, errors


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Generate inputs, measure for ``seconds``, and return the result object."""
    run = Run(workload, seed, work)
    attempted = failed = 0
    problems: list[str] = []

    def record(errors: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if errors:
            failed += 1
            problems.extend(errors)

    metrics: dict[str, dict] = {}
    runs: list[Child] = []
    if not trace:
        setups = []
        for _ in range(SETUP_RUNS):
            child = run.clock.run([sys.executable, "-c", SETUP_CODE], work, work / "logs" / "setup")
            setups.append(child.ref_s)
            record([] if child.code == 0 else [f"setup exited {child.code}"])
        start = time.perf_counter()
        while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
            child, errors = run.cli()
            runs.append(child)
            record(errors)
        wall_s = statistics.median(c.ref_s for c in runs)
        values = {
            "wall_s": wall_s,
            "input_mb_per_s": run.sidecar["input_bytes"] / 1e6 / wall_s,
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in runs),
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        passes: list[dict] = []
        start = time.perf_counter()
        while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
            child, errors = run.cli()
            runs.append(child)
            record(errors)
            stages, errors = run.traced()
            record(errors)
            if not errors:
                passes.append(stages)
        for name, unit in PER_LAYER.items():
            values = [p[name] for p in passes if name in p]
            metrics[name] = {"value": statistics.median(values) if values else 0, "unit": unit}
        spans = [sum(v for k, v in p.items() if k.endswith(".s")) for p in passes]
        if spans:
            other = statistics.median(c.ref_s for c in runs) - statistics.median(spans)
            metrics["cli.other.s"] = {"value": other, "unit": "s"}

    for problem in dict.fromkeys(problems):
        print(f"{workload.name}: FAILED CHECK: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "baserates" / "__init__.py").is_file():
        print(f"bench: no baserates package under {SRC}; run inside a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        work = WORK / f"{name}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass
        runs = result.pop("runs")
        print(f"{name}: seed {args.seed}, {len(runs)} CLI runs; wall seconds as measured, then in reference seconds:")
        print(f"{name}:", " ".join(f"{c.wall:.3f}" for c in runs))
        print(f"{name}:", " ".join(f"{c.ref_s:.3f}" for c in runs))
        for metric, m in result["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name}: failed_ratio = {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
        print(json.dumps(result))
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
