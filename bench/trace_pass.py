"""Traced pass: one `baserates` run with its public calls timed from outside.

Usage (with the repository's ``src`` on PYTHONPATH):

    python trace_pass.py analyze|count CLI_ARGS...

It wraps the functions ``cli.run_analyze`` and ``sloc.count_tree`` call,
then runs ``cli.main`` on the same arguments the CLI gets, so the traced
program is the CLI's own code path. It prints one JSON object of
per-stage seconds, record counts and the peak RSS reached by the end of
each stage (the end of its last call). A stage whose functions are never
called is left out, and the benchmark fails the run: when the program's
call path changes, the wrapping below must follow. The benchmark checks
that the output files are byte-identical to the CLI's. Stage names
follow ROADMAP item 1.

``sloc.decode.s`` is the time ``sloc._read_and_classify`` spends outside
``Path.read_bytes`` and ``classify_lines``, which is its decode call, and
``sloc.walk.s`` is the time ``count_tree`` spends outside
``_read_and_classify``: listing, sorting and summing.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from baserates import cli, ingest, metrics, report, sloc, stats, validate


class Trace:
    """Summed spans, end-of-stage peak RSS and counts of the wrapped calls."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.peak_rss_mb: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._depth: dict[str, int] = {}

    def wrap(self, owner, attr: str, stage: str, count=None) -> None:
        """Replace ``owner.attr`` by a timed call that adds to ``stage``.

        Only the outermost call of a stage is timed, so wrapped functions
        that call one another are not counted twice. ``count(args, result)``
        returns counts to add to the stage's totals.
        """
        inner = getattr(owner, attr)

        def timed(*args, **kwargs):
            self._depth[stage] = self._depth.get(stage, 0) + 1
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                self._depth[stage] -= 1
            if self._depth[stage] == 0:
                self.seconds[stage] = self.seconds.get(stage, 0.0) + time.perf_counter() - start
                self.peak_rss_mb[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                for key, value in (count(args, result) if count else {}).items():
                    name = f"{stage}.{key}"
                    self.counts[name] = self.counts.get(name, 0) + value
            return result

        setattr(owner, attr, timed)

    def metrics(self, derived=()) -> dict[str, float]:
        """Flat ``<stage>.s``, ``<stage>.peak_rss_mb`` and count metrics.

        ``derived`` holds ``(stage, outer, inner stages)``: the stage's time
        is ``outer``'s minus the inner stages', and ``outer`` itself is not
        reported.
        """
        seconds, peaks = dict(self.seconds), dict(self.peak_rss_mb)
        for stage, outer, inner in derived:
            if outer in seconds:
                seconds[stage] = seconds.pop(outer) - sum(seconds.get(i, 0.0) for i in inner)
                peaks[stage] = peaks.pop(outer)
        out: dict[str, float] = {}
        for stage in seconds:
            out[f"{stage}.s"] = seconds[stage]
            out[f"{stage}.peak_rss_mb"] = peaks[stage]
        out.update(self.counts)
        return out


def trace_analyze(trace: Trace, argv: list[str]) -> int:
    trace.wrap(ingest, "read_metadata", "ingest.read_metadata",
               lambda a, r: {"records": r[1].records_read})
    trace.wrap(ingest, "read_facts", "ingest.read_facts",
               lambda a, r: {"records": r[2].records_read, "malformed": r[2].malformed_records})
    trace.wrap(cli, "join_facts", "facts.join",
               lambda a, r: {"in": len(a[0]) + len(a[1]), "out": len(r[0]), "duplicates": len(r[1])})
    trace.wrap(validate, "validate_dataset", "validate",
               lambda a, r: {"months_in": len(a[1]), "months_out": len(r[0])})
    trace.wrap(metrics, "aggregate_all", "metrics.aggregate",
               lambda a, r: {"project_years": len(r)})
    trace.wrap(stats, "summarize", "stats.summarize", lambda a, r: {"observations": len(a[0])})
    trace.wrap(stats, "boxplot_data", "stats.summarize")
    for owner, attr in (
        (report, "build_report"),
        (report, "render_json"),
        (report, "render_text"),
        (report, "render_boxplot_svg"),
        (metrics, "write_aggregates_csv"),
        (Path, "write_text"),
    ):
        trace.wrap(owner, attr, "report.render_write")
    code = cli.main(argv)
    out = Path(cli.build_parser().parse_args(argv).out)
    trace.counts["report.render_write.bytes_out"] = sum(p.stat().st_size for p in out.iterdir())
    return code


def trace_count(trace: Trace, argv: list[str]) -> int:
    # "sloc" is the whole count_tree call: its counts are reported, and its
    # time only as the part that is left for sloc.walk.
    trace.wrap(sloc, "count_tree", "sloc", lambda a, r: {
        "files": len(r.files), "files_skipped": r.skipped, "lines": r.total.total,
    })
    trace.wrap(sloc, "_read_and_classify", "sloc.file")
    trace.wrap(Path, "read_bytes", "sloc.read")
    trace.wrap(sloc, "classify_lines", "sloc.classify")
    return cli.main(argv)


def main(argv: list[str]) -> int:
    trace = Trace()
    if argv[:1] == ["analyze"]:
        code = trace_analyze(trace, argv)
        result = trace.metrics()
    elif argv[:1] == ["count"]:
        code = trace_count(trace, argv)
        result = trace.metrics(derived=(
            ("sloc.decode", "sloc.file", ("sloc.read", "sloc.classify")),
            ("sloc.walk", "sloc", ("sloc.decode", "sloc.read", "sloc.classify")),
        ))
    else:
        print(__doc__, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
