"""Command-line entry point: count source trees and run the analysis pipeline.

Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import os
import sys
from itertools import chain, islice
from pathlib import Path

# Each command loads its own modules when it runs, so neither pays for the
# other's; metrics holds the policy names the parser and _SETTINGS need up front.
from . import metrics
from .facts import YearlyAggregate, join_facts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_EMPTY = 3  # validation left no survivors; the reports are still written

# Lines per stderr write: thousands of input diagnostics cost a few writes,
# and no batch, unlike all of them joined, holds much at the run's peak.
_WARNING_BATCH = 100


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="baserates",
        description="Summary statistics for code size and growth of project populations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser(
        "count", help="classify source lines under a directory into code/comment/blank"
    )
    count.add_argument("--root", required=True, help="directory tree to count")
    count.add_argument("--registry", help="JSON file extending the language registry")
    count.add_argument("--out", help="output CSV path (default: stdout)")
    count.set_defaults(func=_cmd_count)

    analyze = sub.add_parser(
        "analyze", help="ingest, validate, and report on monthly project facts"
    )
    analyze.add_argument("--metadata", help="project metadata file (JSON lines)")
    analyze.add_argument("--facts", help="monthly facts file (CSV)")
    analyze.add_argument(
        "--cutoff-year", type=int, help="drop months after this calendar year"
    )
    analyze.add_argument(
        "--growthless-year-policy",
        choices=metrics.GROWTHLESS_POLICIES,
        help="treat years without growth months as undefined (default) or zero growth",
    )
    analyze.add_argument("--out", help="output directory for the report files")
    analyze.add_argument(
        "--svg", action="store_true", default=None, help="also render SVG boxplots"
    )
    analyze.add_argument(
        "--config", help="JSON config supplying defaults; explicit flags win"
    )
    analyze.set_defaults(func=_cmd_analyze)
    return parser


def _write(lines) -> None:
    """Write each line to stderr as ``baserates: <line>``, a batch of lines per write.

    Every diagnostic the package writes passes here; only argparse writes
    its usage errors itself. A stderr that fails (closed, a broken pipe) is
    ignored: it changes no exit code or output.
    """
    lines, stderr = iter(lines), sys.stderr
    try:
        while batch := "".join(f"baserates: {line}\n" for line in islice(lines, _WARNING_BATCH)):
            stderr.write(batch)
        stderr.flush()
    except OSError:
        pass


def _warn(diagnostics) -> None:
    """Write each diagnostic as a ``baserates: WARNING:`` line through ``_write``."""
    _write(f"WARNING: {d}" for d in diagnostics)


def _fail(code: int, message: str) -> int:
    """Write one diagnostic and return ``code``; usage errors read like argparse's."""
    kind = "error: " if code == EXIT_USAGE else ""
    _write([kind + message])
    return code


def _cmd_count(args) -> int:
    from . import sloc

    try:
        registry = (
            sloc.load_registry(args.registry)
            if args.registry
            else sloc.default_registry()
        )
    except (OSError, ValueError, RecursionError) as exc:
        return _fail(EXIT_IO, f"cannot load registry: {exc}")
    try:
        tree = sloc.count_tree(args.root, registry)
        _warn(f"skipping unreadable {entry}" for entry in tree.unreadable)
        with (
            open(args.out, "w", encoding="utf-8", newline="")
            if args.out
            else contextlib.nullcontext(sys.stdout)
        ) as handle:
            _write_count_csv(tree, handle)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))

    if tree.skipped:
        _write([f"skipped {tree.skipped} file(s) with unregistered extensions"])
    if not tree.files:
        _write(["no registered source files found"])
    return EXIT_OK


def _write_count_csv(tree, handle) -> None:
    """A row per file of the ``sloc.TreeCount``, a total per language, then the overall total."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["path", "language", "code", "comment", "blank"])
    for path, language, counts in (
        *((fc.path, fc.language, fc.counts) for fc in tree.files),
        *(("(total)", name, counts) for name, counts in sorted(tree.by_language.items())),
        ("(total)", "(all)", tree.total),
    ):
        writer.writerow([path, language, counts.code, counts.comment, counts.blank])
    # A write error can wait in the buffer; flushed here, it is caught with the rest.
    handle.flush()


# Each analyze setting's default (None: required); a flag beats the --config value.
# A name is the argparse dest, the config key and the report's config echo key.
_SETTINGS = {
    "metadata": None,
    "facts": None,
    "cutoff_year": None,
    "growthless_year_policy": metrics.GROWTHLESS_UNDEFINED,
    "out": None,
    "svg": False,
}


def _cmd_analyze(args) -> int:
    config: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                config = json.load(handle)
        # ValueError: bad JSON, bytes that are not UTF-8, or an integer past int()'s limit
        except (OSError, ValueError, RecursionError) as exc:
            return _fail(EXIT_IO, f"cannot load config: {exc}")
        if not isinstance(config, dict):
            return _fail(EXIT_IO, "config file must hold a JSON object")

    settings, missing = {}, []
    for key, default in _SETTINGS.items():
        flag = getattr(args, key)
        settings[key] = flag if flag is not None else config.get(key, default)
        if settings[key] is None and default is None:
            missing.append("--" + key.replace("_", "-"))
    if missing:
        return _fail(EXIT_USAGE, f"missing required option(s): {', '.join(missing)}")
    if type(settings["cutoff_year"]) is not int:  # a JSON true is no year
        return _fail(EXIT_USAGE, "--cutoff-year must be an integer")
    for key in ("metadata", "facts", "out"):
        if not isinstance(settings[key], str):
            return _fail(EXIT_USAGE, f"config key {key!r} must be a string")
        # open() and mkdir() raise ValueError, not OSError, for either kind of string.
        try:
            usable = b"\0" not in os.fsencode(settings[key])
        except UnicodeEncodeError:  # a lone surrogate such as "\ud800"
            usable = False
        if not usable:
            return _fail(
                EXIT_USAGE, f"config key {key!r} must be a path without NUL or unencodable characters"
            )
    if not isinstance(settings["svg"], bool):
        return _fail(EXIT_USAGE, "config key 'svg' must be true or false")
    policy = settings["growthless_year_policy"]
    if policy not in metrics.GROWTHLESS_POLICIES:
        return _fail(EXIT_USAGE, f"unknown growthless-year policy {policy!r}")

    return run_analyze(settings)


def _observations(metric, aggregates, cutoff_year: int) -> tuple[list, int]:
    """Defined ``stats.Observation``s for one metric plus the count of undefined ones.

    Code size is a snapshot of the cut-off year (the last complete year);
    the growth metrics span every project-year in the data set.
    """
    from . import stats

    field = YearlyAggregate._fields.index(metric.name.lower())  # cs, cga or cgi
    if metric is stats.Metric.CS:
        aggregates = [a for a in aggregates if a.year == cutoff_year]
    new, observation = tuple.__new__, stats.Observation
    observations = [
        new(observation, (a.project, a.year, float(a[field])))
        for a in aggregates
        if a[field] is not None
    ]
    return observations, len(aggregates) - len(observations)


def run_analyze(config: dict) -> int:
    """Ingest, validate, derive, summarize, and write all report artifacts."""
    from . import ingest, report, stats, validate

    cutoff_year = config["cutoff_year"]
    # Validation is the first stage to need metadata, so it is read once the
    # raw fact lists are joined and dropped: the two inputs never peak together.
    facts_error = None
    try:
        size, activity, facts_report = ingest.read_facts(config["facts"])
    except (OSError, ingest.IngestError) as exc:
        facts_error = str(exc)
    else:
        monthly, join_diagnostics = join_facts(size, activity)
        del size, activity
    try:
        metas, meta_report = ingest.read_metadata(config["metadata"])
    except (OSError, ingest.IngestError) as exc:
        return _fail(EXIT_IO, str(exc))  # the metadata error wins if both fail
    if facts_error is not None:
        return _fail(EXIT_IO, facts_error)

    malformed = chain(meta_report.malformed, facts_report.malformed)
    _warn(chain((f"{d.file}:{d.line}: {d.reason}" for d in malformed), join_diagnostics))

    survivors, validation_report = validate.validate_dataset(
        metas, monthly, cutoff_year
    )
    # Each data set is freed at its last use, so no later stage's peak includes it.
    del metas, monthly
    aggregates = metrics.aggregate_all(survivors, config["growthless_year_policy"])
    del survivors

    sections = []
    for metric in stats.Metric:
        observations, undefined = _observations(metric, aggregates, cutoff_year)
        if observations:
            sections.append(report.MetricSection(stats.summarize(observations, metric), undefined))
    document = report.build_report(validation_report, sections, config)

    out = Path(config["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        metrics.write_aggregates_csv(aggregates, out / "yearly_aggregates.csv")
        (out / "report.json").write_text(report.render_json(document), encoding="utf-8")
        (out / "report.txt").write_text(report.render_text(document), encoding="utf-8")
        # The directory keeps a boxplot only for a metric this run rendered,
        # none that an earlier run into it left behind.
        boxplots = {s.summary.metric: s.summary.boxplot for s in sections if config["svg"]}
        for metric in stats.Metric:
            path = out / f"boxplot_{metric.value.lower()}.svg"
            if metric in boxplots:
                svg_text = report.render_boxplot_svg(boxplots[metric], f"{metric.value} boxplot")
                path.write_text(svg_text, encoding="utf-8")
            else:
                path.unlink(missing_ok=True)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))

    if not validation_report.after_cutoff.months:
        return _fail(
            EXIT_EMPTY,
            "validation eliminated every project-month; reports written with empty metrics",
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # The records a run builds hold no reference cycles, so the cyclic GC's
    # passes over them are pure overhead. The caller's setting is restored.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
