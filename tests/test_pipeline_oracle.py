"""The whole ``analyze`` path against a chain of the frozen stage oracles.

``analyze`` below runs the frozen facts reader, join, validation and
aggregation of ``test_ingest_oracle``, ``test_join_oracle``,
``test_validate_oracle`` and ``test_metrics_oracle`` in the order
``cli.run_analyze`` runs the package's own stages, and renders what they
return with the package's metadata reader, statistics and report code.
``cli.main`` must then write the same ``yearly_aggregates.csv`` and
``report.json``, print the same stderr and exit with the same code, byte
for byte: on generated inputs with every kind of ordering and defect the
stages handle, and on the benchmark's two input shapes at full size.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_ingest_oracle
import test_join_oracle
import test_metrics_oracle
import test_validate_oracle
from baserates import cli, ingest, metrics, report, stats
from baserates.ingest import FACTS_HEADER
from baserates.metrics import GROWTHLESS_POLICIES
from test_join_oracle import arranged

REPO = Path(__file__).resolve().parent.parent


def analyze(settings: dict) -> tuple[int, str, bytes, bytes]:
    """Exit code, stderr, ``yearly_aggregates.csv`` and ``report.json`` of the chain.

    ``settings`` are the CLI's resolved settings; ``out`` is only echoed.
    """
    cutoff_year = settings["cutoff_year"]
    size, activity, facts_report = test_ingest_oracle.read_facts(settings["facts"])
    monthly, join_diagnostics = test_join_oracle.join_facts(size, activity)
    metas, meta_report = ingest.read_metadata(settings["metadata"])
    stderr = [
        f"baserates: WARNING: {diag.file}:{diag.line}: {diag.reason}\n"
        for rep in (meta_report, facts_report)
        for diag in rep.malformed
    ]
    stderr += [f"baserates: WARNING: {diagnostic}\n" for diagnostic in join_diagnostics]

    survivors, validation = test_validate_oracle.validate_dataset(metas, monthly, cutoff_year)
    aggregates = test_metrics_oracle.aggregate_all(
        survivors, settings["growthless_year_policy"]
    )

    sections = []
    for metric in stats.Metric:
        observations, undefined = cli._observations(metric, aggregates, cutoff_year)
        if observations:
            sections.append(report.MetricSection(stats.summarize(observations, metric), undefined))
    document = report.render_json(report.build_report(validation, sections, settings))
    with tempfile.TemporaryDirectory() as tmp:
        metrics.write_aggregates_csv(aggregates, Path(tmp) / "yearly_aggregates.csv")
        aggregates_csv = (Path(tmp) / "yearly_aggregates.csv").read_bytes()
    code = cli.EXIT_OK
    if not survivors:
        code = cli.EXIT_EMPTY
        stderr.append(
            "baserates: validation eliminated every project-month; "
            "reports written with empty metrics\n"
        )
    return code, "".join(stderr), aggregates_csv, document.encode()


def compare(metadata: Path, facts: Path, cutoff_year: int, policy: str, out: Path):
    """``cli.main``'s outcome and the chain's, for the same settings."""
    argv = [
        "analyze",
        "--metadata", str(metadata),
        "--facts", str(facts),
        "--cutoff-year", str(cutoff_year),
        "--growthless-year-policy", policy,
        "--out", str(out),
    ]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    result = (
        code,
        err.getvalue(),
        (out / "yearly_aggregates.csv").read_bytes(),
        (out / "report.json").read_bytes(),
    )
    settings = {
        "metadata": str(metadata),
        "facts": str(facts),
        "cutoff_year": cutoff_year,
        "growthless_year_policy": policy,
        "out": str(out),
        "svg": False,
    }
    return result, analyze(settings)


# Zero lines now and then, so growth ratios go undefined; negative sizes,
# which rule 3 drops month by month; otherwise sizes of up to six digits.
LOCS = st.one_of(
    st.integers(1, 10**6), st.integers(1, 10**6), st.just(0), st.integers(-99, -1)
)
# Mostly consecutive months; gaps of a month, and of about a year across December.
STEPS = st.sampled_from([1] * 12 + [2, 11, 12, 13])
ENLISTMENTS = st.tuples(
    st.sampled_from(["GitRepository", "svn", "SvnSyncRepository", " Subversion"]),
    st.sampled_from(["http://x.org/r/trunk", "http://x.org/r/tags/v1", "http://x.org/r"]),
)


@st.composite
def inputs(draw):
    """Metadata lines, facts rows and a cut-off year, for one to five projects.

    A project has metadata only, facts only, or both. A month's halves
    come in one row, in two rows, or one of them alone; now and then a
    half repeats, which rejects the project. The rows come sorted,
    shuffled or in interleaving runs, and the cut-off falls anywhere from
    the year before the first month to the year after the last.
    """
    meta_lines: list[str] = []
    rows: list[list] = []
    for name in draw(st.lists(st.sampled_from("abcde"), min_size=1, unique=True)):
        where = draw(st.sampled_from(["metadata", "facts"] + ["both"] * 6))
        if where != "facts":
            enlistments = draw(st.lists(ENLISTMENTS, max_size=2, unique_by=lambda e: e[1]))
            meta_lines.append(json.dumps({
                "name": name,
                "enlistments": [{"type": kind, "url": url} for kind, url in enlistments],
            }))
        if where == "metadata":
            continue
        index = draw(st.integers(2009 * 12, 2011 * 12 + 11))
        for _ in range(draw(st.integers(1, 30))):
            year, month = divmod(index, 12)
            key, sizes, counts = [name, year, month + 1], [draw(LOCS), 3, 4], [5, 6, 7, 8]
            size_half, activity_half = key + sizes + [""] * 4, key + [""] * 3 + counts
            rows += draw(st.sampled_from(
                [[key + sizes + counts]] * 6
                + [[size_half, activity_half], [size_half], [activity_half]]
            ))
            if draw(st.integers(0, 80)) == 40:  # rare: hypothesis favours a range's ends
                rows.append(draw(st.sampled_from([size_half, activity_half])))
            index += draw(STEPS)
    if draw(st.integers(0, 5)) == 0:
        rows.append(["a", 2011, 13, 1, 2, 3, 4, 5, 6, 7])
    if draw(st.integers(0, 5)) == 0:
        meta_lines.append("{not json")
    years = [row[1] for row in rows] or [2010]
    cutoff_year = draw(st.integers(min(years) - 1, max(years) + 1))
    rows = arranged(draw, rows, key=lambda row: row[:3])
    return draw(st.permutations(meta_lines)), rows, cutoff_year


def write_inputs(root: Path, meta_lines: list[str], rows: list[list]) -> None:
    """Write an ``inputs()`` draw as ``metadata.jsonl`` and ``facts.csv`` in ``root``."""
    (root / "metadata.jsonl").write_text(
        "".join(line + "\n" for line in meta_lines), encoding="utf-8"
    )
    with (root / "facts.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(FACTS_HEADER)
        writer.writerows(rows)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=inputs(), policy=st.sampled_from(GROWTHLESS_POLICIES))
def test_analyze_matches_oracle_chain(data, policy):
    meta_lines, rows, cutoff_year = data
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root, meta_lines, rows)
        result, expected = compare(
            root / "metadata.jsonl", root / "facts.csv", cutoff_year, policy, root / "out"
        )
    assert result == expected


@pytest.mark.parametrize("shape", ["LONG", "WIDE"])
def test_benchmark_inputs_match_oracle_chain(shape, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    gen = importlib.import_module("gen")
    gen.write_facts_inputs(tmp_path, 7, getattr(gen, shape))
    policy = GROWTHLESS_POLICIES[shape == "WIDE"]
    result, expected = compare(
        tmp_path / "metadata.jsonl", tmp_path / "facts.csv", gen.CUTOFF_YEAR, policy,
        tmp_path / "out",
    )
    assert result == expected
