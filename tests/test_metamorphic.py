"""Relations between two ``analyze`` runs whose inputs differ in one known way.

No run is checked against a copy of the program: each relation says how
the outputs of the second run follow from those of the first, so it
still holds when the stages behind the CLI are rewritten.

Scale: every ``loc`` times 3 triples each cs and cga. It leaves each cgi
as it is, since a ratio of two tripled locs is the same rational number,
rounded once. Validation, the outlier counts and stderr stay the same.
With every tripled ``|loc|`` at most 2**50, quarter-step interpolation
between the values is exact, so the CS and CGa quartiles, whiskers and
outlier values triple exactly too.

Split: writing a row that holds both halves as a size-only row and an
activity-only row, in either order, changes nothing a month is joined
from. The exit code, ``report.json`` and ``yearly_aggregates.csv`` stay
byte for byte the same, and stderr too once each ``facts.csv:N:`` names
the row's new line. Only rows whose every cell is valid are split: a
malformed row's valid half, written alone, would be accepted.

Quote: writing each data line's first cell quoted, a '"' in it doubled,
changes no cell that csv.reader reads, so the exit code, ``report.json``,
``yearly_aggregates.csv`` and stderr stay byte for byte the same. A
quoted cell sends its line past the plain-line pattern to csv.reader, so
the relation holds only if both read every line alike.

Metadata only: one more metadata line, for a name no facts row holds,
adds one project to ``projects_collected`` and one to
``excluded_missing_data``, and changes nothing else: not the exit code,
the rest of ``report.json``, ``yearly_aggregates.csv`` or stderr.

Shift: every valid year cell and the cut-off moved by SHIFT years leave
the exit code, validation and every metric the same; only the years in
``yearly_aggregates.csv``, the median attainers, the echoed cut-off and
the duplicate-record warnings move with them. Year cells before 1950
stay, so the rows they spoil stay spoiled.

Rename: PREFIX before every project name, in both inputs, keeps the
names' order, so only the names change: in ``yearly_aggregates.csv``,
the median attainers and the duplicate warnings. PREFIX holds a comma,
so each renamed facts cell is quoted, and characters that JSON escapes.

New year: one more project of two months, December of the year before
the cut-off and January of the cut-off year, adds its two yearly rows
with the growth of that one link, and one project, two months and two
years to every count of the validation that it reaches. Shift and
rename keep every year boundary and the cut-off where the data has
them, so this relation is the one that holds the December-to-January
link and the cut-off year itself to a value.

Scale, split, quote and metadata only run on the golden corpus and the
benchmark's generated inputs, and also on the small inputs of
``test_pipeline_oracle.inputs``: their rows come interleaved, shuffled,
in split halves and with repeated halves.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import io
import json
import os
import random
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_pipeline_oracle
from baserates.cli import main
from baserates.ingest import FACTS_HEADER
from baserates.metrics import GROWTHLESS_POLICIES
from conftest import CORPUS

REPO = Path(__file__).resolve().parent.parent
SCALE = 3
SHIFT = -9  # keeps every valid year of the sources at or after 1950
PREFIX = "é\\,"
LOC = FACTS_HEADER.index("loc")
SOURCES = [("corpus", None), ("LONG", 7), ("LONG", 8), ("WIDE", 7), ("WIDE", 8)]
INPUTS = ("metadata.jsonl", "facts.csv")
OUTPUTS = ("report.json", "yearly_aggregates.csv")


def scaled_facts(text: str) -> tuple[str, int]:
    """The facts text with each loc that int() parses times SCALE, and how many there were.

    Every other cell, the rows that do not split into the header's fields
    and the line endings are kept byte for byte.
    """
    assert '"' not in text  # each line splits on its commas alone
    lines, scaled = text.split("\n"), 0
    for index, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if len(cells) != len(FACTS_HEADER):
            continue
        try:
            loc = int(cells[LOC])
        except ValueError:
            continue
        assert SCALE * abs(loc) <= 2**50
        cells[LOC] = str(SCALE * loc)
        lines[index] = ",".join(cells)
        scaled += 1
    return "\n".join(lines), scaled


def parses_whole(cells: list[str]) -> bool:
    """Whether a row holds both halves and every cell is valid, read strictly."""
    if len(cells) != len(FACTS_HEADER) or cells[0] == "":
        return False
    if not all(re.fullmatch("-?[0-9]+", cell) for cell in cells[1:]):
        return False
    year, month, *sizes = map(int, cells[1:6])
    counts = map(int, cells[6:])
    return year >= 1950 and 1 <= month <= 12 and max(map(abs, sizes)) <= 2**53 and min(counts) >= 0


def split_facts(text: str, rng: random.Random) -> tuple[str, dict[int, int], int]:
    """The facts text with each row that ``parses_whole`` written as its two halves.

    A size-only and an activity-only row take the row's place, in an
    order drawn from ``rng``, so each half keeps its order among the
    other rows of its kind. Returns the text, the new line number of
    each old line, and how many rows were split.
    """
    assert '"' not in text and "\r" not in text  # a row is a line, split on its commas
    lines = text.split("\n")
    out, moved, split = [lines[0]], {1: 1}, 0
    for number, line in enumerate(lines[1:], 2):
        moved[number] = len(out) + 1
        cells = line.split(",")
        if not parses_whole(cells):
            out.append(line)
            continue
        size_half = ",".join(cells[:6] + [""] * 4)
        activity_half = ",".join(cells[:3] + [""] * 3 + cells[6:])
        out += [size_half, activity_half] if rng.random() < 0.5 else [activity_half, size_half]
        split += 1
    return "\n".join(out), moved, split


def quoted_facts(text: str) -> tuple[str, int]:
    """The facts text with each data line's first cell quoted, and how many lines there were.

    A '"' inside the cell is doubled; the other cells and the line
    endings are kept byte for byte.
    """
    assert "\r" not in text  # a line ends at its '\n'
    lines, quoted = text.split("\n"), 0
    for index, line in enumerate(lines[1:], 1):
        if not line:  # the end of the text, or a blank line csv.reader skips either way
            continue
        first, comma, rest = line.partition(",")
        assert not first.startswith('"')  # not quoted already
        lines[index] = '"' + first.replace('"', '""') + '"' + comma + rest
        quoted += 1
    return "\n".join(lines), quoted


def shifted_facts(text: str) -> tuple[str, int]:
    """The facts text with each digit-only year cell from 1950 on moved by SHIFT, and how many."""
    assert '"' not in text  # each line splits on its commas alone
    lines, shifted = text.split("\n"), 0
    for index, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if len(cells) < 2 or not re.fullmatch("[0-9]+", cells[1]) or int(cells[1]) < 1950:
            continue
        cells[1] = str(int(cells[1]) + SHIFT)
        assert int(cells[1]) >= 1950
        lines[index] = ",".join(cells)
        shifted += 1
    return "\n".join(lines), shifted


def renamed_facts(text: str) -> tuple[str, int]:
    """The facts text with PREFIX before each data line's name, quoted, and how many.

    A line whose cells are all blank, which csv.reader skips, and an
    empty name, which is malformed, keep their line.
    """
    assert '"' not in text and "\r" not in text  # a line ends at its '\n'
    lines, renamed = text.split("\n"), 0
    for index, line in enumerate(lines[1:], 1):
        first, comma, rest = line.partition(",")
        if first and line.replace(",", "").strip():
            lines[index] = '"' + PREFIX + first + '"' + comma + rest
            renamed += 1
    return "\n".join(lines), renamed


def renamed_metadata(text: str) -> str:
    """The metadata text with PREFIX before each JSON object's non-empty name string.

    A line ``json.loads`` rejects, or whose name is no non-empty string,
    is kept byte for byte.
    """
    lines = text.split("\n")
    for index, line in enumerate(lines):
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and isinstance(doc.get("name"), str) and doc["name"]:
            doc["name"] = PREFIX + doc["name"]
            lines[index] = json.dumps(doc)  # é as \u00e9, the backslash as \\
    return "\n".join(lines)


def outcome(workdir: Path, cutoff_year: int, policy: str):
    """Exit code, stderr and the bytes of each of OUTPUTS of one run in ``workdir``.

    The run reads its inputs by relative path, so two runs in two
    directories print the same paths.
    """
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main([
                "analyze", "--metadata", "metadata.jsonl", "--facts", "facts.csv",
                "--cutoff-year", str(cutoff_year), "--growthless-year-policy", policy,
                "--out", "out",
            ])
    finally:
        os.chdir(cwd)
    return code, stderr.getvalue(), [(workdir / "out" / name).read_bytes() for name in OUTPUTS]


def parsed(run) -> tuple:
    """Exit code, stderr, report document and aggregate rows of an ``outcome``."""
    code, stderr, (report, aggregates) = run
    rows = list(csv.DictReader(io.StringIO(aggregates.decode("utf-8"), newline="")))
    return code, stderr, json.loads(report), rows


def analyze(workdir: Path, cutoff_year: int, policy: str):
    """Exit code, stderr, report document and aggregate rows of one run in ``workdir``."""
    return parsed(outcome(workdir, cutoff_year, policy))


def times_scale(cell: str) -> str:
    return cell and str(SCALE * int(cell))  # an undefined (empty) cell stays empty


def scaled_section(section: dict) -> dict:
    box = section["boxplot"]
    return {
        **section,
        "median": SCALE * section["median"],
        "iqr": SCALE * section["iqr"],
        "boxplot": {
            **{key: SCALE * box[key] for key in ("q1", "median", "q3", "whisker_low", "whisker_high")},
            "outlier_values": [SCALE * value for value in box["outlier_values"]],
        },
    }


def inputs(source: str, seed: int, workdir: Path, monkeypatch) -> tuple[int, str]:
    """Write the metadata and facts of ``source`` into ``workdir``; their cut-off and policy."""
    if source == "corpus":
        shutil.copy(CORPUS / "metadata.jsonl", workdir / "metadata.jsonl")
        shutil.copy(CORPUS / "facts.csv", workdir / "facts.csv")
        return 2012, "undefined"
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    gen = importlib.import_module("gen")
    gen.write_facts_inputs(workdir, seed, getattr(gen, source))
    return gen.CUTOFF_YEAR, "zero" if source == "WIDE" else "undefined"


_BASE_RUNS: dict = {}


def base_run(source: str, seed: int, workdir: Path, monkeypatch):
    """Write the inputs of ``source`` into ``workdir``; their cut-off, policy and ``outcome``.

    Every relation starts from the same inputs and the same run on them,
    so both are made once per source.
    """
    if (source, seed) not in _BASE_RUNS:
        cutoff_year, policy = inputs(source, seed, workdir, monkeypatch)
        texts = [(workdir / name).read_bytes() for name in INPUTS]
        run = outcome(workdir, cutoff_year, policy)
        _BASE_RUNS[source, seed] = cutoff_year, policy, texts, run
    cutoff_year, policy, texts, run = _BASE_RUNS[source, seed]
    for name, text in zip(INPUTS, texts):
        (workdir / name).write_bytes(text)
    return cutoff_year, policy, run


def workdirs(root: Path, name: str) -> tuple[Path, Path]:
    """A ``base`` directory and one called ``name`` for the second run, under ``root``."""
    base, other = root / "base", root / name
    base.mkdir()
    other.mkdir()
    return base, other


# Each check below writes the inputs in ``base``, changed in its one way,
# into ``other``, runs ``analyze`` there, and asserts its relation to
# ``run``, the outcome on ``base``. Those that change facts lines return
# how many they changed.


def check_scale(base: Path, other: Path, cutoff_year: int, policy: str, run) -> int:
    shutil.copy(base / "metadata.jsonl", other / "metadata.jsonl")
    facts = (base / "facts.csv").read_bytes().decode("utf-8")
    scaled_text, count = scaled_facts(facts)
    (other / "facts.csv").write_bytes(scaled_text.encode("utf-8"))

    code, stderr, doc, rows = parsed(run)
    code3, stderr3, doc3, rows3 = analyze(other, cutoff_year, policy)

    assert (code3, stderr3, doc3["validation"]) == (code, stderr, doc["validation"])
    sections = {section["metric"]: section for section in doc["metrics"]}
    sections3 = {section["metric"]: section for section in doc3["metrics"]}
    assert list(sections3) == list(sections)
    for metric, section in sections.items():
        expected = section if metric == "CGi" else scaled_section(section)
        assert sections3[metric] == expected, metric
    assert rows3 == [
        {**row, "cs": times_scale(row["cs"]), "cga": times_scale(row["cga"])} for row in rows
    ]
    return count


def check_split(base: Path, other: Path, cutoff_year: int, policy: str, run, rng) -> int:
    shutil.copy(base / "metadata.jsonl", other / "metadata.jsonl")
    facts = (base / "facts.csv").read_bytes().decode("utf-8")
    split_text, moved, count = split_facts(facts, rng)
    (other / "facts.csv").write_bytes(split_text.encode("utf-8"))

    code, stderr, files = run
    code2, stderr2, files2 = outcome(other, cutoff_year, policy)

    renumbered = re.sub(
        r"facts\.csv:(\d+):", lambda m: f"facts.csv:{moved[int(m.group(1))]}:", stderr
    )
    assert (code2, stderr2, files2) == (code, renumbered, files)
    return count


def check_quote(base: Path, other: Path, cutoff_year: int, policy: str, run) -> int:
    shutil.copy(base / "metadata.jsonl", other / "metadata.jsonl")
    facts = (base / "facts.csv").read_bytes().decode("utf-8")
    quoted_text, count = quoted_facts(facts)
    (other / "facts.csv").write_bytes(quoted_text.encode("utf-8"))

    assert outcome(other, cutoff_year, policy) == run
    return count


def check_metadata_only(base: Path, other: Path, cutoff_year: int, policy: str, run) -> None:
    shutil.copy(base / "facts.csv", other / "facts.csv")
    metadata = (base / "metadata.jsonl").read_bytes().decode("utf-8")
    name = "metadata-only"
    assert metadata.endswith("\n") or not metadata
    assert name not in metadata and name not in (base / "facts.csv").read_bytes().decode("utf-8")
    line = json.dumps({"name": name, "enlistments": [], "tags": []})
    (other / "metadata.jsonl").write_bytes((metadata + line + "\n").encode("utf-8"))

    code, stderr, (report, aggregates) = run
    code2, stderr2, (report2, aggregates2) = outcome(other, cutoff_year, policy)

    doc = json.loads(report)
    for field in ("projects_collected", "excluded_missing_data"):
        doc["validation"][field] += 1
    assert (code2, stderr2, json.loads(report2), aggregates2) == (code, stderr, doc, aggregates)


@pytest.mark.parametrize("source, seed", SOURCES)
def test_every_loc_times_three(source, seed, tmp_path, monkeypatch):
    base, scaled = workdirs(tmp_path, "scaled")
    cutoff_year, policy, run = base_run(source, seed, base, monkeypatch)
    assert [section["metric"] for section in parsed(run)[2]["metrics"]] == ["CS", "CGa", "CGi"]
    assert check_scale(base, scaled, cutoff_year, policy, run) > 0


@pytest.mark.parametrize("source, seed", SOURCES)
def test_each_full_row_split_into_its_halves(source, seed, tmp_path, monkeypatch):
    base, split = workdirs(tmp_path, "split")
    cutoff_year, policy, run = base_run(source, seed, base, monkeypatch)
    rng = random.Random(f"{source}-{seed}")
    assert check_split(base, split, cutoff_year, policy, run, rng) > 0


@pytest.mark.parametrize("source, seed", SOURCES)
def test_each_first_cell_quoted(source, seed, tmp_path, monkeypatch):
    base, quoted = workdirs(tmp_path, "quoted")
    cutoff_year, policy, run = base_run(source, seed, base, monkeypatch)
    assert check_quote(base, quoted, cutoff_year, policy, run) > 0


@pytest.mark.parametrize("source, seed", SOURCES)
def test_one_more_project_with_metadata_only(source, seed, tmp_path, monkeypatch):
    base, extra = workdirs(tmp_path, "extra")
    cutoff_year, policy, run = base_run(source, seed, base, monkeypatch)
    assert (base / "metadata.jsonl").read_bytes().endswith(b"\n")
    check_metadata_only(base, extra, cutoff_year, policy, run)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=test_pipeline_oracle.inputs(),
    policy=st.sampled_from(GROWTHLESS_POLICIES),
    seed=st.integers(0, 2**32),
)
def test_relations_on_oracle_inputs(data, policy, seed):
    # Interleaved and shuffled rows, split and repeated halves, few projects.
    meta_lines, rows, cutoff_year = data
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        test_pipeline_oracle.write_inputs(base, meta_lines, rows)
        run = outcome(base, cutoff_year, policy)
        checks = {
            "scaled": check_scale,
            "split": functools.partial(check_split, rng=random.Random(seed)),
            "quoted": check_quote,
            "extra": check_metadata_only,
        }
        for name, check in checks.items():
            other = Path(tmp) / name
            other.mkdir()
            check(base, other, cutoff_year, policy, run)


def with_attainers(doc: dict, change) -> dict:
    """``doc`` with ``change`` applied to each median attainer of each metric."""
    return {
        **doc,
        "metrics": [
            {**section, "median_attainers": [change(a) for a in section["median_attainers"]]}
            for section in doc["metrics"]
        ],
    }


@pytest.mark.parametrize("source, seed", SOURCES)
def test_every_year_shifted(source, seed, tmp_path, monkeypatch):
    base, shifted = workdirs(tmp_path, "shifted")
    cutoff_year, policy, run = base_run(source, seed, base, monkeypatch)
    shutil.copy(base / "metadata.jsonl", shifted / "metadata.jsonl")
    facts = (base / "facts.csv").read_bytes().decode("utf-8")
    shifted_text, count = shifted_facts(facts)
    assert count > 0
    (shifted / "facts.csv").write_bytes(shifted_text.encode("utf-8"))

    code, stderr, doc, rows = parsed(run)
    code2, stderr2, doc2, rows2 = analyze(shifted, cutoff_year + SHIFT, policy)

    moved = re.sub(
        r"(record for .* at )(\d+)(-\d\d; project rejected)$",
        lambda m: f"{m[1]}{int(m[2]) + SHIFT}{m[3]}",
        stderr,
        flags=re.MULTILINE,
    )
    doc = with_attainers(doc, lambda a: {**a, "year": a["year"] + SHIFT})
    doc["config"]["cutoff_year"] += SHIFT
    assert (code2, stderr2, doc2) == (code, moved, doc)
    assert rows2 == [{**row, "year": str(int(row["year"]) + SHIFT)} for row in rows]


@pytest.mark.parametrize("source, seed", SOURCES)
def test_every_name_prefixed(source, seed, tmp_path, monkeypatch):
    base, renamed = workdirs(tmp_path, "renamed")
    cutoff_year, policy, run = base_run(source, seed, base, monkeypatch)
    facts = (base / "facts.csv").read_bytes().decode("utf-8")
    renamed_text, count = renamed_facts(facts)
    assert count > 0
    (renamed / "facts.csv").write_bytes(renamed_text.encode("utf-8"))
    metadata = (base / "metadata.jsonl").read_bytes().decode("utf-8")
    (renamed / "metadata.jsonl").write_bytes(renamed_metadata(metadata).encode("utf-8"))

    code, stderr, doc, rows = parsed(run)
    code2, stderr2, doc2, rows2 = analyze(renamed, cutoff_year, policy)

    prefixed = re.sub(
        r"(duplicate project name |duplicate (?:size|activity) record for )'([^'\\]*)'",
        lambda m: m[1] + repr(PREFIX + m[2]),
        stderr,
    )
    doc = with_attainers(doc, lambda a: {**a, "project": PREFIX + a["project"]})
    assert (code2, stderr2, doc2) == (code, prefixed, doc)
    assert rows2 == [{**row, "project": PREFIX + row["project"]} for row in rows]


@pytest.mark.parametrize("source, seed", SOURCES)
def test_one_more_project_across_new_year(source, seed, tmp_path, monkeypatch):
    base, extra = workdirs(tmp_path, "extra")
    cutoff_year, policy, run = base_run(source, seed, base, monkeypatch)
    name = "new-year"
    metadata = (base / "metadata.jsonl").read_bytes().decode("utf-8")
    facts = (base / "facts.csv").read_bytes().decode("utf-8")
    assert metadata.endswith("\n") and facts.endswith("\n")
    assert name not in metadata and name not in facts
    line = json.dumps({"name": name, "enlistments": [], "tags": []})
    (extra / "metadata.jsonl").write_bytes((metadata + line + "\n").encode("utf-8"))
    months = f"{name},{cutoff_year - 1},12,100,9,9,1,1,1,1\n{name},{cutoff_year},1,150,9,9,1,1,1,1\n"
    (extra / "facts.csv").write_bytes((facts + months).encode("utf-8"))

    code, stderr, doc, rows = parsed(run)
    code2, stderr2, doc2, rows2 = analyze(extra, cutoff_year, policy)

    validation = doc["validation"]
    for field, more in [
        ("projects_collected", 1), ("projects_remaining", 1),
        ("months_before_rule3", 2), ("months_remaining", 2), ("years_remaining", 2),
    ]:
        validation[field] += more
    for field, more in [("projects", 1), ("months", 2), ("years", 2)]:
        validation["after_cutoff"][field] += more
    growthless = ("0", "1.0") if policy == "zero" else ("", "")
    added = [
        [name, str(cutoff_year - 1), "100", *growthless, "0", "1"],
        [name, str(cutoff_year), "150", "50", "1.5", "1", "1"],
    ]
    assert (code2, stderr2, doc2["validation"]) == (code, stderr, validation)
    assert [row for row in rows2 if row["project"] != name] == rows
    assert [list(row.values()) for row in rows2 if row["project"] == name] == added
