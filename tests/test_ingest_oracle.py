"""Differential tests of ``read_facts`` against the cell-by-cell reader.

``read_facts``, ``_parse_facts_row``, ``SizeRecord`` and
``ActivityRecord`` below are the facts reader and records the package
used before it unpacked each row once, shared one name string per
project and kept only what the metrics read. They test cells with
``all``/``any`` generators, build a set of project names after the last
row, keep every cell, and serve here as the oracle: on any facts CSV the
package must return the oracle's records cut to what it keeps (each size
record's key and loc, each activity record's key), counts and
diagnostics with the same ``repr``, or raise the same ``IngestError``.
Each generated file is read twice, as written and with every cell
quoted: a quote hands its row to csv.reader, so both the plain-line path
and the csv.reader path are held to the oracle on every row.
"""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baserates import facts, ingest
from baserates.facts import FactKey
from baserates.ingest import (
    FACTS_HEADER,
    IngestError,
    IngestReport,
    RecordDiagnostic,
    _open_utf8,
)


class SizeRecord(NamedTuple):
    """End-of-month source tree size; loc may be negative before validation."""

    key: FactKey
    loc: int
    comments: int
    blanks: int


class _ActivityRecord(NamedTuple):
    key: FactKey
    loc_added: int
    loc_removed: int
    commits: int
    contributors: int


class ActivityRecord(_ActivityRecord):
    """Monthly change counts; all fields are non-negative by construction."""

    __slots__ = ()

    def __new__(cls, key, loc_added, loc_removed, commits, contributors):
        counts = (loc_added, loc_removed, commits, contributors)
        for name, value in zip(cls._fields[1:], counts):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        return tuple.__new__(cls, (key, *counts))


def read_facts(path) -> tuple[list[SizeRecord], list[ActivityRecord], IngestReport]:
    """Read the canonical facts CSV into raw size and activity records.

    Only field syntax is checked here; negative code sizes pass through
    so the validator can reject and account for them.
    """
    size: list[SizeRecord] = []
    activity: list[ActivityRecord] = []
    malformed: list[RecordDiagnostic] = []
    records_read = 0
    path = Path(path)
    with _open_utf8(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty facts file (missing header)")
            if header != FACTS_HEADER:
                raise IngestError(f"{path}: unexpected header {','.join(header)!r}")
            for row in reader:
                if not any(cell.strip() for cell in row):
                    continue
                lineno = reader.line_num
                records_read += 1
                reason = _parse_facts_row(row, size, activity)
                if reason is not None:
                    malformed.append(RecordDiagnostic(str(path), lineno, reason))
        except csv.Error as exc:
            raise IngestError(f"{path}:{reader.line_num}: unreadable CSV ({exc})") from None
    projects_read = len({r.key.project for records in (size, activity) for r in records})
    return size, activity, IngestReport(projects_read, records_read, malformed)


def _parse_facts_row(row, size, activity) -> str | None:
    if len(row) != len(FACTS_HEADER):
        return f"expected {len(FACTS_HEADER)} fields, got {len(row)}"
    try:
        year, month = int(row[1]), int(row[2])
    except ValueError:
        return "year and month must be integers"
    try:
        key = FactKey(row[0], year, month)
    except ValueError as exc:
        return str(exc)

    size_cells = row[3:6]
    activity_cells = row[6:10]
    has_size = all(cell != "" for cell in size_cells)
    has_activity = all(cell != "" for cell in activity_cells)
    if not has_size and any(cell != "" for cell in size_cells):
        return "partial size fields (need all of loc, comments, blanks)"
    if not has_activity and any(cell != "" for cell in activity_cells):
        return "partial activity fields (need all of loc_added, loc_removed, commits, contributors)"
    if not has_size and not has_activity:
        return "neither size nor activity fields present"

    size_record = activity_record = None
    if has_size:
        try:
            size_record = SizeRecord(key, *map(int, size_cells))
        except ValueError:
            return "size fields must be integers"
    if has_activity:
        try:
            counts = [int(cell) for cell in activity_cells]
        except ValueError:
            return "activity fields must be integers"
        try:
            activity_record = ActivityRecord(key, *counts)
        except ValueError as exc:
            return str(exc)

    if size_record is not None:
        size.append(size_record)
    if activity_record is not None:
        activity.append(activity_record)
    return None


def outcome(reader, path) -> str:
    """``repr`` of everything the reader returns, or of the IngestError it raises."""
    try:
        return repr(reader(path))
    except IngestError as exc:
        return f"IngestError({exc})"


def kept(path) -> tuple[list[facts.SizeRecord], list[FactKey], IngestReport]:
    """The oracle's result cut to what the package keeps: (key, loc) and activity keys."""
    size, activity, report = read_facts(path)
    return [facts.SizeRecord(r.key, r.loc) for r in size], [r.key for r in activity], report


# Forms int() accepts (surrounding whitespace, a sign, digit underscores,
# Unicode digits, negative zero) and forms it rejects, beside plain counts.
ODD_INTS = [" 7", "+5", "1_000", "٣", "-0", "12\n", "1.5", "x", "-3"]
COUNTS = st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(ODD_INTS))
YEARS = st.one_of(
    st.integers(2009, 2012).map(str),
    st.sampled_from(["1949", " 2011", "+2010", "2_011", "٢٠١١", "", "x"]),
)
MONTHS = st.one_of(
    st.integers(1, 12).map(str), st.sampled_from(["0", "13", " 7", "+5", "٣", "-0", "1.5"])
)
# "a\nb" is a quoted name with a line break, so the row spans two lines.
PROJECTS = st.sampled_from(["a", "b", "c", "a\nb", ""])
# One negative count, named in the diagnostic, in each activity position.
ONE_NEGATIVE = st.tuples(st.integers(0, 3), st.integers(-9, -1)).map(
    lambda spec: [str(spec[1]) if i == spec[0] else "4" for i in range(4)]
)


def half(width, *extra):
    """Cells of one half: all filled, all empty, or a mix that is partial."""
    return st.one_of(
        st.lists(COUNTS, min_size=width, max_size=width),
        st.just([""] * width),
        st.lists(st.sampled_from(["", "5"]), min_size=width, max_size=width),
        *extra,
    )


FULL_ROWS = st.builds(
    lambda project, year, month, size, activity: [project, year, month, *size, *activity],
    PROJECTS,
    YEARS,
    MONTHS,
    half(3),
    half(4, ONE_NEGATIVE),
)
# Rows of digits alone, as most real rows are: the plain-line path takes
# them, up to 15 digits a count and with year and month checked inline.
PLAIN_COUNTS = st.one_of(st.integers(0, 10**6), st.sampled_from([10**15 - 1, 10**15]))
PLAIN_ROWS = st.builds(
    lambda project, year, month, size, activity: [project, year, month, *size, *activity],
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([1949, 1950, 2011]),
    st.integers(0, 13),
    st.lists(st.one_of(PLAIN_COUNTS, st.integers(-(10**6), -1)), min_size=3, max_size=3),
    st.lists(PLAIN_COUNTS, min_size=4, max_size=4),
)
# Plain rows whose cells recur across rows and columns in several spellings:
# the reader parses a short cell once and keys the int by its text, so
# "12" and "0012" must still give equal values.
RECURRING_COUNTS = st.sampled_from(["0", "007", "12", "0012", "999", "9999", "09999", "10000"])
RECURRING_SIZES = st.one_of(RECURRING_COUNTS, st.sampled_from(["-0", "-999", "-1000"]))
RECURRING_ROWS = st.builds(
    lambda project, year, month, size, activity: [project, year, month, *size, *activity],
    st.sampled_from(["a", "b"]),
    st.sampled_from(["2011", "02011"]),
    st.sampled_from(["1", "01", "012"]),
    st.one_of(st.lists(RECURRING_SIZES, min_size=3, max_size=3), st.just([""] * 3)),
    st.one_of(st.lists(RECURRING_COUNTS, min_size=4, max_size=4), st.just([""] * 4)),
)
# Rows of a project that appears nowhere else and is malformed every time:
# it must not count among the projects read.
GHOST_ROWS = st.sampled_from(
    [
        ["ghost", "2011", "13", "1", "2", "3", "4", "5", "6", "7"],
        ["ghost", "2011", "1", "1", "", "3", "4", "5", "6", "7"],
        ["ghost", "2011", "2", "1", "2", "3", "4", "", "6", "7"],
        ["ghost", "2011", "3", "", "", "", "", "", "", ""],
        ["ghost", "2011", "4", "1", "2", "3", "4", "-5", "6", "7"],
        ["ghost", "2011", "5", "x", "2", "3", "4", "5", "6", "7"],
        ["ghost", "2011", "6"],
    ]
)
WRONG_WIDTH = st.lists(COUNTS, min_size=1, max_size=12).filter(lambda row: len(row) != 10)
# Whitespace-only rows, Unicode spaces included, are blank and not records.
BLANK_ROWS = st.lists(
    st.sampled_from(["", " ", "\t", "\xa0", "　", " \xa0　 "]), max_size=10
)
ROWS = st.lists(
    st.one_of(FULL_ROWS, FULL_ROWS, GHOST_ROWS, WRONG_WIDTH, BLANK_ROWS, PLAIN_ROWS),
    max_size=30,
)


def write_csv(path, rows, lineterminator, quote_all=False) -> None:
    """Write the header and ``rows``; ``quote_all`` quotes every cell of every row.

    A quoted cell hands its row to csv.reader, so that the same rows are
    read without the plain-line path.
    """
    with path.open("w", encoding="utf-8", newline="") as handle:
        quoting = csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
        writer = csv.writer(handle, lineterminator=lineterminator, quoting=quoting)
        writer.writerow(FACTS_HEADER)
        writer.writerows(rows)


@settings(max_examples=400, deadline=None)
@given(rows=ROWS, lineterminator=st.sampled_from(["\n", "\r\n"]))
def test_read_facts_matches_oracle(rows, lineterminator):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "facts.csv"
        for quote_all in (False, True):
            write_csv(path, rows, lineterminator, quote_all)
            assert outcome(ingest.read_facts, path) == outcome(kept, path)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(RECURRING_ROWS, max_size=30), lineterminator=st.sampled_from(["\n", "\r\n"]))
def test_recurring_cell_spellings_match_oracle(rows, lineterminator):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "facts.csv"
        write_csv(path, rows, lineterminator)
        assert outcome(ingest.read_facts, path) == outcome(kept, path)


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"project,year\n",
        b",".join(f.encode() for f in FACTS_HEADER) + b"\na,2011,1,1,2,3,4,5,6,7\n\xff\n",
        b",".join(f.encode() for f in FACTS_HEADER) + b"\na,2011,1," + b"9" * 140_000 + b",2,3\n",
        b",".join(f.encode() for f in FACTS_HEADER) + b'\na,2011,1,"1\n\n2",2,3,4,5,6,7\n"open\n',
    ],
    ids=["empty", "wrong-header", "not-utf8", "field-too-large", "quoted-line-breaks"],
)
def test_unreadable_files_match_oracle(tmp_path, data):
    path = tmp_path / "facts.csv"
    path.write_bytes(data)
    assert outcome(ingest.read_facts, path) == outcome(kept, path)


@settings(max_examples=200, deadline=None)
@given(rows=ROWS, data=st.data())
def test_mixed_line_endings_match_oracle(rows, data):
    endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(rows) + 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "facts.csv"
        with path.open("w", encoding="utf-8", newline="") as handle:
            for row, ending in zip([FACTS_HEADER, *rows], endings):
                csv.writer(handle, lineterminator=ending).writerow(row)
        assert outcome(ingest.read_facts, path) == outcome(kept, path)


@pytest.mark.parametrize(
    "bad",
    [
        "a,2011,13,1,2,3,4,5,6,7",
        "a,2011,4,,,,,,,",
        "a,2011,4,1,,3,4,5,6,7",
        "a,2011,4,1,2,3,4,-5,6,7",
        "a,2011,4",
        'a,2011,4,"x",2,3,4,5,6,7',
        "a,2011,13,1,2,3,4,5,6,7\rb,2011,4,1,2,3,4,5,6,7",
    ],
    ids=["month-13", "no-half", "partial-half", "negative", "short", "quoted", "lone-CR"],
)
def test_crlf_file_with_one_malformed_row_matches_oracle(tmp_path, bad):
    # A last row with month 0 holds the line numbers after the bad one too.
    rows = [f"a,2011,{month},1,2,3,4,5,6,7" for month in (1, 2, 3, 5, 0)]
    lines = [",".join(FACTS_HEADER), *rows[:3], bad, *rows[3:]]
    path = tmp_path / "facts.csv"
    path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    result = outcome(ingest.read_facts, path)
    assert result == outcome(kept, path)
    assert "line=5" in result
