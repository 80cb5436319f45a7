"""Readers for the canonical metadata (JSON lines) and facts (CSV) files.

Parsing is strict per record and lenient per file: a malformed record is
skipped and counted in the ingest report instead of aborting the run.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .facts import MIN_YEAR, Enlistment, FactKey, ProjectMeta, SizeRecord

FACTS_HEADER = [
    "project",
    "year",
    "month",
    "loc",
    "comments",
    "blanks",
    "loc_added",
    "loc_removed",
    "commits",
    "contributors",
]


class IngestError(Exception):
    """The file cannot be ingested at all (unreadable or wrong structure)."""


class RecordDiagnostic(NamedTuple):
    file: str
    line: int
    reason: str


class IngestReport(NamedTuple):
    """What one reader counted."""

    projects_read: int
    records_read: int
    malformed: list[RecordDiagnostic]

    @property
    def malformed_records(self) -> int:
        return len(self.malformed)


@contextmanager
def _open_utf8(path: Path, newline: str = "\n"):
    """Open ``path`` as UTF-8 text; a bad byte raises IngestError naming file and line."""
    try:
        with path.open(encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        # Re-read with each bad byte escaped to a lone surrogate to find its line.
        escaped = re.compile("[\udc80-\udcff]")
        with path.open(encoding="utf-8", errors="surrogateescape", newline=newline) as text:
            line = next(n for n, chars in enumerate(text, 1) if escaped.search(chars))
        raise IngestError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def read_metadata(path) -> tuple[list[ProjectMeta], IngestReport]:
    """Parse one JSON object per line, ended by a line feed alone, into project metadata.

    Malformed lines are skipped and counted; a duplicate project name
    keeps the first record and counts the later one as malformed.
    Project names and enlistment types are interned, so equal type
    strings are one object and a name is the one ``read_facts`` gives.
    The JSON scanner alone decodes a line that it takes whole, up to JSON
    whitespace; the others go through ``json.loads`` for its diagnostics.
    """
    metas: list[ProjectMeta] = []
    malformed: list[RecordDiagnostic] = []
    records_read = 0
    seen: set[str] = set()
    path = Path(path)
    scan = json.JSONDecoder().scan_once  # json.loads' own scanner, without its wrapper
    with _open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():  # iteration yields no empty line
                continue
            records_read += 1
            try:
                doc, end = scan(line, 0)
                whole = not line[end:].strip(" \t\n\r")  # str.isspace accepts more
            except (StopIteration, ValueError, RecursionError):
                whole = False
            try:
                if not whole:  # leading whitespace, a BOM, more data or an error
                    doc = json.loads(line)
            except json.JSONDecodeError as exc:
                reason = f"invalid JSON: {exc.msg}"
            except RecursionError:  # the decoder's nesting limit
                reason = "invalid JSON: nested too deeply"
            except ValueError:  # the one other: an integer past int()'s digit limit
                limit = sys.get_int_max_str_digits()
                reason = f"invalid JSON: integer longer than {limit} digits"
            else:
                meta, reason = _parse_meta(doc)
                if reason is None and meta.name in seen:
                    reason = f"duplicate project name {meta.name!r}"
            if reason is not None:
                malformed.append(RecordDiagnostic(str(path), lineno, reason))
                continue
            seen.add(meta.name)
            metas.append(meta)
    return metas, IngestReport(len(metas), records_read, malformed)


def _parse_meta(doc) -> tuple[ProjectMeta | None, str | None]:
    # The checks below are the types' own, so their values are built as tuples.
    new = tuple.__new__
    if not isinstance(doc, dict):
        return None, "record is not a JSON object"
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        return None, "missing or empty project name"
    raw_enlistments = doc.get("enlistments")
    if raw_enlistments is not None and not isinstance(raw_enlistments, list):
        return None, "enlistments must be a list"
    enlistments = []
    for raw in raw_enlistments or ():
        kind, url = (raw.get("type"), raw.get("url")) if isinstance(raw, dict) else (None, None)
        if not isinstance(kind, str) or not isinstance(url, str):
            return None, "enlistment lacks a type or url string"
        enlistments.append(new(Enlistment, (sys.intern(kind), url)))
    tags = doc.get("tags")  # checked, but no rule or metric reads them
    if tags is not None and (
        not isinstance(tags, list) or not all(isinstance(t, str) for t in tags)
    ):
        return None, "tags must be a list of strings"
    return new(ProjectMeta, (sys.intern(name), tuple(enlistments))), None


# A plain line: a name, then nine counts of at most 15 digits (below
# 2**53), signed only in the three sizes; either half may be all empty. It
# holds no '"' or NUL, and '\r' only in its line ending, so csv.reader would
# split it on its commas alone. It captures the name, year, month, loc and
# loc_added: the other counts are checked by matching and never kept.
_PLAIN_ROW = re.compile(
    '([^,"\r\n\0]+)' + ",([0-9]{1,15})" * 2
    + "(?:,(-?[0-9]{1,15})" + ",-?[0-9]{1,15}" * 2 + "|,,,)"
    + "(?:,([0-9]{1,15})" + ",[0-9]{1,15}" * 3 + "|,,,,)\r?\n?"
)

# What int() parses: optional sign, Unicode digits grouped by single underscores.
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


class _Names(dict):
    def __missing__(self, name: str) -> str:  # a project name, interned once
        name = self[name] = sys.intern(name)
        return name


class _Counts(dict):
    def __missing__(self, cell: str) -> int:
        value = int(cell)
        if len(cell) < 5:  # most years repeat, but CPython shares no int above 256
            self[cell] = value
        return value


def read_facts(path) -> tuple[list[SizeRecord], list[FactKey], IngestReport]:
    """Read the canonical facts CSV into size records and activity keys.

    A row's size half becomes a ``SizeRecord(key, loc)`` and its activity
    half its bare ``FactKey``: the metrics read only ``loc``, and the join
    only which months have activity. Every cell is checked, kept or not:
    negative code sizes pass through so the validator can reject and
    account for them, but a size cell beyond 2**53 in magnitude, which a
    float may not hold exactly, and a negative activity count are
    malformed. Rows and line numbers are those of csv.reader under the
    default dialect: a line that the plain-row pattern does not accept is
    read as one csv record, with any lines a quoted line break joins to
    it. The records of one project share one interned name string, the
    one ``read_metadata`` gives. On the plain rows, equal year and month
    cells of at most four characters share one ``int``; a longer cell,
    such as the year ``02012``, is parsed per row.
    """
    size: list[SizeRecord] = []
    activity: list[FactKey] = []
    names = _Names()  # projects of the accepted rows, each name interned
    ints = _Counts()  # year and month cells of plain rows, each short one parsed once
    add_size, add_activity = size.append, activity.append
    malformed: list[RecordDiagnostic] = []
    records_read = 0
    path = Path(path)
    limit = csv.field_size_limit()  # a line no longer than this holds no longer field
    new = tuple.__new__
    with _open_utf8(path, newline="") as handle:
        reader, lineno = csv.reader(handle), 1
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty facts file (missing header)")
            if header != FACTS_HEADER:
                raise IngestError(f"{path}: unexpected header {','.join(header)!r}")
            lineno = reader.line_num  # the header's last line
            for line in handle:
                lineno += 1
                match = _PLAIN_ROW.fullmatch(line) if len(line) <= limit else None
                if match is not None:
                    # The pattern and this test hold every check of a cell, and
                    # csv.reader gives a row with neither half its diagnostic.
                    project, year, month, loc, added = match.groups()
                    year, month = ints[year], ints[month]
                    if year >= MIN_YEAR and 1 <= month <= 12 and (loc or added):
                        records_read += 1
                        key = new(FactKey, (names[project], year, month))
                        if loc:  # parsed per row: about half of all sizes are too long to share
                            add_size(new(SizeRecord, (key, int(loc))))
                        if added:
                            add_activity(key)
                        continue
                # Any other line is one csv.reader row, with the lines its quotes span.
                reader = csv.reader(chain([line], handle))
                row = next(reader)
                lineno += reader.line_num - 1  # the record's last line
                # str.strip drops the same Unicode whitespace cell by cell or joined.
                if not "".join(row).strip():
                    continue
                records_read += 1
                reason = _parse_facts_row(row, names, size, activity)
                if reason is not None:
                    malformed.append(RecordDiagnostic(str(path), lineno, reason))
        except csv.Error as exc:
            line_num = lineno - 1 + reader.line_num
            raise IngestError(f"{path}:{line_num}: unreadable CSV ({exc})") from None
    return size, activity, IngestReport(len(names), records_read, malformed)


def _parse_facts_row(row, names, size, activity) -> str | None:
    if len(row) != len(FACTS_HEADER):
        return f"expected {len(FACTS_HEADER)} fields, got {len(row)}"
    project, year, month, loc, comments, blanks, added, removed, commits, contributors = row
    try:
        year, month = int(year), int(month)
    except ValueError:
        return "year and month must be integers"
    try:
        key = FactKey(names.get(project) or sys.intern(project), year, month)
    except ValueError as exc:
        return str(exc)

    has_size = loc != "" and comments != "" and blanks != ""
    has_activity = added != "" and removed != "" and commits != "" and contributors != ""
    if not has_size and (loc or comments or blanks):
        return "partial size fields (need all of loc, comments, blanks)"
    if not has_activity and (added or removed or commits or contributors):
        return "partial activity fields (need all of loc_added, loc_removed, commits, contributors)"
    if not has_size and not has_activity:
        return "neither size nor activity fields present"

    if has_size:  # all three cells are checked; only loc is kept
        try:
            sizes = int(loc), int(comments), int(blanks)
        except ValueError:
            # int() refuses a well-formed cell only past its digit limit (4,300
            # by default), which lies far beyond 2**53.
            if all(map(_INTEGER.fullmatch, (loc, comments, blanks))):
                return "size fields must not exceed 2**53 in magnitude"
            return "size fields must be integers"
        if max(map(abs, sizes)) > 2**53:
            return "size fields must not exceed 2**53 in magnitude"
    if has_activity:  # the counts are checked; only the key is kept
        try:
            counts = int(added), int(removed), int(commits), int(contributors)
        except ValueError:
            return "activity fields must be integers"
        for name, count in zip(FACTS_HEADER[6:], counts):
            if count < 0:
                return f"{name} must be >= 0, got {count}"
        activity.append(key)
    if has_size:  # kept only now that the activity half has parsed too
        size.append(SizeRecord(key, sizes[0]))
    names.setdefault(project, key.project)
    return None

