"""Canonical file formats: parsing strictness, accounting, and the round trip."""

from __future__ import annotations

import csv
import random
import re
import sys

import pytest

from baserates import ingest
from baserates.facts import (
    Enlistment,
    FactKey,
    ProjectMeta,
    SizeRecord,
    YearlyAggregate,
)
from baserates.ingest import (
    FACTS_HEADER,
    IngestError,
    RecordDiagnostic,
    read_facts,
    read_metadata,
)

HEADER = ",".join(FACTS_HEADER)


def write_lines(path, *lines, newline="\n"):
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))


class TestReadMetadata:
    def test_three_well_formed_records(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        write_lines(
            path,
            '{"name": "a", "enlistments": [{"type": "GitRepository", "url": "u"}], "tags": ["x"]}',
            '{"name": "b", "enlistments": [], "tags": []}',
            '{"name": "c"}',
        )
        metas, report = read_metadata(path)
        assert [m.name for m in metas] == ["a", "b", "c"]
        assert report.projects_read == 3
        assert report.records_read == 3
        assert report.malformed_records == 0

    def test_svn_repository_type_maps_to_svn_kind(self, tmp_path):
        # The type string is kept as written; validate_dataset decides what it means.
        path = tmp_path / "meta.jsonl"
        write_lines(
            path,
            '{"name": "p", "enlistments": [{"type": " SvnRepository ", "url": "http://svn/x/trunk"}]}',
        )
        metas, _ = read_metadata(path)
        assert metas[0].enlistments[0] == (" SvnRepository ", "http://svn/x/trunk")

    def test_empty_name_is_malformed(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        write_lines(path, '{"name": "", "enlistments": []}', '{"name": "ok"}')
        metas, report = read_metadata(path)
        assert [m.name for m in metas] == ["ok"]
        assert report.malformed_records == 1
        assert "name" in report.malformed[0].reason

    def test_invalid_json_line_is_counted(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        write_lines(path, "{not json", '{"name": "ok"}')
        metas, report = read_metadata(path)
        assert len(metas) == 1
        assert report.malformed_records == 1
        assert report.malformed[0].line == 1

    def test_deeply_nested_json_line_is_malformed(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        write_lines(path, '{"name": "a"}', "[" * 100_000 + "]" * 100_000, '{"name": "b"}')
        metas, report = read_metadata(path)
        assert [m.name for m in metas] == ["a", "b"]
        assert report.records_read == 3
        assert report.malformed == [
            RecordDiagnostic(str(path), 2, "invalid JSON: nested too deeply")
        ]

    def test_integer_past_the_digit_limit_is_malformed(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        limit = sys.get_int_max_str_digits()
        write_lines(path, '{"name": "a", "tags": [%s]}' % ("9" * (limit + 1)), '{"name": "b"}')
        metas, report = read_metadata(path)
        assert [m.name for m in metas] == ["b"]
        assert report.records_read == 2
        assert report.malformed == [
            RecordDiagnostic(str(path), 1, f"invalid JSON: integer longer than {limit} digits")
        ]

    # Lines around the blank-line skip and the not-an-object check.
    @pytest.mark.parametrize(
        "line, reason",
        [
            ('\ufeff{"name": "a"}', "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ('{"name": "a"}\xa0', "invalid JSON: Extra data"),
            ('\xa0{"name": "a"}', "invalid JSON: Expecting value"),
            (' \t{"name": "a"} \t ', None),
            ("5", "record is not a JSON object"),
            ("null", "record is not a JSON object"),
        ],
        ids=["bom", "trailing-nbsp", "leading-nbsp", "json-whitespace", "number", "null"],
    )
    def test_json_diagnostics_are_those_of_json_loads(self, tmp_path, line, reason):
        path = tmp_path / "meta.jsonl"
        write_lines(path, '{"name": "ok"}', line)
        metas, report = read_metadata(path)
        assert report.records_read == 2
        if reason is None:
            assert [m.name for m in metas] == ["ok", "a"] and report.malformed == []
        else:
            assert [m.name for m in metas] == ["ok"]
            assert report.malformed == [RecordDiagnostic(str(path), 2, reason)]

    def test_duplicate_name_keeps_first(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        write_lines(
            path,
            '{"name": "p", "enlistments": [{"type": "first", "url": "u"}]}',
            '{"name": "p", "enlistments": [{"type": "second", "url": "u"}]}',
        )
        metas, report = read_metadata(path)
        assert len(metas) == 1 and metas[0].enlistments[0].kind == "first"
        assert report.malformed_records == 1

    @pytest.mark.parametrize(
        "record",
        [
            '{"name": "p", "enlistments": [{"type": "GitRepository"}]}',
            '{"name": "p", "enlistments": 5}',
            *(
                f'{{"name": "p", "{key}": {value}}}'
                for key in ("enlistments", "tags")
                for value in ("{}", "0", '""', "false")
            ),
        ],
        ids=[
            "no-url",
            "enlistments-not-a-list",
            *(
                f"{key}-{value}"
                for key in ("enlistments", "tags")
                for value in ("empty-object", "zero", "empty-string", "false")
            ),
        ],
    )
    def test_enlistment_without_url_is_malformed(self, tmp_path, record):
        path = tmp_path / "meta.jsonl"
        write_lines(path, '{"name": "ok"}', record)
        metas, report = read_metadata(path)
        assert [m.name for m in metas] == ["ok"] and report.malformed_records == 1
        assert (report.malformed[0].file, report.malformed[0].line) == (str(path), 2)

    @pytest.mark.parametrize("tags", ["{}", '["a", 1]'], ids=["object", "non-string-element"])
    def test_bad_tags_reason_is_exact(self, tmp_path, tags):
        # No record keeps its tags, but tags that are not a list of strings
        # still make the record malformed.
        path = tmp_path / "meta.jsonl"
        write_lines(path, '{"name": "ok", "tags": ["a"]}', f'{{"name": "p", "tags": {tags}}}')
        metas, report = read_metadata(path)
        assert metas == [ProjectMeta("ok")]
        assert report.malformed == [
            RecordDiagnostic(str(path), 2, "tags must be a list of strings")
        ]

    def test_null_lists_read_as_empty(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        write_lines(path, '{"name": "p", "enlistments": null, "tags": null}')
        metas, report = read_metadata(path)
        assert metas == [ProjectMeta("p")] and report.malformed_records == 0

    def test_blank_lines_are_not_records(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        path.write_text('{"name": "p"}\n\n\n', encoding="utf-8")
        _, report = read_metadata(path)
        assert report.records_read == 1

    # Metadata lines end at \n alone (JSON Lines); a \r is JSON whitespace.
    def test_object_broken_by_a_lone_cr_reads_whole(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        path.write_bytes(b'{"name":\r"a"}\n{"name": "b"}\n')
        metas, report = read_metadata(path)
        assert [m.name for m in metas] == ["a", "b"]
        assert report.records_read == 2 and report.malformed == []

    def test_objects_parted_by_a_lone_cr_are_one_malformed_line(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        path.write_bytes(b'{"name": "a"}\r{"name": "b"}\n{"name": "c"}\n')
        metas, report = read_metadata(path)
        assert [m.name for m in metas] == ["c"]
        assert report.records_read == 2
        assert report.malformed == [RecordDiagnostic(str(path), 1, "invalid JSON: Extra data")]

    def test_crlf_reads_as_lf(self, tmp_path):
        lines = ['{"name": "a"}', "", "[]", '{"name": "b"}', '{"name": "a"}', "{"]
        results = []
        for newline in ("\n", "\r\n"):
            path = tmp_path / f"meta{len(newline)}.jsonl"
            write_lines(path, *lines, newline=newline)
            metas, report = read_metadata(path)
            results.append((metas, report.records_read, [(d.line, d.reason) for d in report.malformed]))
        assert results[0] == results[1]
        assert [line for line, _ in results[0][2]] == [3, 5, 6]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_metadata(tmp_path / "absent.jsonl")


class TestReadFacts:
    def test_full_row_maps_to_both_records(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(path, HEADER, "proj,2012,6,28000,5000,3000,100,50,12,3")
        size, activity, report = read_facts(path)
        assert size == [SizeRecord(FactKey("proj", 2012, 6), 28000)]
        assert activity == [FactKey("proj", 2012, 6)]
        assert report.records_read == 1 and report.malformed_records == 0
        assert report.projects_read == 1

    def test_month_13_is_malformed(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(path, HEADER, "p,2012,13,1,1,1,1,1,1,1")
        size, activity, report = read_facts(path)
        assert size == [] and activity == []
        assert report.malformed_records == 1

    def test_negative_loc_passes_through_raw(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(path, HEADER, "p,2012,3,-5,0,0,1,1,1,1")
        size, _, report = read_facts(path)
        assert size[0].loc == -5
        assert report.malformed_records == 0

    def test_year_before_1950_is_malformed(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(path, HEADER, "p,1949,1,1,1,1,1,1,1,1")
        _, _, report = read_facts(path)
        assert report.malformed_records == 1

    def test_non_integer_field_is_malformed(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(path, HEADER, "p,2012,1,1.5,1,1,1,1,1,1")
        _, _, report = read_facts(path)
        assert report.malformed_records == 1

    def test_size_only_and_activity_only_rows(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(path, HEADER, "p,2012,1,100,10,5,,,,", "p,2012,2,,,,20,5,2,1")
        size, activity, report = read_facts(path)
        assert len(size) == 1 and size[0].key.month == 1
        assert len(activity) == 1 and activity[0].month == 2
        assert report.malformed_records == 0

    def test_partial_size_half_is_malformed(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(path, HEADER, "p,2012,1,100,,5,,,,")
        size, activity, report = read_facts(path)
        assert size == [] and activity == []
        assert "partial size" in report.malformed[0].reason

    def test_all_empty_halves_is_malformed(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(path, HEADER, "p,2012,1,,,,,,,")
        _, _, report = read_facts(path)
        assert report.malformed_records == 1

    def test_negative_activity_is_malformed(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(path, HEADER, "p,2012,1,1,1,1,-2,0,0,0")
        _, activity, report = read_facts(path)
        assert activity == [] and report.malformed_records == 1

    @pytest.mark.parametrize(
        "row,reason",
        [
            (",2012,1,1,1,1,1,1,1,1", "empty project name"),
            ("p,1949,1,1,1,1,1,1,1,1", "year 1949 precedes 1950"),
            ("p,2012,0,1,1,1,1,1,1,1", "month 0 outside 1..12"),
            ("p,2012,13,1,1,,,,,", "month 13 outside 1..12"),
            ("p,x,1,1,1,1,1,1,1,1", "year and month must be integers"),
            ("p,2012,1,1,1,1,-1,0,0,0", "loc_added must be >= 0, got -1"),
            ("p,2012,1,1,1,1,1,-2,0,0", "loc_removed must be >= 0, got -2"),
            ("p,2012,1,1,1,1,1,0,-3,0", "commits must be >= 0, got -3"),
            ("p,2012,1,1,1,1,1,0,0,-4", "contributors must be >= 0, got -4"),
            ("p,2012,1,1,1,1,-1,0,-3,-4", "loc_added must be >= 0, got -1"),
        ],
    )
    def test_malformed_reason_is_exact(self, tmp_path, row, reason):
        # As written, and with the name quoted, which hands the row to csv.reader.
        path = tmp_path / "facts.csv"
        for line in (row, '"' + row.replace(",", '",', 1)):
            write_lines(path, HEADER, line)
            size, activity, report = read_facts(path)
            assert [(m.line, m.reason) for m in report.malformed] == [(2, reason)]
            assert size == activity == []

    def test_records_read_identity(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(
            path,
            HEADER,
            "p,2012,1,1,1,1,1,1,1,1",
            "p,2012,13,1,1,1,1,1,1,1",
            "q,2012,2,2,2,2,,,,",
        )
        size, activity, report = read_facts(path)
        surviving_rows = report.records_read - report.malformed_records
        assert report.records_read == 3
        assert surviving_rows == 2

    def test_records_of_a_project_share_one_name(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(
            path,
            HEADER,
            "proj,2012,1,1,1,1,1,1,1,1",
            "proj,2012,2,1,1,1,,,,",
            "proj,2012,3,,,,1,1,1,1",
        )
        size, activity, _ = read_facts(path)
        names = {id(key.project) for key in [record.key for record in size] + activity}
        assert len(names) == 1

    def test_wrong_header_raises(self, tmp_path):
        path = tmp_path / "facts.csv"
        write_lines(path, "project,year", "p,2012")
        with pytest.raises(IngestError):
            read_facts(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IngestError):
            read_facts(path)

    @pytest.mark.parametrize(
        "loc,reason",
        [
            (2**53, None),
            (-(2**53), None),
            (2**53 + 1, "size fields must not exceed 2**53 in magnitude"),
            (-(2**53) - 1, "size fields must not exceed 2**53 in magnitude"),
            (10**400, "size fields must not exceed 2**53 in magnitude"),
        ],
    )
    def test_size_beyond_2_53_is_malformed(self, tmp_path, loc, reason):
        # Each size cell is held to the bound, though only loc is kept; the
        # row as written and with its name quoted, which hands it to csv.reader.
        path = tmp_path / "facts.csv"
        for column in range(3, 6):
            cells = ["p", "2012", "1", "1", "1", "1", "1", "1", "1", "1"]
            cells[column] = str(loc)
            row = ",".join(cells)
            for line in (row, '"p"' + row[1:]):
                write_lines(path, HEADER, line, "p,2012,2,1,1,1,1,1,1,1")
                size, _, report = read_facts(path)
                assert [(m.line, m.reason) for m in report.malformed] == (
                    [(2, reason)] if reason else []
                )
                kept = [] if reason else [int(cells[3])]
                assert [record.loc for record in size] == kept + [1]


    @pytest.mark.parametrize("sign", ["", "+", "-"])
    @pytest.mark.parametrize("digits", [4300, 4301])
    @pytest.mark.parametrize("column", range(3, 6))
    def test_size_past_int_digit_limit_is_too_large(self, tmp_path, sign, digits, column):
        # int() refuses more than 4,300 digits; the reason must not change there.
        cells = ["p", "2012", "1", "1", "1", "1", "1", "1", "1", "1"]
        cells[column] = sign + "9" * digits
        path = tmp_path / "facts.csv"
        write_lines(path, HEADER, ",".join(cells), "p,2012,2,1,1,1,1,1,1,1")
        size, _, report = read_facts(path)
        assert [(m.line, m.reason) for m in report.malformed] == [
            (2, "size fields must not exceed 2**53 in magnitude")
        ]
        assert [record.loc for record in size] == [1]

    @pytest.mark.parametrize(
        "cell,reason",
        [("9" * 4300, None), ("9" * 4301, "activity fields must be integers")],
    )
    def test_activity_past_int_digit_limit_is_not_an_integer(self, tmp_path, cell, reason):
        # Activity counts have no magnitude bound, so only int()'s limit applies.
        path = tmp_path / "facts.csv"
        write_lines(path, HEADER, f"p,2012,1,1,1,1,{cell},1,1,1")
        _, activity, report = read_facts(path)
        assert [m.reason for m in report.malformed] == ([reason] if reason else [])
        assert len(activity) == (0 if reason else 1)


def quote_first_cell(line):
    """``line`` with its first cell quoted, if it holds a comma to end that cell."""
    if "," not in line:
        return line
    first, rest = line.split(",", 1)
    return '"' + first.replace('"', '""') + '",' + rest


def read_both_ways(path, *lines, newline="\n"):
    """``read_facts`` on ``lines`` as given and with each line's first cell quoted.

    A quoted cell hands its line to csv.reader, so the two results differ
    if the plain-line path reads any line otherwise. Returns the ``repr``
    of the result, or the IngestError's text.
    """
    results = []
    for variant in (lines, [quote_first_cell(line) for line in lines]):
        write_lines(path, HEADER, *variant, newline=newline)
        try:
            results.append(repr(read_facts(path)))
        except IngestError as exc:
            results.append(f"IngestError: {exc}")
    assert results[0] == results[1]
    return results[0]


def read_facts_of(tmp_path, *lines):
    path = tmp_path / "facts.csv"
    write_lines(path, HEADER, *lines)
    return read_facts(path)


ODD_INTEGERS = [" 7", "+5", "1_000", "٣", "-0", "007", "0", "x", ""]


class TestPlainLines:
    """Lines without '"' or NUL, which csv.reader would split on commas alone."""

    @pytest.mark.parametrize("value", ODD_INTEGERS)
    @pytest.mark.parametrize("column", range(1, 10))
    def test_odd_integers_read_as_csv_reads_them(self, tmp_path, value, column):
        cells = ["p", "2012", "6", "9", "8", "7", "6", "5", "4", "3"]
        cells[column] = value
        read_both_ways(tmp_path / "facts.csv", ",".join(cells), "p,2012,7,1,1,1,1,1,1,1")

    @pytest.mark.parametrize("value", ODD_INTEGERS)
    def test_odd_integers_on_crlf_lines(self, tmp_path, value):
        for column in range(1, 10):
            cells = ["p", "2012", "6", "9", "8", "7", "6", "5", "4", "3"]
            cells[column] = value
            lines = ",".join(cells), "p,2012,7,1,1,1,1,1,1,1"
            read_both_ways(tmp_path / "facts.csv", *lines, newline="\r\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_row_with_neither_half_after_half_rows(self, tmp_path, newline):
        lines = ["p,2012,1,100,10,5,,,,", "p,2012,2,,,,20,5,2,1", "p,2012,3,,,,,,,"]
        write_lines(tmp_path / "facts.csv", HEADER, *lines, newline=newline)
        size, activity, report = read_facts(tmp_path / "facts.csv")
        assert [r.key.month for r in size] == [1] and [key.month for key in activity] == [2]
        assert [(m.line, m.reason) for m in report.malformed] == [
            (4, "neither size nor activity fields present")
        ]
        read_both_ways(tmp_path / "facts.csv", *lines, newline=newline)

    @pytest.mark.parametrize("digits", [15, 16])
    @pytest.mark.parametrize("column", range(3, 10))
    def test_long_counts_read_as_csv_reads_them(self, tmp_path, digits, column):
        cells = ["p", "2012", "6", "9", "8", "7", "6", "5", "4", "3"]
        cells[column] = "1" * digits  # below 2**53 either way
        result = read_both_ways(tmp_path / "facts.csv", ",".join(cells))
        # Both halves are kept; of the counts, only loc is.
        key = "FactKey(project='p', year=2012, month=6)"
        assert f"[SizeRecord(key={key}, loc={cells[3]})], [{key}]" in result
        assert "malformed=[]" in result

    def test_records_hold_every_check_of_their_constructors(self, tmp_path):
        big = 10**15 - 1
        size, activity, report = read_facts_of(
            tmp_path,
            "p,1950,1,0,0,0,0,0,0,0",
            f"p,1950,12,-{big},{big},{big},{big},{big},{big},{big}",
            "q,9999,6,1,1,1,1,1,1,1",
            "p,1949,12,1,1,1,1,1,1,1",
            "p,2012,0,1,1,1,1,1,1,1",
            "p,2012,13,1,1,1,1,1,1,1",
        )
        assert len(size) == len(activity) == 3
        for record in size:
            assert SizeRecord(FactKey(*record.key), *record[1:]) == record
        for key in activity:
            assert FactKey(*key) == key
        assert [(m.line, m.reason) for m in report.malformed] == [
            (5, "year 1949 precedes 1950"),
            (6, "month 0 outside 1..12"),
            (7, "month 13 outside 1..12"),
        ]

    @pytest.mark.parametrize("length", [131_071, 131_072, 131_073])
    def test_name_at_the_csv_field_limit(self, tmp_path, length):
        lines = ["p,2012,1,1,1,1,1,1,1,1", "x" * length + ",2012,1,1,1,1,1,1,1,1"]
        result = read_both_ways(tmp_path / "facts.csv", *lines)
        if length > 131_072:
            assert result.startswith(f"IngestError: {tmp_path / 'facts.csv'}:3: unreadable CSV")
        else:
            assert "malformed=[]" in result

    @pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\x0b"])
    def test_unicode_line_separators_do_not_split_a_line(self, tmp_path, char):
        size, _, report = read_facts_of(
            tmp_path, f"a{char}b,2012,1,1,1,1,1,1,1,1", "p,2012,13,1,1,1,1,1,1,1"
        )
        assert [record.key.project for record in size] == [f"a{char}b"]
        assert [m.line for m in report.malformed] == [3]
        read_both_ways(tmp_path / "facts.csv", f"a{char}b,2012,1,1,1,1,1,1,1,1")

    @pytest.mark.parametrize(
        "lines,last",
        [
            (["a\0b,2012,1,1,1,1,1,1,1,1", "p,2012,13,1,1,1,1,1,1,1"], 3),
            (["p,2012,1,1,1,1,1,1,1,1\rp,2012,13,1,1,1,1,1,1,1", "p,2012,0,1,1,1,1,1,1,1"], 4),
            (["p,2012,1,1,1,1,1,1,1,1", 'p,2012,2,"1\n\n",1,1,1,1,1,1', "p,2012,0,1,1,1,1,1,1,1"], 6),
        ],
        ids=["NUL", "lone-CR", "quoted-line-break"],
    )
    def test_line_numbers_after_a_line_for_csv_reader(self, tmp_path, lines, last):
        _, _, report = read_facts_of(tmp_path, *lines)
        assert report.malformed[-1].line == last
        read_both_ways(tmp_path / "facts.csv", *lines)

    def test_rows_after_a_quoted_row_take_the_plain_line_path(self, tmp_path, monkeypatch):
        parse, rows = ingest._parse_facts_row, []

        def spy(row, *args):
            rows.append(row)
            return parse(row, *args)

        monkeypatch.setattr(ingest, "_parse_facts_row", spy)
        lines = [f"p,2012,{month},1,1,1,1,1,1,1" for month in range(1, 13)]
        size, activity, report = read_facts_of(tmp_path, quote_first_cell(lines[0]), *lines[1:])
        assert rows == [lines[0].split(",")]
        assert len(size) == len(activity) == report.records_read == 12


@pytest.mark.parametrize(
    "reader,first,line",
    [
        (read_metadata, None, '{{"name": "p{}"}}'),
        (read_facts, HEADER, "p{},2012,1,1,1,1,1,1,1,1"),
    ],
    ids=["metadata", "facts"],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_non_utf8_error_names_the_line(tmp_path, reader, first, line, newline):
    # 3,000 lines put the bad byte well past the first decoded chunk.
    lines = [line.format(i) for i in range(3000)]
    if first is not None:
        lines.insert(0, first)
    data = newline.join(lines).encode("utf-8").split(newline.encode())
    data.insert(2500, b"caf\xe9")
    path = tmp_path / "input"
    path.write_bytes(newline.encode().join(data) + newline.encode())
    # Metadata lines end at \n alone, so a file parted by lone \r is one line.
    lineno = 1 if reader is read_metadata and newline == "\r" else 2501
    with pytest.raises(IngestError, match=rf"^{re.escape(str(path))}:{lineno}: not UTF-8 text \("):
        reader(path)


class TestRoundTrip:
    def write(self, path, size, activity, rng=None):
        """Write size records and activity keys as facts rows, an absent half's cells empty.

        The cells that no record keeps, comments, blanks and the activity
        counts, get valid values drawn from ``rng``.
        """
        rng = rng or random.Random(0)
        locs, active = {record.key: record.loc for record in size}, set(activity)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(FACTS_HEADER)
            for key in sorted(locs.keys() | active):
                size_cells = ("",) * 3
                if key in locs:
                    size_cells = (locs[key], rng.randint(0, 500), rng.randint(0, 500))
                activity_cells = ("",) * 4
                if key in active:
                    activity_cells = [rng.randint(0, bound) for bound in (1000, 1000, 50, 20)]
                writer.writerow([*key, *size_cells, *activity_cells])

    def random_records(self, rng):
        size, activity = [], []
        for project in ("apple", "pear", "plum"):
            for year in (2010, 2011):
                for month in range(1, 13):
                    which = rng.choice(("size", "activity", "both", "none"))
                    key = FactKey(project, year, month)
                    if which in ("size", "both"):
                        size.append(SizeRecord(key, rng.randint(-10, 10_000)))
                    if which in ("activity", "both"):
                        activity.append(key)
        return size, activity

    def test_write_then_read_is_identity(self, tmp_path):
        rng = random.Random(42)
        for round_number in range(5):
            size, activity = self.random_records(rng)
            path = tmp_path / f"roundtrip_{round_number}.csv"
            self.write(path, size, activity, rng)
            size_back, activity_back, report = read_facts(path)
            assert report.malformed_records == 0
            assert set(size_back) == set(size)
            assert set(activity_back) == set(activity)

    def test_header_is_bit_exact(self, tmp_path):
        readme_header = (
            "project,year,month,loc,comments,blanks,loc_added,loc_removed,commits,contributors"
        )
        assert HEADER == readme_header
        path = tmp_path / "facts.csv"
        path.write_text(readme_header + "\nproj,2012,1,10,1,1,,,,\n", encoding="utf-8")
        size, activity, report = read_facts(path)
        assert (len(size), activity, report.malformed_records) == (1, [], 0)

    def test_project_name_with_comma_survives(self, tmp_path):
        key = FactKey("odd, name", 2012, 1)
        path = tmp_path / "facts.csv"
        self.write(path, [SizeRecord(key, 10)], [])
        size, _, report = read_facts(path)
        assert size[0].key == key and report.malformed_records == 0


class TestSharedValues:
    """A repeated value is one object, and the per-record types carry no ``__dict__``."""

    @pytest.fixture
    def inputs(self, tmp_path):
        git = '{"type": "GitRepository", "url": "https://example.org/%s.git"}'
        write_lines(
            tmp_path / "meta.jsonl",
            '{"name": "proj", "enlistments": [%s, %s]}' % (git % "a", git % "b"),
            '{"name": "other", "enlistments": [%s]}' % (git % "c"),
        )
        write_lines(
            tmp_path / "facts.csv",
            HEADER,
            "proj,2012,1,1,1,1,1,1,1,1",
            "proj,2012,2,1,1,1,1,1,1,1",
            "other,2012,3,1,1,1,1,1,1,1",
        )
        return tmp_path / "meta.jsonl", tmp_path / "facts.csv"

    def test_equal_enlistment_types_are_one_object(self, inputs):
        metas, _ = read_metadata(inputs[0])
        kinds = [e.kind for meta in metas for e in meta.enlistments]
        assert kinds == ["GitRepository"] * 3
        assert len({id(kind) for kind in kinds}) == 1

    @pytest.mark.parametrize("metadata_first", [True, False])
    def test_metadata_and_facts_share_a_project_name(self, inputs, metadata_first):
        if metadata_first:
            metas, _ = read_metadata(inputs[0])
            size, activity, _ = read_facts(inputs[1])
        else:
            size, activity, _ = read_facts(inputs[1])
            metas, _ = read_metadata(inputs[0])
        by_name = {meta.name: meta for meta in metas}
        for key in [record.key for record in size] + activity:
            assert by_name[key.project].name is key.project

    def test_plain_rows_of_one_year_share_the_year(self, inputs):
        size, _, _ = read_facts(inputs[1])
        assert len({id(record.key.year) for record in size}) == 1

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_equal_short_year_cells_are_one_int(self, tmp_path, newline):
        # int("2012") is a new object each time; the plain-line path keeps the
        # first, also after a malformed line that csv.reader reads alone, for
        # the keys of both halves.
        write_lines(
            tmp_path / "facts.csv",
            HEADER,
            "p,2012,13,1,1,1,1,1,1,1",
            "p,2012,1,5000,1234,1234,1234,1234,1234,1234",
            "p,2012,2,5000,1234,1234,,,,",
            "p,2012,3,,,,1234,1234,1234,1234",
            newline=newline,
        )
        size, activity, _ = read_facts(tmp_path / "facts.csv")
        keys = [record.key for record in size] + activity
        assert len(keys) == 4 and len({id(key.year) for key in keys}) == 1

    def test_value_types_have_no_instance_dict(self, inputs):
        metas, _ = read_metadata(inputs[0])
        values = [
            metas[0],
            metas[0].enlistments[0],
            YearlyAggregate("proj", 2012, 1, None, None, 0, 1),
            RecordDiagnostic("facts.csv", 2, "bad row"),
        ]
        assert [type(v) for v in values[:2]] == [ProjectMeta, Enlistment]
        for value in values:
            assert not hasattr(value, "__dict__"), type(value).__name__
