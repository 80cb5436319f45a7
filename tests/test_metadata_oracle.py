"""Differential tests of ``read_metadata`` against its ``json.loads`` reader.

``read_metadata`` below is the metadata reader the package used before
it called the JSON scanner itself: it hands every line to ``json.loads``
and writes each diagnostic from the error that raises. It serves here as
the oracle: on any metadata file the package must return the same
records, counts and diagnostics, with the same ``repr``. The lines are
drawn from the edges of the scanner's path: whitespace that JSON allows
and whitespace that only ``str.isspace`` or ``str.strip`` allow, before
and after the value; a BOM; values that are not objects or are followed
by more; names that JSON escapes; constants beyond JSON proper; an
integer past ``int()``'s digit limit and nesting past the recursion
limit.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from baserates import ingest
from baserates.ingest import IngestReport, RecordDiagnostic, _open_utf8, _parse_meta


def read_metadata(path):
    """Parse one JSON object per line into project metadata records."""
    metas = []
    malformed = []
    records_read = 0
    seen = set()
    path = Path(path)
    with _open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():  # iteration yields no empty line
                continue
            records_read += 1
            try:
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


# JSON's whitespace; whitespace that str.isspace and str.strip accept but
# JSON does not (U+001C splits str.splitlines but not a file's lines); a BOM.
SPACES = [
    "", " ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000", "\ufeff",
]
# Values that are no single object, or hold what only Python's json reads.
ODD_VALUES = [
    "{}",
    "{} {}",
    "{}x",
    '{"name": "a"} {"name": "b"}',
    '{"name": "a", "name": "b"}',
    "NaN",
    "-Infinity",
    "1e400",
    '{"name": "c", "x": [NaN, -Infinity, 1e400]}',
    '{"name": "d", "x": %s}' % ("9" * 4301),
    "[" * 100_000 + "]" * 100_000,
    "null",
    '"a"',
    "{",
    "",
    '{"name": "\\ud83d\\ude00", "enlistments": null}',
]
# Names that JSON writes with escapes: a quote, a backslash, é and U+2028.
NAMES = st.text(st.sampled_from('ab"\\é\u2028 '), max_size=3)
OBJECTS = st.builds(
    lambda name, kind, ascii: json.dumps(
        {"name": name, "enlistments": [{"type": kind, "url": "u"}]}, ensure_ascii=ascii
    ),
    NAMES,
    st.sampled_from(["svn", "git"]),
    st.booleans(),
)
LINES = st.builds(
    lambda before, value, after: before + value + after,
    st.sampled_from(SPACES),
    st.one_of(OBJECTS, st.sampled_from(ODD_VALUES)),
    st.sampled_from(SPACES),
)
# One line of each kind, as a fixed file for other interpreters.
EDGE_LINES = [
    *ODD_VALUES,
    *(space + '{"name": "before%d"}' % i for i, space in enumerate(SPACES)),
    *('{"name": "after%d"}' % i + space for i, space in enumerate(SPACES)),
    json.dumps({"name": 'q"\\é\u2028'}),
    json.dumps({"name": 'q"\\é\u2028'}, ensure_ascii=False),
]


def write_metadata(path, lines) -> None:
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(LINES, max_size=12))
def test_read_metadata_matches_oracle(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metadata.jsonl"
        write_metadata(path, lines)
        assert repr(ingest.read_metadata(path)) == repr(read_metadata(path))


def test_edge_lines_match_oracle(tmp_path):
    path = tmp_path / "metadata.jsonl"
    write_metadata(path, EDGE_LINES)
    metas, report = ingest.read_metadata(path)
    assert repr((metas, report)) == repr(read_metadata(path))
    assert metas and report.malformed  # the file holds both kinds
