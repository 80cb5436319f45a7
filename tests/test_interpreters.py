"""The same outputs under every supported interpreter (`requires-python`).

Point BASERATES_PYTHONS at one or more interpreter paths, joined with
`os.pathsep`. Each one runs, in a child process, the golden
`analyze --svg` pipeline, whose outputs must match the goldens byte for
byte, `count` over the line-classification fixtures, and `read_facts` on
facts files whose lines take the csv.reader path; the last two must give
this interpreter's own output. `read_metadata` on the metadata oracle's
edge lines must give what that oracle gives under the same interpreter,
since `json`'s messages may differ between versions. The children import
only the stdlib-only package, so they need no pytest. Without the
variable the tests skip.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys

import pytest

import test_metadata_oracle
from baserates.ingest import FACTS_HEADER
from conftest import GOLDEN, GOLDEN_FILES, SLOC_DIR, child_env, run_pipeline

PYTHONS = [path for path in os.environ.get("BASERATES_PYTHONS", "").split(os.pathsep) if path]


@pytest.fixture(params=PYTHONS or [None], ids=str)
def python(request):
    if request.param is None:
        pytest.skip("no other interpreters supplied (set BASERATES_PYTHONS)")
    return request.param


def test_golden_outputs(python, tmp_path):
    out = run_pipeline(tmp_path, python=python)
    for name in GOLDEN_FILES:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def count_fixtures(python):
    result = subprocess.run(
        [python, "-m", "baserates", "count", "--root", str(SLOC_DIR)],
        env=child_env(),
        capture_output=True,
        timeout=120,
    )
    return result.returncode, result.stdout, result.stderr


def test_count_matches_this_interpreter(python):
    assert count_fixtures(python) == count_fixtures(sys.executable)


# Data lines that the plain-line pattern does not accept, each followed by
# a malformed row whose diagnostic names its line. A NUL is left out: the
# csv module of 3.10 rejects it, and later ones read it.
CSV_READER_LINES = {
    "quoted-first-row": '"p",2012,1,1,1,1,1,1,1,1\np,2012,2,1,1,1,1,1,1,1\n'
    "p,2012,13,1,1,1,1,1,1,1\n",
    "quoted-line-break": 'p,2012,1,1,1,1,1,1,1,1\np,2012,2,"1\n\n",1,1,1,1,1,1\n'
    "p,2012,0,1,1,1,1,1,1,1\n",
    "lone-CR": "p,2012,1,1,1,1,1,1,1,1\rp,2012,13,1,1,1,1,1,1,1\n"
    "p,2012,0,1,1,1,1,1,1,1\n",
}


def read_facts_reprs(python, paths):
    script = "import sys\nfrom baserates.ingest import read_facts\n"
    script += "for path in sys.argv[1:]:\n    print(repr(read_facts(path)))\n"
    result = subprocess.run(
        [python, "-c", script, *paths], env=child_env(), capture_output=True, timeout=120
    )
    return result.returncode, result.stdout, result.stderr


def test_csv_reader_lines_match_this_interpreter(python, tmp_path):
    paths = []
    for name, lines in CSV_READER_LINES.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes((",".join(FACTS_HEADER) + "\n" + lines).encode("utf-8"))
        paths.append(str(path))
    assert read_facts_reprs(python, paths) == read_facts_reprs(sys.executable, paths)


def test_metadata_edge_lines_match_the_oracle(python, tmp_path):
    path = tmp_path / "metadata.jsonl"
    test_metadata_oracle.write_metadata(path, test_metadata_oracle.EDGE_LINES)
    # The child defines the oracle from its source, so it needs no hypothesis.
    script = "import json, sys\nfrom pathlib import Path\nfrom baserates import ingest\n"
    script += "from baserates.ingest import IngestReport, RecordDiagnostic, _open_utf8, _parse_meta\n"
    script += inspect.getsource(test_metadata_oracle.read_metadata)
    script += "print(repr(ingest.read_metadata(sys.argv[1])))\nprint(repr(read_metadata(sys.argv[1])))\n"
    result = subprocess.run(
        [python, "-c", script, str(path)], env=child_env(), capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    subject, oracle = result.stdout.splitlines()
    assert subject == oracle
