"""The same outputs under every supported interpreter (`requires-python`).

Point BASERATES_PYTHONS at one or more interpreter paths, joined with
`os.pathsep`. Each one runs, in a child process, the golden
`analyze --svg` pipeline, whose outputs must match the goldens byte for
byte, and `count` over the line-classification fixtures, whose output
must match this interpreter's own. The children import only the
stdlib-only package, so they need no pytest. Without the variable the
tests skip.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

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
