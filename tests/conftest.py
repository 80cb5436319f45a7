"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

# Leave no bytecode beside the sources: a benchmark run would load it and
# skip compiling them, and so time another program than a fresh checkout.
sys.dont_write_bytecode = True

import baserates
from baserates.facts import FactKey, SizeRecord

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
GOLDEN = FIXTURES / "golden"
SLOC_DIR = FIXTURES / "sloc"

# The directory that holds the imported `baserates` package, absolute so a
# child interpreter finds the same package from its own working directory
# (a relative PYTHONPATH entry such as `src` would resolve against it).
PACKAGE_ROOT = Path(baserates.__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def gc_left_as_found():
    """Fail a test that leaves the cyclic GC switched other than it found it."""
    enabled = gc.isenabled()
    yield
    if gc.isenabled() != enabled:
        (gc.enable if enabled else gc.disable)()
        pytest.fail(f"test left gc.isenabled() {not enabled}, found it {enabled}")


def child_env() -> dict[str, str]:
    """This process's environment with PACKAGE_ROOT first on PYTHONPATH, writing no bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return env


GOLDEN_FILES = [
    "report.txt",
    "report.json",
    "yearly_aggregates.csv",
    "boxplot_cs.svg",
    "boxplot_cga.svg",
    "boxplot_cgi.svg",
]


def run_pipeline(workdir, hash_seed=None, python=sys.executable):
    """Run `python -m baserates analyze` on a copy of the corpus in workdir.

    The copy gives the run stable relative paths, which the config echo in
    report.txt and report.json records. `hash_seed`, when given, pins the
    child's PYTHONHASHSEED; `python` is the interpreter the child runs on.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    shutil.copy(CORPUS / "metadata.jsonl", workdir / "metadata.jsonl")
    shutil.copy(CORPUS / "facts.csv", workdir / "facts.csv")
    env = child_env()
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    result = subprocess.run(
        [
            python,
            "-m",
            "baserates",
            "analyze",
            "--metadata",
            "metadata.jsonl",
            "--facts",
            "facts.csv",
            "--cutoff-year",
            "2012",
            "--out",
            "out",
            "--svg",
        ],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return workdir / "out"


# Hand-counted (code, comment, blank) for every line-classification fixture.
SLOC_MANIFEST = {
    "hello.c": (5, 3, 2),
    "strings.c": (3, 1, 0),
    "block.c": (2, 4, 1),
    "nested.c": (2, 0, 0),
    "empty.txt": (0, 0, 0),
    "blanks.py": (2, 2, 2),
    "hash_strings.py": (3, 1, 0),
    "notes.txt": (3, 0, 1),
    "no_newline.c": (2, 0, 0),
    "crlf.c": (1, 1, 1),
    "only_comment.c": (0, 2, 0),
    "mixed.sh": (2, 2, 0),
    "unclosed.c": (0, 2, 0),
    # Whitespace beyond ASCII, U+200B and U+FEFF, a lone CR, no final newline.
    "unicode_space.c": (4, 2, 5),
}


def load_corpus():
    """Metadata and the joined months' size records of the committed 10-project corpus."""
    from baserates.facts import join_facts
    from baserates.ingest import read_facts, read_metadata

    metas, _ = read_metadata(CORPUS / "metadata.jsonl")
    size, activity, _ = read_facts(CORPUS / "facts.csv")
    monthly, diagnostics = join_facts(size, activity)
    assert diagnostics == []
    return metas, monthly


def make_month(project: str, year: int, month: int, loc: int) -> SizeRecord:
    return SizeRecord(FactKey(project, year, month), loc)


def month_run(project: str, year: int, locs, start_month: int = 1):
    """SizeRecords for consecutive months of one year with the given loc values."""
    return [
        make_month(project, year, start_month + offset, loc)
        for offset, loc in enumerate(locs)
    ]
