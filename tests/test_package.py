"""Package surface: the names README documents and the calls the benchmark times."""

from __future__ import annotations

import ast
import enum
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import baserates
from baserates.facts import join_facts
from baserates.ingest import read_facts, read_metadata
from baserates.validate import validate_dataset
from conftest import CORPUS, SLOC_DIR, child_env

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "bench"
SRC = Path(baserates.__file__).resolve().parent


def test_readme_library_names_are_exported():
    # README's import block is the promised surface, so an export or a
    # deletion must update README.
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    imported = re.search(r"from baserates import \(([^)]*)\)", section).group(1)
    names = re.findall(r"\w+", re.sub(r"#.*", "", imported))
    assert sorted(names) == baserates.__all__


def test_every_public_function_is_exported_or_called():
    # A public function that is neither promised nor used by the program is
    # dead code, however many tests call it.
    defs, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs += [
            (path.name, node)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name:
                uses.append((path.name, node.lineno, name))
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, node in defs
        if node.name not in baserates.__all__
        and not any(
            name == node.name
            and not (module == where and node.lineno <= line <= node.end_lineno)
            for where, line, name in uses
        )
    ]
    assert unused == []


def test_every_exported_name_resolves():
    # A dangling entry would make `from baserates import *` raise AttributeError.
    missing = [name for name in baserates.__all__ if not hasattr(baserates, name)]
    assert missing == []
    assert len(set(baserates.__all__)) == len(baserates.__all__)


def test_every_exported_class_is_a_named_tuple_enum_or_exception():
    classes = {name: getattr(baserates, name) for name in baserates.__all__}
    classes = {name: value for name, value in classes.items() if isinstance(value, type)}
    assert {"IngestReport", "Metric", "IngestError", "TreeCount"} <= set(classes)
    odd = [
        name
        for name, cls in classes.items()
        if not (issubclass(cls, tuple) and hasattr(cls, "_fields"))
        and not issubclass(cls, (enum.Enum, Exception))
    ]
    assert odd == []


def test_unknown_name_raises_attribute_error():
    assert not hasattr(baserates, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        baserates.no_such_name


# Run in a fresh interpreter, so no other test has imported a module yet.
# argv: the command to run; each command must load only its own modules, and
# none loads dataclasses (with inspect, ast and dis behind it) at start-up.
FRESH_IMPORTS = """
import sys
from baserates import cli

watched = ["dataclasses", "logging"]
watched += ["baserates." + name for name in ("ingest", "report", "sloc", "stats", "validate")]
cli.build_parser()
print([name for name in watched if name in sys.modules])
code = cli.main(sys.argv[1:])
print(code, [name for name in watched if name in sys.modules])

import baserates
print(sorted(set(baserates.__all__) - set(dir(baserates))))
namespace = {}
exec("from baserates import *", namespace)
print(sorted(set(baserates.__all__) - set(namespace)))
"""


def test_count_loads_no_analyze_module(tmp_path):
    analyze = ["baserates." + name for name in ("ingest", "report", "stats", "validate")]
    commands = {
        "count": (
            ["count", "--root", str(SLOC_DIR), "--out", str(tmp_path / "counts.csv")],
            ["baserates.sloc"],
        ),
        # analyze never loads the line counter
        "analyze": (
            [
                "analyze",
                "--metadata",
                str(CORPUS / "metadata.jsonl"),
                "--facts",
                str(CORPUS / "facts.csv"),
                "--cutoff-year",
                "2012",
                "--out",
                str(tmp_path / "out"),
            ],
            analyze,
        ),
    }
    for command, (argv, loaded) in commands.items():
        result = subprocess.run(
            [sys.executable, "-c", FRESH_IMPORTS, *argv],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        # After build_parser, after the command, then names missing from dir()
        # and from `import *`.
        assert result.stdout.splitlines() == ["[]", f"0 {loaded}", "[]", "[]"], command


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("run")


def run_trace_pass(args, cwd):
    result = subprocess.run(
        [sys.executable, str(BENCH / "trace_pass.py"), *args],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_trace_pass_reports_every_analyze_stage(tmp_path, bench_run):
    stages = run_trace_pass(
        [
            "analyze",
            "--metadata",
            str(CORPUS / "metadata.jsonl"),
            "--facts",
            str(CORPUS / "facts.csv"),
            "--cutoff-year",
            "2012",
            "--out",
            str(tmp_path / "out"),
            "--svg",
        ],
        tmp_path,
    )
    assert set(bench_run.ANALYZE_LAYERS) <= set(stages)
    # Each count means what its name says, whatever shape the records take.
    size, activity, facts_report = read_facts(CORPUS / "facts.csv")
    joined, diagnostics = join_facts(size, activity)
    metas, _ = read_metadata(CORPUS / "metadata.jsonl")
    _, validation = validate_dataset(metas, joined, 2012)
    aggregates = (tmp_path / "out" / "yearly_aggregates.csv").read_text(encoding="utf-8")
    expected = {
        "ingest.read_facts.records": facts_report.records_read,
        "ingest.read_facts.malformed": facts_report.malformed_records,
        "facts.join.in": len(size) + len(activity),
        "facts.join.out": len(joined),
        "facts.join.duplicates": len(diagnostics),
        "validate.months_out": validation.after_cutoff.months,
        "metrics.aggregate.project_years": len(aggregates.splitlines()) - 1,  # less the header
    }
    assert {name: stages[name] for name in expected} == expected


def test_trace_pass_reports_every_count_stage(tmp_path, bench_run):
    stages = run_trace_pass(
        ["count", "--root", str(SLOC_DIR), "--out", str(tmp_path / "counts.csv")],
        tmp_path,
    )
    assert set(bench_run.COUNT_LAYERS) <= set(stages)
