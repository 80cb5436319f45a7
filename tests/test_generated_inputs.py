"""The pipeline against the benchmark's generated inputs and their ground truth.

``bench/gen.py`` writes seeded ``metadata.jsonl``/``facts.csv`` pairs and
works out, from its own model of the data, what ingest, the join and the
validation table must report. Small versions of the two benchmark shapes
are checked here, so the accounting is tested on inputs with every kind
of defect, not only on the hand-made corpus. The same goes for ``count``
on a generated source tree, whose line kinds the generator records as it
writes each line.
"""

from __future__ import annotations

import dataclasses
import importlib
import random
import re
from pathlib import Path

import pytest

from baserates.facts import join_facts
from baserates.ingest import read_facts, read_metadata
from baserates.metrics import GROWTHLESS_POLICIES, aggregate_all
from baserates.sloc import count_tree, default_registry
from baserates.validate import validate_dataset
from conftest import load_corpus

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def gen(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    return importlib.import_module("gen")


def generated(gen, tmp_path, shape, seed):
    """Write one generated input pair; return its sidecar and the joined months."""
    sidecar = gen.write_facts_inputs(tmp_path, seed, shape)
    metas, meta_report = read_metadata(tmp_path / "metadata.jsonl")
    size, activity, facts_report = read_facts(tmp_path / "facts.csv")
    monthly, _ = join_facts(size, activity)
    return sidecar, metas, meta_report, facts_report, monthly


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("shape,projects", [("LONG", 30), ("WIDE", 300)])
def test_pipeline_matches_generator_ground_truth(gen, tmp_path, shape, projects, seed):
    small = dataclasses.replace(getattr(gen, shape), projects=projects)
    sidecar, metas, meta_report, facts_report, monthly = generated(gen, tmp_path, small, seed)

    assert {
        "metadata_records": meta_report.records_read,
        "metadata_malformed": meta_report.malformed_records,
        "facts_records": facts_report.records_read,
        "facts_malformed": facts_report.malformed_records,
    } == sidecar["ingest"]
    assert len(monthly) == sidecar["joined_months"]
    _, report = validate_dataset(metas, monthly, gen.CUTOFF_YEAR)
    assert report.to_dict() == sidecar["validation"]


@pytest.mark.parametrize("shape", ["LONG", "WIDE"])
def test_read_facts_reads_benchmark_inputs_as_csv_reader_does(gen, tmp_path, shape):
    gen.write_facts_inputs(tmp_path, 7, getattr(gen, shape))
    path = tmp_path / "facts.csv"
    plain = repr(read_facts(path))
    # Quoting each data row's name hands every row to csv.reader.
    header, rows = path.read_text(encoding="utf-8").split("\n", 1)
    quoted = re.sub(r'(?m)^([^,"\n]*),', r'"\1",', rows)
    path.write_text(f"{header}\n{quoted}", encoding="utf-8")
    assert repr(read_facts(path)) == plain


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("source", ["corpus", "wide"])
def test_results_do_not_depend_on_input_order(gen, tmp_path, source, seed):
    if source == "corpus":
        metas, monthly = load_corpus()
    else:
        small = dataclasses.replace(gen.WIDE, projects=300)
        _, metas, _, _, monthly = generated(gen, tmp_path, small, 7)
    rng = random.Random(seed)

    def shuffled(records):
        records = list(records)
        rng.shuffle(records)
        return records

    survivors, report = validate_dataset(metas, monthly, 2012)
    assert survivors == sorted(survivors, key=lambda fact: fact.key)
    assert validate_dataset(metas, shuffled(monthly), 2012) == (survivors, report)
    for policy in GROWTHLESS_POLICIES:
        assert aggregate_all(shuffled(survivors), policy) == aggregate_all(survivors, policy)


@pytest.mark.parametrize("seed", [7, 8])
def test_count_matches_generator_ground_truth(gen, tmp_path, seed):
    sidecar = gen.write_source_tree(tmp_path, seed, 200_000)
    tree = count_tree(tmp_path, default_registry())

    assert tree.unreadable == [] and tree.skipped == sidecar["skipped"]
    assert {
        fc.path: {
            "language": fc.language,
            "code": fc.counts.code,
            "comment": fc.counts.comment,
            "blank": fc.counts.blank,
        }
        for fc in tree.files
    } == sidecar["files"]
    assert {
        name: [counts.code, counts.comment, counts.blank]
        for name, counts in tree.by_language.items()
    } == sidecar["by_language"]
    assert [tree.total.code, tree.total.comment, tree.total.blank] == sidecar["total"]
