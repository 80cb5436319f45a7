"""Acceptance gate: every binding criterion asserted at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from baserates.cli import EXIT_OK, run_analyze
from baserates.facts import Enlistment, ProjectMeta
from baserates.metrics import aggregate_all
from baserates.sloc import classify_lines, default_registry, extension_map
from baserates.stats import (
    Metric,
    Observation,
    base_rate_posterior,
    boxplot_data,
    summarize,
)
from baserates.validate import SVN_URL_PATTERNS, validate_dataset
from conftest import SLOC_DIR, SLOC_MANIFEST, load_corpus, make_month


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def test_base_rate_posterior_reproduction():
    with criterion("posterior(0.20, 1.00, 0.70) = 0.4545 +/- 0.0005"):
        assert abs(base_rate_posterior(0.20, 1.00, 0.70) - 0.4545) <= 0.0005


def test_telescoping_properties_on_complete_years():
    with criterion(
        "1,000 complete project-years: cga and cgi telescope exactly"
    ):
        rng = random.Random(20130701)
        for _ in range(1000):
            locs = [rng.randint(1, 10_000_000) for _ in range(13)]
            facts = [make_month("p", 2011, 12, locs[0])]
            facts += [make_month("p", 2012, m, locs[m]) for m in range(1, 13)]
            by_year = {a.year: a for a in aggregate_all(facts)}
            assert by_year[2012].cga == locs[12] - locs[0]
            assert by_year[2012].cgi == locs[12] / locs[0]


def _implementation_outlier_set(values):
    outliers = set(boxplot_data(values).outlier_values)
    return {i for i, v in enumerate(values) if v in outliers}


def _oracle_outlier_set(values):
    # independent fence computation through the reference quantile routine
    q1 = float(np.quantile(values, 0.25, method="linear"))
    q3 = float(np.quantile(values, 0.75, method="linear"))
    low = q1 - 1.5 * (q3 - q1)
    high = q3 + 1.5 * (q3 - q1)
    return {i for i, v in enumerate(values) if v < low or v > high}


def _random_sample(rng, n):
    kind = rng.randrange(3)
    if kind == 0:
        return [rng.uniform(-1e6, 1e6) for _ in range(n)]
    if kind == 1:
        return [rng.lognormvariate(8, 2.5) for _ in range(n)]
    return [float(round(rng.gauss(0, 50))) for _ in range(n)]  # heavy duplicates


def test_outlier_oracle_equivalence():
    with criterion(
        "200 random samples (n <= 10,000): outlier sets equal the brute-force oracle"
    ):
        rng = random.Random(424242)
        mismatches = 0
        for _ in range(200):
            values = _random_sample(rng, rng.randint(1, 10_000))
            oracle = _oracle_outlier_set(values)
            # A point is an outlier by its value alone, so equal multisets of
            # outlier values mean equal index sets.
            if boxplot_data(values).outlier_values != tuple(sorted(values[i] for i in oracle)):
                mismatches += 1
            observations = [Observation(f"p{i}", 2012, v) for i, v in enumerate(values)]
            assert summarize(observations, Metric.CS).outliers == len(oracle)
        assert mismatches == 0


def test_affine_invariance_of_outlier_sets():
    # Continuous samples only: a value sitting exactly on a fence (easy to
    # hit with integer-grid data) can flip under 1-ulp rounding of the
    # transformed fences, which is a float artifact, not a property failure.
    with criterion("outlier index sets invariant under 100 random x -> a*x + b maps"):
        rng = random.Random(77_001)
        for _ in range(100):
            n = rng.randint(10, 2000)
            if rng.random() < 0.5:
                values = [rng.uniform(-1e6, 1e6) for _ in range(n)]
            else:
                values = [rng.lognormvariate(8, 2.5) for _ in range(n)]
            a = math.exp(rng.uniform(-4, 4))
            b = rng.uniform(-1e6, 1e6)
            base = _implementation_outlier_set(values)
            moved = _implementation_outlier_set([a * v + b for v in values])
            assert base == moved


def test_validation_fixture_reproduces_hand_enumeration():
    with criterion(
        "10-project corpus: rule-by-rule counts match the hand enumeration "
        "and every month lands in exactly one bucket"
    ):
        metas, monthly = load_corpus()
        survivors, report = validate_dataset(metas, monthly, cutoff_year=2012)

        assert report.projects_collected == 10
        assert report.excluded_missing_data == 2  # hotel, india: size facts only
        assert report.excluded_svn_config == 1  # golf: top-level SVN URL
        assert report.projects_remaining == 7
        assert report.months_before_rule3 == 70
        assert report.excluded_negative_size == 1  # delta 2012-04
        assert report.months_remaining == 69
        assert report.years_remaining == 11
        assert report.after_cutoff.projects == 6  # juliet is entirely post-cutoff
        assert report.after_cutoff.months == 63
        assert report.after_cutoff.years == 8

        # partition: survivor or exactly one exclusion bucket
        survivor_keys = {fact.key for fact in survivors}
        meta_by_name = {m.name: m for m in metas}
        months_by_project = {}
        for fact in monthly:
            months_by_project.setdefault(fact.key.project, []).append(fact)
        rule1 = {
            name for name in months_by_project if name not in meta_by_name
        } | {
            meta.name
            for meta in metas
            if not months_by_project.get(meta.name)
        }
        rule2 = {"golf"}  # its one SVN URL is top-level; bravo's is trunk
        totals = {"rule1": 0, "rule2": 0, "rule3": 0, "cutoff": 0, "survivor": 0}
        for fact in monthly:
            memberships = []
            if fact.key.project in rule1:
                memberships.append("rule1")
            elif fact.key.project in rule2:
                memberships.append("rule2")
            elif fact.loc < 0:
                memberships.append("rule3")
            elif fact.key.year > 2012:
                memberships.append("cutoff")
            if fact.key in survivor_keys:
                memberships.append("survivor")
            assert len(memberships) == 1, f"{fact.key}: {memberships}"
            totals[memberships[0]] += 1
        assert totals == {
            "rule1": 0,  # the two rule-1 projects have no joined months
            "rule2": 3,
            "rule3": 1,
            "cutoff": 6,
            "survivor": 63,
        }


# Committed URL classification table; expected values assigned by hand
# against the six patterns. Positives cover every pattern family in
# mixed case; negatives cover top-level URLs, bare branches/ and tags/,
# and near-misses.
SVN_URL_CASES = [
    ("http://svn.example.org/repo/trunk", True),
    ("http://svn.example.org/repo/trunk/", True),
    ("HTTP://SVN.EXAMPLE.ORG/REPO/TRUNK", True),
    ("http://svn.example.org/a/b/head", True),
    ("svn://svn.example.org/proj/HEAD/", True),
    ("http://x.org/svn/sandbox", True),
    ("https://x.org/svn/SANDBOX/", True),
    ("http://x.org/repo/site", True),
    ("http://x.org/repo/Site/", True),
    ("http://x.org/repo/branches/stable_12", True),
    ("http://x.org/repo/BRANCHES/V2", True),
    ("http://x.org/repo/TAGS/v1", True),
    ("http://x.org/repo/tags/1_0_2", True),
    ("http://svn.example.org/repo", False),
    ("http://svn.example.org/", False),
    ("http://x.org/repo/branches/", False),
    ("http://x.org/repo/tags/", False),
    ("http://x.org/repo/branches", False),
    ("http://x.org/repo/tags", False),
    ("http://x.org/trunkish", False),
    ("http://x.org/repo/trunk/subdir", False),
    ("http://x.org/repo/branches/name/deeper", False),
    ("http://x.org/repo/tags/v1.2", False),
    ("http://x.org/headquarters", False),
    ("trunk", False),
]


def test_svn_regex_suite():
    with criterion(f"{len(SVN_URL_CASES)} SVN URLs classified with zero errors"):
        assert len(SVN_URL_CASES) >= 20
        # One project a URL, all screened in one call.
        metas = [
            ProjectMeta(f"p{i:02d}", (Enlistment("SvnRepository", url),))
            for i, (url, _) in enumerate(SVN_URL_CASES)
        ]
        monthly = [make_month(meta.name, 2010, 1, 10) for meta in metas]
        survivors, report = validate_dataset(metas, monthly, cutoff_year=2010)
        passed = {fact.key.project for fact in survivors}
        assert report.excluded_svn_config == len(metas) - len(passed)
        errors = []
        for meta, (url, expected) in zip(metas, SVN_URL_CASES):
            if (meta.name in passed) != expected:
                errors.append(url)
            # cross-check with a direct evaluation of the published patterns
            reference = any(
                re.fullmatch(pattern, url, re.IGNORECASE)
                for pattern in SVN_URL_PATTERNS
            )
            if reference != expected:
                errors.append(f"reference:{url}")
        assert errors == []


def test_loc_counter_fixtures():
    with criterion(
        f"{len(SLOC_MANIFEST)} hand-counted files: exact counts and "
        "code + comment + blank = total lines"
    ):
        assert len(SLOC_MANIFEST) >= 10
        by_extension = extension_map(default_registry())
        for name, expected in sorted(SLOC_MANIFEST.items()):
            path = SLOC_DIR / name
            text = path.read_bytes().decode("utf-8", errors="replace")
            counts = classify_lines(text, by_extension[path.suffix.lower()])
            assert (counts.code, counts.comment, counts.blank) == expected, name
            physical = text.count("\n") + (
                1 if text and not text.endswith("\n") else 0
            )
            assert counts.total == physical, name


def test_full_dataset_reproduction(tmp_path):
    """Reference totals for the full public 2013 snapshot, if supplied.

    Point BASERATES_DATASET at a directory holding the snapshot converted
    to the canonical metadata.jsonl / facts.csv formats. Growth-less years
    count as zero growth there, so the growth metrics cover every
    project-year.
    """
    dataset = os.environ.get("BASERATES_DATASET")
    if not dataset:
        pytest.skip("full data set not supplied (set BASERATES_DATASET)")
    root = Path(dataset)
    with criterion("full data set: validation counts and summary values reproduced"):
        code = run_analyze(
            {
                "metadata": str(root / "metadata.jsonl"),
                "facts": str(root / "facts.csv"),
                "cutoff_year": 2012,
                "growthless_year_policy": "zero",
                "out": str(tmp_path),
                "svg": False,
            }
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))

        validation = doc["validation"]
        assert validation["projects_collected"] == 12_360
        assert validation["excluded_missing_data"] == 586
        assert validation["excluded_svn_config"] == 931
        assert validation["projects_remaining"] == 10_843
        assert validation["months_before_rule3"] == 766_282
        assert validation["excluded_negative_size"] == 658
        assert validation["months_remaining"] == 765_624
        assert validation["years_remaining"] == 73_402
        assert validation["after_cutoff"] == {
            "projects": 10_762,
            "months": 701_376,
            "years": 64_020,
        }

        metrics = {m["metric"]: m for m in doc["metrics"]}
        cs, cga, cgi = metrics["CS"], metrics["CGa"], metrics["CGi"]
        assert cs["median"] == 27_998.5
        assert cs["iqr"] == 115_047
        assert cs["observations"] == 9_820
        assert cs["outliers"] == 1_317
        assert cga["median"] == 1_028
        assert cga["iqr"] == 11_640
        assert cga["observations"] == 64_020
        assert cga["outliers"] == 11_640
        assert abs(cgi["median"] - 1.054) <= 0.0005
        assert abs(cgi["iqr"] - 0.343) <= 0.0005
        assert cgi["observations"] == 64_020
        assert cgi["outliers"] == 9_928
