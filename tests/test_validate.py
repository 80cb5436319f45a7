"""Exclusion rules: SVN screening, rule ordering, and the accounting report."""

from __future__ import annotations

import re

import pytest

from baserates.facts import Enlistment, FactKey, ProjectMeta
from baserates.report import build_report, render_text
from baserates.validate import (
    SVN_URL_PATTERNS,
    AfterCutoff,
    ValidationReport,
    table_rows,
    validate_dataset,
)
from conftest import load_corpus, make_month
from test_validate_oracle import check_svn_enlistments, is_svn


def passes_svn_screen(*enlistments):
    """Whether one project of one month with these enlistments survives rule 2."""
    metas = [ProjectMeta("p", enlistments)]
    survivors, report = validate_dataset(metas, [make_month("p", 2010, 1, 10)], 2010)
    assert report.excluded_svn_config + len(survivors) == 1
    return bool(survivors)


def svn(url, kind="SvnRepository"):
    return Enlistment(kind, url)


class TestCheckSvnEnlistments:
    """Rule 2 as ``validate_dataset`` applies it to one project."""

    def test_trunk_url_passes(self):
        assert passes_svn_screen(svn("http://svn.example.org/repo/trunk"))

    def test_top_level_url_fails(self):
        assert not passes_svn_screen(svn("http://svn.example.org/repo"))

    def test_git_only_project_passes_vacuously(self):
        assert passes_svn_screen(Enlistment("GitRepository", "http://x/repo"))

    def test_no_enlistments_passes(self):
        assert passes_svn_screen()

    def test_mixed_case_tags_url_passes_and_matches_reference_engine(self):
        url = "http://svn.example.org/repo/TAGS/v1"
        reference = any(
            re.fullmatch(pattern, url, re.IGNORECASE) for pattern in SVN_URL_PATTERNS
        )
        assert passes_svn_screen(svn(url)) and reference

    def test_svnsync_enlistments_are_screened_too(self):
        assert not passes_svn_screen(svn("http://svn.example.org/repo", kind="SvnSyncRepository"))

    def test_one_bad_url_fails_project_with_good_urls(self):
        assert not passes_svn_screen(svn("http://svn/x/trunk"), svn("http://svn/x"))


def project(name, *enlistments):
    return ProjectMeta(name, tuple(enlistments))


GIT = Enlistment("GitRepository", "https://x.org/repo")


class TestValidateDataset:
    def test_corpus_reproduces_hand_enumerated_report(self):
        metas, monthly = load_corpus()
        survivors, report = validate_dataset(metas, monthly, cutoff_year=2012)
        assert report == ValidationReport(
            projects_collected=10,
            excluded_missing_data=2,
            excluded_svn_config=1,
            projects_remaining=7,
            months_before_rule3=70,
            excluded_negative_size=1,
            months_remaining=69,
            years_remaining=11,
            after_cutoff=AfterCutoff(projects=6, months=63, years=8),
        )
        assert len(survivors) == 63

    def test_clean_projects_and_late_cutoff_survive_unchanged(self):
        metas = [project("a", GIT), project("b", GIT)]
        monthly = [make_month("a", 2010, 1, 10), make_month("b", 2011, 2, 20)]
        survivors, report = validate_dataset(metas, monthly, cutoff_year=2020)
        assert survivors == sorted(monthly, key=lambda f: f.key)
        assert report.excluded_missing_data == 0
        assert report.excluded_svn_config == 0
        assert report.excluded_negative_size == 0
        assert report.after_cutoff == AfterCutoff(2, 2, 2)

    def test_project_with_facts_but_no_metadata_counts_as_missing_data(self):
        metas = [project("a", GIT)]
        monthly = [make_month("a", 2010, 1, 10), make_month("ghost", 2010, 1, 10)]
        _, report = validate_dataset(metas, monthly, cutoff_year=2020)
        assert report.projects_collected == 2
        assert report.excluded_missing_data == 1
        assert report.projects_remaining == 1

    def test_negative_month_dropped_but_project_kept(self):
        metas = [project("a", GIT)]
        monthly = [make_month("a", 2010, 1, -5), make_month("a", 2010, 2, 10)]
        survivors, report = validate_dataset(metas, monthly, cutoff_year=2020)
        assert [f.key.month for f in survivors] == [2]
        assert report.excluded_negative_size == 1
        assert report.projects_remaining == 1

    def test_cutoff_before_all_data_warns_and_empties(self):
        # The warning is the CLI's (tests/test_cli.py); the library only empties.
        metas = [project("a", GIT)]
        monthly = [make_month("a", 2010, 1, 10)]
        survivors, report = validate_dataset(metas, monthly, cutoff_year=1990)
        assert survivors == []
        assert report.months_remaining == 1  # rule 3 kept it; cut-off removed it
        assert report.after_cutoff == AfterCutoff(0, 0, 0)

    def test_zero_months_after_cutoff_excludes_project_from_final_count(self):
        metas = [project("a", GIT), project("late", GIT)]
        monthly = [make_month("a", 2010, 1, 10), make_month("late", 2013, 1, 10)]
        _, report = validate_dataset(metas, monthly, cutoff_year=2012)
        assert report.projects_remaining == 2
        assert report.after_cutoff.projects == 1

    # Kinds in odd case and padding, SVN or not.
    SCREEN_KINDS = [" SVN ", "Subversion\t", "svnsync", "SvnSyncRepository", "GitRepository", "X"]

    def test_each_kind_screens_as_is_svn_says(self):
        unscoped, scoped = "http://svn.example.org/repo", "http://svn.example.org/repo/trunk"
        # Two projects a kind, and one project mixing an SVN kind with another.
        metas = [
            ProjectMeta(f"p{i:02d}", (Enlistment(kind, unscoped),))
            for i, kind in enumerate(self.SCREEN_KINDS * 2)
        ]
        metas.append(ProjectMeta("mixed", (Enlistment("X", unscoped), Enlistment(" SVN ", scoped))))
        monthly = [make_month(meta.name, 2010, 1, 10) for meta in metas]
        survivors, report = validate_dataset(metas, monthly, cutoff_year=2020)
        passing = [
            meta.name
            for meta in metas
            if not any(is_svn(e.kind) and e.url == unscoped for e in meta.enlistments)
        ]
        assert [fact.key.project for fact in survivors] == sorted(passing)
        assert report.excluded_svn_config == 8  # four SVN kinds, twice

    def test_rule_order_independence_via_set_algebra(self):
        """Survivors equal the months of projects passing both project rules.

        Rules one and two are predicates on independent evidence, so the
        surviving set must match a direct both-predicates computation
        regardless of application order.
        """
        metas, monthly = load_corpus()
        survivors, _ = validate_dataset(metas, monthly, cutoff_year=2012)

        meta_by_name = {m.name: m for m in metas}
        months_by_project = {}
        for fact in monthly:
            months_by_project.setdefault(fact.key.project, []).append(fact)
        passing = {
            name
            for name, months in months_by_project.items()
            if name in meta_by_name
            and months
            and check_svn_enlistments(meta_by_name[name])[0]
        }
        expected = {
            fact.key
            for fact in monthly
            if fact.key.project in passing and fact.loc >= 0 and fact.key.year <= 2012
        }
        assert {fact.key for fact in survivors} == expected

    def test_every_month_lands_in_exactly_one_bucket(self):
        """Partition property over the corpus: survivor or one exclusion bucket."""
        metas, monthly = load_corpus()
        survivors, report = validate_dataset(metas, monthly, cutoff_year=2012)
        survivor_keys = {fact.key for fact in survivors}

        meta_by_name = {m.name: m for m in metas}
        months_by_project = {}
        for fact in monthly:
            months_by_project.setdefault(fact.key.project, []).append(fact)
        rule1 = {
            name
            for name in months_by_project
            if name not in meta_by_name or not months_by_project[name]
        }
        rule2 = {
            name
            for name in months_by_project
            if name not in rule1 and not check_svn_enlistments(meta_by_name[name])[0]
        }

        buckets = {"rule1": 0, "rule2": 0, "rule3": 0, "cutoff": 0, "survivor": 0}
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
            assert len(memberships) == 1, f"{fact.key} in {memberships}"
            buckets[memberships[0]] += 1

        assert buckets["rule2"] == 3  # golf's three months
        assert buckets["rule3"] == report.excluded_negative_size
        assert buckets["survivor"] == report.after_cutoff.months
        assert (
            buckets["cutoff"]
            == report.months_remaining - report.after_cutoff.months
        )

    def test_report_invariants_hold_on_corpus(self):
        metas, monthly = load_corpus()
        _, report = validate_dataset(metas, monthly, cutoff_year=2012)
        assert (
            report.projects_remaining
            == report.projects_collected
            - report.excluded_missing_data
            - report.excluded_svn_config
        )
        assert (
            report.months_remaining
            == report.months_before_rule3 - report.excluded_negative_size
        )


class TestReportRendering:
    def sample_report(self):
        return ValidationReport(10, 2, 1, 7, 70, 1, 69, 11, AfterCutoff(6, 63, 8))

    def test_to_dict_round_trips_every_field(self):
        report = self.sample_report()
        doc = report.to_dict()
        assert doc["projects_collected"] == 10
        assert doc["after_cutoff"] == {"projects": 6, "months": 63, "years": 8}

    def test_table_row_order(self):
        rows = table_rows(self.sample_report().to_dict())
        assert [value for _, value in rows] == [10, 2, 1, 7, 70, 1, 69, 11, 6, 63, 8]
        labels = [label for label, _ in rows]
        assert labels[0] == "Projects collected"
        assert labels[1].startswith("1.")
        assert labels[2].startswith("2.")
        assert labels[3] == "Projects remaining"
        assert labels[5].startswith("3.")
        assert labels[-3:] == [
            "Projects finally remaining after cut-off",
            "Project months finally remaining after cut-off",
            "Project years finally remaining after cut-off",
        ]

    def test_text_rendering_is_aligned(self):
        text = render_text(build_report(self.sample_report(), [], {}))
        block = text.split("Data set validation\n-------------------\n")[1]
        lines = block.split("\n\n")[0].splitlines()
        assert len(lines) == 11
        assert len({len(line) for line in lines}) == 1  # right-aligned values
