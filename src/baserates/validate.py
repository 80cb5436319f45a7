"""Exclusion rules for the joined data set, with full accounting of what was dropped.

Rules apply in a fixed order: projects with missing data, projects with
an unscoped SVN configuration, then individual months with negative code
size, and finally the cut-off year. Rules one and two are independent
project-level predicates, so swapping them never changes the survivors.
Rule two is decided here whole: which enlistment types are SVN, and which
SVN URLs are scoped. Each distinct type string is decided once per call.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable, NamedTuple

from .facts import ProjectMeta, SizeRecord

# Repository types, stripped and lowercased, that rule two applies to: plain
# and sync-mirrored Subversion. Every other type, known or not, is non-SVN.
_SVN_KINDS = frozenset({"svn", "subversion", "svnrepository", "svnsync", "svnsyncrepository"})

# A scoped SVN checkout points at one code directory. URLs matching none
# of these (case-insensitive, matched against the whole URL) pull in all
# branches and tags, inflating every size metric for the project.
SVN_URL_PATTERNS = (
    r".*/trunk/?",
    r".*/head/?",
    r".*/sandbox/?",
    r".*/site/?",
    r".*/branches/\w+",
    r".*/tags/\w+",
)

# Every pattern starts with ".*/", so one leading ".*/" before an alternation
# of their tails fully matches exactly when one of the patterns does.
_SVN_URL_REGEX = re.compile(
    ".*/(?:" + "|".join(p.removeprefix(".*/") for p in SVN_URL_PATTERNS) + ")", re.IGNORECASE
)


class _SvnKinds(dict):
    """Type string -> whether it is SVN, decided the first time the string is looked up."""

    def __missing__(self, kind: str) -> bool:
        self[kind] = svn = kind.strip().lower() in _SVN_KINDS
        return svn


class AfterCutoff(NamedTuple):
    projects: int
    months: int
    years: int


class ValidationReport(NamedTuple):
    """Counts of what each validation step removed and what remains."""

    projects_collected: int
    excluded_missing_data: int
    excluded_svn_config: int
    projects_remaining: int
    months_before_rule3: int
    excluded_negative_size: int
    months_remaining: int
    years_remaining: int
    after_cutoff: AfterCutoff

    def to_dict(self) -> dict:
        return {**self._asdict(), "after_cutoff": self.after_cutoff._asdict()}


# The validation table's row labels, in the order of ValidationReport.to_dict()'s
# counts with after_cutoff's three inlined.
_TABLE_LABELS = (
    "Projects collected",
    "1. Projects excluded due to missing data",
    "2. Projects excluded due to improper SVN configuration",
    "Projects remaining",
    "Project months for the remaining projects",
    "3. Project months excluded due to negative code size",
    "Project months remaining",
    "Project years remaining",
    "Projects finally remaining after cut-off",
    "Project months finally remaining after cut-off",
    "Project years finally remaining after cut-off",
)


def table_rows(validation: dict) -> list[tuple[str, int]]:
    """Label/value rows of the validation table from a ``ValidationReport.to_dict()``."""
    *counts, after_cutoff = validation.values()
    return list(zip(_TABLE_LABELS, [*counts, *after_cutoff.values()], strict=True))


def validate_dataset(
    metas: Iterable[ProjectMeta],
    monthly_facts: Iterable[SizeRecord],
    cutoff_year: int,
) -> tuple[list[SizeRecord], ValidationReport]:
    """Apply the exclusion rules in order and account for every record.

    ``monthly_facts`` are the size records of the joined months, as
    ``join_facts`` returns them.

    Rule 1 drops projects without usable joined months: missing size
    facts, missing activity facts, a join that came up empty, or facts
    for a project that has no metadata at all. Rule 2 drops projects
    with an SVN enlistment whose URL is not scoped. Rule 3 drops
    individual months with negative code size. Months after the cut-off
    year are dropped last; a project with no month left after the
    cut-off no longer counts as remaining.

    The facts may come in any order. The survivors come back sorted by
    key, that is by (project, year, month); facts with equal keys keep
    their input order.

    A cut-off preceding every record is not an error: the survivor set
    comes back empty, as do the ``after_cutoff`` counts. Nothing is
    written to stderr; the ``baserates`` command exits with code 3.
    """
    meta_by_name = {meta.name: meta for meta in metas}
    svn_kinds, scoped = _SvnKinds(), _SVN_URL_REGEX.fullmatch
    monthly_facts = sorted(monthly_facts, key=itemgetter(0))  # by key

    # One walk over the sorted facts, which reads a record's key as fact[0]
    # and its loc as fact[1]: a project starts where the name changes, and
    # a year where the year of a kept (non-negative) month changes.
    survivors: list[SizeRecord] = []
    survive = survivors.append
    rule1 = rule2 = remaining = 0
    months_before_rule3 = months_remaining = years_remaining = 0
    projects_after = years_after = 0
    project = year = None
    for fact in monthly_facts:
        key = fact[0]
        if key[0] != project:
            project, year, remains = key[0], None, False
            meta = meta_by_name.get(project)
            if meta is None:
                rule1 += 1
            elif any(svn_kinds[kind] and not scoped(url) for kind, url in meta.enlistments):
                rule2 += 1
            else:
                remaining += 1
                remains = True
        if not remains:
            continue
        months_before_rule3 += 1
        if fact[1] < 0:
            continue
        months_remaining += 1
        if key[1] != year:
            if key[1] <= cutoff_year:
                years_after += 1
                projects_after += year is None  # the project's first kept year
            year = key[1]
            years_remaining += 1
        if year <= cutoff_year:
            survive(fact)
    rule1 += len(meta_by_name) - rule2 - remaining  # and the metadata without facts

    report = ValidationReport(
        projects_collected=rule1 + rule2 + remaining,
        excluded_missing_data=rule1,
        excluded_svn_config=rule2,
        projects_remaining=remaining,
        months_before_rule3=months_before_rule3,
        excluded_negative_size=months_before_rule3 - months_remaining,
        months_remaining=months_remaining,
        years_remaining=years_remaining,
        after_cutoff=AfterCutoff(projects_after, len(survivors), years_after),
    )
    return survivors, report
