"""Differential tests of ``validate_dataset`` against the filter-then-count code.

``check_svn_enlistments`` and ``validate_dataset`` below are the
validation code the package used before it screened each URL with one
alternation, decided each enlistment type once and walked each project
once. They decide every enlistment's type anew with ``is_svn``, try
every SVN pattern in turn, filter the facts twice and count years with
sets of (project, year) pairs, and serve here as the oracle: on any
metadata, facts and cut-off, the package must return survivors and a
report with the same ``repr``.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import attrgetter
from typing import Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from baserates import validate
from baserates.facts import Enlistment, ProjectMeta, SizeRecord
from baserates.validate import SVN_URL_PATTERNS, AfterCutoff, ValidationReport
from conftest import make_month

_SVN_URL_REGEXES = tuple(re.compile(p, re.IGNORECASE) for p in SVN_URL_PATTERNS)


# The repository types, stripped and lowercased, that rule 2 applies to:
# plain and sync-mirrored Subversion.
_SVN_KINDS = ("svn", "subversion", "svnrepository", "svnsync", "svnsyncrepository")


def is_svn(kind: str) -> bool:
    """Whether rule 2 applies to an enlistment of this type."""
    return kind.strip().lower() in _SVN_KINDS


def check_svn_enlistments(meta: ProjectMeta) -> tuple[bool, list[str]]:
    """Screen a project's SVN enlistment URLs for properly scoped directories.

    Returns (passed, offending_urls). Projects without SVN enlistments
    pass vacuously; one offending URL fails the whole project.
    """
    offending = [
        e.url
        for e in meta.enlistments
        if is_svn(e.kind) and not any(rx.fullmatch(e.url) for rx in _SVN_URL_REGEXES)
    ]
    return not offending, offending


def validate_dataset(
    metas: Iterable[ProjectMeta],
    monthly_facts: Iterable[SizeRecord],
    cutoff_year: int,
) -> tuple[list[SizeRecord], ValidationReport]:
    """Apply the exclusion rules in order and account for every record.

    ``monthly_facts`` are the size records of the joined months, as
    ``join_facts`` returns them; only their key and loc are read.

    Rule 1 drops projects without usable joined months: missing size
    facts, missing activity facts, a join that came up empty, or facts
    for a project that has no metadata at all. Rule 2 drops projects
    failing the SVN configuration screen. Rule 3 drops individual months
    with negative code size. Months after the cut-off year are dropped
    last; a project with no month left after the cut-off no longer
    counts as remaining.

    The facts may come in any order. The survivors come back sorted by
    key, that is by (project, year, month); facts with equal keys keep
    their input order.

    A cut-off preceding every record is not an error: the survivor set
    is empty.
    """
    meta_by_name = {meta.name: meta for meta in metas}
    monthly_facts = sorted(monthly_facts, key=attrgetter("key"))
    facts_by_project = {
        project: list(months)
        for project, months in groupby(monthly_facts, key=attrgetter("key.project"))
    }

    collected = sorted(set(meta_by_name) | set(facts_by_project))

    rule1 = {
        project
        for project in collected
        if project not in meta_by_name or project not in facts_by_project
    }
    rule2 = {
        project
        for project in collected
        if project not in rule1 and not check_svn_enlistments(meta_by_name[project])[0]
    }
    remaining = [p for p in collected if p not in rule1 and p not in rule2]
    months_before_rule3 = sum(len(facts_by_project[p]) for p in remaining)

    kept: list[SizeRecord] = []
    negative = 0
    for project in remaining:
        for fact in facts_by_project[project]:
            if fact.loc < 0:
                negative += 1
            else:
                kept.append(fact)

    survivors = [fact for fact in kept if fact.key.year <= cutoff_year]
    after = AfterCutoff(
        projects=len({fact.key.project for fact in survivors}),
        months=len(survivors),
        years=len({(fact.key.project, fact.key.year) for fact in survivors}),
    )
    report = ValidationReport(
        projects_collected=len(collected),
        excluded_missing_data=len(rule1),
        excluded_svn_config=len(rule2),
        projects_remaining=len(remaining),
        months_before_rule3=months_before_rule3,
        excluded_negative_size=negative,
        months_remaining=len(kept),
        years_remaining=len({(fact.key.project, fact.key.year) for fact in kept}),
        after_cutoff=after,
    )
    return survivors, report


# Path pieces of scoped and unscoped SVN URLs: each pattern's directory in
# odd case, with and without a slash or a name after it, or right after
# another character, nested branch names, Unicode word characters, a line
# break and trailing junk.
URL_PARTS = st.sampled_from(
    [
        "/trunk", "/TRUNK/", "/head", "/Head/", "/sandbox", "/SiTe/", "/site",
        "/branches/x", "/branches/a/b", "/BRANCHES/", "/tags/", "/tags/v1_0",
        "/Tags/é", "/tags/版本", "/tags/v1.0", "/repo", "/trunk\n", "\n/trunk",
        "/", "//", "x", " ", "/trunk/x",
        "xtrunk", "/footrunk", "/myhead/", "/subtags/v1", "/xbranches/y", "/mysite",
    ]
)
URLS = st.builds(
    lambda host, parts, tail: host + "".join(parts) + tail,
    st.sampled_from(["http://svn.example.org", "SVN://H", "https://x.org/svn", ""]),
    st.lists(URL_PARTS, max_size=4),
    st.sampled_from(["", "", "/", "?r=1", " ", "\n", "#junk"]),
)
# SVN kinds in odd case and padding, and kinds the screen must skip.
KINDS = st.sampled_from(
    [
        "SvnRepository", " svn\t", "SVNSYNCREPOSITORY", "Subversion ", "svnsync",
        "GitRepository", "HgRepository", "svn-ish", "",
    ]
)


@settings(max_examples=300, deadline=None)
@given(url=URLS)
def test_svn_screen_matches_each_pattern(url):
    expected = any(re.fullmatch(p, url, re.IGNORECASE) for p in SVN_URL_PATTERNS)
    metas = [ProjectMeta("p", (Enlistment("SvnRepository", url),))]
    survivors, report = validate.validate_dataset(metas, [make_month("p", 2010, 1, 10)], 2010)
    assert (report.excluded_svn_config, len(survivors)) == ((0, 1) if expected else (1, 0))


# Sizes of a whole year at a time: all negative, none negative, or mixed.
YEAR_LOCS = st.sampled_from(
    [st.integers(-100, -1), st.integers(0, 100), st.integers(-50, 50)]
)


@st.composite
def datasets(draw):
    """Metadata and shuffled size records of up to six projects, and a cut-off year.

    A project has metadata only, facts only, or both. Its months may skip
    ahead, run past December, repeat a key, or be negative for a whole
    year or the whole project. The cut-off falls anywhere from the year
    before the first month to the year after the last.
    """
    metas: list[ProjectMeta] = []
    facts: list[SizeRecord] = []
    for name in draw(st.lists(st.sampled_from("abcdef"), unique=True, max_size=6)):
        where = draw(st.sampled_from(["metadata", "facts", "both", "both"]))
        if where != "facts":
            enlistments = st.builds(Enlistment, KINDS, URLS)
            metas.append(ProjectMeta(name, tuple(draw(st.lists(enlistments, max_size=3)))))
        if where == "metadata":
            continue
        index = draw(st.integers(2000 * 12, 2002 * 12 + 11))
        all_negative = draw(st.integers(0, 5)) == 0
        year_locs: dict[int, st.SearchStrategy[int]] = {}
        for _ in range(draw(st.integers(1, 30))):
            year, month = divmod(index, 12)
            locs = year_locs.setdefault(year, draw(YEAR_LOCS))
            loc = draw(st.integers(-100, -1) if all_negative else locs)
            facts.append(make_month(name, year, month + 1, loc))
            if draw(st.integers(0, 15)) == 0:
                facts.append(make_month(name, year, month + 1, draw(locs)))
            index += draw(st.sampled_from([1] * 8 + [2, 12, 13]))
    years = [fact.key.year for fact in facts] or [2000]
    cutoff_year = draw(st.integers(min(years) - 1, max(years) + 1))
    return draw(st.permutations(metas)), draw(st.permutations(facts)), cutoff_year


@settings(max_examples=300, deadline=None)
@given(dataset=datasets())
def test_validate_dataset_matches_oracle(dataset):
    metas, facts, cutoff_year = dataset
    expected = validate_dataset(metas, facts, cutoff_year)
    assert repr(validate.validate_dataset(metas, facts, cutoff_year)) == repr(expected)


# Type spellings rule 2 applies to and ones it skips, some of them an SVN
# name with a character too many or too few.
SPELLINGS = st.sampled_from(
    [*_SVN_KINDS, "GitRepository", "hg", "svn-ish", "sv n", "svnsyncrepositor", "Subversions"]
)
PADDING = st.sampled_from(["", "", " ", "\t", " \n"])


@st.composite
def kind_spellings(draw):
    """A type spelling in random case, padded on either side or not."""
    letters = [c.upper() if draw(st.booleans()) else c for c in draw(SPELLINGS)]
    return draw(PADDING) + "".join(letters) + draw(PADDING)


def copied(text: str) -> str:
    """An equal ``str`` that is not the same object, unlike an interned type."""
    return "".join([text[:1], text[1:]])


@st.composite
def typed_datasets(draw):
    """Metadata of up to eight projects with one month each, typed from a few spellings.

    Every enlistment gets its own copy of its type's string. Projects a and
    b share the first type, a with a scoped URL and b with an unscoped one.
    """
    kinds = draw(st.lists(kind_spellings(), min_size=1, max_size=4))
    scoped = draw(st.sampled_from(["http://svn/x/trunk", "SVN://H/Tags/v1", "https://x.org/site/"]))
    unscoped = draw(st.sampled_from(["http://svn/x", "http://svn/x/tags/", "https://x.org/trunk/y"]))
    metas = [
        ProjectMeta("a", (Enlistment(copied(kinds[0]), scoped),)),
        ProjectMeta("b", (Enlistment(copied(kinds[0]), unscoped),)),
    ]
    enlistments = st.builds(
        lambda kind, url: Enlistment(copied(kind), url),
        st.sampled_from(kinds),
        st.sampled_from([scoped, unscoped]),
    )
    for name in "cdefgh"[: draw(st.integers(0, 6))]:
        metas.append(ProjectMeta(name, tuple(draw(st.lists(enlistments, max_size=3)))))
    facts = [make_month(meta.name, 2010, 1, 10) for meta in metas]
    return draw(st.permutations(metas)), facts


@settings(max_examples=300, deadline=None)
@given(dataset=typed_datasets())
def test_each_type_screens_as_the_oracle_decides(dataset):
    metas, facts = dataset
    expected = validate_dataset(metas, facts, 2010)
    assert repr(validate.validate_dataset(metas, facts, 2010)) == repr(expected)
