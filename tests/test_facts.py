"""Domain model: keys, joining, enlistment types as the SVN screen reads them."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from baserates.facts import (
    Enlistment,
    FactKey,
    ProjectMeta,
    SizeRecord,
    join_facts,
)
from baserates.validate import validate_dataset


def size_record(project, year, month, loc=100):
    return SizeRecord(FactKey(project, year, month), loc)


def activity_record(project, year, month):
    return FactKey(project, year, month)  # an activity month is its key alone


class TestFactKey:
    def test_orders_by_project_then_year_then_month(self):
        keys = [
            FactKey("b", 2010, 1),
            FactKey("a", 2011, 1),
            FactKey("a", 2010, 12),
            FactKey("a", 2010, 2),
        ]
        assert sorted(keys) == [
            FactKey("a", 2010, 2),
            FactKey("a", 2010, 12),
            FactKey("a", 2011, 1),
            FactKey("b", 2010, 1),
        ]

    @pytest.mark.parametrize(
        "project,year,month",
        [("", 2010, 1), ("p", 1949, 1), ("p", 2010, 0), ("p", 2010, 13)],
    )
    def test_rejects_invalid_fields(self, project, year, month):
        with pytest.raises(ValueError):
            FactKey(project, year, month)


def screened_as_svn(kind):
    """Whether rule 2 reads the type as SVN: an unscoped URL of it excludes the project."""
    metas = [ProjectMeta("p", (Enlistment(kind, "https://x.org/repo"),))]
    survivors, report = validate_dataset(metas, [size_record("p", 2010, 1)], 2010)
    assert report.excluded_svn_config + len(survivors) == 1
    return not survivors


class TestEnlistmentIsSvn:
    @pytest.mark.parametrize(
        "raw,is_svn",
        [
            ("SvnRepository", True),
            ("SvnSyncRepository", True),
            pytest.param(" SVN ", True, id="padded-SVN-True"),
            ("GitRepository", False),
            ("HgRepository", False),
            ("BzrRepository", False),
            ("CvsRepository", False),
            ("git", False),
        ],
    )
    def test_known_spellings(self, raw, is_svn):
        assert screened_as_svn(raw) is is_svn

    def test_unknown_kind_is_preserved_and_not_svn(self):
        enlistment = Enlistment("FossilRepository", "https://x.org/repo")
        assert enlistment.kind == "FossilRepository"
        assert not screened_as_svn(enlistment.kind)

    def test_svn_variants_flagged(self):
        assert screened_as_svn("SvnRepository")
        assert screened_as_svn("SvnSyncRepository")
        assert not screened_as_svn("GitRepository")


class TestJoinFacts:
    def test_intersection_of_months(self):
        size = [size_record("p", 2010, 1), size_record("p", 2010, 2)]
        activity = [activity_record("p", 2010, 2), activity_record("p", 2010, 3)]
        joined, diagnostics = join_facts(size, activity)
        assert diagnostics == []
        assert [f.key for f in joined] == [FactKey("p", 2010, 2)]

    def test_empty_side_joins_empty(self):
        joined, diagnostics = join_facts([], [activity_record("p", 2010, 1)])
        assert joined == [] and diagnostics == []

    def test_24_aligned_months_against_nested_loop_oracle(self):
        size = [
            size_record("p", year, month, loc=1000 + month)
            for year in (2010, 2011)
            for month in range(1, 13)
        ]
        activity = [
            activity_record("p", year, month)
            for year in (2010, 2011)
            for month in range(1, 13)
        ]
        joined, _ = join_facts(size, activity)
        oracle = [
            (s, a) for s in size for a in activity if s.key == a
        ]  # brute-force nested loop
        assert len(joined) == len(oracle) == 24
        assert {f.key for f in joined} == {s.key for s, _ in oracle}

    def test_field_mapping(self):
        s = SizeRecord(FactKey("p", 2012, 6), 28000)
        joined, _ = join_facts([s], [FactKey("p", 2012, 6)])
        assert joined == [s] and joined[0] is s

    def test_output_sorted_by_key(self):
        size = [size_record("b", 2010, 1), size_record("a", 2011, 2), size_record("a", 2010, 3)]
        activity = [activity_record("a", 2010, 3), activity_record("a", 2011, 2), activity_record("b", 2010, 1)]
        joined, _ = join_facts(size, activity)
        keys = [f.key for f in joined]
        assert keys == sorted(keys)

    def test_duplicate_key_rejects_whole_project_with_diagnostic(self):
        size = [size_record("p", 2010, 1), size_record("p", 2010, 1), size_record("q", 2010, 1)]
        activity = [activity_record("p", 2010, 1), activity_record("q", 2010, 1)]
        joined, diagnostics = join_facts(size, activity)
        assert [f.key.project for f in joined] == ["q"]
        assert len(diagnostics) == 1 and "p" in diagnostics[0]

    def test_one_size_record_passed_twice_is_a_duplicate(self):
        # An index that tested `setdefault(key, record) is not record` would miss it.
        record = size_record("p", 2010, 1)
        joined, diagnostics = join_facts(
            [record, record, size_record("q", 2010, 1)],
            [activity_record("p", 2010, 1), activity_record("q", 2010, 1)],
        )
        assert [f.key.project for f in joined] == ["q"]
        assert diagnostics == ["duplicate size record for 'p' at 2010-01; project rejected"]

    def test_idempotent_when_inputs_align(self):
        size = [size_record("p", 2010, m) for m in (1, 2, 3)]
        activity = [activity_record("p", 2010, m) for m in (1, 2, 3)]
        once, _ = join_facts(size, activity)
        again, _ = join_facts(once, activity)
        assert once == again == size

    @given(
        size_keys=st.sets(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(2009, 2011),
                st.integers(1, 12),
            ),
            max_size=20,
        ),
        activity_keys=st.sets(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(2009, 2011),
                st.integers(1, 12),
            ),
            max_size=20,
        ),
    )
    def test_joined_keys_equal_key_intersection(self, size_keys, activity_keys):
        size = [size_record(p, y, m) for p, y, m in size_keys]
        activity = [activity_record(p, y, m) for p, y, m in activity_keys]
        joined, diagnostics = join_facts(size, activity)
        assert diagnostics == []
        assert {f.key for f in joined} == {s.key for s in size} & set(activity)


def test_project_meta_requires_name():
    with pytest.raises(ValueError, match=r"^project name must be non-empty$"):
        ProjectMeta("")
