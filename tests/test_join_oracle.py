"""Differential tests of ``join_facts`` against the sort-every-key join.

``join_facts`` below is the join the package used before it grouped the
joined months by project and sorted each project's months alone. It
sorts every joined key at once and checks each key against the rejected
projects, and serves here as the oracle. It takes activity records, as
``test_ingest_oracle`` builds them, where the package takes their keys:
on any size records and activity months, the package must return the
same records (the very objects it was given), in the same order, and the
same diagnostics, in the same order.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from baserates import facts
from baserates.facts import FactKey, SizeRecord
from conftest import make_month
from test_ingest_oracle import ActivityRecord


def join_facts(
    size: Iterable[SizeRecord], activity: Iterable[ActivityRecord]
) -> tuple[list[SizeRecord], list[str]]:
    """Keep the size records of the months that also have an activity record.

    Every metric reads only the size half, so the activity half is
    consulted for its keys alone. Months present in only one input are
    dropped. A duplicate key within either input rejects that whole
    project; one diagnostic per duplicate, in input order, is returned
    alongside the joined records. The inputs may come in any order; the
    size records come back sorted by key, that is by (project, year,
    month).
    """
    rejected: set[str] = set()
    diagnostics: list[str] = []

    def index(records, label):
        by_key = {}
        for record in records:
            if record.key in by_key:
                rejected.add(record.key.project)
                diagnostics.append(
                    f"duplicate {label} record for {record.key.project!r} at "
                    f"{record.key.year}-{record.key.month:02d}; project rejected"
                )
            else:
                by_key[record.key] = record
        return by_key

    size_by_key = index(size, "size")
    activity_by_key = index(activity, "activity")

    # Keys in input order, not hash order: Timsort is near-linear on a sorted CSV.
    joined = [
        size_by_key[key]
        for key in sorted([key for key in size_by_key if key in activity_by_key])
        if key.project not in rejected
    ]
    return joined, diagnostics


def outcomes(size, activity):
    """The package's and the oracle's result: the value, its ``repr``, each record's identity.

    The package gets the key of each activity record, the oracle the record.
    """
    results = []
    for join, months in ((facts.join_facts, [r.key for r in activity]), (join_facts, activity)):
        joined, diagnostics = join(size, months)
        results.append(((joined, diagnostics), repr((joined, diagnostics)), [id(r) for r in joined]))
    return results


def arranged(draw, items, key):
    """``items`` sorted by ``key``, shuffled, or cut into runs that interleave.

    Runs keep their own order or come reversed, so one project's months
    can be split across the input and out of order within it.
    """
    how = draw(st.sampled_from(["sorted", "shuffled", "runs", "runs"]))
    if how == "sorted":
        return sorted(items, key=key)
    if how == "shuffled":
        return draw(st.permutations(items))
    runs, rest = [], list(items)
    while rest:
        size = draw(st.integers(1, len(rest)))
        run, rest = rest[:size], rest[size:]
        runs.append(run[::-1] if draw(st.booleans()) else run)
    return [item for run in draw(st.permutations(runs)) for item in run]


@st.composite
def halves(draw):
    """Size and activity records of up to five projects.

    Each month has both halves, or only one of them. A project's months
    may skip ahead and cross December. Now and then a key repeats in
    either half, with other counts, which rejects its project.
    """
    size: list[SizeRecord] = []
    activity: list[ActivityRecord] = []
    for project in draw(st.lists(st.sampled_from(["a", "b", "c", "é", "a b"]), unique=True)):
        index = draw(st.integers(2000 * 12, 2001 * 12 + 11))
        for _ in range(draw(st.integers(0, 14))):
            year, month = divmod(index, 12)
            key = FactKey(project, year, month + 1)
            where = draw(st.sampled_from(["both"] * 4 + ["size", "activity"]))
            if where != "activity":
                size.append(make_month(project, year, month + 1, draw(st.integers(-5, 50))))
            if where != "size":
                activity.append(ActivityRecord(key, *draw(st.tuples(*[st.integers(0, 9)] * 4))))
            index += draw(st.sampled_from([1, 1, 1, 2, 12]))
    for records in (size, activity):
        if records and draw(st.integers(0, 5)) == 0:
            repeated = draw(st.sampled_from(records))
            records.append(repeated._replace(**{repeated._fields[1]: 7}))
    by_key = attrgetter("key")
    return arranged(draw, size, by_key), arranged(draw, activity, by_key)


@settings(max_examples=300, deadline=None)
@given(inputs=halves())
def test_join_facts_matches_oracle(inputs):
    subject, oracle = outcomes(*inputs)
    assert subject == oracle


def test_empty_and_one_sided_inputs_match_oracle():
    month = make_month("a", 2011, 1, 5)
    both = ([month], [ActivityRecord(month.key, 1, 2, 3, 4)])
    for size, activity in (([], []), ([month], []), ([], both[1]), both):
        subject, oracle = outcomes(size, activity)
        assert subject == oracle
