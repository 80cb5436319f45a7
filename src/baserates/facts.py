"""Domain model for monthly project facts and their derived values."""

from __future__ import annotations

from typing import Iterable, NamedTuple

MIN_YEAR = 1950


class Enlistment(NamedTuple):
    """One registered source-code location; ``kind`` keeps the type string verbatim."""

    kind: str
    url: str


class _ProjectMeta(NamedTuple):
    name: str
    enlistments: tuple[Enlistment, ...] = ()


class ProjectMeta(_ProjectMeta):
    """Project identity plus the version-control locations registered for it."""

    __slots__ = ()

    def __new__(cls, name, enlistments=()):
        if not name:
            raise ValueError("project name must be non-empty")
        return tuple.__new__(cls, (name, enlistments))


class _FactKey(NamedTuple):
    project: str
    year: int
    month: int


class FactKey(_FactKey):
    """Identifies one project-month; a data set holds at most one facts tuple per key.

    Keys compare as (project, year, month) tuples.
    """

    __slots__ = ()

    def __new__(cls, project, year, month):
        if not project:
            raise ValueError("empty project name")
        if year < MIN_YEAR:
            raise ValueError(f"year {year} precedes {MIN_YEAR}")
        if not 1 <= month <= 12:
            raise ValueError(f"month {month} outside 1..12")
        return tuple.__new__(cls, (project, year, month))


class SizeRecord(NamedTuple):
    """End-of-month source tree size; loc may be negative before validation."""

    key: FactKey
    loc: int


class YearlyAggregate(NamedTuple):
    """Per project-year metrics; cga/cgi are None for years without growth evidence."""

    project: str
    year: int
    cs: int
    cga: int | None
    cgi: float | None
    age: int
    months_present: int


def join_facts(
    size: Iterable[SizeRecord], activity: Iterable[FactKey]
) -> tuple[list[SizeRecord], list[str]]:
    """Keep the size records of the months whose key is also an activity key.

    Every metric reads only the size half, so an activity month is its
    key alone, as ``read_facts`` returns it. Months present in only one
    input are dropped. A duplicate key within either input rejects that
    whole project; one diagnostic per duplicate, size records first, each
    in input order, is returned alongside the joined records. The inputs
    may come in any order; the size records come back sorted by key, that
    is by (project, year, month).
    """
    rejected: set[str] = set()
    diagnostics: list[str] = []

    def duplicate(label, key):
        rejected.add(key.project)
        diagnostics.append(
            f"duplicate {label} record for {key.project!r} at "
            f"{key.year}-{key.month:02d}; project rejected"
        )

    # One index for both inputs: a size record until an activity key joins it,
    # then None, as for an activity-only key; meeting None is a duplicate.
    by_key: dict[FactKey, SizeRecord | None] = {}
    for record in size:
        key = record.key
        if key in by_key:
            duplicate("size", key)
        else:
            by_key[key] = record
    # The joined months of each project, in activity order; a sorted file gives
    # each project's months in order already, and then its sort is one pass.
    by_project: dict[str, list[SizeRecord]] = {}
    for key in activity:
        month = by_key.get(key, False)  # False: a key not seen yet
        by_key[key] = None
        if month is None:
            duplicate("activity", key)
        elif month is not False:
            months = by_project.get(key.project)
            if months is None:  # no setdefault: it builds a list for every month
                months = by_project[key.project] = []
            months.append(month)
    joined: list[SizeRecord] = []
    for project in sorted(by_project):
        if project not in rejected:
            months = by_project[project]
            months.sort()  # keys are unique, so this orders by (year, month)
            joined += months
    return joined, diagnostics
