"""Domain model for monthly project facts and their derived values."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MIN_YEAR = 1950


# Repository types, lowercased, that the SVN configuration screen applies
# to: plain and sync-mirrored Subversion.
_SVN_KINDS = frozenset(
    {"svn", "subversion", "svnrepository", "svnsync", "svnsyncrepository"}
)


@dataclass(frozen=True)
class Enlistment:
    """One registered source-code location; ``kind`` keeps the type string verbatim."""

    kind: str
    url: str

    @property
    def is_svn(self) -> bool:
        return self.kind.strip().lower() in _SVN_KINDS


@dataclass(frozen=True)
class ProjectMeta:
    """Project identity plus the version-control locations registered for it."""

    name: str
    enlistments: tuple[Enlistment, ...] = ()
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("project name must be non-empty")


@dataclass(frozen=True, order=True)
class FactKey:
    """Identifies one project-month; a data set holds at most one facts tuple per key."""

    project: str
    year: int
    month: int

    def __post_init__(self) -> None:
        if not self.project:
            raise ValueError("project name must be non-empty")
        if self.year < MIN_YEAR:
            raise ValueError(f"year {self.year} precedes {MIN_YEAR}")
        if not 1 <= self.month <= 12:
            raise ValueError(f"month {self.month} outside 1..12")


def previous_month(year: int, month: int) -> tuple[int, int]:
    """Previous calendar month, crossing year boundaries: (Y, 1) -> (Y-1, 12)."""
    if month == 1:
        return year - 1, 12
    return year, month - 1


@dataclass(frozen=True)
class SizeRecord:
    """End-of-month source tree size; loc may be negative before validation."""

    key: FactKey
    loc: int
    comments: int
    blanks: int


@dataclass(frozen=True)
class ActivityRecord:
    """Monthly change counts; all fields are non-negative by construction."""

    key: FactKey
    loc_added: int
    loc_removed: int
    commits: int
    contributors: int

    def __post_init__(self) -> None:
        for name in ("loc_added", "loc_removed", "commits", "contributors"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class MonthlyFacts:
    """Size and activity facts joined for one project-month."""

    key: FactKey
    loc: int
    comments: int
    blanks: int
    loc_added: int
    loc_removed: int
    commits: int
    contributors: int


@dataclass(frozen=True)
class MonthlyGrowth:
    """Month-over-month change; indexed_growth is None when the previous month had zero lines."""

    key: FactKey
    abs_growth: int
    indexed_growth: float | None


@dataclass(frozen=True)
class YearlyAggregate:
    """Per project-year metrics; cga/cgi are None for years without growth evidence."""

    project: str
    year: int
    cs: int
    cga: int | None
    cgi: float | None
    age: int
    months_present: int


def join_facts(
    size: Iterable[SizeRecord], activity: Iterable[ActivityRecord]
) -> tuple[list[MonthlyFacts], list[str]]:
    """Inner-join size and activity records on their keys.

    Months present in only one input are dropped. A duplicate key within
    either input rejects that whole project; one diagnostic per duplicate
    is returned alongside the joined facts, which come back sorted by
    (project, year, month).
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

    joined: list[MonthlyFacts] = []
    for key in sorted(size_by_key.keys() & activity_by_key.keys()):
        if key.project in rejected:
            continue
        s = size_by_key[key]
        a = activity_by_key[key]
        joined.append(
            MonthlyFacts(
                key,
                s.loc,
                s.comments,
                s.blanks,
                a.loc_added,
                a.loc_removed,
                a.commits,
                a.contributors,
            )
        )
    return joined, diagnostics
