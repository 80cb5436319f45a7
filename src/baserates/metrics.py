"""Yearly code-size and code-growth aggregates from surviving size records.

Growth exists only between consecutive calendar months; a gap breaks the
chain rather than spanning it, so a missing month never lumps several
months of change into one year's growth.
"""

from __future__ import annotations

import csv
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from .facts import SizeRecord, YearlyAggregate

GROWTHLESS_UNDEFINED = "undefined"
GROWTHLESS_ZERO = "zero"
GROWTHLESS_POLICIES = (GROWTHLESS_UNDEFINED, GROWTHLESS_ZERO)

# Ends aggregate_all's walk: its project, None, is no fact's, so the last year
# closes, and its year, 0, is not the walk's start, so an empty walk ends too.
_END = ((None, 0, 0), 0)


def aggregate_all(
    facts: Iterable[SizeRecord], policy: str = GROWTHLESS_UNDEFINED
) -> list[YearlyAggregate]:
    """Aggregate every project's monthly sizes into per-year metrics.

    A month grows from the previous calendar month of its project when
    that month is present: by the line difference, and by the line ratio
    unless the previous month had zero lines. Per project-year, cs is the
    maximum monthly line count, cga the sum of the growth differences,
    cgi the product of the defined ratios, computed exactly and rounded
    once, and age the distance to the project's first year. A run of
    consecutive defined ratios telescopes, so the exact fraction gains
    one factor per run: its last loc over the loc before its first month.
    A gap or a zero loc ends a run; January's starts from December's loc.

    Years without any growth month distinguish "no evidence" from "no
    change": under the "undefined" policy cga and cgi are None, under
    the "zero" policy they take the identity elements 0 and 1.0.

    The facts may come in any order but a repeated project-month, a
    negative loc or a loc above 2**53 (the bound ``read_facts`` enforces)
    raises ValueError; the aggregates come back sorted by (project, year).
    """
    if policy not in GROWTHLESS_POLICIES:
        raise ValueError(f"unknown growthless-year policy {policy!r}")
    no_cga, no_cgi = (0, 1.0) if policy == GROWTHLESS_ZERO else (None, None)
    aggregates: list[YearlyAggregate] = []
    new = tuple.__new__  # a YearlyAggregate without the call to its generated __new__
    # One walk over the sorted facts: a year closes where the project or the
    # year changes, and the end marker closes the last one.
    project = year = prev_index = None  # prev_index: year*12+month
    present = 0
    for (name, next_year, month), loc in chain(sorted(facts, key=itemgetter(0)), [_END]):
        if next_year != year or name != project:
            if present:
                if cs > 2**53:  # every loc of the year is at most cs
                    raise ValueError(f"loc above 2**53 for project {project!r} in {year}")
                if first:  # the year's last run ends at its last month
                    num *= prev_loc
                    den *= first
                aggregates.append(new(YearlyAggregate, (
                    project, year, cs, cga if present > starts else no_cga,
                    num / den if runs else no_cgi, year - start_year, present,
                )))
            if name is None:  # the end marker
                break
            if name != project:  # the first year of a project: no month precedes it
                project, start_year, prev_index = name, next_year, None
            year, base, cs, cga, present, starts = next_year, next_year * 12, 0, 0, 0, 0
            runs, num, den, first = 0, 1, 1, 0  # first: the loc before the open run, or 0
        index = base + month
        if index - 1 == prev_index and loc >= 0:
            cga += loc - prev_loc
            if prev_loc:
                if not first:  # a run of defined ratios starts here
                    first = prev_loc
                    runs += 1
            elif first:  # the run ended at the zero month before this one
                num = 0
                first = 0
        else:
            if index == prev_index:
                raise ValueError(f"duplicate month {(year, month)} for project {project!r}")
            if loc < 0:
                raise ValueError(f"negative loc {loc} for project {project!r} at {year}-{month:02d}")
            starts += 1  # a month without its previous one; every other month grows
            if first:  # a gap ends the run at the month before it
                num *= prev_loc
                den *= first
                first = 0
        cs = loc if loc > cs else cs
        present += 1
        prev_index, prev_loc = index, loc
    return aggregates


def write_aggregates_csv(aggregates: Iterable[YearlyAggregate], path) -> None:
    """Write yearly aggregates as CSV with empty cells for undefined values."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(YearlyAggregate._fields)
        # csv writes None as an empty cell and a float by its repr.
        writer.writerows(aggregates)
