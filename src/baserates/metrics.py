"""Derivation of monthly growth and yearly aggregates from surviving facts.

Growth exists only between consecutive calendar months; a gap breaks the
chain rather than spanning it, so a missing month never lumps several
months of change into one record.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import defaultdict
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .facts import MonthlyFacts, MonthlyGrowth, YearlyAggregate, previous_month

logger = logging.getLogger(__name__)

GROWTHLESS_UNDEFINED = "undefined"
GROWTHLESS_ZERO = "zero"
GROWTHLESS_POLICIES = (GROWTHLESS_UNDEFINED, GROWTHLESS_ZERO)

# Beyond this many factors the product is accumulated in log space to
# avoid drift on long sequences.
_LOG_SPACE_THRESHOLD = 6

AGGREGATES_HEADER = ["project", "year", "cs", "cga", "cgi", "age", "months_present"]


def derive_monthly_growth(facts: Sequence[MonthlyFacts]) -> list[MonthlyGrowth]:
    """Growth records for months whose previous calendar month is present.

    ``facts`` must belong to a single project and carry unique keys. The
    absolute growth is the line difference to the previous month; the
    indexed growth is the ratio, left undefined (None) when the previous
    month had zero lines.
    """
    if not facts:
        return []
    if len({fact.key.project for fact in facts}) > 1:
        raise ValueError("derive_monthly_growth expects facts of a single project")
    by_month: dict[tuple[int, int], MonthlyFacts] = {}
    for fact in facts:
        month_key = (fact.key.year, fact.key.month)
        if month_key in by_month:
            raise ValueError(
                f"duplicate month {month_key} for project {fact.key.project!r}"
            )
        by_month[month_key] = fact

    growth: list[MonthlyGrowth] = []
    for fact in facts:
        prev = by_month.get(previous_month(fact.key.year, fact.key.month))
        if prev is None:
            continue
        ratio = fact.loc / prev.loc if prev.loc != 0 else None
        growth.append(MonthlyGrowth(fact.key, fact.loc - prev.loc, ratio))
    return growth


def _product(factors: Sequence[float]) -> float:
    if any(factor == 0 for factor in factors):
        return 0.0
    if len(factors) > _LOG_SPACE_THRESHOLD:
        return math.exp(math.fsum(math.log(factor) for factor in factors))
    result = 1.0
    for factor in factors:
        result *= factor
    return result


def aggregate_years(
    facts: Sequence[MonthlyFacts],
    growth: Sequence[MonthlyGrowth],
    policy: str = GROWTHLESS_UNDEFINED,
) -> list[YearlyAggregate]:
    """Aggregate one project's facts into per-year metrics.

    Per year: cs is the maximum monthly line count, cga the sum of the
    defined monthly absolute growth values, cgi the product of the
    defined monthly ratios, and age the distance to the minimum year
    present.

    Years without any growth month distinguish "no evidence" from "no
    change": under the "undefined" policy cga and cgi are None, under
    the "zero" policy they take the identity elements 0 and 1.0.
    """
    if policy not in GROWTHLESS_POLICIES:
        raise ValueError(f"unknown growthless-year policy {policy!r}")
    if not facts:
        return []
    projects = {fact.key.project for fact in facts}
    if len(projects) > 1:
        raise ValueError("aggregate_years expects facts of a single project")
    project = projects.pop()

    start_year = min(fact.key.year for fact in facts)
    facts_by_year: dict[int, list[MonthlyFacts]] = defaultdict(list)
    for fact in facts:
        facts_by_year[fact.key.year].append(fact)
    growth_by_year: dict[int, list[MonthlyGrowth]] = defaultdict(list)
    for record in growth:
        growth_by_year[record.key.year].append(record)

    aggregates: list[YearlyAggregate] = []
    for year in sorted(facts_by_year):
        months = facts_by_year[year]
        year_growth = growth_by_year.get(year, [])
        ratios = [g.indexed_growth for g in year_growth if g.indexed_growth is not None]
        omitted = len(year_growth) - len(ratios)
        if omitted:
            logger.debug(
                "%s %d: %d undefined monthly ratio(s) omitted from the growth index",
                project,
                year,
                omitted,
            )
        if year_growth:
            cga = sum(g.abs_growth for g in year_growth)
        else:
            cga = 0 if policy == GROWTHLESS_ZERO else None
        if ratios:
            cgi: float | None = _product(ratios)
        else:
            cgi = 1.0 if policy == GROWTHLESS_ZERO else None
        aggregates.append(
            YearlyAggregate(
                project=project,
                year=year,
                cs=max(fact.loc for fact in months),
                cga=cga,
                cgi=cgi,
                age=year - start_year,
                months_present=len(months),
            )
        )
    return aggregates


def aggregate_all(
    facts: Iterable[MonthlyFacts], policy: str = GROWTHLESS_UNDEFINED
) -> list[YearlyAggregate]:
    """Derive growth and aggregate every project.

    The facts may come in any order; the aggregates come back sorted by
    (project, year).
    """
    aggregates: list[YearlyAggregate] = []
    facts = sorted(facts, key=attrgetter("key"))
    for _, months in groupby(facts, key=attrgetter("key.project")):
        project_facts = list(months)
        growth = derive_monthly_growth(project_facts)
        aggregates.extend(aggregate_years(project_facts, growth, policy))
    return aggregates


def write_aggregates_csv(aggregates: Iterable[YearlyAggregate], path) -> None:
    """Write yearly aggregates as CSV with empty cells for undefined values."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(AGGREGATES_HEADER)
        for aggregate in aggregates:
            writer.writerow(
                [
                    aggregate.project,
                    aggregate.year,
                    aggregate.cs,
                    "" if aggregate.cga is None else aggregate.cga,
                    "" if aggregate.cgi is None else repr(aggregate.cgi),
                    aggregate.age,
                    aggregate.months_present,
                ]
            )
