"""Differential tests of ``aggregate_all`` against the two-pass derivation.

``previous_month``, ``derive_monthly_growth``, ``aggregate_years`` and
``aggregate_all`` below are the metrics code the package used before it
aggregated in one walk, with two changes: the facts they take are
annotated as the ``SizeRecord``s they now are, and cgi is the exact
reference rather than the old float product. Each monthly ratio is a
``Fraction`` and a year's cgi is their product rounded once by
``float()``, where the old code multiplied float ratios directly up to
six factors and through ``exp(fsum(log(...)))`` beyond, a few ulps off.
They regroup each project twice and build one growth record per month,
and serve here as the oracle: on any facts, under either policy, the
package must return aggregates with the same ``repr`` (so ``cgi`` is
bit-identical to the exactly rounded product) and raise ``ValueError``
where the oracle does.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import groupby
from math import prod
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from baserates import metrics
from baserates.facts import FactKey, SizeRecord, YearlyAggregate
from baserates.metrics import GROWTHLESS_POLICIES, GROWTHLESS_UNDEFINED, GROWTHLESS_ZERO
from conftest import make_month


def previous_month(year: int, month: int) -> tuple[int, int]:
    """Previous calendar month, crossing year boundaries: (Y, 1) -> (Y-1, 12)."""
    if month == 1:
        return year - 1, 12
    return year, month - 1


class MonthlyGrowth(NamedTuple):
    """Month-over-month change; indexed_growth is None when the previous month had zero lines."""

    key: FactKey
    abs_growth: int
    indexed_growth: Fraction | None


def derive_monthly_growth(facts: Sequence[SizeRecord]) -> list[MonthlyGrowth]:
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
    by_month: dict[tuple[int, int], SizeRecord] = {}
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
        ratio = Fraction(fact.loc, prev.loc) if prev.loc != 0 else None
        growth.append(MonthlyGrowth(fact.key, fact.loc - prev.loc, ratio))
    return growth


def aggregate_years(
    facts: Sequence[SizeRecord],
    growth: Sequence[MonthlyGrowth],
    policy: str = GROWTHLESS_UNDEFINED,
) -> list[YearlyAggregate]:
    """Aggregate one project's facts into per-year metrics.

    Per year: cs is the maximum monthly line count, cga the sum of the
    defined monthly absolute growth values, cgi the exact product of the
    defined monthly ratios rounded once, and age the distance to the
    minimum year present.

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
    facts_by_year: dict[int, list[SizeRecord]] = defaultdict(list)
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
        if year_growth:
            cga = sum(g.abs_growth for g in year_growth)
        else:
            cga = 0 if policy == GROWTHLESS_ZERO else None
        if ratios:
            cgi: float | None = float(prod(ratios))
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
    facts: Iterable[SizeRecord], policy: str = GROWTHLESS_UNDEFINED
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


def outcome(aggregate, facts, policy):
    """``repr`` of ``aggregate(facts, policy)``, or ValueError if it raises one."""
    try:
        return repr(aggregate(facts, policy))
    except ValueError:
        return ValueError


# Zero lines one month in six, so ratios go undefined and products
# collapse to zero; otherwise sizes of up to 2, 4, 6 or 8 digits, or up to
# 2**53, the largest size read_facts accepts.
LOCS = st.sampled_from([0, 100, 100**2, 100**3, 100**4, 2**53]).flatmap(
    lambda top: st.integers(1, top) if top else st.just(0)
)
# Mostly consecutive months, so years hold runs of more than six ratios;
# sometimes a gap of a month, or of about a year across December.
STEPS = st.sampled_from([1] * 16 + [2, 3, 12, 13])


@st.composite
def monthly_sizes(draw):
    """Size records of up to four projects, shuffled, sometimes with a repeated month.

    A project may start in the month after the previous project (in name
    order) ends, so a growth link that ignores the project shows.
    """
    facts: list[SizeRecord] = []
    index = draw(st.integers(2000 * 12, 2002 * 12 + 11))
    for project in sorted(draw(st.sets(st.sampled_from("abcd"), max_size=4))):
        if draw(st.booleans()):
            index = draw(st.integers(2000 * 12, 2002 * 12 + 11))
        for _ in range(draw(st.integers(1, 36))):
            year, month = divmod(index, 12)
            facts.append(make_month(project, year, month + 1, draw(LOCS)))
            last, index = index, index + draw(STEPS)
        index = last + 1
    if facts and draw(st.integers(0, 7)) == 0:
        repeated = draw(st.sampled_from(facts))
        facts.append(make_month(*repeated.key, draw(LOCS)))
    return draw(st.permutations(facts))


@settings(max_examples=400, deadline=None)
@given(facts=monthly_sizes(), policy=st.sampled_from(GROWTHLESS_POLICIES))
def test_aggregate_all_matches_oracle(facts, policy):
    assert outcome(metrics.aggregate_all, facts, policy) == outcome(aggregate_all, facts, policy)
