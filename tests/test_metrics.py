"""Yearly aggregation of monthly sizes, including growth and the telescoping laws."""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest

from baserates.metrics import (
    GROWTHLESS_UNDEFINED,
    GROWTHLESS_ZERO,
    aggregate_all,
    write_aggregates_csv,
)
from conftest import make_month, month_run


class TestDeriveMonthlyGrowth:
    """Month-over-month growth, seen through the yearly cga and cgi."""

    def test_consecutive_months(self):
        facts = month_run("p", 2012, [100, 110, 121])
        aggregate = aggregate_all(facts)[0]
        assert aggregate.cga == 10 + 11
        assert aggregate.cgi == 1.21  # not 1.1 * 1.1, which rounds twice

    def test_gap_breaks_the_chain(self):
        facts = [make_month("p", 2012, 1, 100), make_month("p", 2012, 3, 130)]
        aggregate = aggregate_all(facts)[0]
        assert aggregate.cga is None and aggregate.cgi is None

    def test_year_boundary_adjacency(self):
        facts = [make_month("p", 2009, 12, 50), make_month("p", 2010, 1, 60)]
        by_year = {a.year: a for a in aggregate_all(facts)}
        assert by_year[2009].cga is None
        assert by_year[2010].cga == 10
        assert by_year[2010].cgi == 1.2

    def test_project_boundary_breaks_the_chain(self):
        facts = [make_month("a", 2011, 12, 50), make_month("b", 2012, 1, 60)]
        by_project = {a.project: a for a in aggregate_all(facts)}
        assert by_project["b"].year == 2012
        assert by_project["b"].cga is None and by_project["b"].cgi is None

    def test_zero_denominator_leaves_ratio_undefined(self):
        facts = month_run("p", 2012, [0, 40])
        aggregate = aggregate_all(facts, policy=GROWTHLESS_ZERO)[0]
        assert aggregate.cga == 40
        assert aggregate.cgi == 1.0  # no defined ratio: the policy's identity

    def test_empty_input(self):
        assert aggregate_all([]) == []

    def test_rejects_duplicate_months(self):
        with pytest.raises(ValueError, match=r"^duplicate month \(2012, 1\) for project 'p'$"):
            aggregate_all(
                [
                    make_month("p", 2012, 1, 1),
                    make_month("q", 2012, 1, 1),
                    make_month("p", 2012, 1, 2),
                ]
            )

    def test_duplicate_month_named_before_its_negative_loc(self):
        facts = [make_month("p", 2012, 1, 1), make_month("p", 2012, 1, -5)]
        with pytest.raises(ValueError, match=r"^duplicate month \(2012, 1\) for project 'p'$"):
            aggregate_all(facts)

    @pytest.mark.parametrize(
        "locs", [[10, -5], [10, -5, 10, 10, 10, 10, 10, 10]], ids=["product", "log-space"]
    )
    def test_rejects_negative_loc(self, locs):
        # Short runs used to return a signed product, long ones a math domain error.
        with pytest.raises(ValueError, match=r"negative loc -5 for project 'p' at 2012-02"):
            aggregate_all(month_run("p", 2012, locs))

    def test_loc_of_2_to_the_53_gives_the_exact_cgi(self):
        aggregate = aggregate_all(month_run("p", 2012, [3, 2**53]))[0]
        assert aggregate.cs == 2**53
        assert aggregate.cgi == float(Fraction(2**53, 3))  # rounded once

    @pytest.mark.parametrize("loc", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    @pytest.mark.parametrize("first", [False, True], ids=["growth", "first-month"])
    def test_rejects_loc_above_2_to_the_53(self, loc, first):
        # 10**400 used to end in OverflowError from the exact CGi's division.
        facts = month_run("p", 2012, [loc, 1] if first else [1, loc])
        facts.append(make_month("q", 2013, 1, 5))  # the year closes before the end marker
        with pytest.raises(ValueError, match=r"^loc above 2\*\*53 for project 'p' in 2012$"):
            aggregate_all(facts)

    def test_output_never_longer_than_run_minus_one(self):
        # With loc equal to the month number every growth month adds 1 to cga,
        # so cga counts the growth months.
        rng = random.Random(7)
        for _ in range(50):
            months = sorted(rng.sample(range(1, 13), rng.randint(1, 12)))
            facts = [make_month("p", 2012, m, m) for m in months]
            aggregate = aggregate_all(facts, policy=GROWTHLESS_ZERO)[0]
            runs = 1 + sum(
                1 for a, b in zip(months, months[1:]) if b - a > 1
            )  # contiguous runs
            assert aggregate.cga == len(facts) - runs


class TestAggregateYears:
    def test_constant_full_year(self):
        facts = month_run("p", 2012, [100] * 12)
        aggregate = aggregate_all(facts)[0]
        assert aggregate.cga == 0
        assert aggregate.cgi == 1.0
        assert aggregate.cs == 100
        assert aggregate.months_present == 12

    def test_three_month_example(self):
        facts = month_run("p", 2012, [100, 110, 121])
        aggregate = aggregate_all(facts)[0]
        assert aggregate.cga == 21
        assert aggregate.cgi == 1.21
        assert aggregate.cs == 121

    def test_age_defaults_to_minimum_year_present(self):
        facts = [make_month("p", 2010, 6, 10), make_month("p", 2012, 6, 20)]
        aggregates = aggregate_all(facts)
        assert [(a.year, a.age) for a in aggregates] == [(2010, 0), (2012, 2)]

    def test_growthless_year_policy_undefined(self):
        facts = [make_month("p", 2012, 6, 100)]
        aggregate = aggregate_all(facts, policy=GROWTHLESS_UNDEFINED)[0]
        assert aggregate.cga is None and aggregate.cgi is None
        assert aggregate.cs == 100 and aggregate.age == 0

    def test_growthless_year_policy_zero(self):
        facts = [make_month("p", 2012, 6, 100)]
        aggregate = aggregate_all(facts, policy=GROWTHLESS_ZERO)[0]
        assert aggregate.cga == 0 and aggregate.cgi == 1.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            aggregate_all([make_month("p", 2012, 1, 1)], policy="maybe")

    def test_unknown_policy_rejected_on_empty_input(self):
        with pytest.raises(ValueError):
            aggregate_all([], policy="maybe")

    def test_undefined_ratio_omitted_from_product(self):
        # loc 0 -> 50 -> 100: first ratio undefined, second is 2.0
        facts = month_run("p", 2012, [0, 50, 100])
        aggregate = aggregate_all(facts)[0]
        assert aggregate.cga == 100
        assert aggregate.cgi == 2.0

    def test_year_with_only_undefined_ratios(self):
        facts = month_run("p", 2012, [0, 50])
        aggregate = aggregate_all(facts, policy=GROWTHLESS_UNDEFINED)[0]
        assert aggregate.cga == 50
        assert aggregate.cgi is None

    def test_zero_ratio_collapses_product_to_zero(self):
        facts = month_run("p", 2012, [100, 0, 10])
        aggregate = aggregate_all(facts)[0]
        assert aggregate.cgi == 0.0

    def test_zero_month_splits_the_year_into_two_chains(self):
        # 100 -> 0 is a defined ratio of 0; 0 -> 50 is undefined and omitted;
        # 50 -> 60 is defined, but the product stays 0.
        facts = month_run("p", 2012, [100, 0, 50, 60])
        aggregate = aggregate_all(facts)[0]
        assert aggregate.cga == -40
        assert aggregate.cgi == 0.0

    def test_cs_is_max_and_attained(self):
        rng = random.Random(11)
        for _ in range(20):
            locs = [rng.randint(0, 10_000) for _ in range(rng.randint(1, 12))]
            facts = month_run("p", 2012, locs)
            aggregate = aggregate_all(facts)[0]
            assert all(aggregate.cs >= loc for loc in locs)
            assert aggregate.cs in locs

    def test_january_growth_belongs_to_new_year(self):
        facts = [make_month("p", 2011, 12, 100)] + month_run("p", 2012, [150, 180])
        aggregates = aggregate_all(facts)
        by_year = {a.year: a for a in aggregates}
        assert by_year[2011].cga is None  # December has no prior November
        assert by_year[2012].cga == 80  # (150-100) + (180-150)


class TestTelescoping:
    def full_year(self, rng, year=2012, project="p"):
        locs = [rng.randint(1, 10_000_000) for _ in range(13)]
        facts = [make_month(project, year - 1, 12, locs[0])]
        facts += [make_month(project, year, m, locs[m]) for m in range(1, 13)]
        return facts, locs

    def test_cga_telescopes_to_december_difference(self):
        rng = random.Random(101)
        for _ in range(100):
            facts, locs = self.full_year(rng)
            by_year = {a.year: a for a in aggregate_all(facts)}
            assert by_year[2012].cga == locs[12] - locs[0]

    def test_cgi_telescopes_to_december_ratio(self):
        rng = random.Random(202)
        for _ in range(100):
            facts, locs = self.full_year(rng)
            by_year = {a.year: a for a in aggregate_all(facts)}
            assert by_year[2012].cgi == locs[12] / locs[0]

    # December's loc opens the year's first run of ratios and March's gap ends
    # it; a zero loc after a gap leaves the next ratio undefined, and one
    # inside a run makes the product 0 whatever follows.
    @pytest.mark.parametrize(
        "zero_month", [None, 4, 6], ids=["no-zero", "zero-after-gap", "zero-in-run"]
    )
    def test_cgi_over_split_runs_is_the_fraction_product(self, zero_month):
        months = [(2011, 12), *((2012, m) for m in (1, 2, 4, 5, 6, 7, 8, 10, 11))]
        rng = random.Random(303)
        for _ in range(100):
            locs = {month: rng.randint(1, 2**53) for month in months}
            if zero_month is not None:
                locs[2012, zero_month] = 0
            ratios = [
                Fraction(locs[2012, m], locs[prev])
                for m in range(1, 13)
                if (2012, m) in locs
                for prev in [(2012, m - 1) if m > 1 else (2011, 12)]
                if locs.get(prev)
            ]
            facts = [make_month("p", year, month, loc) for (year, month), loc in locs.items()]
            by_year = {a.year: a for a in aggregate_all(facts)}
            assert by_year[2012].cgi == float(prod(ratios))
            assert (by_year[2012].cgi == 0.0) == (zero_month == 6)


class TestAggregateAll:
    def test_groups_projects_and_sorts(self):
        facts = [
            make_month("b", 2012, 1, 10),
            make_month("a", 2012, 1, 10),
            make_month("a", 2011, 12, 5),
        ]
        aggregates = aggregate_all(facts)
        assert [(a.project, a.year) for a in aggregates] == [
            ("a", 2011),
            ("a", 2012),
            ("b", 2012),
        ]
        # cross-year adjacency within project a
        assert aggregates[1].cga == 5

    def test_project_order_does_not_affect_results(self):
        facts = [
            make_month("a", 2012, m, 100 + m)
            for m in range(1, 7)
        ] + [make_month("b", 2012, m, 200 + 2 * m) for m in range(1, 7)]
        shuffled = list(reversed(facts))
        assert aggregate_all(facts) == aggregate_all(shuffled)


class TestAggregatesCsv:
    def test_undefined_values_render_as_empty_cells(self, tmp_path):
        facts = [make_month("p", 2012, 6, 100)]
        aggregates = aggregate_all(facts)
        path = tmp_path / "aggregates.csv"
        write_aggregates_csv(aggregates, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "project,year,cs,cga,cgi,age,months_present"
        assert lines[1] == "p,2012,100,,,0,1"

    def test_defined_values_round_trip_textually(self, tmp_path):
        facts = month_run("p", 2012, [100, 110, 121])
        aggregates = aggregate_all(facts)
        path = tmp_path / "aggregates.csv"
        write_aggregates_csv(aggregates, path)
        row = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[:4] == ["p", "2012", "121", "21"]
        assert row[4] == "1.21"
        assert row[5:] == ["0", "3"]

    @pytest.mark.parametrize(
        "facts,policy,row",
        [
            ([make_month("p", 2012, 6, 100)], GROWTHLESS_ZERO, "p,2012,100,0,1.0,0,1"),
            (month_run("p", 2012, [3, 1]), GROWTHLESS_UNDEFINED, "p,2012,3,-2,0.3333333333333333,0,2"),
        ],
        ids=["zero-policy", "float-repr"],
    )
    def test_row_text(self, tmp_path, facts, policy, row):
        path = tmp_path / "aggregates.csv"
        write_aggregates_csv(aggregate_all(facts, policy=policy), path)
        assert path.read_text(encoding="utf-8").splitlines()[1] == row
