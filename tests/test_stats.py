"""Quantiles, summaries, boxplot data, and the base-rate posterior.

Quantiles are checked through the two functions that report them,
``boxplot_data`` (q1, median, q3) and ``summarize`` (median, IQR).
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baserates.stats import (
    Metric,
    Observation,
    base_rate_posterior,
    boxplot_data,
    summarize,
)


@st.composite
def samples(draw):
    """Non-empty samples with ties, ints up to 2**55 and neighbours 1-2 ulps apart."""
    values = draw(
        st.lists(st.integers(-(2**55), 2**55) | st.floats(-1e15, 1e15), min_size=1, max_size=30)
    )
    for value in draw(st.lists(st.sampled_from(values), max_size=10)):
        near = float(value)
        for _ in range(draw(st.integers(0, 2))):  # 0: a tie
            near = math.nextafter(near, math.inf)
        values.append(near)
    return draw(st.permutations(values))


def observations(values, project="p"):
    return [Observation(f"{project}{i}", 2012, v) for i, v in enumerate(values)]


def quartiles(values):
    box = boxplot_data(values)
    return box.q1, box.median, box.q3


def fences(box):
    spread = 1.5 * (box.q3 - box.q1)
    return box.q1 - spread, box.q3 + spread


def outlier_indices(values):
    outliers = set(boxplot_data(values).outlier_values)
    return {i for i, v in enumerate(values) if v in outliers}


class TestQuantile:
    def test_even_count_median_interpolates(self):
        assert boxplot_data([1, 2, 3, 4]).median == 2.5

    def test_singleton_any_fraction(self):
        assert quartiles([5]) == (5.0, 5.0, 5.0)

    def test_first_quartile_of_eight(self):
        # h = (8-1)*0.25 + 1 = 2.75 on the 1-based sorted sample:
        # x2 + 0.75*(x3 - x2) = 2 + 0.75
        assert boxplot_data([1, 2, 3, 4, 5, 6, 7, 8]).q1 == 2.75

    def test_unsorted_input_is_sorted_internally(self):
        assert boxplot_data([4, 1, 3, 2]).median == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no defined observations for CGa"):
            summarize([], Metric.CGA)
        with pytest.raises(ValueError, match="no values to plot"):
            boxplot_data([])

    def test_matches_reference_implementation(self):
        rng = random.Random(5)
        for _ in range(50):
            values = [rng.uniform(-1000, 1000) for _ in range(rng.randint(1, 200))]
            q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75], method="linear")
            summary = summarize(observations(values), Metric.CS)
            assert quartiles(values) == pytest.approx((q1, median, q3), rel=1e-12, abs=1e-9)
            assert (summary.median, summary.iqr) == pytest.approx(
                (median, q3 - q1), rel=1e-12, abs=1e-9
            )


class TestSummarize:
    def test_four_ones_and_a_hundred(self):
        obs = observations([1, 1, 1, 1, 100])
        summary = summarize(obs, Metric.CS)
        assert summary.median == 1
        assert summary.iqr == 0
        assert summary.outliers == 1  # brute force: only 100 is outside [1, 1]
        assert summary.observations == 5
        assert summary.outlier_rate == pytest.approx(0.2)
        assert len(summary.median_attainers) == 4  # the four exact 1s

    def test_single_observation(self):
        summary = summarize(observations([42]), Metric.CGA)
        assert summary.median == 42
        assert summary.iqr == 0
        assert summary.outliers == 0
        assert summary.median_attainers == (("p0", 2012),)

    def test_interpolated_median_names_bracketing_observations(self):
        obs = [
            Observation("low", 2010, 1.0),
            Observation("mid_a", 2011, 2.0),
            Observation("mid_b", 2012, 3.0),
            Observation("high", 2013, 4.0),
        ]
        summary = summarize(obs, Metric.CS)
        assert summary.median == 2.5
        assert summary.median_attainers == (("mid_a", 2011), ("mid_b", 2012))

    def test_exact_median_with_duplicates_names_all(self):
        obs = [
            Observation("a", 2010, 5.0),
            Observation("b", 2011, 5.0),
            Observation("c", 2012, 1.0),
            Observation("d", 2013, 9.0),
        ]
        summary = summarize(obs, Metric.CGA)
        assert summary.median == 5.0
        assert summary.median_attainers == (("a", 2010), ("b", 2011))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([], Metric.CGI)

    @settings(max_examples=200, deadline=None)
    @given(samples())
    def test_boxplot_is_that_of_the_plain_values(self, values):
        obs = observations(values)
        summary = summarize(obs, Metric.CGA)
        box = summary.boxplot
        assert box == boxplot_data([o.value for o in obs])
        assert (summary.median, summary.iqr) == (box.median, box.q3 - box.q1)
        assert summary.outliers == len(box.outlier_values)

    def test_outliers_match_brute_force_oracle(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(1, 2000)
            values = [rng.lognormvariate(5, 2) for _ in range(n)]
            if rng.random() < 0.5:
                values = [round(v) for v in values]  # force duplicates
            obs = observations(values)
            summary = summarize(obs, Metric.CS)
            # independent fences from the reference quantile implementation
            q1 = float(np.quantile(values, 0.25, method="linear"))
            q3 = float(np.quantile(values, 0.75, method="linear"))
            low, high = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
            brute = sum(1 for v in values if v < low or v > high)
            assert summary.outliers == brute

    def test_outlier_set_invariant_under_affine_transform(self):
        rng = random.Random(88)
        values = [rng.gauss(0, 10) for _ in range(500)]
        for _ in range(10):
            a = math.exp(rng.uniform(-3, 3))
            b = rng.uniform(-1e6, 1e6)
            transformed = [a * v + b for v in values]
            assert outlier_indices(values) == outlier_indices(transformed)

    def test_median_lies_between_quartiles_and_duplication_keeps_it_there(self):
        rng = random.Random(99)
        for _ in range(25):
            values = [rng.uniform(0, 100) for _ in range(rng.randint(2, 300))]
            q1, median, q3 = quartiles(values)
            assert q1 <= median <= q3
            q1, _, q3 = quartiles(values + [median])
            assert q1 <= median <= q3


class TestBoxplotData:
    def test_uniform_run_has_no_outliers(self):
        box = boxplot_data(list(range(1, 101)))
        assert box.whisker_low == 1
        assert box.whisker_high == 100
        assert box.outlier_values == ()
        # brute-force fence check
        low, high = fences(box)
        assert all(low <= v <= high for v in range(1, 101))

    def test_constant_values_collapse(self):
        box = boxplot_data([7, 7, 7, 7])
        assert box.q1 == box.median == box.q3 == 7
        assert box.whisker_low == box.whisker_high == 7
        assert box.outlier_values == ()

    def test_extreme_point_beyond_whisker(self):
        # values, whiskers, outliers: a value on a fence is a whisker, and the
        # same value one ulp outward is an outlier (q1 2, q3 6, fences -4 and 12)
        low, high = math.nextafter(-4.0, -math.inf), math.nextafter(12.0, math.inf)
        # Exact quartiles of two values 2 ulps apart lie half an ulp inside
        # them, so both are inside the fences; rounded, both quartiles and so
        # both fences land on the value between them, yet neither is an outlier.
        apart = [1 + 2**-52, 1 + 3 * 2**-52]
        cases = [
            ([1, 1, 1, 1, 100], (1, 1), (100.0,)),
            ([-4, 2, 2, 2, 6, 6, 6, 12], (-4, 12), ()),
            ([low, 2, 2, 2, 6, 6, 6, high], (2, 6), (low, high)),
            (apart, tuple(apart), ()),
        ]
        for values, whiskers, outliers in cases:
            box = boxplot_data(values)
            assert (box.whisker_low, box.whisker_high) == whiskers
            assert box.outlier_values == outliers
            assert summarize(observations(values), Metric.CS).outliers == len(outliers)

    def test_ordering_invariant(self):
        rng = random.Random(123)
        for _ in range(25):
            values = [rng.gauss(50, 20) for _ in range(rng.randint(5, 500))]
            box = boxplot_data(values)
            assert box.whisker_low <= box.q1 <= box.median <= box.q3 <= box.whisker_high
            low, high = fences(box)
            assert all(v < low or v > high for v in box.outlier_values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            boxplot_data([])


class TestBaseRatePosterior:
    def test_twenty_percent_base_rate_with_imperfect_test(self):
        assert base_rate_posterior(0.20, 1.00, 0.70) == pytest.approx(
            0.45454545, abs=1e-6
        )

    def test_perfect_test_always_posterior_one(self):
        for prior in (0.01, 0.2, 0.5, 0.99):
            assert base_rate_posterior(prior, 1.0, 1.0) == 1.0

    def test_uninformative_test_returns_prior(self):
        # sensitivity equals the false-positive rate, so the test adds nothing
        assert base_rate_posterior(0.3, 0.7, 0.3) == pytest.approx(0.3)

    @pytest.mark.parametrize(
        "prior,sensitivity,specificity",
        [(-0.1, 1, 1), (1.1, 1, 1), (0.5, -0.2, 1), (0.5, 1, 2)],
    )
    def test_out_of_range_arguments_rejected(self, prior, sensitivity, specificity):
        with pytest.raises(ValueError):
            base_rate_posterior(prior, sensitivity, specificity)

    def test_test_that_never_fires_rejected(self):
        with pytest.raises(ValueError):
            base_rate_posterior(0.0, 0.5, 1.0)

    def test_monotone_in_prior_for_informative_test(self):
        rng = random.Random(31)
        for _ in range(50):
            sensitivity = rng.uniform(0.05, 1.0)
            specificity = rng.uniform(1.0 - sensitivity + 1e-6, 1.0)
            priors = sorted((rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)))
            if priors[0] == priors[1]:
                continue
            low = base_rate_posterior(priors[0], sensitivity, specificity)
            high = base_rate_posterior(priors[1], sensitivity, specificity)
            assert high > low
