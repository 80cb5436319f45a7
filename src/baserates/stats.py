"""Robust summary statistics and the base-rate posterior.

Quantiles use linear interpolation over the order statistics (index
h = (n - 1) * p + 1 on the 1-based sorted sample), the default scheme of
most statistics environments, so medians of even-sized samples
interpolate between the two middle values.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Sequence

TUKEY_FENCE_FACTOR = 1.5


class Metric(str, enum.Enum):
    CS = "CS"
    CGA = "CGa"
    CGI = "CGi"


class Observation(NamedTuple):
    """One metric value attributed to a project-year."""

    project: str
    year: int
    value: float


def _sorted_quantile(xs: Sequence[float], p: float) -> float:
    h = (len(xs) - 1) * p
    lower = math.floor(h)
    fraction = h - lower
    if fraction == 0.0:
        return float(xs[lower])
    return xs[lower] + fraction * (xs[lower + 1] - xs[lower])


def _quartiles_and_fences(xs: Sequence[float]) -> tuple[float, ...]:
    """(q1, median, q3, lower fence, upper fence) of a sorted, non-empty sample."""
    q1 = _sorted_quantile(xs, 0.25)
    q3 = _sorted_quantile(xs, 0.75)
    spread = TUKEY_FENCE_FACTOR * (q3 - q1)
    return q1, _sorted_quantile(xs, 0.5), q3, q1 - spread, q3 + spread


class MetricSummary(NamedTuple):
    """Median, dispersion, and outlier accounting for one metric."""

    metric: Metric
    median: float
    median_attainers: tuple[tuple[str, int], ...]
    iqr: float
    observations: int
    outliers: int

    @property
    def outlier_rate(self) -> float:
        return self.outliers / self.observations


def summarize(observations: Sequence[Observation], metric: Metric) -> MetricSummary:
    """Median, IQR, and Tukey outlier count over (project, year, value) points.

    Median attainers are the observations whose value equals the median
    exactly; when the median is interpolated, the attainers of the two
    bracketing order statistics are reported instead.
    """
    if not observations:
        raise ValueError(f"no defined observations for {metric.value}")
    xs = sorted(float(obs.value) for obs in observations)
    q1, median, q3, low, high = _quartiles_and_fences(xs)
    outliers = sum(1 for value in xs if value < low or value > high)

    matches = [obs for obs in observations if float(obs.value) == median]
    if matches:
        attainers = sorted((obs.project, obs.year) for obs in matches)
    else:
        lower = math.floor((len(xs) - 1) * 0.5)
        bracket = {xs[lower], xs[lower + 1]}
        attainers = sorted(
            (obs.project, obs.year)
            for obs in observations
            if float(obs.value) in bracket
        )
    return MetricSummary(
        metric=metric,
        median=median,
        median_attainers=tuple(attainers),
        iqr=q3 - q1,
        observations=len(xs),
        outliers=outliers,
    )


class BoxplotData(NamedTuple):
    """Five-number summary with Tukey whiskers and the points beyond them."""

    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    outlier_values: tuple[float, ...]


def boxplot_data(values: Sequence[float]) -> BoxplotData:
    """Boxplot data with whiskers at the most extreme points inside the fences."""
    if len(values) == 0:
        raise ValueError("no values to plot")
    xs = sorted(float(value) for value in values)
    q1, median, q3, low, high = _quartiles_and_fences(xs)
    inside = [value for value in xs if low <= value <= high]
    return BoxplotData(
        q1=q1,
        median=median,
        q3=q3,
        whisker_low=min(inside),
        whisker_high=max(inside),
        outlier_values=tuple(v for v in xs if v < low or v > high),
    )


def base_rate_posterior(prior: float, sensitivity: float, specificity: float) -> float:
    """Probability of the condition given a positive test result.

    Combines the prevalence of the condition in the population (the base
    rate, used as prior) with the test's sensitivity and specificity:

        sensitivity * prior
        ---------------------------------------------------
        sensitivity * prior + (1 - specificity) * (1 - prior)

    Judging the probability from the test's accuracy alone ignores the
    base rate and overstates it, which is the classic base-rate fallacy.
    """
    for name, value in (
        ("prior", prior),
        ("sensitivity", sensitivity),
        ("specificity", specificity),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    denominator = sensitivity * prior + (1.0 - specificity) * (1.0 - prior)
    if denominator == 0.0:
        raise ValueError("test never fires: posterior undefined for this configuration")
    return sensitivity * prior / denominator
