"""Robust summary statistics and the base-rate posterior.

Quantiles use linear interpolation over the order statistics (index
h = (n - 1) * p + 1 on the 1-based sorted sample), the default scheme of
most statistics environments, so medians of even-sized samples
interpolate between the two middle values.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
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


class BoxplotData(NamedTuple):
    """Five-number summary with Tukey whiskers and the points beyond them."""

    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    outlier_values: tuple[float, ...]


def _boxplot(xs: Sequence[float]) -> BoxplotData:
    """Quartiles, whiskers and the values beyond the fences of a sorted, non-empty sample."""
    q1 = _sorted_quantile(xs, 0.25)
    q3 = _sorted_quantile(xs, 0.75)
    spread = TUKEY_FENCE_FACTOR * (q3 - q1)
    # The values inside the fences, both fences included, are one slice of xs.
    # Exact fences always hold the one or two middle order statistics; the
    # rounded ones can miss them (two values 2 ulps apart), so these stay in.
    start = min(bisect_left(xs, q1 - spread), (len(xs) - 1) // 2)
    stop = max(bisect_right(xs, q3 + spread), len(xs) // 2 + 1)
    return BoxplotData(
        q1, _sorted_quantile(xs, 0.5), q3, xs[start], xs[stop - 1], (*xs[:start], *xs[stop:])
    )


class MetricSummary(NamedTuple):
    """Median, dispersion, outlier accounting and boxplot for one metric."""

    metric: Metric
    median: float
    median_attainers: tuple[tuple[str, int], ...]
    iqr: float
    observations: int
    outliers: int
    boxplot: BoxplotData

    @property
    def outlier_rate(self) -> float:
        return self.outliers / self.observations


def summarize(observations: Sequence[Observation], metric: Metric) -> MetricSummary:
    """Median, IQR, Tukey outlier count and boxplot over (project, year, value) points.

    Median attainers are the observations whose value equals the median
    exactly; when the median is interpolated, the attainers of the two
    bracketing order statistics are reported instead.
    """
    if not observations:
        raise ValueError(f"no defined observations for {metric.value}")
    xs = sorted(map(float, map(itemgetter(2), observations)))  # each one's value
    box = _boxplot(xs)
    # The one or two order statistics the median lies between: a value equal
    # to the median can only be one of them.
    middle = {xs[(len(xs) - 1) // 2], xs[len(xs) // 2]}
    attain = {box.median} if box.median in middle else middle
    attainers = sorted((o.project, o.year) for o in observations if float(o.value) in attain)
    return MetricSummary(
        metric=metric,
        median=box.median,
        median_attainers=tuple(attainers),
        iqr=box.q3 - box.q1,
        observations=len(xs),
        outliers=len(box.outlier_values),
        boxplot=box,
    )


def boxplot_data(values: Sequence[float]) -> BoxplotData:
    """Boxplot data with whiskers at the most extreme points inside the fences."""
    if len(values) == 0:
        raise ValueError("no values to plot")
    return _boxplot(sorted(float(value) for value in values))


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
