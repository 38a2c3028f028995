"""Order statistics and the spread the bounds are set against."""

import statistics

import pytest

from bench.measure import (
    highest_supported_percentile,
    percentile,
    quartile_spread,
    samples_beyond,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 95) == 95
    assert percentile(values, 50) == 50
    assert percentile(values, 100) == 100
    assert percentile([4, 1, 3, 2], 50) == 2  # rank ceil(4 * .5) = 2
    assert percentile([7], 99) == 7


def test_percentile_rejects_what_it_cannot_answer():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_samples_beyond_counts_strictly_past_the_rank():
    assert samples_beyond(640, 95) == 32
    assert samples_beyond(3000, 99) == 30
    assert samples_beyond(100, 99) == 1
    assert samples_beyond(0, 95) == 0


def test_highest_percentile_with_ten_samples_beyond():
    assert highest_supported_percentile(3000) == 99.0
    assert highest_supported_percentile(640) == 95.0   # p99 leaves 6
    assert highest_supported_percentile(240) == 95.0   # 12 beyond
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(99) is None    # p90 leaves 9


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )
    assert quartile_spread([5.0] * 10) == 0.0

