"""The percentile rule and the spread summary."""

import pytest

from bench.stats import (
    highest_supported_percentile, percentile, spread, summarize,
)


def test_percentile_interpolates_between_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 50) == 2.5
    assert percentile(samples, 100) == 4.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("count, expected", [
    (1, 50.0),        # the median is reported however few samples there are
    (19, 50.0),       # p50 leaves 9.5 beyond: still the floor
    (20, 50.0),       # exactly 10 beyond the median
    (99, 50.0),       # p90 would leave 9.9
    (100, 90.0),      # p90 leaves exactly 10
    (999, 90.0),      # p99 would leave 9.99
    (1_000, 99.0),    # p99 leaves exactly 10
    (2_400, 99.0),    # 24 beyond p99, 2.4 beyond p99.9
    (10_000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert highest_supported_percentile(count) == expected


def test_summarize_states_count_and_supported_percentile():
    summary = summarize([float(i) for i in range(1_000)])
    assert summary["n"] == 1_000
    assert summary["supported_pct"] == 99.0
    assert summary["p50"] == pytest.approx(499.5)
    assert summary["p99"] == pytest.approx(989.01)


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    row = spread(values)
    assert row["median"] == 14.5
    assert row["iqr_share"] == pytest.approx((row["q3"] - row["q1"]) / 14.5)
    assert row["range_share"] == pytest.approx(9.0 / 14.5)
    with pytest.raises(ValueError):
        spread([1.0])
