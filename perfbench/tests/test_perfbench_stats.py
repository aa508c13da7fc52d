"""The tail-percentile rule: report the highest percentile with at least
ten samples beyond it, together with the sample count."""

import pytest

from perfbench import stats


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile(reversed(samples), 90) == 90


@pytest.mark.parametrize("n, pct", [
    (20, 50.0),      # p50 leaves 10 beyond; p90 leaves 2
    (99, 50.0),      # p90 leaves 9
    (100, 90.0),     # p90 leaves exactly 10
    (999, 90.0),     # p99 leaves 9
    (1000, 99.0),    # p99 leaves exactly 10
    (9999, 99.0),    # p99.9 leaves 9
    (10000, 99.9),
    (100000, 99.99),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(n)]
    chosen, value, count = stats.highest_percentile(samples)
    assert chosen == pct
    assert count == n
    assert stats.beyond(n, chosen) >= stats.MIN_BEYOND
    assert value == stats.percentile(samples, chosen)


def test_too_few_samples_fall_back_to_the_median_with_their_count():
    chosen, value, count = stats.highest_percentile([3.0, 1.0, 2.0])
    assert (chosen, value, count) == (50.0, 2.0, 3)
    assert not stats.supported(3, 50.0)
