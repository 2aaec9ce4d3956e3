import pytest

from xbench.stats import (
    highest_supported_percentile,
    percentile,
    quartiles,
    supports,
)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_highest_supported_percentile(n, expected):
    assert highest_supported_percentile(n) == expected


def test_supports_needs_ten_samples_beyond():
    assert supports(100, 90)
    assert not supports(99, 90)
    assert supports(200, 95)
    assert not supports(199, 95)


def test_nearest_rank_percentile_returns_a_sample():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 100) == 100
    assert percentile([3.0], 99) == 3.0


def test_quartiles_match_statistics_quantiles():
    q = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert q == {"q1": 2.75, "median": 5.5, "q3": 8.25}


def _slices(rate_of, steals, seconds=1.0):
    """Back-to-back slices whose rate is ``rate_of(steal, mid time)``."""
    out = []
    for index, steal in enumerate(steals):
        mid = index * seconds + seconds / 2
        out.append((seconds, rate_of(steal, mid) * seconds, 0.0, steal))
    return out


def test_zero_steal_rate_removes_steal_and_keeps_the_time_trend():
    from xbench.stats import zero_steal_rate

    steals = [0.0, 0.2, 0.05, 0.3, 0.0, 0.1, 0.25, 0.0]
    # 1000 items/s less 2000 per unit of steal, slowing 10 items/s per second
    slices = _slices(lambda s, t: 1000.0 - 2000.0 * s - 10.0 * t, steals)
    # the fit at no steal and the mean mid time (4.0 s)
    assert zero_steal_rate(slices) == pytest.approx(960.0)


def test_zero_steal_rate_is_the_mean_rate_without_steal_spread():
    from xbench.stats import zero_steal_rate

    slices = _slices(lambda s, t: 500.0 + (50.0 if t < 2 else -25.0), [0.01] * 4)
    assert zero_steal_rate(slices) == pytest.approx(512.5)
    with pytest.raises(ValueError):
        zero_steal_rate(slices[:2])
