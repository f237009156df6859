import pytest

from percentiles import MIN_BEYOND, median, percentile


def test_p90_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))
    assert percentile(samples, 90) == 90
    with pytest.raises(ValueError, match="beyond"):
        percentile(samples[:99], 90)


def test_percentile_is_a_sample_by_nearest_rank():
    samples = [float(v) for v in reversed(range(200))]
    assert percentile(samples, 50) == 99.0
    assert percentile(samples, 95) == 189.0
    with pytest.raises(ValueError):
        percentile(samples, 96)


@pytest.mark.parametrize("count", [0, 1, MIN_BEYOND])
def test_refuses_small_samples(count):
    with pytest.raises(ValueError):
        percentile([1.0] * count, 50)


def test_rejects_out_of_range_percentile():
    with pytest.raises(ValueError):
        percentile(list(range(100)), 100)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0]) == 2.5
    with pytest.raises(ValueError):
        median([])
