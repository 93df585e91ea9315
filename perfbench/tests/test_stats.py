import pytest

import stats


def test_p99_refused_with_too_few_samples():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(999)), 99)


def test_p99_reported_with_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert stats.samples_needed(99) == 1000
    value = stats.percentile(samples, 99)
    assert value == 990
    assert sum(1 for s in samples if s > value) == 10


def test_median_of_few_samples_is_allowed():
    assert stats.percentile([3.0], 50) == 3.0
    assert stats.percentile([5.0, 1.0, 3.0], 50) == 3.0


def test_highest_supported_falls_back_to_what_the_samples_carry():
    q, value = stats.highest_supported(list(range(1, 201)), (99, 95, 90))
    assert (q, value) == (95, 190)


def test_describe_prints_the_sample_count():
    text = stats.describe([1.0, 2.0, 3.0], "ms")
    assert "n=3" in text and "p99" not in text
