"""Percentile rule and failure accounting of the benchmark."""

import random

import pytest

from stats import EXAMPLES, TAIL_BEYOND, Tally, tail


def test_tail_keeps_ten_samples_above_it():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    value, pct, n = tail(samples)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == TAIL_BEYOND


def test_tail_of_the_smallest_sample_set():
    value, pct, n = tail([5.0] + [9.0] * 10)
    assert value == 5.0 and n == 11
    assert pct == pytest.approx(100 / 11)


@pytest.mark.parametrize("n", [0, 1, TAIL_BEYOND])
def test_tail_refuses_too_few_samples(n):
    with pytest.raises(ValueError):
        tail([1.0] * n)


def test_tail_percentile_rises_with_sample_count():
    small = tail([float(i) for i in range(20)])
    large = tail([float(i) for i in range(2000)])
    assert small[1] == 50.0 and large[1] == 99.5


def test_error_rate_counts_failed_over_attempted():
    tally = Tally()
    for i in range(7):
        tally.add(f"t{i}", [])
    tally.add("bad1", ["exit 0, expected 1"], ("invalid_input", "non_finite_input"))
    tally.add("bad2", [], ("invalid_input",))
    tally.add("wrong", ["p_matched off"])
    assert (tally.attempted, tally.failed) == (10, 2)
    assert tally.error_rate == 0.2
    assert tally.valid_failed == 1
    assert tally.tagged == {"invalid_input": 2, "non_finite_input": 1}
    assert tally.failed_tagged["non_finite_input"] == 1
    assert len(tally.examples) == 2


def test_error_rate_of_nothing_is_zero():
    assert Tally().error_rate == 0.0


def test_examples_are_capped():
    tally = Tally()
    for i in range(EXAMPLES + 3):
        tally.add(f"t{i}", ["x"])
    assert tally.failed == EXAMPLES + 3 and len(tally.examples) == EXAMPLES
