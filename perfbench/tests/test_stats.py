import statistics

import pytest

from perfbench.stats import Tally, median, quartiles, relative_spread


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_median_of_nothing_raises():
    with pytest.raises(ValueError):
        median([])


def test_quartiles_match_statistics_quantiles():
    values = [0.9, 1.3, 1.1, 1.0, 1.7, 1.2, 0.8, 1.05, 1.4, 1.15]
    q1, mid, q3 = quartiles(values)
    assert [q1, mid, q3] == statistics.quantiles(values, n=4)
    assert mid == statistics.median(values)


def test_quartiles_of_one_value():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_relative_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / mid)
    assert relative_spread([7.0] * 4) == 0.0
    assert relative_spread([0.0, 0.0, 0.0]) == 0.0


def test_tally_counts_every_failure_against_attempts():
    tally = Tally()
    tally.record([])
    tally.record(["wrong output"])
    tally.record([])
    tally.record(["books moved", "boundary missed"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_ratio == 0.5
    assert tally.pass_ratio == 0.5
    assert tally.problems == ["wrong output", "books moved", "boundary missed"]
    assert not tally.correct


def test_tally_clean_and_empty():
    clean = Tally()
    clean.record([])
    assert clean.correct and clean.fail_ratio == 0.0 and clean.pass_ratio == 1.0
    empty = Tally()
    assert not empty.correct and empty.fail_ratio == 0.0
