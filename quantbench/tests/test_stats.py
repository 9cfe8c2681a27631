import pytest

from stats import best_of, percentile, quartiles, relative_spread


def test_nearest_rank_picks_a_measured_value():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([2.5, 1.5], 50) == 1.5


def test_p90_of_100_values_leaves_ten_beyond():
    values = list(range(1, 101))
    assert sum(v > percentile(values, 90) for v in values) == 10


def test_best_of_takes_fixed_cycles_spread_over_the_run():
    # five cycles of a 2-op cycle, the last one cut short
    latencies = [5.0, 9.0, 4.0, 11.0, 6.0, 8.0, 3.0, 12.0, 7.0, 10.0, 1.0]
    assert best_of(latencies, ["a", "b"], 5) == [3.0, 8.0]
    # two of five cycles: cycles 0 and 2, whatever the later ones hold
    assert best_of(latencies, ["a", "b"], 2) == [5.0, 8.0]
    with pytest.raises(ValueError):
        best_of(latencies, ["a", "b"], 6)


def test_best_of_pools_ops_of_one_kind():
    latencies = [5.0, 9.0, 7.0, 4.0, 11.0, 6.0]
    assert best_of(latencies, ["a", "b", "a"], 2) == [4.0, 9.0, 4.0]


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_quartiles_match_the_statistics_module():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, med, q3 = quartiles(values)
    assert (q1, med, q3) == (2.75, 5.5, 8.25)
    assert relative_spread(values) == pytest.approx(5.5 / 5.5)
