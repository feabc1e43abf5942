import random

import pytest

from perfbench.stats import covered_time, gmacs_per_second, tail_percentile


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    # p99 leaves 1 beyond, p95 leaves 5, p90 leaves exactly 10
    assert tail_percentile(samples) == (90.0, 90.0, 10, 100)


def test_tail_percentile_moves_up_with_more_samples():
    p, value, beyond, n = tail_percentile([float(i) for i in range(1, 1001)])
    assert (p, value, beyond, n) == (99.0, 990.0, 10, 1000)
    p, value, beyond, n = tail_percentile(range(1, 10_001))
    assert (p, value, beyond, n) == (99.9, 9990.0, 10, 10_000)


def test_tail_percentile_needs_enough_samples():
    assert tail_percentile(range(10)) is None
    assert tail_percentile(range(20)) == (50.0, 9.0, 10, 20)


def test_tail_percentile_counts_beyond_by_rank():
    # ties at the percentile value count as beyond only by rank
    p, value, beyond, n = tail_percentile([1.0] * 30)
    assert value == 1.0 and beyond >= 10 and n == 30


def test_covered_time_of_nested_children():
    # parent 0..10; children 1..3 and 5..6; a grandchild 1.5..2 lies inside a child
    assert covered_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0), (1.5, 2.0)]) == pytest.approx(3.0)


def test_covered_time_merges_overlap_and_clips():
    # two worker spans overlapping each other, one running past the parent's end
    assert covered_time(0.0, 10.0, [(2.0, 5.0), (4.0, 7.0), (9.0, 12.0)]) == pytest.approx(6.0)
    assert covered_time(0.0, 10.0, []) == 0.0
    assert covered_time(0.0, 1.0, [(0.0, 1.0), (0.2, 0.4)]) == pytest.approx(1.0)


def test_gmacs_is_total_macs_over_total_time():
    # 1 GMAC in 1 s and 1 GMAC in 0.25 s: 2 GMAC over 1.25 s, not the mean rate 2.5
    assert gmacs_per_second([(1e9, 1.0), (1e9, 0.25)]) == pytest.approx(1.6)
