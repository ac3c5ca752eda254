import pytest

from stats import nearest_rank, percentile, self_times, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (999, 95.0), (10_000, 99.9), (9_999, 99.0), (200, 95.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n - nearest_rank(n, expected) >= 10


def test_stream_shorter_than_1000_cannot_report_p99():
    assert tail_percentile(1000) >= 99.0
    for n in (999, 500, 100):
        assert tail_percentile(n) < 99.0


def test_nearest_rank_percentile():
    values = list(range(1000, 0, -1))  # 1..1000, unsorted
    assert percentile(values, 99.0) == 990
    assert sum(v > percentile(values, 99.0) for v in values) == 10
    assert percentile(values, 50.0) == 500
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]; d [11, 12] is a second root.
    starts = [0.0, 1.0, 5.0, 6.0, 11.0]
    ends = [10.0, 4.0, 9.0, 7.0, 12.0]
    parents = [-1, 0, 0, 2, -1]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0])
    selfs = self_times(starts, ends, parents)
    assert sum(selfs[:4]) == pytest.approx(ends[0] - starts[0])
