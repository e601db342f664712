"""Unit tests of the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import subprocess
import sys

import pytest

from measure import (
    CountMismatch,
    block_percentile,
    check_exact_counts,
    covered_ns,
    live_pids,
    percentile,
    self_time_ns,
)
from repro.obs import SpanRecord


def span(name, start, dur, **attrs):
    return SpanRecord(name, None, start, dur, 0, tuple(attrs.items()))


class TestPercentile:
    def test_p90_of_100_has_ten_beyond(self):
        assert percentile(list(range(1, 101)), 90) == (90, 10)

    def test_p50_is_nearest_rank(self):
        assert percentile([5, 1, 4, 2, 3], 50) == (3, 2)

    def test_too_few_samples_show_in_the_beyond_count(self):
        value, beyond = percentile(list(range(10)), 90)
        assert (value, beyond) == (8, 1)

    def test_single_sample(self):
        assert percentile([7.5], 90) == (7.5, 0)

    @pytest.mark.parametrize("q", [0, -1, 101])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError):
            percentile([1, 2], q)

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestBlockPercentile:
    def test_one_noisy_block_does_not_move_the_median(self):
        quiet = list(range(1, 101))
        noisy = [x + 1000 for x in quiet]
        assert block_percentile(quiet + noisy + quiet, 90, 100) == (90, 10)

    def test_trailing_partial_block_is_dropped(self):
        samples = list(range(1, 101)) + [10_000] * 50
        assert block_percentile(samples, 90, 100) == (90, 10)

    def test_even_block_count_takes_the_middle_mean(self):
        a = list(range(1, 101))
        b = [x + 10 for x in a]
        assert block_percentile(a + b, 90, 100) == (95, 10)

    def test_short_input_is_one_block(self):
        assert block_percentile([3, 1, 2], 50, 100) == (2, 1)


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        parent = span("compile", 0, 100)
        children = [span("plan_compute", 10, 20), span("plan_compute", 20, 20)]
        assert self_time_ns(parent, children) == 100 - 30

    def test_children_clipped_to_the_parent(self):
        parent = span("compile", 100, 100)
        children = [span("x", 50, 100), span("y", 190, 50), span("z", 300, 5)]
        assert self_time_ns(parent, children) == 100 - 50 - 10

    def test_no_children(self):
        assert self_time_ns(span("a", 5, 42), []) == 42

    def test_covered_merges_touching_intervals(self):
        assert covered_ns([(0, 10), (10, 20), (30, 40)], 0, 100) == 30


class TestExactCounts:
    def test_equal_counts_pass(self):
        check_exact_counts([("g0", {"msgs": 4}), ("g0", {"msgs": 4})])

    def test_programs_may_differ_from_each_other(self):
        check_exact_counts([("g0", {"msgs": 4}), ("g1", {"msgs": 9})])

    def test_mismatch_names_program_and_count(self):
        with pytest.raises(CountMismatch, match="g1: bytes 8 != 9"):
            check_exact_counts([
                ("g1", {"msgs": 1, "bytes": 8}),
                ("g0", {"msgs": 1, "bytes": 3}),
                ("g1", {"msgs": 1, "bytes": 9}),
            ])

    def test_missing_count_is_a_mismatch(self):
        with pytest.raises(CountMismatch):
            check_exact_counts([("g", {"a": 1}), ("g", {})])


def test_live_pids_sees_a_running_child_until_it_is_reaped():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert live_pids([child.pid]) == [child.pid]
    finally:
        child.kill()
        child.wait(timeout=10)
    assert live_pids([child.pid]) == []
