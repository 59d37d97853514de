"""Tests for busy-interval tracking."""

import pytest

from repro.sim import BusyTracker


def test_busy_time_accumulates_work_seconds():
    t = BusyTracker("disk")
    t.record(0.0, 2.0, "read")
    t.record(1.0, 3.0, "read")  # overlapping work counts twice
    assert t.busy_time() == pytest.approx(4.0)


def test_union_time_merges_overlaps():
    t = BusyTracker("disk")
    t.record(0.0, 2.0)
    t.record(1.0, 3.0)
    t.record(10.0, 11.0)
    assert t.union_time() == pytest.approx(4.0)


def test_union_time_empty():
    assert BusyTracker().union_time() == 0.0


def test_union_time_adjacent_intervals():
    t = BusyTracker()
    t.record(0.0, 1.0)
    t.record(1.0, 2.0)
    assert t.union_time() == pytest.approx(2.0)


def test_by_label_partitions_work():
    t = BusyTracker("cpu")
    t.record(0.0, 5.0, "decompress")
    t.record(5.0, 6.0, "render")
    t.record(6.0, 8.0, "decompress")
    assert t.by_label() == {"decompress": 7.0, "render": 1.0}


def test_busy_time_filtered_by_label():
    t = BusyTracker("cpu")
    t.record(0.0, 5.0, "decompress")
    t.record(5.0, 6.0, "render")
    assert t.busy_time("render") == pytest.approx(1.0)


def test_negative_interval_rejected():
    t = BusyTracker()
    with pytest.raises(ValueError):
        t.record(2.0, 1.0)


def test_last_end():
    t = BusyTracker()
    assert t.last_end() == 0.0
    t.record(0.0, 3.0)
    t.record(1.0, 2.0)
    assert t.last_end() == 3.0


def test_clear():
    t = BusyTracker()
    t.record(0.0, 1.0)
    t.clear()
    assert t.busy_time() == 0.0
