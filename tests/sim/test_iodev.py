"""Unit tests for the shared-bandwidth disk model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.iodev import IoDevice
from repro.sim.task import SimThread


def _thread(name="t"):
    def _g():
        yield None

    return SimThread(_g(), name)


def _drain(dev, now=0.0):
    """Run the device to idle; return (finish_time, completion_count)."""
    count = 0
    while dev.active_streams:
        t = dev.next_completion(now)
        assert t is not None and t >= now
        done = dev.pop_completed(t)
        count += len(done)
        now = t
    return now, count


class TestConstruction:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            IoDevice("d", 0)


class TestSingleStream:
    def test_full_bandwidth_alone(self):
        dev = IoDevice("d", bandwidth=100e6)
        dev.add(0.0, _thread(), 200e6, True, lambda: None)
        assert dev.next_completion(0.0) == pytest.approx(2.0)

    def test_random_access_penalty(self):
        dev = IoDevice("d", bandwidth=100e6, random_multiplier=4.0)
        dev.add(0.0, _thread(), 100e6, False, lambda: None)
        assert dev.next_completion(0.0) == pytest.approx(4.0)

    def test_bytes_delivered_counts_logical_bytes(self):
        dev = IoDevice("d", bandwidth=100e6, random_multiplier=4.0)
        dev.add(0.0, _thread(), 100e6, False, lambda: None)
        _drain(dev)
        assert dev.bytes_delivered == pytest.approx(100e6)


class TestInterleaving:
    def test_two_streams_thrash(self):
        dev = IoDevice("d", bandwidth=100e6, seek_penalty=0.5, min_efficiency=0.1)
        dev.add(0.0, _thread("a"), 100e6, True, lambda: None)
        dev.add(0.0, _thread("b"), 100e6, True, lambda: None)
        # eff(2) = 1/1.5; per-stream rate = 100e6/1.5/2 = 33.3 MB/s.
        assert dev.next_completion(0.0) == pytest.approx(3.0)

    def test_efficiency_floor(self):
        dev = IoDevice("d", bandwidth=100e6, seek_penalty=1.0, min_efficiency=0.25)
        assert dev.interleave_efficiency(1) == 1.0
        assert dev.interleave_efficiency(2) == pytest.approx(0.5)
        assert dev.interleave_efficiency(100) == 0.25

    def test_n_shared_scans_slower_than_one(self):
        """The core I/O claim behind circular scans: N interleaved full-table
        scans take much longer than N x (one scan) / N."""
        one = IoDevice("d", bandwidth=100e6)
        one.add(0.0, _thread(), 1e9, True, lambda: None)
        t_one, _ = _drain(one)

        many = IoDevice("d", bandwidth=100e6)
        for i in range(8):
            many.add(0.0, _thread(str(i)), 1e9, True, lambda: None)
        t_many, _ = _drain(many)
        assert t_many > 8 * t_one * 1.5  # thrash makes it far worse than 8x


class TestMetrics:
    def test_avg_read_rate(self):
        dev = IoDevice("d", bandwidth=100e6)
        dev.add(0.0, _thread(), 100e6, True, lambda: None)
        t, _ = _drain(dev)
        assert dev.bytes_delivered / dev.busy_time == pytest.approx(100e6)
        assert dev.busy_time == pytest.approx(t)


class TestConservation:
    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.floats(1e5, 1e8), min_size=1, max_size=16))
    def test_all_requests_complete(self, sizes):
        dev = IoDevice("d", bandwidth=50e6)
        fired = []
        for i, s in enumerate(sizes):
            dev.add(0.0, _thread(str(i)), s, True, lambda i=i: fired.append(i))
        now, count = _drain(dev)
        assert count == len(sizes)
        assert dev.bytes_delivered == pytest.approx(sum(sizes))
        # Never faster than peak bandwidth allows.
        assert now >= sum(sizes) / dev.bandwidth - 1e-9
