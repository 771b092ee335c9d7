"""Tests for service metrics: percentile math and the SLO report."""

import json

import pytest

from repro.bench.export import metrics_to_json
from repro.server.metrics import ServiceMetrics
from repro.sim.metrics import Metrics, percentile


class TestPercentile:
    def test_interpolated_values(self):
        xs = [float(i) for i in range(1, 101)]
        assert percentile(xs, 0.50) == pytest.approx(50.5)
        assert percentile(xs, 0.95) == pytest.approx(95.05)
        assert percentile(xs, 0.99) == pytest.approx(99.01)

    def test_extremes(self):
        xs = [3.0, 1.0, 2.0]
        assert percentile(xs, 0.0) == 1.0
        assert percentile(xs, 1.0) == 3.0

    def test_single_value(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0], 0.5) == 5.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestServiceMetrics:
    def make_loaded(self):
        m = ServiceMetrics()
        for _ in range(10):
            m.record_arrival()
        for _ in range(8):
            m.record_admit()
        for _ in range(2):
            m.record_drop()
        m.record_timeout(queue_wait=0.9)
        for i in range(7):
            m.record_dispatch(queue_wait=0.1 * i, route="query-centric" if i < 5 else "gqp")
            m.record_completion(latency=1.0 + i)
        return m

    def test_counters(self):
        m = self.make_loaded()
        assert (m.arrived, m.admitted, m.dropped, m.timed_out, m.completed) == (10, 8, 2, 1, 7)
        assert m.in_system == 0
        assert m.routed == {"query-centric": 5, "gqp": 2}

    def test_latency_percentiles(self):
        m = self.make_loaded()
        lat = m.latency_percentiles()
        assert lat["p50"] == pytest.approx(4.0)
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= 7.0

    def test_empty_percentiles_are_zero(self):
        m = ServiceMetrics()
        assert m.latency_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert m.queue_wait_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_throughput(self):
        m = self.make_loaded()
        assert m.throughput(3.5) == pytest.approx(2.0)
        assert m.throughput(0.0) == 0.0

    def test_inherits_simulator_metrics(self):
        m = self.make_loaded()
        m.cpu_cycles_by_category["joins"] += 1000.0
        m.record_sharing("join-depth-1")
        d = m.to_dict(hz=1000.0)
        assert d["cpu_seconds_by_category"]["joins"] == pytest.approx(1.0)
        assert d["sharing_events"] == {"join-depth-1": 1}

    def test_to_dict_service_fields(self):
        d = self.make_loaded().to_dict(window=3.5)
        assert d["arrived"] == 10 and d["dropped"] == 2 and d["timed_out"] == 1
        assert d["throughput_qps"] == pytest.approx(2.0)
        assert set(d["latency"]) >= {"p50", "p95", "p99", "mean", "max"}


class TestMetricsToJson:
    def test_plain_metrics(self):
        m = Metrics()
        m.cpu_cycles_by_category["scans"] += 2000.0
        m.bump("bufferpool_hits", 3)
        payload = json.loads(metrics_to_json(m, hz=1000.0))
        assert payload["cpu_seconds_by_category"]["scans"] == pytest.approx(2.0)
        assert payload["counts"]["bufferpool_hits"] == 3

    def test_plain_metrics_ignores_window(self):
        # Plain Metrics has no throughput concept; window must not error.
        payload = json.loads(metrics_to_json(Metrics(), window=5.0))
        assert "throughput_qps" not in payload

    def test_service_metrics_with_window_and_extra(self):
        m = ServiceMetrics()
        m.record_arrival()
        m.record_admit()
        m.record_dispatch(0.0, "gqp")
        m.record_completion(2.0)
        payload = json.loads(metrics_to_json(m, window=4.0, extra={"policy": "adaptive"}))
        assert payload["policy"] == "adaptive"
        assert payload["throughput_qps"] == pytest.approx(0.25)
        assert payload["latency"]["p95"] == pytest.approx(2.0)
