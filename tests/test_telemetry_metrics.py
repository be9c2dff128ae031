"""Metrics registry: reservoir percentiles, counters, gauges, exposition."""

import numpy as np
import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PercentileReservoir,
)


class TestPercentileReservoir:
    def test_empty_reservoir_reports_zero(self):
        r = PercentileReservoir()
        assert r.percentile(50) == 0.0
        assert r.percentile(99) == 0.0
        assert r.count == 0
        assert len(r) == 0

    def test_single_sample_is_every_percentile(self):
        r = PercentileReservoir()
        r.observe(7.25)
        for q in (0, 1, 50, 99, 100):
            assert r.percentile(q) == 7.25
        assert r.count == 1

    def test_constant_series_is_flat(self):
        r = PercentileReservoir(capacity=64)
        for _ in range(1000):
            r.observe(3.0)
        assert r.percentile(50) == 3.0
        assert r.percentile(99) == 3.0
        assert r.count == 1000
        assert len(r) == 64  # ring held at capacity

    def test_exact_match_below_capacity(self):
        # While n <= capacity the reservoir holds every sample, so any
        # percentile equals np.percentile exactly.
        rng = np.random.default_rng(0)
        values = rng.standard_normal(500)
        r = PercentileReservoir(capacity=1024)
        for v in values:
            r.observe(float(v))
        for q in (1, 25, 50, 75, 90, 99):
            assert r.percentile(q) == pytest.approx(
                float(np.percentile(values, q)), abs=0.0)

    def test_sampled_percentiles_track_np_percentile(self):
        # Beyond capacity the reservoir is a uniform sample; the quantile
        # standard error is sqrt(q(1-q)/capacity) in rank terms.  With
        # capacity 1024 and a seeded stream, p50/p90 of N(0,1) land well
        # within 0.15 of the full-population quantile.
        rng = np.random.default_rng(1)
        values = rng.standard_normal(20_000)
        r = PercentileReservoir(capacity=1024, seed=0)
        for v in values:
            r.observe(float(v))
        assert r.count == 20_000
        assert len(r) == 1024
        for q in (50, 90):
            assert abs(r.percentile(q) - float(np.percentile(values, q))) < 0.15

    def test_seeded_reservoirs_are_deterministic(self):
        def fill(seed):
            r = PercentileReservoir(capacity=16, seed=seed)
            for v in range(1000):
                r.observe(float(v))
            return r.values()

        assert fill(seed=3) == fill(seed=3)
        assert fill(seed=3) != fill(seed=4)


class TestCounter:
    def test_inc_and_labels(self):
        c = Counter("requests_total", "served requests")
        c.inc()
        c.inc(2.0)
        c.inc(backend="thread")
        assert c.value() == 3.0
        assert c.value(backend="thread") == 1.0

    def test_negative_increment_rejected(self):
        c = Counter("n_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name")


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("depth")
        g.set(4.0)
        g.inc(-1.0)
        assert g.value() == 3.0

    def test_callback_gauge_reads_live_value(self):
        state = {"n": 1}
        g = Gauge("live")
        g.set_function(lambda: state["n"])
        assert g.value() == 1.0
        state["n"] = 9
        assert g.value() == 9.0
        with pytest.raises(TypeError):
            g.set(2.0)  # callback-bound series cannot be set directly


class TestHistogram:
    def test_count_sum_percentile(self):
        h = Histogram("latency_seconds", reservoir_size=128)
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == 10.0
        assert h.percentile(50) == pytest.approx(2.5)


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent_and_type_checked(self):
        reg = MetricsRegistry()
        c = reg.counter("tokens_total", "generated tokens")
        assert reg.counter("tokens_total") is c
        with pytest.raises(TypeError):
            reg.gauge("tokens_total")

    def test_register_exports_the_object_and_last_one_wins(self):
        reg = MetricsRegistry()
        first, second = Histogram("lat_seconds"), Histogram("lat_seconds")
        assert reg.register(first) is first
        first.observe(1.0)
        assert reg.snapshot()["lat_seconds"]["samples"][0]["count"] == 1
        reg.register(second)
        assert reg.get("lat_seconds") is second
        assert reg.snapshot()["lat_seconds"]["samples"] == []
        with pytest.raises(TypeError):
            reg.register(Gauge("lat_seconds"))

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(5, shard="0")
        reg.gauge("b").set(2.0)
        reg.histogram("c_seconds").observe(0.25)
        snap = reg.snapshot()
        assert snap["a_total"]["kind"] == "counter"
        assert snap["a_total"]["samples"][0]["labels"] == {"shard": "0"}
        assert snap["b"]["samples"][0]["value"] == 2.0
        assert snap["c_seconds"]["samples"][0]["count"] == 1

    def test_render_prometheus_parses(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", "requests").inc(3, backend="thread")
        reg.gauge("queue_depth", "pending").set(2)
        h = reg.histogram("token_latency_seconds", "per-token latency")
        for v in (0.001, 0.002, 0.004):
            h.observe(v)
        text = reg.render_prometheus()

        seen = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            seen[name_part] = float(value)
        assert seen['requests_total{backend="thread"}'] == 3.0
        assert seen["queue_depth"] == 2.0
        assert seen["token_latency_seconds_count"] == 3.0
        assert seen["token_latency_seconds_sum"] == pytest.approx(0.007)
        assert 'token_latency_seconds{quantile="0.5"}' in seen
        assert "# TYPE token_latency_seconds summary" in text
        assert "# HELP requests_total requests" in text
