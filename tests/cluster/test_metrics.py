"""Unit tests for the metrics registry behind the cluster's ``stats`` verb.

The registry lives in ``repro.obs.metrics``; the gauge, merge and
Prometheus behaviour is tested in ``tests/obs/test_metrics.py``.
"""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestHistogram:
    def test_mean_and_count(self):
        h = Histogram("lat")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        assert h.total == 3
        assert h.mean == pytest.approx(0.2)

    def test_quantile_brackets_observations(self):
        h = Histogram("lat", base=1e-3)
        for _ in range(99):
            h.observe(0.002)
        h.observe(1.0)
        # p50 must bracket the bulk (log2 bucket edge, <= 2x over).
        assert 0.002 <= h.quantile(0.5) <= 0.004
        assert h.quantile(1.0) >= 1.0

    def test_empty_quantile_is_zero(self):
        assert Histogram("lat").quantile(0.99) == 0.0

    def test_snapshot_shape(self):
        h = Histogram("lat")
        h.observe(0.5)
        snap = h.snapshot()
        assert set(snap) == {"count", "sum", "mean", "p50", "p95", "p99",
                             "base", "buckets"}
        assert snap["count"] == 1
        # buckets expose the mergeable state: counts sum to the total.
        assert sum(snap["buckets"]) == 1
        assert snap["base"] == h.base

    def test_zero_observation_reports_base_not_zero(self):
        # Bucket 0 holds everything <= base, including exactly 0; its
        # upper edge is base, so an all-zeros stream reports p50 == base.
        h = Histogram("lat", base=1e-4)
        h.observe(0.0)
        assert h.quantile(0.5) == pytest.approx(1e-4)
        assert h.snapshot()["p50"] == pytest.approx(1e-4)

    def test_rejects_negative_observation(self):
        with pytest.raises(ValueError):
            Histogram("lat").observe(-0.1)


class TestRegistry:
    def test_counter_identity(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc()
        assert reg.get("a") == 2
        assert reg.get("never-touched") == 0

    def test_snapshot_is_json_shaped(self):
        import json

        reg = MetricsRegistry()
        reg.counter("reads").inc(3)
        reg.histogram("lat").observe(0.01)
        snap = reg.snapshot()
        json.dumps(snap)  # wire-safe
        assert snap["counters"]["reads"] == 3
        assert snap["histograms"]["lat"]["count"] == 1

    def test_rows_flatten_for_table(self):
        reg = MetricsRegistry()
        reg.counter("reads").inc(3)
        reg.histogram("lat").observe(0.01)
        rows = MetricsRegistry.rows(reg.snapshot(), prefix="n0.")
        metrics = [r["metric"] for r in rows]
        assert "n0.reads" in metrics
        assert any(m.startswith("n0.lat") for m in metrics)

    def test_merge_sums_counters(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(2)
        b.counter("x").inc(5)
        b.counter("y").inc(1)
        merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"x": 7, "y": 1}

    def test_merge_keeps_histograms(self):
        # Regression: merge() used to drop histograms entirely.
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0.001, 0.002):
            a.histogram("lat").observe(v)
        b.histogram("lat").observe(0.004)
        merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
        lat = merged["histograms"]["lat"]
        assert lat["count"] == 3
        assert lat["sum"] == pytest.approx(0.007)
        assert "caveat" in lat  # cross-node quantile caveat survives

    def test_gauge_reexported(self):
        g = Gauge("depth")
        g.set(3)
        g.dec()
        assert g.value == 2.0
