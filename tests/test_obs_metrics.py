"""Tests for repro.obs.metrics: metric semantics, deterministic
rendering, and the shared-registry reset contract."""

import json

import pytest

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               get_registry)


class TestMetricTypes:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0

    def test_histogram_cumulative_buckets(self):
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        assert h.cumulative() == [("0.1", 1), ("1.0", 3), ("10.0", 4),
                                  ("+Inf", 5)]


class TestRegistry:
    def test_labels_key_into_distinct_metrics(self):
        reg = MetricsRegistry()
        reg.counter("jobs", status="ok").inc()
        reg.counter("jobs", status="ok").inc()
        reg.counter("jobs", status="failed").inc()
        assert reg.counter_value("jobs", status="ok") == 2
        assert reg.counter_value("jobs", status="failed") == 1
        assert reg.counter_value("jobs", status="timeout") == 0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1", b="2").inc()
        assert reg.counter_value("x", b="2", a="1") == 1

    def test_reset_forgets_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.0)
        reg.reset()
        assert reg.as_dict() == {"counters": {}, "gauges": {},
                                 "histograms": {}}

    def test_as_dict_is_json_able_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        reg.gauge("depth").set(3)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        obj = json.loads(json.dumps(reg.as_dict()))
        assert list(obj["counters"]) == ["a", "b"]
        assert obj["gauges"]["depth"] == 3.0
        assert obj["histograms"]["lat"] == {
            "count": 1, "sum": 0.5, "buckets": {"1.0": 1, "+Inf": 1}}

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", status="ok").inc(3)
        reg.gauge("queue_depth").set(2)
        reg.histogram("job_seconds", buckets=(1.0,)).observe(0.5)
        text = reg.render_prometheus()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE repro_jobs_total counter" in lines
        assert 'repro_jobs_total{status="ok"} 3' in lines
        assert "# TYPE repro_queue_depth gauge" in lines
        assert "repro_queue_depth 2" in lines
        assert "# TYPE repro_job_seconds histogram" in lines
        assert 'repro_job_seconds_bucket{le="1.0"} 1' in lines
        assert 'repro_job_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_job_seconds_sum 0.5" in lines
        assert "repro_job_seconds_count 1" in lines

    def test_prometheus_histogram_with_labels_folds_le_in(self):
        reg = MetricsRegistry()
        reg.histogram("job_seconds", buckets=(1.0,),
                      worker="a").observe(2.0)
        text = reg.render_prometheus()
        assert 'repro_job_seconds_bucket{worker="a",le="1.0"} 0' in text
        assert 'repro_job_seconds_bucket{worker="a",le="+Inf"} 1' in text
        assert 'repro_job_seconds_sum{worker="a"} 2' in text

    def test_rendering_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("z").inc()
            reg.counter("a", x="1").inc()
            reg.gauge("m").set(1)
            return reg
        assert build().render_prometheus() == build().render_prometheus()
        assert json.dumps(build().as_dict()) == json.dumps(build().as_dict())

    def test_process_registry_is_shared(self):
        assert get_registry() is get_registry()


def _registry_probe_child(conn):
    # Module-level so it works under any multiprocessing start method.
    from repro.obs.metrics import get_registry

    reg = get_registry()
    inherited = reg.counter_value("fork_probe_total")
    reg.counter("fork_probe_total").inc(100)
    conn.send([inherited, reg.counter_value("fork_probe_total")])
    conn.close()


class TestForkSafety:
    """The registry is parent-side only: a forked worker inherits a
    *copy* (so importing repro.obs.metrics in a worker is harmless), its
    increments die with it, and worker counters reach the parent only
    through the result channel -- never by double-exporting the shared
    registry."""

    def test_forked_child_increments_stay_in_the_child(self):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fork start method required to observe inheritance")
        reg = get_registry()
        base = reg.counter_value("fork_probe_total")
        reg.counter("fork_probe_total").inc()
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(target=_registry_probe_child,
                                       args=(child_conn,))
        proc.start()
        child_conn.close()
        inherited, after_inc = parent_conn.recv()
        proc.join(30)
        assert proc.exitcode == 0
        assert inherited == base + 1          # fork copied parent state
        assert after_inc == inherited + 100   # child increments applied...
        # ...but never merged back: the parent registry is unchanged.
        assert reg.counter_value("fork_probe_total") == base + 1
