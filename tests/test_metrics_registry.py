"""Unified MetricsRegistry: primitives, and the engine actually feeding it.

One registry per EngineContext absorbs the previously siloed streams —
TaskMetrics, recovery events, shuffle/cache byte accounting — as
Prometheus-style counters/gauges/histograms, so one snapshot answers "what
did this run do" without walking three collectors.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster.topology import private_cluster
from repro.config import Config
from repro.engine.context import EngineContext
from repro.obs.registry import MetricsRegistry
from tests.conftest import MODES


def make_context(mode: str = "sequential", **overrides) -> EngineContext:
    cfg = dict(default_parallelism=4, shuffle_partitions=4, scheduler_mode=mode)
    cfg.update(overrides)
    return EngineContext(config=Config(**cfg), topology=private_cluster(num_machines=2))


class TestPrimitives:
    def test_counters_with_labels(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", route="a")
        reg.inc("requests_total", 2, route="b")
        reg.inc("requests_total", route="a")
        assert reg.counter_value("requests_total", route="a") == 2
        assert reg.counter_value("requests_total", route="b") == 2
        assert reg.counter_total("requests_total") == 4
        assert reg.counter_by_label("requests_total", "route") == {"a": 2, "b": 2}

    def test_count_and_observe_writes_what_inc_and_observe_write(self):
        """Prebuilt keys name the same series, whatever order the labels
        were given in."""
        by_name, by_key = MetricsRegistry(), MetricsRegistry()
        for seconds in (0.5, 0.25):
            by_name.inc("requests_total", shard=1, op="lookup")
            by_name.observe("latency_seconds", seconds, shard=1)
            by_key.count_and_observe(
                by_key.key("requests_total", op="lookup", shard=1),
                by_key.key("latency_seconds", shard=1),
                seconds,
            )
        assert by_key.snapshot() == by_name.snapshot()
        assert by_key.counter_value("requests_total", shard=1, op="lookup") == 2
        # More counters in the same call, and no observation without a histogram.
        for scanned, matched in ((8, 2), (0, 0)):
            by_name.inc("scans_total")
            by_name.inc("scanned_total", scanned)
            by_name.inc("matched_total", matched)
            if scanned:
                by_name.observe("selectivity", matched / scanned)
            by_key.count_and_observe(
                by_key.key("scans_total"),
                by_key.key("selectivity") if scanned else None,
                matched / scanned if scanned else 0.0,
                ((by_key.key("scanned_total"), scanned), (by_key.key("matched_total"), matched)),
            )
        assert by_key.snapshot() == by_name.snapshot()

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("x_total", -1)

    def test_gauges_overwrite(self):
        reg = MetricsRegistry()
        reg.set_gauge("pool_width", 8)
        reg.set_gauge("pool_width", 5)
        assert reg.gauge_value("pool_width") == 5

    def test_histograms_accumulate(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("latency_seconds", v)
        stats = reg.histogram_stats("latency_seconds")
        assert stats == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}

    def test_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.inc("a_total")
        reg.set_gauge("g", 1)
        reg.observe("h", 0.5)
        snap = reg.snapshot()
        assert snap["counters"]["a_total"] == 1
        assert snap["gauges"]["g"] == 1
        assert snap["histograms"]["h"]["count"] == 1
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_thread_safety_under_contention(self):
        reg = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                reg.inc("hits_total")
                reg.observe("lat", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("hits_total") == 8000
        assert reg.histogram_stats("lat")["count"] == 8000


class TestEngineWiring:
    @pytest.mark.parametrize("mode", MODES)
    def test_task_and_stage_counters(self, mode):
        context = make_context(mode)
        context.parallelize(list(range(100)), 4).map(lambda x: x + 1).collect()
        reg = context.registry
        assert reg.counter_value("jobs_submitted_total") == 1
        assert reg.counter_total("stages_executed_total") == 1
        assert reg.counter_value("tasks_completed_total") == 4
        assert reg.counter_total("task_launches_total") == 4
        assert reg.histogram_stats("task_compute_seconds")["count"] == 4

    @pytest.mark.parametrize("mode", MODES)
    def test_shuffle_byte_counters_match_collector(self, mode):
        context = make_context(mode)
        rdd = context.parallelize(list(range(200)), 4).map(lambda x: (x % 10, x))
        rdd.reduce_by_key(lambda a, b: a + b).collect()
        reg = context.registry
        assert reg.counter_value("shuffle_bytes_written_total") > 0
        assert reg.counter_value("shuffle_fetches_total") > 0

    def test_cache_hit_miss_counters(self):
        context = make_context("sequential")
        rdd = context.parallelize(list(range(50)), 4).map(lambda x: x * 2).cache()
        rdd.collect()  # all misses: computes and stores
        misses = context.registry.counter_value("cache_misses_total")
        assert misses == 4
        rdd.collect()  # all local hits
        assert context.registry.counter_total("cache_hits_total") == 4
        assert context.registry.counter_value("cache_misses_total") == misses
        assert context.registry.histogram_stats("block_compute_seconds")["count"] == 4

    def test_recovery_events_feed_registry(self):
        context = make_context("sequential", task_retry_backoff=0.0)
        context.faults.configure(seed=5, task_failure_prob=0.3)
        context.parallelize(list(range(100)), 8).map(lambda x: (x % 5, x)).reduce_by_key(
            lambda a, b: a + b
        ).collect()
        reg = context.registry
        by_kind = reg.counter_by_label("recovery_events_total", "kind")
        assert by_kind.get("chaos_task_failure", 0) > 0

    def test_executor_loss_recovery_kinds(self):
        context = make_context("sequential")
        rdd = context.parallelize(list(range(40)), 4).map(lambda x: x).cache()
        rdd.collect()
        context.kill_executor(context.alive_executor_ids()[0])
        rdd.collect()
        by_kind = context.registry.counter_by_label("recovery_events_total", "kind")
        assert by_kind.get("executor_lost") == 1

    def test_task_phase_histograms(self):
        context = make_context("sequential")
        session_rows = list(range(100))

        def job():
            from repro.sql.session import Session
            from repro.sql.types import LONG, Schema

            session = Session(context=context)
            df = session.create_dataframe(
                [(i,) for i in session_rows], Schema.of(("x", LONG)), "t"
            )
            idf = df.create_index("x")
            return idf.to_df().collect_tuples()

        job()
        stats = context.registry.histogram_stats("task_phase_seconds", phase="indexed_scan")
        assert stats["count"] > 0

    def test_collector_reset_clears_registry(self):
        context = make_context("sequential")
        context.parallelize([1, 2, 3], 2).collect()
        assert context.registry.counter_value("tasks_completed_total") > 0
        context.metrics.reset()
        assert context.registry.counter_value("tasks_completed_total") == 0


class TestHistogramPercentiles:
    def test_percentiles_over_known_distribution(self):
        registry = MetricsRegistry()
        for v in range(1, 101):  # 1..100
            registry.observe("latency", float(v))
        pcts = registry.histogram_percentiles("latency")
        assert pcts["p50"] == 50.0
        assert pcts["p95"] == 95.0
        assert pcts["p99"] == 99.0

    def test_unobserved_series_returns_zeros(self):
        registry = MetricsRegistry()
        assert registry.histogram_percentiles("nope") == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_sample_window_is_bounded_and_sliding(self):
        from repro.obs.registry import SAMPLE_WINDOW, HistogramData

        hist = HistogramData()
        for v in range(SAMPLE_WINDOW + 500):
            hist.observe(float(v))
        assert len(hist.samples) == SAMPLE_WINDOW
        assert hist.count == SAMPLE_WINDOW + 500
        # Oldest observations were overwritten: the window holds recent values.
        assert min(hist.samples) >= 500 - 1
        assert hist.percentile(100.0) == float(SAMPLE_WINDOW + 499)

    def test_custom_quantiles_and_labels(self):
        registry = MetricsRegistry()
        for v in (1.0, 2.0, 3.0, 4.0):
            registry.observe("lat", v, path="fastpath")
        out = registry.histogram_percentiles("lat", qs=(25.0, 100.0), path="fastpath")
        assert out["p25"] == 1.0
        assert out["p100"] == 4.0
