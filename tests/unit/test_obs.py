"""Unit tests for the observability layer (:mod:`repro.obs`).

Covers the metric registry (merge semantics, pickling), span nesting
and timing, the zero-allocation disabled path, the trace/summary sinks,
session install/restore semantics, the registry-backed stats adapters,
and the parallel == serial metric-totals invariant.
"""

import gc
import json
import pickle
import sys
from io import StringIO

import pytest

from repro.data.database import TransactionDatabase
from repro.errors import ConfigError
from repro.core.session import MiningSession
from repro.mining.vertical import CacheStats
from repro.obs import api as obs
from repro.obs.registry import (
    DEFAULT_BOUNDS,
    Histogram,
    MetricsRegistry,
    stats_property,
)
from repro.obs.span import NULL_SPAN
from repro.parallel.pool import ParallelStats


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Every test starts and ends with observability off."""
    obs.detach()
    yield
    obs.detach()


def small_rows():
    return [[1, 2], [1, 3], [2, 3], [1, 2, 3], [4], [1, 4]] * 20


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
class TestHistogram:
    def test_rejects_empty_bounds(self):
        with pytest.raises(ConfigError):
            Histogram(())

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ConfigError):
            Histogram((1.0, 1.0, 2.0))

    def test_bucket_placement_and_mean(self):
        histogram = Histogram((1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        assert histogram.buckets == [2, 1, 1]  # <=1, <=10, overflow
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(106.5 / 4)

    def test_merge_adds_bucketwise(self):
        one, two = Histogram((1.0,)), Histogram((1.0,))
        one.observe(0.5)
        two.observe(2.0)
        two.observe(0.25)
        one.merge(two)
        assert one.buckets == [2, 1]
        assert one.count == 3
        assert one.sum == pytest.approx(2.75)

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ConfigError):
            Histogram((1.0,)).merge(Histogram((2.0,)))


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.incr("passes")
        registry.incr("passes", 2)
        registry.set_gauge("bytes", 10.0)
        registry.max_gauge("bytes", 5.0)  # not a new high-water mark
        registry.observe("span.count", 0.25)
        assert registry.counter("passes") == 3
        assert registry.counter("never") == 0
        assert registry.gauge("bytes") == 10.0
        assert registry.histogram("span.count").count == 1
        assert registry.names() == ["bytes", "passes", "span.count"]

    def test_merge_semantics(self):
        ours, theirs = MetricsRegistry(), MetricsRegistry()
        ours.incr("n", 2)
        theirs.incr("n", 3)
        ours.set_gauge("peak", 7.0)
        theirs.set_gauge("peak", 5.0)
        ours.observe("h", 0.5)
        theirs.observe("h", 2.0)
        ours.merge(theirs)
        assert ours.counter("n") == 5  # counters add
        assert ours.gauge("peak") == 7.0  # gauges keep the max
        assert ours.histogram("h").count == 2  # histograms merge

    def test_pickled_worker_registry_merges_like_local(self):
        """The pool ships registries by pickle; totals must survive."""
        worker = MetricsRegistry()
        worker.incr("worker.counting.passes", 4)
        worker.set_gauge("worker.cache.bytes", 123.0)
        worker.observe("span.parallel.shm.batch", 0.01)
        shipped = pickle.loads(pickle.dumps(worker))

        direct, via_pickle = MetricsRegistry(), MetricsRegistry()
        direct.merge(worker)
        via_pickle.merge(shipped)
        assert direct.snapshot() == via_pickle.snapshot()

    def test_snapshot_and_json_round_trip(self):
        registry = MetricsRegistry()
        registry.incr("a")
        registry.observe("h", 0.2)
        decoded = json.loads(registry.to_json())
        assert decoded["counters"] == {"a": 1}
        assert decoded["histograms"]["h"]["count"] == 1

    def test_summary_lists_every_metric(self):
        registry = MetricsRegistry()
        assert registry.summary() == "(no metrics recorded)"
        registry.incr("counting.passes", 9)
        registry.set_gauge("cache.bytes", 64.0)
        registry.observe("span.count.bitmap", 0.5)
        text = registry.summary()
        assert "counting.passes" in text
        assert "cache.bytes" in text
        assert "span.count.bitmap" in text


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_depth_and_parent(self):
        with obs.obs_session(registry=MetricsRegistry()) as state:
            with obs.span("outer") as outer:
                with obs.span("middle") as middle:
                    with obs.span("inner") as inner:
                        assert state.in_span("out")
                        assert state.in_span("inner")
                        assert not state.in_span("count.")
            assert outer.depth == 0 and outer.parent is None
            assert middle.depth == 1 and middle.parent == "outer"
            assert inner.depth == 2 and inner.parent == "middle"
            assert state._stack == []

    def test_timing_monotonicity(self):
        with obs.obs_session(registry=MetricsRegistry()):
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    total = 0
                    for i in range(10_000):
                        total += i
        assert inner.wall_s >= 0.0
        assert outer.wall_s >= inner.wall_s  # child nested inside parent
        assert outer.cpu_s >= 0.0

    def test_span_durations_feed_histograms(self):
        registry = MetricsRegistry()
        with obs.obs_session(registry=registry):
            for _ in range(3):
                with obs.span("count.bitmap"):
                    pass
        histogram = registry.histogram("span.count.bitmap")
        assert histogram.count == 3
        assert histogram.sum >= 0.0

    def test_annotate_add_and_error_attr(self):
        with obs.obs_session(registry=MetricsRegistry()):
            with pytest.raises(ValueError):
                with obs.span("work") as span:
                    span.annotate("rows", 5)
                    span.add("batches", 2)
                    span.add("batches", 3)
                    raise ValueError("boom")
        assert span.attrs["rows"] == 5
        assert span.attrs["batches"] == 5
        assert span.attrs["error"] == "ValueError"

    def test_disabled_span_is_the_null_singleton(self):
        assert obs.span("anything") is NULL_SPAN
        with obs.span("anything") as span:
            span.annotate("ignored", 1)
            span.add("ignored", 1)
        assert span is NULL_SPAN

    def test_disabled_path_allocates_nothing(self):
        """The no-op path must not allocate per call (gc can't hide it)."""
        def hot_loop(n):
            for _ in range(n):
                with obs.span("count.noop") as span:
                    span.annotate("rows", 1)
                obs.incr("counting.passes")
                obs.observe("h", 0.1)
                obs.max_gauge("g", 1.0)

        hot_loop(10)  # warm up any lazy caches
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            hot_loop(10_000)
            after = sys.getallocatedblocks()
        finally:
            gc.enable()
        assert after - before <= 2  # zero per-iteration allocations


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class TestObsSession:
    def test_noop_session_installs_nothing(self):
        with obs.obs_session() as state:
            assert state is None
            assert not obs.enabled()

    def test_session_installs_and_restores(self):
        assert not obs.enabled()
        with obs.obs_session(registry=MetricsRegistry()) as state:
            assert obs.enabled()
            assert obs.current() is state
            assert obs.active_registry() is state.registry
        assert not obs.enabled()
        assert obs.active_registry() is None

    def test_nested_sessions_restore_the_outer_state(self):
        with obs.obs_session(registry=MetricsRegistry()) as outer:
            with obs.obs_session(registry=MetricsRegistry()) as inner:
                assert obs.current() is inner
            assert obs.current() is outer

    def test_invalid_metrics_mode_raises(self):
        with pytest.raises(ConfigError):
            with obs.obs_session(metrics="verbose"):
                pass

    def test_worker_collection_scopes_and_restores(self):
        with obs.worker_collection() as registry:
            assert obs.current().scope == "worker"
            obs.incr("worker.counting.passes")
        assert not obs.enabled()
        assert registry.counter("worker.counting.passes") == 1

    def test_detach_disables_without_finishing_sinks(self):
        obs.configure(registry=MetricsRegistry())
        assert obs.enabled()
        obs.detach()
        assert not obs.enabled()


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_jsonl_trace_is_valid_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.obs_session(trace_path=str(path)) as state:
            state.registry.incr("counting.passes")
            with obs.span("count.bitmap") as span:
                span.annotate("candidates", 7)
                with obs.span("cache.build"):
                    pass
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(records) == 3
        spans = [r for r in records if r["type"] == "span"]
        assert [r["name"] for r in spans] == ["cache.build", "count.bitmap"]
        child, parent = spans
        assert child["parent"] == "count.bitmap" and child["depth"] == 1
        assert parent["attrs"] == {"candidates": 7}
        assert parent["scope"] == "driver"
        final = records[-1]
        assert final["type"] == "metrics"
        assert final["metrics"]["counters"]["counting.passes"] == 1

    def test_summary_sink_writes_to_stream(self):
        stream = StringIO()
        with obs.obs_session(metrics="summary", stream=stream) as state:
            state.registry.incr("mine.runs")
        assert "mine.runs" in stream.getvalue()

    def test_json_metrics_mode_emits_one_document(self):
        stream = StringIO()
        with obs.obs_session(metrics="json", stream=stream) as state:
            state.registry.incr("mine.runs", 2)
        decoded = json.loads(stream.getvalue())
        assert decoded["counters"]["mine.runs"] == 2


# ----------------------------------------------------------------------
# Registry-backed stats adapters
# ----------------------------------------------------------------------
class TestStatsAdapters:
    def test_cache_stats_keyword_ctor_and_arithmetic(self):
        stats = CacheStats(hits=3, misses=1)
        stats.hits += 2
        assert stats.hits == 5
        assert stats.hit_rate == pytest.approx(5 / 6)
        assert CacheStats().hit_rate == 0.0

    def test_cache_stats_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            CacheStats(frobs=1)

    def test_adapter_writes_land_in_the_registry(self):
        registry = MetricsRegistry()
        stats = CacheStats(registry=registry, prefix="worker.")
        stats.hits += 4
        stats.bytes = 1024
        assert registry.counter("worker.cache.hits") == 4
        assert registry.gauge("worker.cache.bytes") == 1024
        parallel = ParallelStats(registry=registry)
        parallel.shm_batches += 2
        assert registry.counter("parallel.shm.batches") == 2

    def test_stats_property_kinds(self):
        class View:
            __slots__ = ("registry", "_prefix")
            tally = stats_property("tally")
            peak = stats_property("peak", kind="gauge")

            def __init__(self, registry):
                self.registry = registry
                self._prefix = ""

        view = View(MetricsRegistry())
        view.tally += 3
        view.peak = 9.5
        assert view.tally == 3
        assert view.peak == 9  # gauge reads back as int


# ----------------------------------------------------------------------
# Parallel == serial metric totals
# ----------------------------------------------------------------------
class TestParallelTotals:
    CANDIDATES = ((1,), (2,), (4,), (1, 2), (2, 3), (1, 2, 3))

    def _driver_counters(self, n_jobs):
        registry = MetricsRegistry()
        database = TransactionDatabase(small_rows())
        session = MiningSession(
            database, engine="parallel-shm", n_jobs=n_jobs
        )
        with obs.obs_session(registry=registry):
            counts = session.count(list(self.CANDIDATES))
        session.close()
        driver = {
            name: registry.counter(name)
            for name in registry.names()
            if name.startswith("counting.")
        }
        return counts, driver, registry, session

    def test_parallel_equals_serial_driver_totals(self):
        serial_counts, serial_driver, _, _ = self._driver_counters(1)
        parallel_counts, parallel_driver, parallel_registry, session = (
            self._driver_counters(2)
        )
        assert parallel_counts == serial_counts
        assert serial_driver == parallel_driver  # bit-identical
        assert serial_driver["counting.passes"] == 1
        assert serial_driver["counting.candidates"] == len(self.CANDIDATES)
        assert serial_driver["counting.rows"] == len(small_rows())
        # Worker-side activity lands under worker.*, never counting.*.
        worker = [
            name
            for name in parallel_registry.names()
            if name.startswith("worker.")
        ]
        assert worker  # shipped back and merged
        # Parent-side batch accounting stays in the session's per-run
        # stats until publish_run folds it into the obs registry.
        assert session.parallel_stats.shm_batches == 2
        assert parallel_registry.counter("parallel.shm.batches") == 0
