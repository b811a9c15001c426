"""Unit tests of the instrumentation core (repro.obs) and its seams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import (
    Instrumentation,
    ListSink,
    MetricsRegistry,
    NullSink,
    ObsEvent,
    Tracer,
    current,
    instrumented,
)
from repro.serving.batcher import MicroBatcher


# --------------------------------------------------------------------- #
# Events / sinks
# --------------------------------------------------------------------- #
class TestEvents:
    def test_event_round_trips_through_dict(self):
        event = ObsEvent(kind="counter", name="x", value=2.0,
                         span_id=3, parent_id=1, tags={"a": 1})
        assert ObsEvent.from_dict(event.as_dict()) == event

    def test_list_sink_buffers_in_order(self):
        sink = ListSink()
        for index in range(3):
            sink.emit(ObsEvent(kind="counter", name=f"n{index}", value=index))
        assert [event.name for event in sink.events] == ["n0", "n1", "n2"]
        assert len(sink) == 3

    def test_bounded_list_sink_drops_oldest(self):
        sink = ListSink(max_events=2)
        for index in range(5):
            sink.emit(ObsEvent(kind="counter", name=f"n{index}", value=index))
        assert [event.name for event in sink.events] == ["n3", "n4"]
        assert sink.n_dropped == 3

    def test_null_sink_swallows(self):
        NullSink().emit(ObsEvent(kind="gauge", name="x", value=1.0))


# --------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2.0)
        assert registry.counter("hits").value == 3.0
        with pytest.raises(ValueError):
            registry.counter("hits").inc(-1.0)

    def test_gauge_tracks_last_and_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.max_value == 5.0

    def test_histogram_summary_stats(self):
        histogram = MetricsRegistry().histogram("ms")
        for value in (1.0, 3.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 9.0
        assert histogram.min == 1.0
        assert histogram.max == 5.0
        assert histogram.mean == pytest.approx(3.0)

    def test_name_collision_across_kinds_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_merge_is_associative_fold(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        for registry, bump in ((left, 1.0), (right, 2.0)):
            registry.counter("c").inc(bump)
            registry.gauge("g").set(bump * 10)
            registry.histogram("h").observe(bump)
        left.merge_snapshot(right.snapshot())
        snapshot = left.snapshot()
        assert snapshot["counters"]["c"] == 3.0
        assert snapshot["gauges"]["g"]["max"] == 20.0
        assert snapshot["histograms"]["h"]["count"] == 2
        assert snapshot["histograms"]["h"]["sum"] == pytest.approx(3.0)

    def test_merge_into_empty_registry(self):
        source = MetricsRegistry()
        source.counter("c").inc(4.0)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.counter("c").value == 4.0


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #
class TestTracer:
    def test_nested_spans_link_parent_ids(self):
        sink = ListSink()
        tracer = Tracer(sink=sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sink.events
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == 0
        assert tracer.n_spans == 2

    def test_span_durations_use_injected_clock(self):
        ticks = iter([0.0, 1.5])
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics, clock=lambda: next(ticks))
        with tracer.span("work"):
            pass
        assert metrics.histogram("span.work").max == pytest.approx(1.5)

    def test_span_records_error_tag_and_reraises(self):
        sink = ListSink()
        tracer = Tracer(sink=sink)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert sink.events[0].tags.get("error") is True

    def test_stack_unwinds_after_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                raise RuntimeError
        assert tracer.active is None


# --------------------------------------------------------------------- #
# Instrumentation facade + ambient context
# --------------------------------------------------------------------- #
class TestInstrumentation:
    def test_counts_gauges_histograms_and_events(self):
        obs = Instrumentation(sink=ListSink())
        obs.count("c", 2.0)
        obs.gauge("g", 7.0)
        obs.observe("h", 0.5)
        snapshot = obs.snapshot()
        assert snapshot["metrics"]["counters"]["c"] == 2.0
        assert snapshot["metrics"]["gauges"]["g"]["max"] == 7.0
        assert snapshot["metrics"]["histograms"]["h"]["count"] == 1
        # Gauge sets are metrics-only (hot-path discipline): no gauge event.
        assert [event["kind"] for event in snapshot["events"]] == \
               ["counter", "histogram"]

    def test_base_tags_stamped_and_call_site_wins(self):
        obs = Instrumentation(sink=ListSink(), tags={"worker": 3, "a": 1})
        obs.count("c", a=2)
        event = obs.sink.events[0]
        assert event.tags == {"worker": 3, "a": 2}

    def test_events_carry_enclosing_span_id(self):
        obs = Instrumentation(sink=ListSink())
        with obs.span("outer"):
            obs.count("inside")
        counter_event = [event for event in obs.sink.events
                         if event.kind == "counter"][0]
        span_event = [event for event in obs.sink.events
                      if event.kind == "span"][0]
        assert counter_event.parent_id == span_event.span_id

    def test_ambient_slot_nests_and_restores(self):
        assert current() is None
        outer, inner = Instrumentation(), Instrumentation()
        with instrumented(outer):
            assert current() is outer
            with instrumented(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_merge_snapshot_folds_metrics_spans_and_events(self):
        worker = Instrumentation(sink=ListSink())
        with worker.span("flush"):
            worker.count("serve.requests", 32)
        dispatcher = Instrumentation(sink=ListSink())
        dispatcher.count("fleet.dispatches", 32)
        dispatcher.merge_snapshot(worker.snapshot())
        snapshot = dispatcher.snapshot()
        assert snapshot["metrics"]["counters"]["serve.requests"] == 32.0
        assert snapshot["metrics"]["counters"]["fleet.dispatches"] == 32.0
        assert snapshot["n_spans"] == 1
        assert len(snapshot["events"]) == 3  # own counter + 2 replayed

    def test_merge_snapshot_tolerates_none(self):
        obs = Instrumentation()
        obs.merge_snapshot(None)
        obs.merge_snapshot({})
        assert obs.snapshot()["metrics"]["counters"] == {}


# --------------------------------------------------------------------- #
# Instrumented seams
# --------------------------------------------------------------------- #
class TestInstrumentedSeams:
    def test_batcher_queue_depth_and_batch_size(self):
        obs = Instrumentation()
        batcher = MicroBatcher(flush_fn=lambda items: list(items),
                               max_batch_size=3, instrumentation=obs)
        for item in range(5):
            batcher.submit(item)
        batcher.flush()
        snapshot = obs.snapshot()["metrics"]
        assert snapshot["gauges"]["batcher.queue_depth"]["max"] == 3.0
        histogram = snapshot["histograms"]["batcher.batch_size"]
        assert histogram["count"] == 2
        assert histogram["max"] == 3.0

    def test_uninstrumented_batcher_untouched(self):
        batcher = MicroBatcher(flush_fn=lambda items: list(items),
                               max_batch_size=2)
        assert batcher.submit(1) == []
        assert batcher.submit(2) == [1, 2]

    def test_artifact_cache_counts_hits_misses_and_build_time(self, tmp_path):
        from repro.utils.artifact_cache import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        obs = Instrumentation()

        def build():
            return {"array": np.arange(4.0)}

        def save(artifact, path):
            np.save(path / "a.npy", artifact["array"])

        def load(path):
            return {"array": np.load(path / "a.npy")}

        with instrumented(obs):
            cache.load_or_build("corpus", "k", build=build, save=save, load=load)
            cache.load_or_build("corpus", "k", build=build, save=save, load=load)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["cache.misses"] == 1.0
        assert counters["cache.hits"] == 1.0
        histograms = obs.snapshot()["metrics"]["histograms"]
        assert histograms["cache.build_seconds"]["count"] == 1

    def test_jsma_counters_and_identical_output(self, small_mlp):
        from repro.attacks.constraints import PerturbationConstraints
        from repro.attacks.jsma import JsmaAttack

        rng = np.random.default_rng(5)
        features = (rng.random((6, 12)) < 0.3).astype(np.float64)
        attack = JsmaAttack(small_mlp, PerturbationConstraints(theta=1.0,
                                                               gamma=0.25))
        plain = attack.run(features)
        obs = Instrumentation()
        with instrumented(obs):
            observed = attack.run(features)
        np.testing.assert_array_equal(plain.adversarial, observed.adversarial)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["jsma.samples"] == 6.0
        assert counters["jsma.steps"] >= 1.0
        assert counters["jsma.features_flipped"] >= 1.0
        histograms = obs.snapshot()["metrics"]["histograms"]
        assert histograms["span.attack.jsma"]["count"] == 1

    def test_jsma_samples_count_every_run_of_a_theta_sweep(self, small_mlp):
        from repro.attacks.constraints import PerturbationConstraints
        from repro.attacks.jsma import JsmaAttack
        from repro.evaluation.security_curve import PAPER_THETA_GRID, theta_sweep

        def factory(constraints: PerturbationConstraints) -> JsmaAttack:
            return JsmaAttack(small_mlp, constraints)

        rng = np.random.default_rng(5)
        features = (rng.random((5, 12)) < 0.3).astype(np.float64)
        obs = Instrumentation()
        with instrumented(obs):
            theta_sweep(factory, features, {"target": small_mlp}, gamma=0.25,
                        theta_values=PAPER_THETA_GRID)
        # The grid starts at θ = 0, a run that returns before any step.
        assert PAPER_THETA_GRID[0] == 0.0
        runs = len(PAPER_THETA_GRID)
        metrics = obs.snapshot()["metrics"]
        assert metrics["histograms"]["span.attack.jsma"]["count"] == runs
        assert metrics["counters"]["jsma.samples"] == 5.0 * runs
