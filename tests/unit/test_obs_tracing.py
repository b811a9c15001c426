"""Unit tests for distributed tracing, SLO burn-rate alerting and live view.

Covers the serving-observability layers on top of the repro.obs core:
trace contexts across namespaces, span-tree assembly (orphans,
duplicates, breakdowns), the multi-window SLO monitor with its shed /
fallback hooks, deterministic gauge merging, and the atomically-published
live snapshot behind ``cli top`` / ``export-metrics``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.obs import (
    BREAKDOWN_SPANS,
    Instrumentation,
    LivePublisher,
    ListSink,
    MetricsRegistry,
    ObsEvent,
    SLOMonitor,
    SLOSpec,
    SpanCollector,
    TraceContext,
    TraceStamper,
    breakdown_summary,
    prometheus_exposition,
    read_snapshot,
    render_top,
    snapshot_path,
)
from repro.obs.trace import SPAN_ID_STRIDE


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@dataclass
class FakeVerdict:
    request_id: str
    latency_ms: float = 1.0
    status: str = "ok"


def span_event(name: str, trace_id: str, span_id: int, parent_id: int,
               duration_s: float = 0.001, **tags) -> ObsEvent:
    return ObsEvent(kind="span", name=name, value=duration_s,
                    span_id=span_id, parent_id=parent_id,
                    trace_id=trace_id, tags=tags)


# --------------------------------------------------------------------- #
# Trace context / namespaces
# --------------------------------------------------------------------- #
class TestTraceContext:
    def test_round_trips_through_dict(self):
        trace = TraceContext(trace_id="req-1", parent_span_id=7)
        assert TraceContext.from_dict(trace.as_dict()) == trace

    def test_namespaced_tracers_never_share_span_ids(self):
        dispatcher = Instrumentation(namespace=0)
        replica = Instrumentation(namespace=3)
        dispatcher_ids = {dispatcher.tracer.allocate_id() for _ in range(100)}
        replica_ids = {replica.tracer.allocate_id() for _ in range(100)}
        assert not dispatcher_ids & replica_ids
        assert all(span_id < SPAN_ID_STRIDE for span_id in dispatcher_ids)
        assert all(3 * SPAN_ID_STRIDE <= span_id < 4 * SPAN_ID_STRIDE
                   for span_id in replica_ids)

    def test_event_trace_id_survives_dict_round_trip(self):
        event = span_event("request.score", "req-9", 12, 3)
        assert ObsEvent.from_dict(event.as_dict()).trace_id == "req-9"

    def test_record_span_declares_remote_parent(self):
        obs = Instrumentation(sink=ListSink())
        trace = TraceContext(trace_id="req-2", parent_span_id=41)
        obs.record_span("batcher.enqueue", started=1.0, ended=1.5,
                        trace=trace, worker=2)
        event = obs.sink.events[-1]
        assert event.trace_id == "req-2"
        assert event.parent_id == 41
        assert event.value == pytest.approx(0.5)
        assert event.tags["worker"] == 2


# --------------------------------------------------------------------- #
# Span collection / trees
# --------------------------------------------------------------------- #
class TestSpanCollector:
    def _full_trace(self, collector: SpanCollector, trace_id: str,
                    base: int = 0) -> None:
        collector.add(span_event("request", trace_id, base + 1, 0,
                                 duration_s=0.010))
        collector.add(span_event("fleet.queue", trace_id, base + 2, base + 1,
                                 duration_s=0.004))
        collector.add(span_event("batcher.enqueue", trace_id, base + 3,
                                 base + 1, duration_s=0.003))
        collector.add(span_event("request.score", trace_id, base + 4,
                                 base + 1, duration_s=0.002))

    def test_assembles_complete_tree(self):
        collector = SpanCollector()
        self._full_trace(collector, "req-1")
        tree = collector.tree("req-1")
        assert tree.complete
        assert tree.root.name == "request"
        assert sorted(child.name for child in tree.root.children) == \
            ["batcher.enqueue", "fleet.queue", "request.score"]
        assert collector.n_orphans == 0

    def test_breakdown_maps_hops_to_keys(self):
        collector = SpanCollector()
        self._full_trace(collector, "req-1")
        parts = collector.tree("req-1").breakdown()
        assert parts["queue_ms"] == pytest.approx(4.0)
        assert parts["batch_wait_ms"] == pytest.approx(3.0)
        assert parts["score_ms"] == pytest.approx(2.0)
        assert parts["total_ms"] == pytest.approx(10.0)

    def test_missing_parent_flags_orphan(self):
        collector = SpanCollector()
        collector.add(span_event("request", "req-1", 1, 0))
        collector.add(span_event("request.score", "req-1", 5, 999))
        tree = collector.tree("req-1")
        assert not tree.complete
        assert [node.name for node in tree.orphans] == ["request.score"]
        assert "orphan" in tree.render()

    def test_duplicate_span_id_counted_first_kept(self):
        collector = SpanCollector()
        collector.add(span_event("request", "req-1", 1, 0, duration_s=0.010))
        collector.add(span_event("request", "req-1", 1, 0, duration_s=0.999))
        tree = collector.tree("req-1")
        assert tree.n_duplicates == 1
        assert not tree.complete
        assert tree.root.duration_ms == pytest.approx(10.0)

    def test_non_span_and_untraced_events_only_counted(self):
        collector = SpanCollector()
        collector.add(ObsEvent(kind="counter", name="serve.requests", value=1))
        collector.add(ObsEvent(kind="span", name="fleet.dispatch", value=0.01))
        assert collector.n_ignored == 1
        assert collector.n_untraced == 1
        assert collector.trace_ids == []

    def test_accepts_dict_events_from_worker_snapshots(self):
        collector = SpanCollector()
        collector.add(span_event("request", "req-1", 1, 0).as_dict())
        collector.add_snapshot({"events": [
            span_event("request.score", "req-1", 2, 1,
                       worker=0).as_dict()]})
        tree = collector.tree("req-1")
        assert tree.complete
        assert tree.root.children[0].tags["worker"] == 0

    def test_error_tag_surfaces_on_node_and_render(self):
        collector = SpanCollector()
        collector.add(span_event("request", "req-1", 1, 0))
        collector.add(span_event("request.score", "req-1", 2, 1, error=True))
        tree = collector.tree("req-1")
        assert tree.root.children[0].error
        assert "[error]" in tree.render()

    def test_breakdown_summary_skips_redispatched_double_hops(self):
        collector = SpanCollector()
        self._full_trace(collector, "req-1")
        self._full_trace(collector, "req-2", base=10)
        # req-2 was redispatched: the dead replica's queue hop survived.
        collector.add(span_event("fleet.queue", "req-2", 99, 11,
                                 duration_s=5.0))
        summary = breakdown_summary(collector.trees())
        assert summary["queue_ms"]["count"] == 1.0
        assert summary["queue_ms"]["mean_ms"] == pytest.approx(4.0)

    def test_breakdown_summary_requires_every_hop(self):
        collector = SpanCollector()
        collector.add(span_event("request", "shed-1", 1, 0))
        summary = breakdown_summary(collector.trees())
        assert summary["total_ms"]["count"] == 0.0


class TestTraceStamper:
    def test_stamp_attaches_context_and_finish_closes_root(self):
        from repro.serving.service import ScoringRequest

        clock = FakeClock()
        obs = Instrumentation(sink=ListSink(), clock=clock)
        stamper = TraceStamper(obs, clock=clock)
        request = stamper.stamp(ScoringRequest(request_id="req-1", payload=[]),
                                started=clock())
        assert request.trace is not None
        assert request.trace.trace_id == "req-1"
        clock.advance(0.25)
        stamper.finish(FakeVerdict("req-1"))
        event = obs.sink.events[-1]
        assert event.name == "request"
        assert event.trace_id == "req-1"
        assert event.parent_id == 0
        assert event.span_id == request.trace.parent_span_id
        assert event.value == pytest.approx(0.25)
        assert stamper.open_count == 0

    def test_finish_is_idempotent_and_ignores_unknown(self):
        obs = Instrumentation(sink=ListSink())
        stamper = TraceStamper(obs)
        stamper.finish(FakeVerdict("never-stamped"))
        assert len(obs.sink) == 0

    def test_unstamped_clock_falls_back_to_verdict_latency(self):
        from repro.serving.service import ScoringRequest

        obs = Instrumentation(sink=ListSink())
        stamper = TraceStamper(obs)
        stamper.stamp(ScoringRequest(request_id="req-1", payload=[]))
        stamper.finish_all([FakeVerdict("req-1", latency_ms=12.0)])
        assert obs.sink.events[-1].value == pytest.approx(0.012)

    def test_sample_every_traces_first_and_every_nth(self):
        from repro.serving.service import ScoringRequest

        obs = Instrumentation(sink=ListSink())
        stamper = TraceStamper(obs, sample_every=4)
        stamped = [stamper.stamp(ScoringRequest(request_id=f"req-{i}",
                                                payload=[]))
                   for i in range(10)]
        traced = [request.request_id for request in stamped
                  if request.trace is not None]
        # Head-based: the decision is made at stamp time, deterministically.
        assert traced == ["req-0", "req-4", "req-8"]
        assert stamper.open_count == 3
        # Finishing the whole verdict stream closes only the sampled roots
        # and ignores pass-through requests without complaint.
        stamper.finish_all([FakeVerdict(request.request_id)
                            for request in stamped])
        assert stamper.open_count == 0
        roots = [event for event in obs.sink.events if event.name == "request"]
        assert [event.trace_id for event in roots] == traced

    def test_sample_every_validates(self):
        obs = Instrumentation()
        with pytest.raises(ValueError, match="sample_every"):
            TraceStamper(obs, sample_every=0)


class SteppingClock:
    """Every read moves time on by one second, so no two reads coincide."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestServiceHopSpans:
    def test_hops_sum_exactly_to_verdict_latency(self, tiny_context):
        """A request's hop spans tile enqueue -> verdict with no slack.

        One stepping clock drives the service, its spans and the stamper,
        so a ``request.score`` span closed on any later clock read than
        the verdicts' finish stamp would overshoot the latency by a tick.
        """
        from repro.serving import ModelRegistry, ScoringService
        from repro.serving.service import ScoringRequest

        clock = SteppingClock()
        obs = Instrumentation(sink=ListSink(), clock=clock)
        stamper = TraceStamper(obs, clock=clock)
        service = ScoringService(ModelRegistry().get("target", context=tiny_context),
                                 max_batch_size=3, clock=clock,
                                 instrumentation=obs)
        verdicts = []
        for index, row in enumerate(tiny_context.attack_malware.features[:7]):
            started = clock()
            request = stamper.stamp(ScoringRequest(request_id=f"req-{index}",
                                                   payload=row), started=started)
            verdicts += service.submit(request, enqueued_at=started)
        verdicts += service.drain()
        stamper.finish_all(verdicts)

        collector = SpanCollector()
        collector.add_events(obs.sink.events)
        trees = collector.trees()
        assert sorted(trees) == sorted(verdict.request_id for verdict in verdicts)
        for verdict in verdicts:
            tree = trees[verdict.request_id]
            assert tree.hop_counts() == {key: 1 for key in BREAKDOWN_SPANS.values()}
            parts = tree.breakdown()
            hops = sum(parts[key] for key in BREAKDOWN_SPANS.values())
            assert verdict.latency_ms > 0.0
            assert hops == verdict.latency_ms


# --------------------------------------------------------------------- #
# Gauge merge determinism
# --------------------------------------------------------------------- #
class TestGaugeMergeStamps:
    def test_merge_keeps_newest_set_regardless_of_fold_order(self):
        older, newer = MetricsRegistry(), MetricsRegistry()
        older.gauge("depth").set(9.0)
        newer.gauge("depth").set(2.0)  # later monotonic stamp, smaller value
        forward, backward = MetricsRegistry(), MetricsRegistry()
        forward.merge_snapshot(older.snapshot())
        forward.merge_snapshot(newer.snapshot())
        backward.merge_snapshot(newer.snapshot())
        backward.merge_snapshot(older.snapshot())
        assert forward.gauge("depth").value == 2.0
        assert backward.gauge("depth").value == 2.0
        assert forward.gauge("depth").max_value == 9.0
        assert backward.gauge("depth").max_value == 9.0

    def test_stampless_legacy_snapshot_never_overrides(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(5.0)
        registry.merge_snapshot(
            {"gauges": {"depth": {"value": 99.0, "max": 99.0}}})
        assert registry.gauge("depth").value == 5.0
        assert registry.gauge("depth").max_value == 99.0


# --------------------------------------------------------------------- #
# SLO specs / monitor
# --------------------------------------------------------------------- #
class TestSLOSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", objective=1.0)
        with pytest.raises(ValueError):
            SLOSpec(name="x", target_ms=0.0)
        with pytest.raises(ValueError):
            SLOSpec(name="x", fast_window_s=10.0, slow_window_s=5.0)
        with pytest.raises(ValueError):
            SLOSpec(name="x", on_breach="page")
        with pytest.raises(ValueError):
            SLOSpec(name="x", min_events=0)

    def test_monitor_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            SLOMonitor([SLOSpec(name="a"), SLOSpec(name="a")])


class TestSLOMonitor:
    def _monitor(self, obs=None, **overrides):
        defaults = dict(name="latency", objective=0.99, target_ms=10.0,
                        fast_window_s=5.0, slow_window_s=60.0,
                        min_events=10, on_breach="shed")
        defaults.update(overrides)
        clock = FakeClock(now=1000.0)
        return SLOMonitor([SLOSpec(**defaults)],
                          instrumentation=obs, clock=clock), clock

    def test_healthy_stream_never_breaches(self):
        monitor, clock = self._monitor()
        for _ in range(100):
            monitor.observe(latency_ms=1.0)
            clock.advance(0.01)
        statuses = monitor.evaluate()
        assert not statuses[0].breached
        assert statuses[0].attainment == 1.0
        assert monitor.n_alerts == 0
        assert not monitor.should_shed()

    def test_sustained_burn_fires_once_and_arms_shedding(self):
        obs = Instrumentation(sink=ListSink())
        monitor, clock = self._monitor(obs=obs)
        for _ in range(50):
            monitor.observe(latency_ms=100.0)
            clock.advance(0.01)
            monitor.evaluate()
        assert monitor.n_alerts == 1  # edge-triggered: one event per breach
        assert monitor.should_shed()
        assert monitor.active_alerts == ["latency"]
        alert_events = [event for event in obs.sink.events
                        if event.kind == "alert"]
        assert len(alert_events) == 1
        assert alert_events[0].name == "slo.latency"
        assert alert_events[0].tags["on_breach"] == "shed"
        assert obs.metrics.counter("alert.slo.latency").value == 1.0

    def test_min_events_gates_blips(self):
        monitor, clock = self._monitor()
        for _ in range(5):  # fewer than min_events, all bad
            monitor.observe(latency_ms=100.0)
            clock.advance(0.01)
        assert not monitor.evaluate()[0].breached

    def test_breach_clears_when_burn_stops(self):
        monitor, clock = self._monitor(slow_window_s=5.0)
        for _ in range(20):
            monitor.observe(latency_ms=100.0)
            clock.advance(0.01)
        assert monitor.evaluate()[0].breached
        clock.advance(30.0)  # both windows age out entirely
        for _ in range(20):
            monitor.observe(latency_ms=1.0)
            clock.advance(0.01)
        status = monitor.evaluate()[0]
        assert not status.breached
        assert not monitor.should_shed()
        assert monitor.n_alerts == 1

    def test_fast_breach_needs_slow_confirmation(self):
        # An old window full of good outcomes keeps the slow burn low: the
        # two-window AND refuses to page on a fresh blip alone.
        monitor, clock = self._monitor()
        for _ in range(2000):
            monitor.observe(latency_ms=1.0)
            clock.advance(0.1)
        for _ in range(20):
            monitor.observe(latency_ms=100.0)
            clock.advance(0.01)
        status = monitor.evaluate()[0]
        assert status.fast_burn >= 14.4
        assert status.slow_burn < 6.0
        assert not status.breached

    def test_attainment_form_spec_consumes_good_flag(self):
        monitor, clock = self._monitor(target_ms=None, on_breach="fallback")
        for index in range(40):
            monitor.observe(good=index % 2 == 0)
            clock.advance(0.01)
        status = monitor.evaluate()[0]
        assert status.attainment == pytest.approx(0.5)
        assert status.breached
        assert monitor.wants_fallback()
        assert not monitor.should_shed()

    def test_observe_verdict_skips_sheds_counts_errors(self):
        monitor, clock = self._monitor()
        monitor.observe_verdict(FakeVerdict("a", status="shed"))
        assert monitor.evaluate()[0].n_fast == 0
        monitor.observe_verdict(FakeVerdict("b", status="error"))
        monitor.observe_verdict(FakeVerdict("c", latency_ms=1.0))
        status = monitor.evaluate()[0]
        assert status.n_fast == 2
        assert status.attainment == pytest.approx(0.5)

    def test_snapshot_lists_status_dicts(self):
        monitor, clock = self._monitor()
        monitor.observe(latency_ms=1.0)
        monitor.evaluate()
        payload = monitor.snapshot()
        assert payload[0]["name"] == "latency"
        assert payload[0]["on_breach"] == "shed"
        json.dumps(payload)  # live snapshots must be JSON-safe


# --------------------------------------------------------------------- #
# Live snapshots / dashboard / exposition
# --------------------------------------------------------------------- #
class TestLivePublisher:
    def _progress(self, fresh, n_done, n_expected, elapsed_s, **extra):
        info = {"new_verdicts": fresh, "n_done": n_done,
                "n_expected": n_expected, "elapsed_s": elapsed_s}
        info.update(extra)
        return info

    def test_publishes_readable_snapshot(self, tmp_path):
        publisher = LivePublisher(tmp_path, interval_s=0.0)
        publisher(self._progress([FakeVerdict("a", 2.0),
                                  FakeVerdict("b", 4.0)], 2, 8, 1.0,
                                 restarts=1, redispatches=3))
        payload = read_snapshot(tmp_path)
        assert payload["n_done"] == 2
        assert payload["n_expected"] == 8
        assert payload["in_flight"] == 6
        assert payload["rps"] == pytest.approx(2.0)
        assert payload["restarts"] == 1
        assert payload["redispatches"] == 3
        assert payload["latency"]["p50_ms"] == pytest.approx(3.0)
        assert snapshot_path(tmp_path).is_file()

    def test_write_interval_throttles_then_finish_forces(self, tmp_path):
        clock = FakeClock()
        publisher = LivePublisher(tmp_path, interval_s=10.0, clock=clock)
        publisher(self._progress([FakeVerdict("a")], 1, 4, 0.5))
        publisher(self._progress([FakeVerdict("b")], 2, 4, 0.6))
        assert publisher.n_published == 1  # second call inside the interval
        assert read_snapshot(tmp_path)["n_done"] == 1
        publisher.finish()
        payload = read_snapshot(tmp_path)
        assert payload["finished"] is True
        assert payload["n_done"] == 2

    def test_feeds_display_slo_and_embeds_statuses(self, tmp_path):
        slo = SLOMonitor([SLOSpec(name="latency", target_ms=10.0,
                                  min_events=1, on_breach="alert")])
        publisher = LivePublisher(tmp_path, slo=slo, interval_s=0.0)
        publisher(self._progress([FakeVerdict("a", 100.0)], 1, 1, 0.1))
        payload = read_snapshot(tmp_path)
        assert payload["slo"][0]["name"] == "latency"
        assert payload["alerts"] == ["latency"]

    def test_finish_embeds_merged_metrics(self, tmp_path):
        obs = Instrumentation()
        obs.count("serve.requests", 4)
        publisher = LivePublisher(tmp_path, interval_s=0.0)
        publisher.finish(obs_snapshot=obs.snapshot())
        metrics = read_snapshot(tmp_path)["metrics"]
        assert metrics["counters"]["serve.requests"] == 4.0

    def test_closes_roots_via_stamper(self, tmp_path):
        from repro.serving.service import ScoringRequest

        obs = Instrumentation(sink=ListSink())
        stamper = TraceStamper(obs)
        stamper.stamp(ScoringRequest(request_id="req-1", payload=[]))
        publisher = LivePublisher(tmp_path, stamper=stamper, interval_s=0.0)
        publisher(self._progress([FakeVerdict("req-1")], 1, 1, 0.1))
        assert stamper.open_count == 0
        assert obs.sink.events[-1].name == "request"

    def test_read_snapshot_absent_store(self, tmp_path):
        assert read_snapshot(tmp_path / "nowhere") is None


class TestRenderTop:
    def test_renders_placeholder_without_snapshot(self):
        rendered = render_top(None)
        assert "no live snapshot" in rendered

    def test_renders_all_dashboard_rows(self, tmp_path):
        slo = SLOMonitor([SLOSpec(name="latency", target_ms=10.0,
                                  min_events=1, on_breach="shed")])
        obs = Instrumentation()
        obs.gauge("batcher.queue_depth", 7)
        publisher = LivePublisher(tmp_path, instrumentation=obs, slo=slo,
                                  interval_s=0.0)
        publisher(self._info())
        rendered = render_top(read_snapshot(tmp_path))
        assert "progress   3/4" in rendered
        assert "p50" in rendered and "p99" in rendered
        assert "restarts 2" in rendered
        assert "queue depth" in rendered
        assert "BREACH (shed)" in rendered
        assert "alerts     latency" in rendered

    def _info(self):
        return {"new_verdicts": [FakeVerdict("a", 50.0),
                                 FakeVerdict("b", 50.0),
                                 FakeVerdict("c", status="shed")],
                "n_done": 3, "n_expected": 4, "elapsed_s": 0.5,
                "restarts": 2, "redispatches": 0}


class TestPrometheusExposition:
    def test_counters_gauges_histograms_export(self):
        obs = Instrumentation()
        obs.count("serve.requests", 3)
        obs.gauge("batcher.queue_depth", 5)
        obs.observe("batcher.batch_size", 32)
        obs.observe("batcher.batch_size", 16)
        text = prometheus_exposition(obs.metrics.snapshot())
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 3" in text
        assert "repro_batcher_queue_depth 5" in text
        assert "repro_batcher_batch_size_count 2" in text
        assert "repro_batcher_batch_size_sum 48" in text
        assert text.endswith("\n")

    def test_empty_metrics_export(self):
        assert prometheus_exposition(None) == ""
        assert prometheus_exposition({}) == ""

    def test_names_are_sanitised(self):
        text = prometheus_exposition(
            {"counters": {"span.request-score": 1.0}})
        assert "repro_span_request_score_total 1" in text
