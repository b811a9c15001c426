"""Tracing under chaos: span trees must survive crashes and flush errors.

The dependability contract for distributed tracing mirrors the one for
verdicts: a replica crash mid-stream loses no spans for requests that were
ultimately scored (the redispatched copies re-record their hops on the
replacement replica, and the dead replica's partial hops arrive in its
dying-gasp snapshot), and an injected flush error shows up as an
error-tagged ``service.flush`` span rather than a hole in the stream.
"""

import pytest

from repro.obs import (
    Instrumentation,
    ListSink,
    SpanCollector,
    breakdown_summary,
)
from repro.parallel import WorkerFleet
from repro.reliability import FaultPlan, FaultSpec, RetryPolicy
from repro.serving import ModelRegistry, ScoringService


@pytest.fixture(scope="module")
def malware_rows(tiny_context):
    return tiny_context.attack_malware.features[:32]


@pytest.fixture(scope="module")
def baseline_verdicts(tiny_context, malware_rows):
    servable = ModelRegistry().get("target", context=tiny_context)
    return ScoringService(servable).score_many(list(malware_rows))


def _chaotic_fleet(tiny_context, obs, max_delay_ms=2.0):
    plan = FaultPlan(specs=(
        FaultSpec(site="fleet.dispatch", action="crash", at=3,
                  where={"worker": 1}),
        FaultSpec(site="service.flush", action="error", at=1,
                  where={"worker": 0}),
    ))
    return WorkerFleet(n_workers=2, context=tiny_context, max_batch_size=8,
                       max_delay_ms=max_delay_ms,
                       restart_budget=2, fault_plan=plan,
                       retry_policy=RetryPolicy(max_retries=2,
                                                base_delay_s=0.01, seed=7),
                       instrumentation=obs)


class TestTraceUnderChaos:
    @pytest.fixture(scope="class")
    def chaotic_run(self, tiny_context, malware_rows):
        obs = Instrumentation(sink=ListSink(max_events=32768))
        # Replica 1 crashes at its 3rd pickup.  A doubled queue hop needs a
        # request it had submitted but not yet flushed when it died; with
        # the 2 ms default window a pause between pickups flushes them
        # first, so the long window keeps them pending until the crash.
        fleet = _chaotic_fleet(tiny_context, obs, max_delay_ms=500.0)
        verdicts, report = fleet.score_stream(list(malware_rows))
        return verdicts, report

    def test_faults_actually_fired(self, chaotic_run):
        _, report = chaotic_run
        reliability = report.reliability
        assert reliability.restarts == 1
        assert reliability.redispatches >= 1
        assert reliability.flush_retries == 1
        assert reliability.faults == {"fleet.dispatch": 1, "service.flush": 1}

    def test_every_verdict_has_a_complete_tree(self, chaotic_run,
                                               baseline_verdicts):
        verdicts, report = chaotic_run
        assert len(verdicts) == len(baseline_verdicts)
        collector = SpanCollector()
        collector.add_snapshot(report.obs)
        trees = collector.trees()
        # One rooted tree per request — the crash and the flush error lost
        # nothing and duplicated nothing.
        assert sorted(trees) == sorted(v.request_id for v in verdicts)
        assert collector.n_orphans == 0
        assert collector.n_duplicates == 0
        for tree in trees.values():
            assert tree.complete
            assert tree.root.name == "request"
            assert tree.root.tags.get("status") == "ok"

    def test_redispatched_requests_carry_doubled_queue_hops(self,
                                                            chaotic_run):
        verdicts, report = chaotic_run
        collector = SpanCollector()
        collector.add_snapshot(report.obs)
        trees = collector.trees()
        doubled = [tree for tree in trees.values()
                   if tree.hop_counts().get("queue_ms", 0) > 1]
        # Worker 1 died after picking requests up: its dying-gasp snapshot
        # kept the first fleet.queue hop, and the redispatch recorded a
        # second on the replacement — both in one complete, rooted tree.
        assert report.reliability.redispatches >= 1
        assert doubled
        assert all(tree.complete for tree in doubled)
        # Doubled-hop trees are excluded from breakdown means; clean
        # once-scored trees must still dominate the summary.
        summary = breakdown_summary(trees)
        assert 0 < summary["queue_ms"]["count"] <= len(trees) - len(doubled)

    def test_injected_flush_error_is_span_tagged(self, chaotic_run):
        _, report = chaotic_run
        flush_spans = [event for event in report.obs["events"]
                       if event.get("kind") == "span"
                       and event.get("name") == "service.flush"]
        errored = [event for event in flush_spans
                   if (event.get("tags") or {}).get("error")]
        assert len(errored) == 1  # exactly the injected failure
        assert flush_spans  # the retry's successful flush is there too

    def test_chaotic_verdicts_match_fault_free_baseline(self, chaotic_run,
                                                        baseline_verdicts):
        verdicts, _ = chaotic_run
        for ours, theirs in zip(verdicts, baseline_verdicts):
            assert ours.status == "ok"
            assert ours.malware_probability == theirs.malware_probability
            assert ours.label == theirs.label


class TestSampledTracing:
    """``trace_sample_every`` trades coverage for overhead, never fidelity:
    whatever is traced must still be a complete rooted tree."""

    def test_sampled_fleet_traces_exactly_the_sampled_subset(
            self, tiny_context, malware_rows, baseline_verdicts):
        obs = Instrumentation(sink=ListSink(max_events=32768))
        fleet = WorkerFleet(n_workers=2, context=tiny_context,
                            max_batch_size=8, instrumentation=obs,
                            trace_sample_every=4)
        verdicts, report = fleet.score_stream(list(malware_rows))
        assert len(verdicts) == len(malware_rows)
        collector = SpanCollector()
        collector.add_snapshot(report.obs)
        trees = collector.trees()
        # Head-based 1-in-4 sampling: requests 1, 5, 9, ... get trees.
        expected = [verdict.request_id
                    for index, verdict in enumerate(verdicts)
                    if index % 4 == 0]
        assert sorted(trees) == sorted(expected)
        assert collector.n_orphans == 0
        assert collector.n_duplicates == 0
        assert all(tree.complete for tree in trees.values())
        # Sampling is observability-plane only: decisions are unmoved.
        for ours, theirs in zip(verdicts, baseline_verdicts):
            assert ours.malware_probability == theirs.malware_probability

    def test_invalid_sample_rate_rejected(self, tiny_context):
        from repro.exceptions import ParallelError

        with pytest.raises(ParallelError, match="trace_sample_every"):
            WorkerFleet(n_workers=2, context=tiny_context,
                        trace_sample_every=0)


class TestChaosSoakAcceptance:
    """The ISSUE's acceptance soak: 256 requests, 2 workers, crash + flush
    error, traced — trees exact, breakdowns consistent, verdicts unmoved."""

    N_SOAK = 256

    @pytest.fixture(scope="class")
    def soak_rows(self, tiny_context):
        rows = list(tiny_context.attack_malware.features)
        tiled = (rows * (self.N_SOAK // len(rows) + 1))[:self.N_SOAK]
        assert len(tiled) == self.N_SOAK
        return tiled

    @pytest.fixture(scope="class")
    def traced_soak(self, tiny_context, soak_rows):
        obs = Instrumentation(sink=ListSink(max_events=32768))
        fleet = _chaotic_fleet(tiny_context, obs)
        verdicts, report = fleet.score_stream(list(soak_rows))
        return verdicts, report

    @pytest.fixture(scope="class")
    def untraced_soak(self, tiny_context, soak_rows):
        fleet = _chaotic_fleet(tiny_context, obs=None)
        verdicts, _ = fleet.score_stream(list(soak_rows))
        return verdicts

    def test_every_request_yields_exactly_one_rooted_tree(self, traced_soak):
        verdicts, report = traced_soak
        assert len(verdicts) == self.N_SOAK
        collector = SpanCollector()
        collector.add_snapshot(report.obs)
        trees = collector.trees()
        assert sorted(trees) == sorted(v.request_id for v in verdicts)
        assert collector.n_orphans == 0
        assert collector.n_duplicates == 0
        assert all(tree.complete for tree in trees.values())

    def test_breakdown_sums_to_end_to_end_latency(self, traced_soak):
        verdicts, report = traced_soak
        collector = SpanCollector()
        collector.add_snapshot(report.obs)
        trees = collector.trees()
        by_id = {verdict.request_id: verdict for verdict in verdicts}
        checked = 0
        for trace_id, tree in trees.items():
            # Redispatched requests carry the dead replica's partial hops
            # on top of the replacement's — only exactly-once-hop trees
            # have a meaningful sum (same filter breakdown_summary uses).
            if any(count != 1 for count in tree.hop_counts().values()):
                continue
            parts = tree.breakdown()
            hops = sum(value for key, value in parts.items()
                       if key != "total_ms")
            latency = by_id[trace_id].latency_ms
            # The hop spans tile dispatcher-enqueue → verdict-built with
            # no gaps; the span clock stops a hair after the latency
            # clock, hence the small absolute slack under the 5% gate.
            assert hops == pytest.approx(latency, rel=0.05, abs=0.5)
            checked += 1
        assert checked >= self.N_SOAK * 0.9  # redispatches are the rare case

    def test_verdict_decisions_identical_to_untraced_run(self, traced_soak,
                                                         untraced_soak):
        traced_verdicts, _ = traced_soak

        def decisions(verdicts):
            return [{key: value for key, value in verdict.as_dict().items()
                     if key != "latency_ms"} for verdict in verdicts]

        assert decisions(traced_verdicts) == decisions(untraced_soak)

    def test_forced_burn_breach_alerts_and_sheds(self, tiny_context,
                                                 soak_rows):
        from repro.obs import SLOSpec

        obs = Instrumentation(sink=ListSink(max_events=32768))
        fleet = WorkerFleet(
            n_workers=2, context=tiny_context, max_batch_size=8,
            instrumentation=obs,
            slo_specs=(SLOSpec(name="latency", objective=0.99,
                               target_ms=0.0001, on_breach="shed"),))
        verdicts, report = fleet.score_stream(list(soak_rows))
        assert len(verdicts) == self.N_SOAK
        alerts = [event for event in report.obs["events"]
                  if event.get("kind") == "alert"]
        assert alerts  # the impossible target forced a burn-rate breach
        assert all(event["name"] == "slo.latency" for event in alerts)
        statuses = {verdict.status for verdict in verdicts}
        assert "shed" in statuses  # armed breach actually shed load
        # Non-shed requests still reconstruct to rooted trees.
        collector = SpanCollector()
        collector.add_snapshot(report.obs)
        trees = collector.trees()
        assert collector.n_orphans == 0
        for verdict in verdicts:
            if verdict.status == "ok":
                assert trees[verdict.request_id].complete
