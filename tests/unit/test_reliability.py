"""Tests for the reliability layer: faults, retry/breaker, report, degradation."""

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.obs import Instrumentation, MetricsRegistry, SLOSpec
from repro.reliability import (
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ReliabilityReport,
    RetryPolicy,
    WorkerCrash,
    maybe_fire,
)
from repro.serving import MicroBatcher, ModelRegistry, ThroughputReport
from repro.serving.service import ScoringRequest, ScoringService


@pytest.fixture(scope="module")
def tiny_servable(tiny_context):
    return ModelRegistry().get("target", context=tiny_context)


@pytest.fixture(scope="module")
def malware_rows(tiny_context):
    return tiny_context.attack_malware.features[:16]


def no_sleep(_seconds: float) -> None:
    """Sleep stub so retry/backoff tests run instantly."""


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------------- #
# FaultSpec / FaultPlan
# --------------------------------------------------------------------------- #
class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ReproError):
            FaultSpec(site="s", action="meteor")
        with pytest.raises(ReproError):
            FaultSpec(site="s", at=0)
        with pytest.raises(ReproError):
            FaultSpec(site="s", count=0)
        with pytest.raises(ReproError):
            FaultSpec(site="s", delay_ms=-1.0)

    def test_where_filter_matches_subset(self):
        spec = FaultSpec(site="fleet.dispatch", where={"worker": 1})
        assert spec.matches({"worker": 1, "seq": 9})
        assert not spec.matches({"worker": 2, "seq": 9})
        assert not spec.matches({"seq": 9})
        assert FaultSpec(site="s").matches({})  # empty filter matches all

    def test_dict_round_trip(self):
        spec = FaultSpec(site="service.flush", action="delay", at=3, count=2,
                         delay_ms=10.0, where={"worker": 0}, message="spike")
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        # Defaults are elided from the serialised form.
        assert set(FaultSpec(site="s").to_dict()) == {"site", "action", "at"}

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ReproError, match="unknown"):
            FaultSpec.from_dict({"site": "s", "colour": "red"})
        with pytest.raises(ReproError, match="site"):
            FaultSpec.from_dict({"action": "error"})


class TestFaultPlan:
    def _plan(self) -> FaultPlan:
        return FaultPlan(specs=(
            FaultSpec(site="fleet.dispatch", action="crash", at=2),
            FaultSpec(site="service.flush", action="error"),
            FaultSpec(site="fleet.dispatch", action="delay", delay_ms=5.0),
        ))

    def test_len_and_sites(self):
        plan = self._plan()
        assert len(plan) == 3
        assert plan.sites() == ["fleet.dispatch", "service.flush"]
        assert len(FaultPlan()) == 0

    def test_json_round_trip(self):
        plan = self._plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_dict_accepts_wrapped_bare_and_none(self):
        wrapped = FaultPlan.from_dict({"faults": [{"site": "s"}]})
        bare = FaultPlan.from_dict([{"site": "s"}])
        assert wrapped == bare
        assert len(wrapped) == 1
        assert FaultPlan.from_dict(None) == FaultPlan()

    def test_invalid_json_raises(self):
        with pytest.raises(ReproError, match="fault-plan JSON"):
            FaultPlan.from_json("{not json")


class TestFaultInjector:
    def test_fires_on_nth_matching_hit_only(self):
        plan = FaultPlan(specs=(FaultSpec(site="s", action="error", at=3),))
        injector = plan.injector()
        injector.fire("s")
        injector.fire("s")
        with pytest.raises(InjectedFault):
            injector.fire("s")
        injector.fire("s")  # hit 4: past the window
        assert injector.fired == {"s": 1}
        assert injector.fired_total() == 1

    def test_count_widens_the_hit_window(self):
        plan = FaultPlan(specs=(FaultSpec(site="s", at=2, count=2),))
        injector = plan.injector()
        injector.fire("s")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.fire("s")
        injector.fire("s")
        assert injector.fired == {"s": 2}

    def test_scope_merges_into_context(self):
        plan = FaultPlan(specs=(FaultSpec(site="s", where={"worker": 1}),))
        unmatched = plan.injector(scope={"worker": 0})
        unmatched.fire("s")  # filtered out: no hit, no fault
        assert unmatched.fired == {}
        matched = plan.injector(scope={"worker": 1})
        with pytest.raises(InjectedFault):
            matched.fire("s")
        # Call-site context overrides the scope on key collisions.
        overridden = plan.injector(scope={"worker": 0})
        with pytest.raises(InjectedFault):
            overridden.fire("s", worker=1)

    def test_crash_action_raises_base_exception(self):
        plan = FaultPlan(specs=(FaultSpec(site="s", action="crash"),))
        injector = plan.injector()
        with pytest.raises(WorkerCrash):
            injector.fire("s")
        # WorkerCrash must sail past `except Exception` recovery code.
        assert not issubclass(WorkerCrash, Exception)

    def test_delay_action_sleeps_and_returns_spec(self):
        slept = []
        plan = FaultPlan(specs=(
            FaultSpec(site="s", action="delay", delay_ms=25.0),))
        injector = plan.injector(sleep=slept.append)
        fired = injector.fire("s")
        assert fired is plan.specs[0]
        assert slept == [0.025]

    def test_malformed_action_returns_spec_without_raising(self):
        plan = FaultPlan(specs=(FaultSpec(site="s", action="malformed"),))
        injector = plan.injector()
        assert injector.fire("s").action == "malformed"
        assert injector.fire("s") is None

    def test_maybe_fire_none_injector_is_noop(self):
        assert maybe_fire(None, "s", worker=3) is None


# --------------------------------------------------------------------------- #
# RetryPolicy / CircuitBreaker
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(ReproError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ReproError):
            RetryPolicy().delay(-1)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3,
                             jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.3)  # capped
        assert policy.delay(9) == pytest.approx(0.3)

    def test_jitter_is_deterministic_and_token_keyed(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=11)
        assert policy.delay(0, token=3) == policy.delay(0, token=3)
        assert policy.delay(0, token=3) != policy.delay(0, token=4)
        # Jitter only ever adds, bounded by the jitter fraction.
        assert 0.1 <= policy.delay(0, token=3) < 0.1 * 1.5

    def test_run_retries_then_succeeds(self):
        attempts = {"n": 0}
        retries_seen = []

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise ValueError("transient")
            return "done"

        policy = RetryPolicy(max_retries=2, base_delay_s=0.0, jitter=0.0)
        result = policy.run(flaky, sleep=no_sleep,
                            on_retry=lambda a, e: retries_seen.append(a))
        assert result == "done"
        assert attempts["n"] == 3
        assert retries_seen == [0, 1]

    def test_run_raises_after_exhaustion(self):
        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise ValueError("permanent")

        policy = RetryPolicy(max_retries=1, base_delay_s=0.0)
        with pytest.raises(ValueError, match="permanent"):
            policy.run(always_fails, sleep=no_sleep)
        assert calls["n"] == policy.max_attempts == 2

    def test_run_only_retries_listed_exceptions(self):
        calls = {"n": 0}

        def crashes():
            calls["n"] += 1
            raise WorkerCrash("hard death")

        policy = RetryPolicy(max_retries=5, base_delay_s=0.0)
        with pytest.raises(WorkerCrash):
            policy.run(crashes, sleep=no_sleep)
        assert calls["n"] == 1  # BaseException never retried by default


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ReproError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ReproError):
            CircuitBreaker(reset_after_s=-1.0)

    def test_trips_after_threshold_and_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_after_s=1.0,
                                 clock=clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.n_trips == 1
        clock.advance(1.0)
        assert breaker.state == "half-open" and breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.n_trips == 1

    def test_half_open_failure_reopens_without_new_trip(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=1.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.state == "half-open"
        breaker.record_failure()  # trial call failed: cooldown restarts
        assert breaker.state == "open"
        assert breaker.n_trips == 1  # re-opening is not a new trip


# --------------------------------------------------------------------------- #
# ReliabilityReport
# --------------------------------------------------------------------------- #
class TestReliabilityReport:
    def test_empty_and_total_events(self):
        report = ReliabilityReport()
        assert report.empty()
        assert report.total_events() == 0
        shed = ReliabilityReport(sheds=2)
        assert not shed.empty()
        assert shed.total_events() == 2
        faults_only = ReliabilityReport(faults={"s": 1})
        assert not faults_only.empty()
        assert faults_only.total_events() == 0

    def test_report_is_read_only(self):
        with pytest.raises(AttributeError):
            ReliabilityReport().sheds = 2

    def test_merge_sums_counters_and_faults(self):
        # Worker counts combine by merging registry snapshots, the one
        # merge path; the report of the merged snapshot sums the parts.
        left, right = Instrumentation(), Instrumentation()
        left.count("fleet.restarts")
        left.count("fault.a")
        right.count("fleet.restarts", 2)
        right.count("serve.flush_retries", 3)
        right.count("fault.a")
        right.count("fault.b", 4)
        merged = MetricsRegistry()
        merged.merge_snapshot(left.metrics.snapshot())
        merged.merge_snapshot(right.metrics.snapshot())
        report = ReliabilityReport.from_snapshot(merged.snapshot())
        assert report.restarts == 3
        assert report.flush_retries == 3
        assert report.faults == {"a": 2, "b": 4}

    def test_snapshot_since_counts_only_later_events(self):
        obs = Instrumentation()
        obs.count("serve.sheds", 5)
        obs.count("fault.s")
        since = obs.metrics.snapshot()
        obs.count("serve.sheds", 2)
        obs.count("fault.t")
        report = ReliabilityReport.from_snapshot(obs.metrics.snapshot(),
                                                 since=since)
        assert report.sheds == 2
        assert report.faults == {"t": 1}

    def test_dict_round_trip(self):
        report = ReliabilityReport(restarts=1, redispatches=2, sheds=3,
                                   faults={"fleet.dispatch": 1})
        assert ReliabilityReport(**report.as_dict()) == report
        assert set(ReliabilityReport().as_dict()) == {
            "restarts", "redispatches", "flush_retries", "isolated", "sheds",
            "fallbacks", "breaker_trips", "cell_retries", "cell_timeouts",
            "duplicates", "faults"}

    def test_fired_faults_accumulate_per_site(self):
        obs = Instrumentation()
        plan = FaultPlan(specs=(
            FaultSpec(site="s", action="delay", count=3),
            FaultSpec(site="t", action="delay")))
        injector = plan.injector(sleep=lambda seconds: None)
        for _ in range(3):
            maybe_fire(injector, "s", obs=obs)
        maybe_fire(injector, "t", obs=obs)
        report = ReliabilityReport.from_snapshot(obs.metrics.snapshot())
        assert report.faults == {"s": 3, "t": 1}
        assert report.faults == injector.fired

    def test_render(self):
        assert "no events" in ReliabilityReport().render()
        rendered = ReliabilityReport(restarts=1,
                                     faults={"service.flush": 2}).render()
        assert "restarts=1" in rendered
        assert "service.flush=2" in rendered


# --------------------------------------------------------------------------- #
# MicroBatcher: retries and poison bisection
# --------------------------------------------------------------------------- #
class TestBatcherReliability:
    def test_retry_policy_reattempts_transient_flush_failure(self):
        attempts = {"n": 0}

        def flaky_flush(batch):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise ValueError("transient")
            return [item * 10 for item in batch]

        obs = Instrumentation()
        batcher = MicroBatcher(flaky_flush, max_batch_size=2,
                               retry_policy=RetryPolicy(max_retries=1,
                                                        base_delay_s=0.0),
                               sleep=no_sleep, instrumentation=obs)
        assert batcher.submit_many([1, 2]) == [10, 20]
        assert obs.metrics.counter("serve.flush_retries").value == 1
        assert batcher.n_flushes == 1

    def test_bisection_isolates_single_poison_item(self):
        def flush(batch):
            if "poison" in batch:
                raise ValueError("bad item")
            return [item.upper() for item in batch]

        isolated = []

        def answer_error(item, error):
            isolated.append(item)
            return f"error:{item}"

        obs = Instrumentation()
        batcher = MicroBatcher(flush, max_batch_size=8, error_fn=answer_error,
                               instrumentation=obs)
        results = batcher.submit_many(
            ["a", "b", "poison", "c", "d", "e", "f", "g"])
        # Order is preserved and only the poison item degrades.
        assert results == ["A", "B", "error:poison", "C", "D", "E", "F", "G"]
        assert obs.metrics.counter("serve.errors").value == 1
        assert isolated == ["poison"]

    def test_bisection_handles_multiple_poison_items(self):
        def flush(batch):
            if any(item < 0 for item in batch):
                raise ValueError("negative")
            return list(batch)

        obs = Instrumentation()
        batcher = MicroBatcher(flush, max_batch_size=4,
                               error_fn=lambda item, error: None,
                               instrumentation=obs)
        assert batcher.submit_many([1, -2, -3, 4]) == [1, None, None, 4]
        assert obs.metrics.counter("serve.errors").value == 2

    def test_without_error_fn_failure_still_restores_batch(self):
        def bad_flush(batch):
            raise ValueError("boom")

        batcher = MicroBatcher(bad_flush, max_batch_size=4)
        batcher.submit("x")
        with pytest.raises(ValueError):
            batcher.flush()
        assert batcher.pending == 1  # restored, not lost

    def test_base_exception_crash_skips_bisection_and_restores(self):
        def crashing_flush(batch):
            raise WorkerCrash("replica death")

        obs = Instrumentation()
        batcher = MicroBatcher(crashing_flush, max_batch_size=4,
                               error_fn=lambda item, error: "absorbed",
                               instrumentation=obs)
        batcher.submit_many(["x", "y"])
        with pytest.raises(WorkerCrash):
            batcher.flush()
        assert batcher.pending == 2  # crash never eats queued items
        assert obs.metrics.counter("serve.errors").value == 0


# --------------------------------------------------------------------------- #
# ScoringService degradation: shed / fallback / error verdicts
# --------------------------------------------------------------------------- #
class TestServiceDegradation:
    def test_open_breaker_sheds_at_submit(self, tiny_servable, malware_rows):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=10.0,
                                 clock=clock)
        service = ScoringService(tiny_servable, circuit_breaker=breaker,
                                 max_batch_size=4)
        breaker.record_failure()  # trip it manually
        verdicts = service.submit(malware_rows[0])
        assert len(verdicts) == 1
        shed = verdicts[0]
        assert shed.status == "shed" and not shed.is_scored
        assert shed.label == -1 and shed.verdict == "shed"
        assert service.reliability.sheds == 1
        # Shed requests are answered, never counted as scored.
        assert ThroughputReport.from_verdicts(verdicts, 1.0).n_requests == 0
        assert service.pending == 0

    def test_breaker_trips_on_injected_flush_failures(self, tiny_servable,
                                                      malware_rows):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=5.0,
                                 clock=clock)
        plan = FaultPlan(specs=(FaultSpec(site="service.flush",
                                          action="error", at=1),))
        service = ScoringService(tiny_servable, circuit_breaker=breaker,
                                 max_batch_size=1,
                                 injector=plan.injector())
        with pytest.raises(InjectedFault):
            service.submit(malware_rows[0])
        assert service.reliability.breaker_trips == 1
        # Now open: the next submission sheds instead of queueing.
        assert service.submit(malware_rows[1])[0].status == "shed"
        # After the cooldown the trial call succeeds and the breaker closes.
        clock.advance(5.0)
        verdict = service.submit(malware_rows[2])[0]
        assert verdict.status == "ok"
        assert breaker.state == "closed"

    def test_retry_policy_recovers_injected_flush_error(self, tiny_servable,
                                                        malware_rows):
        plan = FaultPlan(specs=(FaultSpec(site="service.flush",
                                          action="error", at=1),))
        service = ScoringService(
            tiny_servable, max_batch_size=4,
            retry_policy=RetryPolicy(max_retries=1, base_delay_s=0.0),
            injector=plan.injector())
        verdicts = [verdict for row in malware_rows[:4]
                    for verdict in service.submit(row)]
        verdicts += service.drain()
        assert len(verdicts) == 4
        assert all(verdict.status == "ok" for verdict in verdicts)
        assert service.reliability.flush_retries == 1
        baseline = ScoringService(tiny_servable).score_many(
            list(malware_rows[:4]))
        assert [v.malware_probability for v in verdicts] == \
               [v.malware_probability for v in baseline]

    def test_poison_request_isolated_into_error_verdict(self, tiny_servable,
                                                        malware_rows):
        service = ScoringService(tiny_servable, max_batch_size=8,
                                 isolate_poison=True)
        rows = [service.make_request(row) for row in malware_rows[:5]]
        # Pre-wrapped requests skip door validation; the NaN payload poisons
        # the flush and must be bisected out, not wedge the batch.
        poison = ScoringRequest(request_id="poison",
                                payload=np.full(service.n_features, np.nan))
        verdicts = []
        for request in rows[:3] + [poison] + rows[3:]:
            verdicts.extend(service.submit(request))
        verdicts.extend(service.drain())
        by_id = {verdict.request_id: verdict for verdict in verdicts}
        assert len(verdicts) == 6
        assert by_id["poison"].status == "error"
        assert by_id["poison"].label == -1
        assert sum(not v.is_scored for v in verdicts) == 1
        assert service.reliability.isolated == 1
        # Error verdicts are answered, never counted as scored.
        assert ThroughputReport.from_verdicts(verdicts, 1.0).n_requests == 5

    def test_slo_breach_demotes_defended_endpoint(self, tiny_servable,
                                                  malware_rows):
        # A breached on_breach="fallback" spec is the way to demote a
        # defended endpoint; the service arms its monitor from slo_specs
        # on its own instrumentation and clock.
        class CountingDefense:
            name = "counting_defense"
            calls = 0

            def decide(self, features):
                self.calls += 1
                probabilities = tiny_servable.model.malware_confidence(features)
                return probabilities, (probabilities > 0.5).astype(np.int64)

        clock = FakeClock()
        obs = Instrumentation()
        detector = CountingDefense()
        service = ScoringService(
            tiny_servable, detector, max_batch_size=8, clock=clock,
            instrumentation=obs,
            slo_specs=[SLOSpec(name="latency", target_ms=1.0, min_events=3,
                               on_breach="fallback")])
        for row in malware_rows[:3]:
            assert service.submit(row) == []
        clock.advance(0.010)                      # every request waits 10 ms
        defended = service.drain()
        assert [v.defense for v in defended] == ["counting_defense"] * 3
        assert service.fell_back and service.defense_name is None
        assert service.reliability.fallbacks == 1
        assert obs.metrics.counter("alert.slo.latency").value == 1

        for row in malware_rows[3:5]:
            service.submit(row)
        demoted = service.drain()
        assert detector.calls == 1                # the defense is bypassed
        assert all(v.status == "ok" and v.defense is None for v in demoted)
        undefended = ScoringService(tiny_servable).score_many(
            list(malware_rows[3:5]))
        assert [v.label for v in demoted] == [v.label for v in undefended]
