"""Unit tests for the serving layer: stats, micro-batcher, registry, loadgen."""

import numpy as np
import pytest

from repro.config import TINY_PROFILE
from repro.exceptions import ServingError
from repro.experiments.context import ExperimentContext
from repro.obs import Instrumentation
from repro.serving import (
    LoadGenerator,
    MicroBatcher,
    ModelRegistry,
    ThroughputReport,
    TrafficMix,
    Verdict,
    bundle_version,
)
from repro.serving.stats import percentile
from repro.utils.artifact_cache import ArtifactCache


class FakeClock:
    """Deterministic, manually-advanced clock for batcher tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _verdicts(latencies, status="ok"):
    """Verdicts carrying the given latencies (the report's only input)."""
    return [Verdict(request_id=f"req-{index}", malware_probability=0.0,
                    label=0 if status == "ok" else -1,
                    verdict="clean" if status == "ok" else status,
                    threshold=0.5, model_name="target", model_version="v",
                    defense=None, latency_ms=latency, status=status)
            for index, latency in enumerate(latencies)]


class TestStats:
    def test_percentile_bounds_are_validated(self):
        with pytest.raises(ServingError):
            percentile([1.0], 101.0)
        with pytest.raises(ServingError):
            percentile([], 50.0)

    def test_tracker_report(self):
        # The verdicts are the latency ledger: the report reads theirs.
        report = ThroughputReport.from_verdicts(
            _verdicts([1.0, 2.0, 3.0, 4.0]), elapsed_s=2.0)
        assert report.n_requests == 4
        assert report.requests_per_s == pytest.approx(2.0)
        assert report.mean_ms == pytest.approx(2.5)
        assert report.p50_ms == pytest.approx(2.5)
        assert report.p99_ms == pytest.approx(3.97)
        assert report.max_ms == pytest.approx(4.0)
        assert "4 requests" in report.render()
        assert "p99" in report.render()

    def test_only_scored_verdicts_count(self):
        # Shed and error verdicts are answered, not scored: their latencies
        # (time until the refusal) stay out of the report.
        verdicts = (_verdicts([1.0, 3.0]) + _verdicts([50.0], status="shed")
                    + _verdicts([70.0], status="error"))
        report = ThroughputReport.from_verdicts(verdicts, elapsed_s=1.0)
        assert report == ThroughputReport.from_verdicts(_verdicts([1.0, 3.0]),
                                                        elapsed_s=1.0)
        assert report.n_requests == 2 and report.max_ms == 3.0

    def test_empty_tracker_reports_zeroed_interval(self):
        # Reporting on an idle interval is well-defined, not an error: the
        # fleet aggregator and periodic reporters rely on this.  An interval
        # whose every verdict was shed is idle too.
        report = ThroughputReport.from_verdicts([], 1.0)
        assert report.n_requests == 0
        assert report.requests_per_s == 0.0
        assert report.mean_ms == report.p50_ms == report.p95_ms == 0.0
        assert report.p99_ms == report.max_ms == 0.0
        assert ThroughputReport.from_verdicts([], 0.0).elapsed_s == 0.0
        assert ThroughputReport.from_verdicts(
            _verdicts([5.0], status="shed"), 1.0) == report
        assert "0 requests" in report.render()

    def test_nonempty_tracker_still_requires_positive_interval(self):
        with pytest.raises(ServingError):
            ThroughputReport.from_verdicts(_verdicts([1.0]), 0.0)

    def test_report_is_invariant_to_observation_order(self):
        # A fleet merges verdicts in submission order, not arrival order:
        # the summary must not depend on how observations interleave.
        latencies = [4.0, 1.0, 3.0, 1.0, 9.0, 2.0]
        assert (ThroughputReport.from_verdicts(_verdicts(latencies), 2.0)
                == ThroughputReport.from_verdicts(_verdicts(sorted(latencies)),
                                                  2.0))

    def test_duplicate_observations_each_count(self):
        # Batched scoring gives the same latency to every request of a
        # fused batch; duplicates are real requests, never collapsed.
        report = ThroughputReport.from_verdicts(_verdicts([5.0, 5.0, 5.0, 1.0]),
                                                1.0)
        assert report.n_requests == 4
        assert report.requests_per_s == pytest.approx(4.0)
        assert report.mean_ms == pytest.approx(4.0)
        assert report.p50_ms == pytest.approx(5.0)
        assert report.max_ms == pytest.approx(5.0)

    def test_out_of_order_timestamps_clamp_to_zero_latency(self):
        # A worker's flush can observe a finish time earlier than an
        # upstream enqueue stamp (clocks read in different processes); the
        # service clamps those to zero rather than reporting negatives —
        # and the report itself refuses a negative latency outright.
        report = ThroughputReport.from_verdicts(
            _verdicts([max(0.0, (1.0 - 2.0) * 1000.0)]), 1.0)
        assert report.n_requests == 1
        assert report.max_ms == 0.0
        with pytest.raises(ServingError):
            ThroughputReport.from_verdicts(_verdicts([2.0, -0.001]), 1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ServingError):
            ThroughputReport.from_verdicts(_verdicts([-1.0]), 1.0)


class TestMicroBatcher:
    def _batcher(self, **kwargs):
        flushed = []

        def flush_fn(batch):
            flushed.append(list(batch))
            return [item * 10 for item in batch]

        clock = kwargs.pop("clock", FakeClock())
        batcher = MicroBatcher(flush_fn, clock=clock, **kwargs)
        return batcher, flushed, clock

    def test_flushes_when_batch_fills(self):
        obs = Instrumentation()
        batcher, flushed, _ = self._batcher(max_batch_size=3,
                                            instrumentation=obs)
        assert batcher.submit(1) == []
        assert batcher.submit(2) == []
        assert batcher.submit(3) == [10, 20, 30]
        assert flushed == [[1, 2, 3]]
        assert batcher.pending == 0
        assert batcher.n_flushes == 1
        sizes = obs.metrics.histogram("batcher.batch_size")
        assert (sizes.count, sizes.total) == (1, 3.0)

    def test_poll_flushes_only_after_deadline(self):
        batcher, _, clock = self._batcher(max_batch_size=100, max_delay_ms=5.0)
        batcher.submit(1)
        clock.advance(0.004)
        assert batcher.poll() == []          # 4ms < 5ms SLO: keep accumulating
        batcher.submit(2)
        clock.advance(0.002)                 # oldest item now waited 6ms
        assert batcher.poll() == [10, 20]
        assert batcher.poll() == []          # nothing pending any more

    def test_deadline_tracks_oldest_item(self):
        batcher, _, clock = self._batcher(max_batch_size=100, max_delay_ms=10.0)
        batcher.submit(1)
        first_deadline = batcher.deadline
        clock.advance(0.005)
        batcher.submit(2)                    # newer item must not extend the SLO
        assert batcher.deadline == first_deadline

    def test_explicit_flush_and_empty_flush(self):
        batcher, _, _ = self._batcher(max_batch_size=100)
        assert batcher.flush() == []
        batcher.submit(7)
        assert batcher.flush() == [70]

    def test_submit_many_collects_intermediate_flushes(self):
        batcher, flushed, _ = self._batcher(max_batch_size=2)
        results = batcher.submit_many([1, 2, 3, 4, 5])
        assert results == [10, 20, 30, 40]
        assert batcher.pending == 1
        assert flushed == [[1, 2], [3, 4]]

    def test_result_count_mismatch_raises(self):
        batcher = MicroBatcher(lambda batch: [], max_batch_size=1)
        with pytest.raises(ServingError):
            batcher.submit(1)

    def test_failed_flush_restores_pending_batch(self):
        calls = {"fail": True}

        def flush_fn(batch):
            if calls["fail"]:
                raise ServingError("one bad item")
            return [item * 10 for item in batch]

        clock = FakeClock()
        batcher = MicroBatcher(flush_fn, max_batch_size=3, clock=clock)
        batcher.submit(1)
        batcher.submit(2)
        deadline_before = batcher.deadline
        with pytest.raises(ServingError):
            batcher.submit(3)
        # A failing flush must not silently drop the queued items.
        assert batcher.pending == 3
        assert batcher.deadline == deadline_before
        assert batcher.n_flushes == 0
        calls["fail"] = False
        assert batcher.flush() == [10, 20, 30]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ServingError):
            MicroBatcher(lambda batch: batch, max_batch_size=0)
        with pytest.raises(ServingError):
            MicroBatcher(lambda batch: batch, max_delay_ms=-1.0)


class TestBundleVersion:
    def test_version_is_deterministic(self):
        a = bundle_version("target", TINY_PROFILE, 1, "float64")
        b = bundle_version("target", TINY_PROFILE, 1, "float64")
        assert a == b and len(a) == 16

    def test_version_covers_name_scale_seed_dtype(self):
        base = bundle_version("target", TINY_PROFILE, 1, "float64")
        assert bundle_version("substitute", TINY_PROFILE, 1, "float64") != base
        assert bundle_version("target", TINY_PROFILE, 2, "float64") != base
        assert bundle_version("target", TINY_PROFILE, 1, "float32") != base
        assert bundle_version("target", TINY_PROFILE.with_overrides(train_clean=121),
                              1, "float64") != base


class TestModelRegistry:
    def test_unknown_model_raises(self):
        registry = ModelRegistry()
        with pytest.raises(ServingError):
            registry.get("nonexistent", scale=TINY_PROFILE, seed=0)

    def test_default_builders_registered(self):
        assert ModelRegistry().available() == ["substitute", "target"]

    def test_register_validates_name(self):
        with pytest.raises(ServingError):
            ModelRegistry().register("", lambda ctx: None)

    def test_cold_build_then_warm_start(self, tmp_path):
        from repro.nn.engine import compute_dtype

        cache = ArtifactCache(tmp_path / "cache")
        context = ExperimentContext(scale=TINY_PROFILE, seed=11, cache=cache)
        cold = ModelRegistry(cache=cache)
        servable = cold.get("target", context=context)
        assert cold.cold_builds == 1
        assert servable.version == bundle_version("target", TINY_PROFILE, 11,
                                                  str(compute_dtype()))

        warm = ModelRegistry(cache=cache)
        restored = warm.get("target", scale=TINY_PROFILE, seed=11)
        assert warm.cold_builds == 0          # loaded from disk, not rebuilt
        assert restored.version == servable.version
        assert restored.scale == TINY_PROFILE
        assert restored.pipeline.is_fitted
        x = np.clip(np.random.default_rng(0).random((6, servable.n_features)), 0, 1)
        np.testing.assert_allclose(restored.model.predict_proba(x),
                                   servable.model.predict_proba(x), atol=1e-12)

    def test_repeated_get_reuses_in_process_instance(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        registry = ModelRegistry(cache=cache)
        context = ExperimentContext(scale=TINY_PROFILE, seed=12, cache=cache)
        first = registry.get("target", context=context)
        second = registry.get("target", context=context)
        assert first is second
        assert registry.cold_builds == 1


class TestScenarioBundles:
    def test_register_scenario_serves_defended_bundle(self, tiny_context):
        from repro.scenarios import ScenarioSpec

        registry = ModelRegistry()
        registry.register_scenario("squeezed_target", ScenarioSpec(
            defense="feature_squeezing", scale="tiny"))
        assert "squeezed_target" in registry.available()
        assert registry.scenario_for("squeezed_target").defense == \
            "feature_squeezing"

        servable = registry.get("squeezed_target", context=tiny_context)
        detector = registry.detector_for("squeezed_target", tiny_context)
        assert servable.model is tiny_context.target_model
        assert detector is not None and detector.name == "feature_squeezing"

        from repro.serving import ScoringService

        service = ScoringService(servable, detector=detector)
        assert service.defense_name == "feature_squeezing"

    def test_detector_guards_the_bundles_own_model(self, tiny_context):
        from repro.scenarios import ScenarioSpec

        registry = ModelRegistry()
        registry.register_scenario("squeezed_substitute", ScenarioSpec(
            model="substitute", defense="feature_squeezing", scale="tiny"))
        detector = registry.detector_for("squeezed_substitute", tiny_context)
        assert detector.network is tiny_context.substitute_model.network

    def test_scenario_spec_accepts_plain_mapping(self, tiny_context):
        registry = ModelRegistry()
        registry.register_scenario("greybox", {"model": "substitute",
                                               "defense": "none",
                                               "scale": "tiny"})
        servable = registry.get("greybox", context=tiny_context)
        assert servable.model is tiny_context.substitute_model
        assert registry.detector_for("greybox", tiny_context) is None

    def test_plain_bundles_have_no_detector(self, tiny_context):
        registry = ModelRegistry()
        assert registry.detector_for("target", tiny_context) is None
        assert registry.scenario_for("target") is None

    def test_register_scenario_rejects_defended_binary_bundles(self):
        from repro.scenarios import ScenarioSpec

        registry = ModelRegistry()
        with pytest.raises(ServingError, match="binary_substitute"):
            registry.register_scenario("bad", ScenarioSpec(
                model="binary_substitute", defense="feature_squeezing",
                scale="tiny"))
        # The undefended binary bundle stays serveable.
        registry.register_scenario("ok", ScenarioSpec(
            model="binary_substitute", defense="none", scale="tiny"))
        assert "ok" in registry.available()

    def test_register_scenario_validates_defense_and_params(self):
        from repro.exceptions import ConfigurationError
        from repro.scenarios import ScenarioSpec

        registry = ModelRegistry()
        with pytest.raises(ConfigurationError):
            registry.register_scenario("bad", ScenarioSpec(defense="tinfoil"))
        with pytest.raises(ConfigurationError):
            registry.register_scenario("bad", ScenarioSpec(
                defense="distillation",
                defense_params={"temperature": "hot"}))


class TestTrafficMix:
    def test_rejects_negative_and_zero_mix(self):
        with pytest.raises(ServingError):
            TrafficMix(clean=-0.1, malware=0.5, adversarial=0.6)
        with pytest.raises(ServingError):
            TrafficMix(clean=0.0, malware=0.0, adversarial=0.0)

    def test_probabilities_normalise(self):
        mix = TrafficMix(clean=2.0, malware=1.0, adversarial=1.0)
        np.testing.assert_allclose(mix.probabilities(), [0.5, 0.25, 0.25])

    def test_parse_round_trip_and_errors(self):
        mix = TrafficMix.parse("0.6, 0.3, 0.1")
        assert mix == TrafficMix(0.6, 0.3, 0.1)
        with pytest.raises(ServingError):
            TrafficMix.parse("0.5,0.5")
        with pytest.raises(ServingError):
            TrafficMix.parse("a,b,c")


class TestLoadGenerator:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(scale=TINY_PROFILE, seed=21)

    def test_stream_is_deterministic_per_seed(self, context):
        first = LoadGenerator(context, mix=TrafficMix(0.6, 0.4, 0.0), seed=5).generate(12)
        second = LoadGenerator(context, mix=TrafficMix(0.6, 0.4, 0.0), seed=5).generate(12)
        assert [r.request_id for r in first] == [r.request_id for r in second]
        assert [len(r.payload) for r in first] == [len(r.payload) for r in second]
        third = LoadGenerator(context, mix=TrafficMix(0.6, 0.4, 0.0), seed=6).generate(12)
        assert [r.request_id for r in first] != [r.request_id for r in third]

    def test_generate_respects_kinds_and_epochs(self, context):
        generator = LoadGenerator(context, mix=TrafficMix(1.0, 0.0, 0.0), seed=5)
        requests = generator.generate(5)
        assert all(r.request_id.startswith("clean-0-") for r in requests)
        again = generator.generate(5)
        assert all(r.request_id.startswith("clean-1-") for r in again)
        # Distinct epochs draw distinct samples from the substrate.
        assert {r.payload.sample_id for r in requests} != \
               {r.payload.sample_id for r in again}

    def test_invalid_request_count_rejected(self, context):
        with pytest.raises(ServingError):
            LoadGenerator(context).generate(0)

    def test_arrival_times_are_monotone_at_rate(self, context):
        generator = LoadGenerator(context, seed=5)
        times = generator.arrival_times(200, rate_per_s=1000.0)
        assert times.shape == (200,)
        assert np.all(np.diff(times) > 0)
        assert times[-1] == pytest.approx(0.2, rel=0.5)
        with pytest.raises(ServingError):
            generator.arrival_times(5, rate_per_s=0.0)
