"""Integration tests: the scoring service end to end over a tiny context.

The load-bearing property is verdict correctness: for any log, the service's
decision must be *identical* to the direct
``FeaturePipeline.transform → TargetModel.predict`` path the experiments
use.  On top of that the tests cover the micro-batched online path, the
defended endpoints, degenerate logs (empty / fully unmonitored) and the
mixed-traffic replay loop.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.apilog.log_format import ApiLog, LogRecord
from repro.config import TINY_PROFILE
from repro.defenses.base import ModelBackedDetector
from repro.defenses.ensemble import EnsembleDefense
from repro.defenses.feature_squeezing import FeatureSqueezingDefense
from repro.experiments.context import ExperimentContext
from repro.serving import (
    LoadGenerator,
    ModelRegistry,
    ScoringService,
    ThroughputReport,
    TrafficMix,
    Verdict,
    replay,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(scale=TINY_PROFILE, seed=31)


@pytest.fixture(scope="module")
def servable(context):
    return ModelRegistry().get("target", context=context)


@pytest.fixture(scope="module")
def log_requests(context):
    """A deterministic batch of clean+malware API logs (full log path)."""
    generator = LoadGenerator(context, mix=TrafficMix(0.5, 0.5, 0.0), seed=9)
    return generator.generate(20)


class TestVerdictCorrectness:
    def test_verdict_matches_direct_pipeline_predict_path(self, servable, log_requests):
        service = ScoringService(servable)
        logs = [request.payload for request in log_requests]
        direct_features = servable.pipeline.transform(logs)
        direct_labels = servable.model.predict(direct_features)
        direct_scores = servable.model.malware_confidence(direct_features)

        verdicts = service.score_many(log_requests)
        assert [v.label for v in verdicts] == list(direct_labels)
        np.testing.assert_allclose([v.malware_probability for v in verdicts],
                                   direct_scores, atol=1e-12)

    def test_single_score_matches_batched_score(self, servable, log_requests):
        service = ScoringService(servable)
        singles = [service.score(request) for request in log_requests]
        batched = service.score_many(log_requests)
        assert [v.label for v in singles] == [v.label for v in batched]
        # Batch-of-1 and batch-of-20 matmuls reduce in different orders, so
        # low-order bits differ under the float32 engine.
        atol = 1e-12 if servable.dtype == "float64" else 1e-5
        np.testing.assert_allclose([v.malware_probability for v in singles],
                                   [v.malware_probability for v in batched],
                                   atol=atol)

    def test_verdict_metadata(self, servable, log_requests):
        verdict = ScoringService(servable).score(log_requests[0])
        assert verdict.request_id == log_requests[0].request_id
        assert verdict.model_name == "target"
        assert verdict.model_version == servable.version
        assert verdict.defense is None
        assert verdict.verdict in ("clean", "malware")
        assert verdict.latency_ms >= 0.0
        payload = verdict.as_dict()
        assert payload["label"] in (0, 1)
        assert payload["model_version"] == servable.version

    def test_scored_verdicts_equal_constructed_verdicts(self, servable, log_requests):
        # The scoring loop fills each verdict's __dict__ instead of calling
        # the frozen dataclass's __init__; the objects must not differ.
        verdicts = ScoringService(servable).score_many(log_requests[:4])
        for verdict in verdicts:
            rebuilt = Verdict(**{field.name: getattr(verdict, field.name)
                                 for field in dataclasses.fields(Verdict)})
            assert list(vars(verdict).items()) == list(vars(rebuilt).items())
            assert verdict == rebuilt and hash(verdict) == hash(rebuilt)
            assert type(verdict.label) is int
            assert type(verdict.malware_probability) is float
            assert pickle.dumps(verdict) == pickle.dumps(rebuilt)
            with pytest.raises(dataclasses.FrozenInstanceError):
                verdict.label = 0

    def test_feature_payloads_score_identically_to_logs(self, servable, log_requests):
        service = ScoringService(servable)
        logs = [request.payload for request in log_requests[:6]]
        rows = servable.pipeline.transform(logs)
        from_logs = service.score_many(logs)
        from_rows = service.score_many([rows[i] for i in range(rows.shape[0])])
        assert [v.label for v in from_logs] == [v.label for v in from_rows]


class TestDegenerateLogs:
    def test_empty_log_scores_without_raising(self, servable):
        verdict = ScoringService(servable).score(
            ApiLog(sample_id="empty", os_version="win7"))
        assert verdict.verdict in ("clean", "malware")

    def test_unknown_api_log_scores_as_zero_vector(self, servable):
        unknown = ApiLog(sample_id="unknown-apis", os_version="win7", records=[
            LogRecord(api="TotallyUnmonitoredApi", address=0x1000),
            LogRecord(api="AnotherUnknownCall", address=0x2000),
        ])
        service = ScoringService(servable)
        verdict = service.score(unknown)
        zero = np.zeros(servable.n_features)
        expected = servable.model.malware_confidence(zero.reshape(1, -1))[0]
        assert verdict.malware_probability == pytest.approx(expected, abs=1e-12)

    def test_empty_batch_returns_no_verdicts(self, servable):
        assert ScoringService(servable).score_many([]) == []

    def test_wrong_width_feature_payload_raises(self, servable):
        from repro.exceptions import ServingError
        with pytest.raises(ServingError):
            ScoringService(servable).score(np.zeros(servable.n_features + 1))

    def test_malformed_payload_rejected_at_submit_not_at_flush(self, servable):
        from repro.exceptions import ServingError

        service = ScoringService(servable, max_batch_size=8)
        service.submit(np.zeros(servable.n_features))
        bad = np.zeros(servable.n_features)
        bad[0] = np.nan
        with pytest.raises(ServingError):
            service.submit(bad)                    # rejected at the door
        # Malformed count mappings likewise: each would otherwise fail the
        # whole micro-batch it lands in at flush time.
        for payload in ({"writefile": -3}, {"writefile": float("nan")},
                        {"writefile": float("inf")}, {"writefile": "3"},
                        {7: 1}, {"writefile": 10 ** 400}):
            with pytest.raises(ServingError):
                service.submit(payload)
        assert service.pending == 1                # queued request unharmed
        assert len(service.drain()) == 1

    def test_row_shaped_feature_payload_normalised_at_the_door(self, servable):
        # A (1, n) matrix-shaped single request must be stored as the
        # validated (n,) vector, not fail later at flush time.
        service = ScoringService(servable, max_batch_size=4)
        row = np.zeros((1, servable.n_features))
        service.submit(row)
        verdicts = service.drain()
        assert len(verdicts) == 1
        assert verdicts[0].verdict in ("clean", "malware")

    def test_clear_pending_recovers_from_poisoned_prewrapped_batch(self, servable):
        from repro.exceptions import ServingError
        from repro.serving import ScoringRequest

        service = ScoringService(servable, max_batch_size=3)
        good = ScoringRequest(request_id="good", payload=np.zeros(servable.n_features))
        bad = ScoringRequest(request_id="bad",
                             payload=np.full(servable.n_features, np.nan))
        service.submit(good)
        service.submit(bad)                        # trusted fast path: enqueued
        with pytest.raises(ServingError):
            service.drain()                        # flush fails on the offender
        assert service.pending == 2                # batch restored, not dropped
        recovered = service.clear_pending()
        assert [request.request_id for request in recovered] == ["good", "bad"]
        assert service.pending == 0
        service.submit(recovered[0])               # healthy request resubmitted
        assert len(service.drain()) == 1

    def test_invalid_replay_rate_rejected(self, servable, log_requests):
        from repro.exceptions import ServingError

        service = ScoringService(servable)
        with pytest.raises(ServingError):
            replay(service, log_requests, rate_per_s=0.0)
        with pytest.raises(ServingError):
            replay(service, log_requests, rate_per_s=-3.0)
        assert service.pending == 0                # nothing was enqueued

    def test_paced_replay_honours_flush_deadline(self, servable, context):
        # At 10 req/s (~100 ms gaps) with a 5 ms latency SLO, the pacing
        # loop must wake at the batcher deadline rather than sleeping the
        # whole inter-arrival gap with requests stuck in the queue.
        generator = LoadGenerator(context, mix=TrafficMix(1.0, 0.0, 0.0), seed=17)
        requests = generator.generate(5)
        service = ScoringService(servable, max_batch_size=64, max_delay_ms=5.0)
        verdicts = replay(service, requests, rate_per_s=10.0, seed=17)
        assert len(verdicts) == len(requests)
        report = ThroughputReport.from_verdicts(verdicts, elapsed_s=1.0)
        assert report.max_ms < 60.0                # ~100 ms without the fix

    def test_paced_replay_times_latency_from_the_scheduled_arrival(
            self, servable, context, log_requests):
        # The first flush stalls 100 ms; the requests that fall due meanwhile
        # must carry that schedule lag in their latency, not be timed from
        # the late submit (coordinated omission).
        from repro.reliability import FaultPlan, FaultSpec

        plan = FaultPlan(specs=(FaultSpec(site="service.flush", action="delay",
                                          delay_ms=100.0),))
        service = ScoringService(servable, max_batch_size=1,
                                 injector=plan.injector())
        requests = log_requests[:5]
        due_s = LoadGenerator(context, seed=3).arrival_times(len(requests), 1000.0)
        verdicts = replay(service, requests, rate_per_s=1000.0, seed=3)
        latency_ms = {v.request_id: v.latency_ms for v in verdicts}
        stall_ends_s = due_s[0] + 0.100
        assert due_s[1] < stall_ends_s
        for request, due in zip(requests[1:], due_s[1:]):
            lag_ms = (stall_ends_s - due) * 1000.0
            assert latency_ms[request.request_id] >= lag_ms - 0.5

    def test_replay_rate_matches_generator_arrival_times(self, servable, context):
        from repro.serving.loadgen import _poisson_offsets

        generator = LoadGenerator(context, seed=23)
        np.testing.assert_array_equal(generator.arrival_times(7, 500.0),
                                      _poisson_offsets(7, 500.0, seed=23))


class TestMicroBatchedPath:
    def test_submit_drain_equals_score_many(self, servable, log_requests):
        service = ScoringService(servable, max_batch_size=8)
        collected = []
        for request in log_requests:
            collected.extend(service.submit(request))
        collected.extend(service.drain())
        assert len(collected) == len(log_requests)
        assert service.n_batches >= 2          # 20 requests, batch size 8
        reference = ScoringService(servable).score_many(log_requests)
        by_id = {v.request_id: v for v in collected}
        for expected in reference:
            assert by_id[expected.request_id].label == expected.label

    def test_replay_returns_one_verdict_per_request(self, servable, context):
        generator = LoadGenerator(context, mix=TrafficMix(0.4, 0.4, 0.2), seed=13)
        requests = generator.generate(15)
        service = ScoringService(servable, max_batch_size=4)
        verdicts = replay(service, requests)
        assert sorted(v.request_id for v in verdicts) == \
               sorted(r.request_id for r in requests)
        kinds = {v.request_id.split("-")[0] for v in verdicts}
        assert "adv" in kinds                  # adversarial traffic was served

    def test_latency_tracker_accumulates(self, servable, log_requests):
        # Every verdict carries its latency; the report reads them.
        verdicts = ScoringService(servable).score_many(log_requests)
        report = ThroughputReport.from_verdicts(verdicts, elapsed_s=1.0)
        assert report.n_requests == len(log_requests)
        assert report.p95_ms >= report.p50_ms >= 0.0


class TestDefendedEndpoints:
    @pytest.fixture(scope="class")
    def squeezed(self, servable, context):
        return FeatureSqueezingDefense().fit(servable.model.network,
                                             context.corpus.validation)

    def test_squeezing_endpoint_matches_detector(self, servable, context,
                                                 squeezed, log_requests):
        service = ScoringService(servable, detector=squeezed)
        logs = [request.payload for request in log_requests]
        features = servable.pipeline.transform(logs)
        expected = squeezed.predict(features)
        verdicts = service.score_many(logs)
        assert [v.label for v in verdicts] == list(expected)
        assert all(v.defense == "feature_squeezing" for v in verdicts)

    def test_defended_and_undefended_endpoints_coexist(self, servable, context,
                                                       squeezed):
        bare = ScoringService(servable)
        defended = ScoringService(servable, detector=squeezed)
        adversarial = context.greybox_adversarial(theta=0.1, gamma=0.02)
        row = adversarial.features[0]
        bare_verdict = bare.score(row)
        defended_verdict = defended.score(row)
        assert bare_verdict.model_version == defended_verdict.model_version
        assert bare_verdict.defense is None
        assert defended_verdict.defense == "feature_squeezing"

    def test_ensemble_endpoint(self, servable, context, squeezed, log_requests):
        members = [ModelBackedDetector(servable.model, name="base"), squeezed]
        ensemble = EnsembleDefense(voting="average").fit(members)
        service = ScoringService(servable, detector=ensemble)
        logs = [request.payload for request in log_requests[:8]]
        features = servable.pipeline.transform(logs)
        expected = ensemble.predict(features)
        verdicts = service.score_many(logs)
        assert [v.label for v in verdicts] == list(expected)
