"""Tests for the multi-process serving fleet (repro.parallel.fleet)."""

import pytest

from repro.exceptions import ParallelError
from repro.parallel import WorkerFleet
from repro.serving import LoadGenerator, ModelRegistry, ScoringService, TrafficMix
from repro.serving.service import ScoringRequest


@pytest.fixture(scope="module")
def tiny_servable(tiny_context):
    return ModelRegistry().get("target", context=tiny_context)


@pytest.fixture(scope="module")
def malware_rows(tiny_context):
    return tiny_context.attack_malware.features[:32]


class TestFleetReplay:
    def test_verdicts_match_single_service(self, tiny_context, tiny_servable,
                                           malware_rows):
        single = ScoringService(tiny_servable)
        baseline = single.score_many(list(malware_rows))
        fleet = WorkerFleet(n_workers=2, context=tiny_context,
                            max_batch_size=8)
        verdicts, report = fleet.score_stream(list(malware_rows))
        assert len(verdicts) == len(baseline)
        # Every replica serves the same versioned bundle: probabilities,
        # labels and provenance are identical — only latency differs.
        for ours, theirs in zip(verdicts, baseline):
            assert ours.malware_probability == theirs.malware_probability
            assert ours.label == theirs.label
            assert ours.model_version == theirs.model_version
        assert report.n_workers == 2
        assert report.throughput.n_requests == len(malware_rows)

    def test_spawn_replicas_serve_the_dispatchers_bundle(self):
        # Replicas receive the dispatcher's built servable: a spawn replica
        # serves the float32 bundle instead of rebuilding one under its own
        # (float64) engine dtype.
        import multiprocessing

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        from repro.config import TINY_PROFILE
        from repro.experiments.context import ExperimentContext
        from repro.nn.engine import use_dtype

        with use_dtype("float32"):
            context = ExperimentContext(scale=TINY_PROFILE, seed=123)
            rows = list(context.attack_malware.features[:8])
            servable = ModelRegistry().get("target", context=context)
            baseline = ScoringService(servable).score_many(rows)
            fleet = WorkerFleet(n_workers=2, context=context,
                                start_method="spawn", max_batch_size=4)
            verdicts, report = fleet.score_stream(rows)
        assert report.start_method == "spawn"
        assert [v.model_version for v in verdicts] == \
               [v.model_version for v in baseline]
        assert [v.malware_probability for v in verdicts] == \
               [v.malware_probability for v in baseline]

    def test_merge_is_submission_ordered(self, tiny_context, malware_rows):
        requests = [ScoringRequest(request_id=f"row-{index:04d}", payload=row)
                    for index, row in enumerate(malware_rows)]
        fleet = WorkerFleet(n_workers=2, context=tiny_context, max_batch_size=4)
        verdicts, _ = fleet.score_stream(requests)
        assert [verdict.request_id for verdict in verdicts] == \
               [request.request_id for request in requests]

    def test_raw_payload_ids_are_unique_across_workers(self, tiny_context,
                                                       malware_rows):
        fleet = WorkerFleet(n_workers=2, context=tiny_context, max_batch_size=4)
        verdicts, _ = fleet.score_stream(list(malware_rows[:10]))
        ids = [verdict.request_id for verdict in verdicts]
        assert len(set(ids)) == len(ids)

    def test_per_worker_stats_cover_every_request(self, tiny_context,
                                                  malware_rows):
        fleet = WorkerFleet(n_workers=2, context=tiny_context, max_batch_size=4)
        verdicts, report = fleet.score_stream(list(malware_rows))
        assert sum(worker["n_requests"] for worker in report.per_worker) == \
               len(verdicts)
        assert all(worker["n_batches"] >= 1 or worker["n_requests"] == 0
                   for worker in report.per_worker)
        assert report.throughput.p99_ms >= report.throughput.p50_ms
        payload = report.as_dict()
        assert payload["n_workers"] == 2
        assert "fleet: 2 workers" in report.render()

    def test_mixed_traffic_stream(self, tiny_context):
        generator = LoadGenerator(tiny_context,
                                  mix=TrafficMix(clean=0.5, malware=0.4,
                                                 adversarial=0.1),
                                  seed=5)
        requests = generator.generate(24)
        fleet = WorkerFleet(n_workers=2, context=tiny_context, max_batch_size=8)
        verdicts, _ = fleet.score_stream(requests)
        assert [v.request_id for v in verdicts] == [r.request_id for r in requests]

    def test_empty_stream_short_circuits(self, tiny_context):
        fleet = WorkerFleet(n_workers=2, context=tiny_context)
        verdicts, report = fleet.score_stream([])
        assert verdicts == []
        assert report.throughput.n_requests == 0

    def test_fleet_is_restartable(self, tiny_context, malware_rows):
        fleet = WorkerFleet(n_workers=2, context=tiny_context, max_batch_size=4)
        first, _ = fleet.score_stream(list(malware_rows[:6]))
        second, _ = fleet.score_stream(list(malware_rows[:6]))
        assert [v.malware_probability for v in first] == \
               [v.malware_probability for v in second]

    def test_paced_replay_completes(self, tiny_context, malware_rows):
        fleet = WorkerFleet(n_workers=2, context=tiny_context, max_batch_size=4,
                            max_delay_ms=1.0)
        verdicts, report = fleet.score_stream(list(malware_rows[:8]),
                                              rate_per_s=2000.0, seed=3)
        assert len(verdicts) == 8
        assert report.throughput.n_requests == 8

    def test_close_is_idempotent(self, tiny_context):
        fleet = WorkerFleet(n_workers=2, context=tiny_context)
        fleet.close()
        with fleet:
            pass
        fleet.close()

    def test_close_releases_processes_and_queues(self, tiny_context):
        fleet = WorkerFleet(n_workers=2, context=tiny_context)
        fleet.start()
        processes = list(fleet._processes.values())
        fleet.close()
        assert fleet._processes == {}
        assert fleet._task_queue is None and fleet._result_queue is None
        assert all(not process.is_alive() for process in processes)

    def test_close_returns_within_bound_after_worker_death(self, tiny_context):
        import time

        # Regression: a replica that died without draining its queues used
        # to leave close() joining forever on the feeder thread.  close()
        # must return within its grace budget and leak nothing.
        fleet = WorkerFleet(n_workers=2, context=tiny_context)
        fleet.start()
        victim = next(iter(fleet._processes.values()))
        victim.kill()
        victim.join(timeout=5.0)
        started = time.monotonic()
        fleet.close(grace_s=5.0)
        assert time.monotonic() - started < 10.0
        assert fleet._processes == {}
        assert fleet._task_queue is None and fleet._result_queue is None
        # The fleet is restartable after the forced teardown.
        verdicts, _ = fleet.score_stream([ScoringRequest(
            request_id="after-close",
            payload=tiny_context.attack_malware.features[0])])
        assert len(verdicts) == 1


class TestFleetConfig:
    def test_invalid_worker_count_rejected(self, tiny_context):
        with pytest.raises(ParallelError):
            WorkerFleet(n_workers=-2, context=tiny_context)

    @pytest.mark.parametrize("setting", [{"threshold": 1.5},
                                         {"max_batch_size": 0},
                                         {"max_delay_ms": -1.0}])
    def test_invalid_service_settings_rejected_at_construction(
            self, tiny_context, setting):
        # Rejected before any replica starts, not as a replica's startup
        # failure once the fleet runs.
        with pytest.raises(ParallelError):
            WorkerFleet(n_workers=2, context=tiny_context, **setting)

    def test_defended_fleet_matches_defended_service(self, tiny_context,
                                                     malware_rows):
        from repro.scenarios.registry import build_defense

        detector = build_defense("feature_squeezing", tiny_context)
        servable = ModelRegistry().get("target", context=tiny_context)
        single = ScoringService(servable, detector=detector)
        baseline = single.score_many(list(malware_rows[:12]))
        fleet = WorkerFleet(n_workers=2, defense="feature_squeezing",
                            context=tiny_context, max_batch_size=4)
        verdicts, _ = fleet.score_stream(list(malware_rows[:12]))
        assert [v.label for v in verdicts] == [v.label for v in baseline]
        assert all(v.defense == baseline[0].defense for v in verdicts)
