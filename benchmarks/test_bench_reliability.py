"""Chaos soak benchmark: the serving stack under a deterministic fault plan.

Replays one request stream through a 2-replica :class:`WorkerFleet` twice —
fault-free, then under a :class:`~repro.reliability.faults.FaultPlan`
injecting a replica crash, a flush exception and a latency spike — and
asserts the dependability contract exactly:

* the chaos run completes the full stream with **zero lost** and **zero
  duplicated** verdicts;
* every verdict is scored (no shed, no error), labels and provenance are
  byte-identical to the fault-free run, and probabilities are
  byte-identical for every request that was *not* redispatched — a
  redispatched request is rescored inside a different fused batch, and
  BLAS accumulation order makes float64 matmul results batch-composition
  dependent at the last ulp, so those few carry a bounded (< 1e-12)
  rescoring delta rather than byte equality;
* the :class:`~repro.reliability.report.ReliabilityReport` counters match
  the plan exactly (1 restart, 1 flush retry, the planned faults fired).

Two companion soaks cover the remaining fault classes: a circuit-breaker
load-shed scenario on a single service (deterministic shed count) and a
stale cache-lock sweep (a killed lock holder must not stall the next
builder).  Measured recovery overhead (p99 delta, wall-clock delta, sweep
latency) lands in ``BENCH_reliability.json`` at the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from conftest import BENCH_SEED, BenchJson

from repro.parallel import WorkerFleet
from repro.reliability import (
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
)
from repro.serving import LoadGenerator, ModelRegistry, ScoringService, TrafficMix

BENCH = BenchJson("reliability")

#: Requests per soak replay (large enough that both replicas stay busy).
N_REQUESTS = 256

#: Per-replica fused-batch size.
BATCH_SIZE = 16


@pytest.fixture(scope="module")
def servable(bench_context, bench_cache):
    return ModelRegistry(cache=bench_cache).get("target", context=bench_context)


@pytest.fixture(scope="module")
def feature_requests(servable, bench_context):
    """A deterministic pre-featurised mixed stream (pure scoring path)."""
    from repro.serving import ScoringRequest

    generator = LoadGenerator(bench_context, mix=TrafficMix(0.5, 0.5, 0.0),
                              seed=BENCH_SEED)
    logs = generator.generate(N_REQUESTS)
    rows = servable.pipeline.transform([request.payload for request in logs])
    return [ScoringRequest(request_id=logs[index].request_id,
                           payload=rows[index])
            for index in range(rows.shape[0])]


def _chaos_plan() -> FaultPlan:
    """One replica crash + one flush exception + one latency spike."""
    return FaultPlan(specs=(
        FaultSpec(site="fleet.dispatch", action="crash", at=3,
                  where={"worker": 1}),
        FaultSpec(site="service.flush", action="error", at=1,
                  where={"worker": 0}),
        FaultSpec(site="service.flush", action="delay", at=2, delay_ms=25.0,
                  where={"worker": 0}),
    ))


def test_bench_chaos_soak_fleet(bench_context, feature_requests):
    """Fleet under crash + flush-error + latency-spike: exact recovery."""
    clean_fleet = WorkerFleet(n_workers=2, context=bench_context,
                              max_batch_size=BATCH_SIZE)
    clean_verdicts, clean_report = clean_fleet.score_stream(
        list(feature_requests))

    chaos_fleet = WorkerFleet(
        n_workers=2, context=bench_context, max_batch_size=BATCH_SIZE,
        restart_budget=2, fault_plan=_chaos_plan(),
        retry_policy=RetryPolicy(max_retries=2, base_delay_s=0.01,
                                 seed=BENCH_SEED))
    chaos_verdicts, chaos_report = chaos_fleet.score_stream(
        list(feature_requests))

    # Zero lost, zero duplicated: one verdict per submitted request, in
    # submission order.
    submitted = [request.request_id for request in feature_requests]
    assert [v.request_id for v in chaos_verdicts] == submitted
    assert [v.request_id for v in clean_verdicts] == submitted
    lost = len(set(submitted) - {v.request_id for v in chaos_verdicts})
    # Every verdict was actually scored; labels and provenance are
    # byte-identical to the fault-free float64 run.
    assert all(v.status == "ok" for v in chaos_verdicts)
    assert [v.label for v in chaos_verdicts] == \
           [v.label for v in clean_verdicts]
    assert [v.verdict for v in chaos_verdicts] == \
           [v.verdict for v in clean_verdicts]
    assert [v.model_version for v in chaos_verdicts] == \
           [v.model_version for v in clean_verdicts]
    # Probabilities are byte-identical except for redispatched requests,
    # which were rescored inside a different fused batch (float64 matmul is
    # batch-composition dependent at the last ulp); those deltas stay
    # bounded at rounding noise and can never flip a label (asserted above).
    prob_deltas = [abs(ours.malware_probability - theirs.malware_probability)
                   for ours, theirs in zip(chaos_verdicts, clean_verdicts)]
    inexact = sum(delta != 0.0 for delta in prob_deltas)
    reliability = chaos_report.reliability
    assert inexact <= reliability.redispatches
    assert max(prob_deltas) < 1e-12

    # The counters must match the plan exactly — the dependability claim.
    assert reliability.duplicates == 0
    assert reliability.restarts == 1
    assert reliability.flush_retries == 1
    assert reliability.redispatches >= 1
    assert reliability.faults == {"fleet.dispatch": 1, "service.flush": 2}
    assert clean_report.reliability.empty()

    p99_delta = chaos_report.throughput.p99_ms - clean_report.throughput.p99_ms
    BENCH.record("reliability_chaos_fleet",
                 n_requests=N_REQUESTS, n_workers=2, batch_size=BATCH_SIZE,
                 restarts=reliability.restarts,
                 redispatches=reliability.redispatches,
                 flush_retries=reliability.flush_retries,
                 duplicates=reliability.duplicates, lost=lost,
                 faults_fired=sum(reliability.faults.values()),
                 inexact_rescored=inexact,
                 # Scientific notation: the interesting magnitude (~1e-17) would
                 # vanish under the helper's 6-decimal-place rounding.
                 max_prob_delta=f"{max(prob_deltas):.3e}",
                 clean_rps=clean_report.throughput.requests_per_s,
                 chaos_rps=chaos_report.throughput.requests_per_s,
                 clean_p99_ms=clean_report.throughput.p99_ms,
                 chaos_p99_ms=chaos_report.throughput.p99_ms,
                 p99_delta_ms=p99_delta)
    print(f"\nchaos fleet: {chaos_report.throughput.requests_per_s:,.0f} req/s "
          f"(clean {clean_report.throughput.requests_per_s:,.0f}), "
          f"p99 delta {p99_delta:+.3f}ms, "
          f"{reliability.restarts} restart / "
          f"{reliability.redispatches} redispatches / 0 lost / 0 dup")


def test_bench_breaker_sheds_deterministically(servable, feature_requests):
    """An open circuit breaker sheds load instead of queueing past the SLO."""
    breaker = CircuitBreaker(failure_threshold=1, reset_after_s=3600.0)
    plan = FaultPlan(specs=(
        FaultSpec(site="service.flush", action="error", at=1),))
    service = ScoringService(servable, max_batch_size=BATCH_SIZE,
                             circuit_breaker=breaker,
                             injector=plan.injector())
    start = time.perf_counter()
    verdicts = []
    with pytest.raises(InjectedFault):
        for request in feature_requests:
            verdicts.extend(service.submit(request))
    # The failed flush tripped the breaker: every later submission sheds.
    for request in feature_requests[len(verdicts) + BATCH_SIZE:]:
        verdicts.extend(service.submit(request))
    verdicts.extend(service.drain())
    elapsed = time.perf_counter() - start

    sheds = sum(verdict.status == "shed" for verdict in verdicts)
    scored = sum(verdict.status == "ok" for verdict in verdicts)
    assert sheds == N_REQUESTS - BATCH_SIZE  # all post-trip arrivals
    assert scored == BATCH_SIZE              # the restored batch, drained
    assert service.reliability.sheds == sheds
    assert service.reliability.breaker_trips == 1
    shed_rate = sheds / N_REQUESTS
    BENCH.record("reliability_breaker_shed",
                 n_requests=N_REQUESTS, batch_size=BATCH_SIZE,
                 sheds=sheds, scored=scored, shed_rate=shed_rate,
                 breaker_trips=service.reliability.breaker_trips,
                 elapsed_s=elapsed)
    print(f"\nbreaker shed: {sheds}/{N_REQUESTS} shed "
          f"({shed_rate:.1%}), {scored} scored after drain")


def test_bench_stale_lock_sweep(tmp_path, monkeypatch):
    """A killed lock holder is swept immediately, not waited out."""
    import repro.utils.artifact_cache as artifact_cache_module

    # Force the portable O_EXCL spin path (flock releases with its holder).
    monkeypatch.setattr(artifact_cache_module, "fcntl", None)
    probe = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True)
    dead_pid = int(probe.stdout.strip())

    cache = artifact_cache_module.ArtifactCache(tmp_path, lock_timeout_s=600.0)
    key = cache.key_for("soak", seed=BENCH_SEED)
    lock_path = cache.root / "soak" / f"{key}.lock"
    lock_path.parent.mkdir(parents=True)
    lock_path.write_text(str(dead_pid), encoding="ascii")

    start = time.perf_counter()
    payload = cache.load_or_build(
        "soak", key, lambda: {"seed": BENCH_SEED},
        lambda value, path: (path / "value.json").write_text(
            json.dumps(value), encoding="utf-8"),
        lambda path: json.loads((path / "value.json").read_text(
            encoding="utf-8")))
    sweep_s = time.perf_counter() - start

    assert payload == {"seed": BENCH_SEED}
    assert cache.n_stale_locks_swept == 1
    assert sweep_s < 5.0  # regression bound: used to stall lock_timeout_s
    BENCH.record("reliability_stale_lock_sweep",
                 stale_locks_swept=cache.n_stale_locks_swept,
                 lock_timeout_s=cache.lock_timeout_s,
                 sweep_s=sweep_s)
    print(f"\nstale lock swept in {sweep_s * 1000.0:.1f}ms "
          f"(timeout would have been {cache.lock_timeout_s:.0f}s)")
