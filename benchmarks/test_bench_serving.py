"""Serving-layer benchmarks: micro-batched vs single-request scoring.

Measures the scoring service on the ``small`` profile (the CI benchmark
scale) over a mixed clean/malware stream:

* **single-request path** — one fused ``predict_proba`` call per request
  (batch of one), the cost an unbatched online endpoint pays;
* **micro-batched path** — requests accumulated by the
  :class:`~repro.serving.batcher.MicroBatcher` and scored in fused batches.

Two request shapes are measured: pre-featurised vectors (the pure engine
scoring path, where batching shines) and raw API logs (which add the
per-log featurisation cost to both paths).  Measured throughput and
latency quantiles are recorded in ``BENCH_serving.json`` at the repository
root; the batched/single speedup on the featurised path is asserted ≥ 5×.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import BENCH_SEED, BenchJson, abba_best

from repro.serving import (LoadGenerator, ModelRegistry, ScoringService,
                           ThroughputReport, TrafficMix)

BENCH = BenchJson("serving")

#: Requests per measured replay (large enough for stable quantiles).
N_REQUESTS = 512

#: Fused-batch size for the micro-batched path.
BATCH_SIZE = 128

#: Seconds of batched forwards run before any replay is timed.  On a
#: 2-vCPU VM, threaded OpenBLAS ran 128-row forwards ~30x slower for
#: roughly the first second of such work in a process (sleeping does not
#: end that window), which made this file's gates fail when run alone.
BLAS_WARMUP_S = 1.5


@pytest.fixture(scope="module")
def servable(bench_context):
    """The served target bundle (warm-started from the context's cache)."""
    servable = ModelRegistry().get("target", context=bench_context)
    rows = np.zeros((BATCH_SIZE, servable.n_features))
    deadline = time.perf_counter() + BLAS_WARMUP_S
    while time.perf_counter() < deadline:
        servable.model.predict_proba(rows)
    return servable


@pytest.fixture(scope="module")
def log_requests(bench_context):
    """A deterministic clean/malware log stream (full featurisation path)."""
    generator = LoadGenerator(bench_context, mix=TrafficMix(0.5, 0.5, 0.0),
                              seed=BENCH_SEED)
    return generator.generate(N_REQUESTS)


@pytest.fixture(scope="module")
def feature_requests(servable, log_requests):
    """The same stream pre-featurised (the pure engine scoring path)."""
    from repro.serving import ScoringRequest

    rows = servable.pipeline.transform([request.payload
                                        for request in log_requests])
    return [ScoringRequest(request_id=log_requests[index].request_id,
                           payload=rows[index])
            for index in range(rows.shape[0])]


def _replay_single(servable, requests):
    """One single-request replay: (elapsed_s, verdicts, report)."""
    service = ScoringService(servable)
    start = time.perf_counter()
    verdicts = [service.score(request) for request in requests]
    elapsed = time.perf_counter() - start
    return elapsed, verdicts, ThroughputReport.from_verdicts(verdicts, elapsed)


def _replay_batched(servable, requests):
    """One micro-batched replay: (elapsed_s, verdicts, report)."""
    service = ScoringService(servable, max_batch_size=BATCH_SIZE)
    start = time.perf_counter()
    verdicts = []
    for request in requests:
        verdicts.extend(service.submit(request))
    verdicts.extend(service.drain())
    elapsed = time.perf_counter() - start
    return elapsed, verdicts, ThroughputReport.from_verdicts(verdicts, elapsed)


def test_bench_batched_vs_single_feature_path(servable, feature_requests):
    """Micro-batching wins ≥ 5× on the pure scoring path (small profile)."""
    (single_s, single_verdicts, single_report), \
        (batched_s, batched_verdicts, batched_report) = abba_best(
            lambda: _replay_single(servable, feature_requests),
            lambda: _replay_batched(servable, feature_requests))
    assert [v.label for v in batched_verdicts] == \
           [v.label for v in single_verdicts]

    speedup = single_s / batched_s
    BENCH.record("serving_feature_path",
                 n_requests=len(feature_requests), batch_size=BATCH_SIZE,
                 single_rps=single_report.requests_per_s,
                 batched_rps=batched_report.requests_per_s,
                 single_p50_ms=single_report.p50_ms,
                 single_p95_ms=single_report.p95_ms,
                 batched_p50_ms=batched_report.p50_ms,
                 batched_p95_ms=batched_report.p95_ms,
                 speedup=speedup)
    print(f"\nfeature path: single {single_report.requests_per_s:,.0f} req/s, "
          f"batched {batched_report.requests_per_s:,.0f} req/s, "
          f"speedup {speedup:.1f}x")
    # Acceptance: batched throughput >= 5x single-request throughput.
    assert speedup >= 5.0


def test_bench_batched_vs_single_log_path(servable, log_requests):
    """End-to-end log scoring also gains from batching (featurisation rides
    along in both paths, so the ratio is smaller than the pure engine win)."""
    (single_s, _, single_report), (batched_s, _, batched_report) = abba_best(
        lambda: _replay_single(servable, log_requests),
        lambda: _replay_batched(servable, log_requests))
    speedup = single_s / batched_s
    BENCH.record("serving_log_path",
                 n_requests=len(log_requests), batch_size=BATCH_SIZE,
                 single_rps=single_report.requests_per_s,
                 batched_rps=batched_report.requests_per_s,
                 batched_p50_ms=batched_report.p50_ms,
                 batched_p95_ms=batched_report.p95_ms,
                 speedup=speedup)
    print(f"\nlog path: single {single_report.requests_per_s:,.0f} req/s, "
          f"batched {batched_report.requests_per_s:,.0f} req/s, "
          f"speedup {speedup:.1f}x")
    assert speedup > 1.05


def test_bench_serving_verdicts_match_direct_path(servable, log_requests):
    """Service verdicts are identical to pipeline+predict at bench scale."""
    logs = [request.payload for request in log_requests]
    direct = servable.model.predict(servable.pipeline.transform(logs))
    service = ScoringService(servable, max_batch_size=BATCH_SIZE)
    verdicts = []
    for request in log_requests:
        verdicts.extend(service.submit(request))
    verdicts.extend(service.drain())
    by_id = {verdict.request_id: verdict.label for verdict in verdicts}
    observed = [by_id[request.request_id] for request in log_requests]
    mismatches = int(np.sum(np.asarray(observed) != direct))
    BENCH.record("serving_verdict_parity",
                 n_requests=len(log_requests), mismatches=mismatches)
    assert mismatches == 0
