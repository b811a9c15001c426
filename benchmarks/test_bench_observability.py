"""Observability overhead benchmark: instrumented vs plain serving.

Replays the same pre-featurised request stream through the micro-batched
scoring path with instrumentation off, metrics-only and metrics+sink, and
replays a raw request stream through a two-worker :class:`WorkerFleet`
plain, fully traced and trace-sampled — recording every throughput ratio
in ``BENCH_observability.json``.

Measurement discipline (this box is a noisy shared container; naive
back-to-back timing swings ±20%):

* **ABBA blocks** — each block runs the variants in a palindromic order
  (``plain, armed, …, armed, plain``), so any linear machine-level drift
  (CPU frequency shifts, a co-tenant ramping up) contributes equally to
  both sides of the block ratio and cancels.
* **min of block ratios** — noise only ever *adds* time, so the smallest
  armed/plain ratio across blocks is the least-contaminated estimate; a
  true regression floors every block above the gate, while a single
  stomped-on block cannot fail the build.
* **CPU time for the single-process gate** — ``time.process_time`` is
  immune to scheduler preemption (observed spread ~1.5% vs ~20% for
  wall clock).  The fleet gate must use wall clock (the work happens in
  child processes), which is what the blocks and the min are for.

Acceptance: armed instrumentation and *production* tracing (head-based
sampling, see :class:`~repro.obs.spans.TraceStamper`) each keep ≥ 95% of
the plain path's throughput, and the verdict stream is byte-identical —
the observability plane never touches the data plane.  Full-fidelity
tracing (every request, four spans plus cross-process event transport)
costs tens of microseconds per request and is recorded honestly as the
debugging/chaos-soak mode, not gated: on a ~100 µs/request fleet path it
can never fit a 5% budget, which is exactly why the sampling knob exists.
"""

from __future__ import annotations

import time

import pytest

from conftest import BENCH_SEED, BenchJson

from repro.obs import Instrumentation, ListSink, SpanCollector
from repro.parallel import WorkerFleet
from repro.serving import (LoadGenerator, ModelRegistry, ScoringService,
                           ThroughputReport, TrafficMix)

BENCH = BenchJson("observability")

#: Requests per measured single-process replay.
N_REQUESTS = 4096

#: Requests per measured fleet replay (wall-clock ~150 ms — long enough
#: that per-stream fixed costs do not dominate the ratio).
N_FLEET = 1024

#: Fused-batch size for the micro-batched path.
BATCH_SIZE = 128

#: ABBA blocks per gate.
BLOCKS = 4

#: Production trace-sampling rate used for the gated tracing variant
#: (1-in-32 keeps the true per-trace cost well under the block-ratio
#: noise floor of this shared box, ~±4%).
SAMPLE_EVERY = 32

#: Maximum tolerated throughput cost of arming instrumentation.
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def servable(bench_context):
    """The served target bundle (warm-started from the context's cache)."""
    return ModelRegistry().get("target", context=bench_context)


@pytest.fixture(scope="module")
def feature_requests(bench_context, servable):
    """A deterministic pre-featurised stream (the pure batched path)."""
    from repro.serving import ScoringRequest

    generator = LoadGenerator(bench_context, mix=TrafficMix(0.5, 0.5, 0.0),
                              seed=BENCH_SEED)
    log_requests = generator.generate(N_REQUESTS)
    rows = servable.pipeline.transform([request.payload
                                        for request in log_requests])
    return [ScoringRequest(request_id=log_requests[index].request_id,
                           payload=rows[index])
            for index in range(rows.shape[0])]


@pytest.fixture(scope="module")
def fleet_rows(feature_requests):
    """Raw feature rows for the fleet replays (ids auto-assigned in order,
    so every variant scores the identical stream)."""
    return [request.payload for request in feature_requests[:N_FLEET]]


def _replay_once(servable, requests, make_obs):
    """One micro-batched replay: (cpu_s, wall_s, verdicts, report, obs)."""
    obs = make_obs()
    service = ScoringService(servable, max_batch_size=BATCH_SIZE,
                             instrumentation=obs)
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    verdicts = []
    for request in requests:
        verdicts.extend(service.submit(request))
    verdicts.extend(service.drain())
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    return cpu, verdicts, ThroughputReport.from_verdicts(verdicts, wall), obs


def _abba_blocks(run_plain, armed, blocks: int = BLOCKS):
    """Palindromic interleave: per block, plain brackets the armed runs.

    Returns ``(ratios, last)`` where ``ratios[name]`` holds one armed/plain
    elapsed-time ratio per block (drift-cancelling: each variant's two runs
    in a block sit symmetrically around the block's midpoint) and ``last``
    keeps each variant's most recent full result for identity checks.
    """
    names = list(armed)
    schedule = names + names[::-1]          # p a b | b a p  (p = bracket)
    ratios = {name: [] for name in names}
    last = {}
    last["plain"] = run_plain()             # warm-up: interpreter + caches
    for name in names:
        last[name] = armed[name]()
    for _ in range(blocks):
        elapsed = {name: 0.0 for name in names}
        plain_elapsed = 0.0
        result = run_plain()
        plain_elapsed += result[0]
        last["plain"] = result
        for name in schedule:
            result = armed[name]()
            elapsed[name] += result[0]
            last[name] = result
        result = run_plain()
        plain_elapsed += result[0]
        last["plain"] = result
        for name in names:
            # Two armed runs over two plain runs: the block ratio.
            ratios[name].append(elapsed[name] / plain_elapsed)
    return ratios, last


def _min_overhead(ratios) -> float:
    """The least-contaminated overhead estimate: min block ratio − 1."""
    return min(ratios) - 1.0


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return (ordered[mid] if len(ordered) % 2
            else (ordered[mid - 1] + ordered[mid]) / 2.0)


def _decisions(verdicts):
    """Verdict payloads minus latency_ms (a measurement, not a decision)."""
    return [{key: value for key, value in verdict.as_dict().items()
             if key != "latency_ms"} for verdict in verdicts]


def test_bench_instrumentation_overhead(servable, feature_requests):
    """Armed instrumentation costs ≤ 5% throughput on the batched path."""
    ratios, last = _abba_blocks(
        lambda: _replay_once(servable, feature_requests, lambda: None),
        {
            "metrics": lambda: _replay_once(servable, feature_requests,
                                            Instrumentation),
            "sink": lambda: _replay_once(
                servable, feature_requests,
                lambda: Instrumentation(sink=ListSink(max_events=8192))),
        })
    _, plain_verdicts, plain_report, _ = last["plain"]
    _, metrics_verdicts, _, _ = last["metrics"]
    _, sink_verdicts, _, _ = last["sink"]

    # Instrumentation observes the data plane without touching it: every
    # decision field must be byte-identical to the plain run.
    plain_payloads = _decisions(plain_verdicts)
    assert _decisions(metrics_verdicts) == plain_payloads
    assert _decisions(sink_verdicts) == plain_payloads

    metrics_overhead = _min_overhead(ratios["metrics"])
    sink_overhead = _min_overhead(ratios["sink"])
    BENCH.record("observability_overhead",
                 n_requests=len(feature_requests), batch_size=BATCH_SIZE,
                 blocks=BLOCKS,
                 plain_rps=plain_report.requests_per_s,
                 metrics_overhead=metrics_overhead,
                 metrics_overhead_median=_median(ratios["metrics"]) - 1.0,
                 sink_overhead=sink_overhead,
                 sink_overhead_median=_median(ratios["sink"]) - 1.0,
                 verdict_mismatches=0)
    print(f"\nplain {plain_report.requests_per_s:,.0f} req/s, "
          f"metrics {metrics_overhead:+.1%} "
          f"(median {_median(ratios['metrics']) - 1.0:+.1%}), "
          f"metrics+sink {sink_overhead:+.1%} "
          f"(median {_median(ratios['sink']) - 1.0:+.1%})")
    assert metrics_overhead <= MAX_OVERHEAD
    assert sink_overhead <= MAX_OVERHEAD


def test_bench_tracing_overhead(bench_context, fleet_rows):
    """Distributed tracing on the fleet: the production sampling mode is
    gated at ≤ 5%; full fidelity is measured and recorded, not gated.

    Tracing exists for the *fleet* (a request's life crosses a process
    boundary there), so that is the path it is priced on.  Each replay is
    one ``score_stream`` over the same raw rows; the fleet respawns its
    replicas per stream, identically for every variant.
    """

    def make_fleet(obs, sample_every=1):
        return WorkerFleet(n_workers=2, context=bench_context,
                           max_batch_size=BATCH_SIZE,
                           instrumentation=obs,
                           trace_sample_every=sample_every)

    def replay(fleet):
        if fleet.instrumentation is not None:
            # A fresh sink per replay: span-tree assertions must see one
            # stream's events, not an accumulation across blocks.
            fleet.instrumentation = Instrumentation(
                sink=ListSink(max_events=8 * N_FLEET))
        start = time.perf_counter()
        verdicts, report = fleet.score_stream(list(fleet_rows))
        return time.perf_counter() - start, verdicts, report

    plain_fleet = make_fleet(None)
    traced_fleet = make_fleet(Instrumentation(sink=ListSink()))
    sampled_fleet = make_fleet(Instrumentation(sink=ListSink()),
                               sample_every=SAMPLE_EVERY)
    try:
        ratios, last = _abba_blocks(
            lambda: replay(plain_fleet),
            {
                "traced": lambda: replay(traced_fleet),
                "sampled": lambda: replay(sampled_fleet),
            }, blocks=6)
    finally:
        for fleet in (plain_fleet, traced_fleet, sampled_fleet):
            fleet.close()

    _, plain_verdicts, _ = last["plain"]
    _, traced_verdicts, traced_report = last["traced"]
    _, sampled_verdicts, sampled_report = last["sampled"]

    # Tracing observes the data plane without touching it.
    plain_payloads = _decisions(plain_verdicts)
    assert _decisions(traced_verdicts) == plain_payloads
    assert _decisions(sampled_verdicts) == plain_payloads

    # Full fidelity traced every request completely...
    collector = SpanCollector()
    collector.add_snapshot(traced_report.obs)
    trees = collector.trees()
    assert len(trees) == N_FLEET
    assert collector.n_orphans == 0 and collector.n_duplicates == 0
    # ...and the sampled mode traced exactly the 1-in-N head-based subset,
    # each still a complete rooted tree.
    collector = SpanCollector()
    collector.add_snapshot(sampled_report.obs)
    sampled_trees = collector.trees()
    assert len(sampled_trees) == N_FLEET // SAMPLE_EVERY
    assert collector.n_orphans == 0
    assert all(tree.complete for tree in sampled_trees.values())

    traced_overhead = _min_overhead(ratios["traced"])
    sampled_overhead = _min_overhead(ratios["sampled"])
    BENCH.record("tracing_overhead",
                 n_requests=N_FLEET, n_workers=2, batch_size=BATCH_SIZE,
                 blocks=len(ratios["sampled"]), sample_every=SAMPLE_EVERY,
                 sampled_overhead=sampled_overhead,
                 sampled_overhead_median=_median(ratios["sampled"]) - 1.0,
                 full_fidelity_overhead=traced_overhead,
                 full_fidelity_overhead_median=_median(ratios["traced"]) - 1.0,
                 n_traces_full=N_FLEET,
                 n_traces_sampled=len(sampled_trees),
                 n_orphans=0, verdict_mismatches=0)
    print(f"\nfleet tracing: sampled 1/{SAMPLE_EVERY} {sampled_overhead:+.1%} "
          f"(median {_median(ratios['sampled']) - 1.0:+.1%}), "
          f"full fidelity {traced_overhead:+.1%} "
          f"(median {_median(ratios['traced']) - 1.0:+.1%}), "
          f"{len(trees)} + {len(sampled_trees)} complete traces")
    assert sampled_overhead <= MAX_OVERHEAD


def test_bench_off_by_default_costs_nothing_extra(servable, feature_requests):
    """The uninstrumented service carries only a dormant `is None` check;
    two plain replays bound the measurement noise floor for the table."""
    ratios, last = _abba_blocks(
        lambda: _replay_once(servable, feature_requests, lambda: None),
        {"plain_again": lambda: _replay_once(servable, feature_requests,
                                             lambda: None)},
        blocks=2)
    noise = abs(_min_overhead(ratios["plain_again"]))
    BENCH.record("observability_noise_floor",
                 plain_rps=last["plain"][2].requests_per_s,
                 run_to_run_noise=noise)
    print(f"\nrun-to-run noise floor: {noise:.1%}")
