"""The four workloads, each measured untraced or traced.

Every workload builds its inputs from the workload seed (the context seed
stays 2019, so the trained models come from the warm artifact cache), sets
up several times to time the warm start, then repeats passes of its job for
the measuring budget and checks every pass's outputs outside the timed
region.  Input generation is never timed.

Untraced runs report the end-to-end metrics of :mod:`perfbench.catalogue`.
Traced runs alternate untraced and traced passes of the same job, so the
tracing overhead is measured against the same process, and report the
per-layer metrics.  Items are the unit each workload's throughput and
latency count (``catalogue.ITEMS``).
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from perfbench import stats
from perfbench.catalogue import JOB_LAYERS, LAYERS, PER_LAYER, TABLE6_ROWS
from perfbench.tracing import SpanRecorder, SpanWindow, items_of, rows_of

SCALE = "small"
CONTEXT_SEED = 2019
DTYPE = "float64"
BATCH = 128
MAX_DELAY_MS = 5.0
N_WORKERS = 2
SETUP_REPEATS = 9

N_LOG_REQUESTS = 2048
#: Open-loop rates, fixed: well under each path's closed-loop saturation on
#: a 2-CPU machine (5-10k requests/s for both, depending on contention), so
#: the queue stays bounded when the machine is slow.
LOG_RATE_PER_S = 1500.0
N_FLEET_REQUESTS = 4096
FLEET_RATE_PER_S = 2500.0
#: Open-loop fleet passes take a quarter of the stream each: stalls of
#: tens of milliseconds hit the fleet's tail often, and many short passes
#: let the median over passes ignore the ones they hit.
N_FLEET_OPEN = N_FLEET_REQUESTS // 4

#: An open-loop pass is invalid when its last sends ran, in the median,
#: more than one batching deadline behind schedule.
LATE_LIMIT_MS = MAX_DELAY_MS

#: Probabilities from differently composed BLAS batches may differ in the
#: last bits; labels must match exactly.
PROBABILITY_TOLERANCE = 1e-12

clock = time.perf_counter


@dataclass
class Settings:
    cache_root: Path
    seed: int
    seconds: float
    trace: bool


@dataclass
class Outcome:
    """What one run measured: metrics, failure counts and a printable log."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    lines: List[str] = field(default_factory=list)
    record: Dict[str, object] = field(default_factory=dict)
    spans: Optional[SpanRecorder] = None

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def say(self, line: str) -> None:
        self.lines.append(line)


# ---------------------------------------------------------------------- #
# Shared helpers
# ---------------------------------------------------------------------- #
def fresh_context(settings: Settings):
    """A new context on the shared artifact cache (a warm start)."""
    from repro.config import get_profile
    from repro.experiments.context import ExperimentContext

    return ExperimentContext(scale=get_profile(SCALE), seed=CONTEXT_SEED,
                             cache=settings.cache_root, dtype=DTYPE)


def ready_servable(context):
    from repro.serving import ModelRegistry

    return ModelRegistry(cache=context.cache).get("target", context=context)


def warm_cache(settings: Settings) -> None:
    """Build every artifact a workload loads (the untimed cold build)."""
    context = fresh_context(settings)
    _ = (context.corpus, context.target_model, context.substitute_model)
    context.greybox_adversarial()
    ready_servable(context)


def passes(budget_s: float, minimum: int) -> Iterator[int]:
    """Pass numbers until ``budget_s`` is spent, at least ``minimum``."""
    deadline = clock() + budget_s
    index = 0
    while index < minimum or clock() < deadline:
        yield index
        index += 1


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _patches():
    """Each layer's public entry points: ``(owner, attribute, span name,
    size callback, note callback)`` per layer."""
    import repro.scenarios.runner as runner
    from repro.attacks.jsma import JsmaAttack
    from repro.features.extraction import CountExtractor
    from repro.features.pipeline import FeaturePipeline
    from repro.nn.network import NeuralNetwork
    from repro.nn.training import Trainer
    from repro.parallel.fleet import WorkerFleet
    from repro.parallel.grid import GridExecutor
    from repro.serving.service import ScoringService
    from repro.utils.artifact_cache import ArtifactCache

    def extracted(args, kwargs, result):
        return float(result.shape[0])

    def present(args, kwargs):
        kind = args[1] if len(args) > 1 else kwargs.get("kind")
        key = args[2] if len(args) > 2 else kwargs.get("key")
        return args[0].has(kind, key)

    return {
        "features": [(FeaturePipeline, "transform", "features.pipeline", None, None),
                     (CountExtractor, "extract_batch", "features.extract",
                      extracted, None),
                     (FeaturePipeline, "transform_counts", "features.transform",
                      None, None)],
        "nn": [(NeuralNetwork, attr, "nn.forward", rows_of, None)
               for attr in ("predict_proba", "predict", "predict_logits")] + [
               (NeuralNetwork, "class_gradients", "nn.class_gradients",
                rows_of, None),
               (Trainer, "fit", "nn.train", None, None)],
        "serving": [(ScoringService, attr, f"serving.{attr}", items_of, None)
                    for attr in ("submit", "poll", "drain")],
        "fleet": [(WorkerFleet, "start", "fleet.start", None, None),
                  (WorkerFleet, "score_stream", "fleet.score_stream", None, None)],
        "attacks": [(JsmaAttack, "run", "attacks.jsma", rows_of, None)],
        "defenses": [(runner, "run_scenario", "defenses.cell", None, None)],
        "grid": [(GridExecutor, "run", "grid.run", None, None)],
        "cache": [(ArtifactCache, "load_or_build", "cache.load", None, present)],
    }


def install(recorder: SpanRecorder, groups: Sequence[str] = LAYERS) -> None:
    """Patch the entry points of ``groups`` (``recorder.restore`` undoes)."""
    table = _patches()
    for group in groups:
        for owner, attr, name, size, note in table.get(group, []):
            recorder.patch(owner, attr, name, size=size, note=note)


def all_layer_metrics() -> Dict[str, float]:
    """Every per-layer metric at zero: a layer a workload never calls."""
    return {metric.name: 0.0 for metric in PER_LAYER}


def timed_setups(settings: Settings, make: Callable, recorder: Optional[SpanRecorder],
                 repeats: int = SETUP_REPEATS):
    """Time ``make(context)`` on fresh contexts; the last result is kept.

    With a recorder the cache layer is traced, giving the warm-start time
    and the hit and miss counts of one setup (medians over the repeats).
    """
    times, cache_s, hits, misses = [], [], [], []
    result = None
    for _ in range(repeats):
        if recorder is not None:
            install(recorder, ("cache",))
            mark = recorder.mark()
        started = clock()
        result = make(fresh_context(settings))
        times.append(clock() - started)
        if recorder is not None:
            recorder.restore()
            window = recorder.window(mark)
            loads = window.select("cache.load", outermost=True)
            cache_s.append(float(window.durations[loads].sum()))
            found = [bool(window.notes[index]) for index in loads]
            hits.append(sum(found))
            misses.append(len(found) - sum(found))
    layer = {}
    if recorder is not None:
        layer = {"cache.warm_start_s": stats.median(cache_s),
                 "cache.hits": stats.median(hits),
                 "cache.misses": stats.median(misses)}
    return times, result, layer


def time_metrics(window: SpanWindow, wall_s: float) -> Dict[str, float]:
    """Per-layer times, counts and coverage of one traced pass."""
    names = window.names
    metrics: Dict[str, float] = {}
    metrics["features.extract_ms"] = window.total("features.extract") * 1e3
    metrics["features.transform_ms"] = window.total("features.transform") * 1e3

    forward = window.select("nn.forward", outermost=True)
    metrics["nn.forward_ms"] = float(window.durations[forward].sum()) * 1e3
    metrics["nn.forward_calls"] = float(forward.size)
    metrics["nn.forward_rows_per_call"] = (float(window.sizes[forward].mean())
                                          if forward.size else 0.0)
    gradients = window.select("nn.class_gradients", outermost=True)
    metrics["nn.class_gradients_ms"] = float(window.durations[gradients].sum()) * 1e3
    metrics["nn.class_gradients_calls"] = float(gradients.size)
    metrics["nn.class_gradients_rows"] = float(window.sizes[gradients].sum())
    training = window.select("nn.train", outermost=True)
    metrics["nn.train_s"] = float(window.durations[training].sum())
    metrics["nn.train_calls"] = float(training.size)

    runs = window.select("attacks.jsma", outermost=True)
    metrics["attacks.jsma_ms"] = float(window.durations[runs].sum()) * 1e3
    all_runs = window.select("attacks.jsma")
    metrics["attacks.jsma_self_ms"] = float(window.self_s[all_runs].sum()) * 1e3
    steps = sum(1 for index in gradients
                if window.parents[index] >= 0
                and names[window.parents[index]] == "attacks.jsma")
    metrics["attacks.steps_per_run"] = steps / runs.size if runs.size else 0.0

    layer_self = window.layer_self()
    shares, unattributed = stats.coverage(wall_s, layer_self)
    for layer in JOB_LAYERS:
        metrics[f"{layer}.self_ms"] = layer_self.get(layer, 0.0) * 1e3
        metrics[f"{layer}.share"] = shares.get(layer, 0.0)
    metrics["evaluation.sweep_self_ms"] = metrics["evaluation.self_ms"]
    metrics["trace.unattributed_share"] = unattributed
    return metrics


def median_metrics(per_pass: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over passes."""
    return {name: stats.median([values[name] for values in per_pass])
            for name in per_pass[0]}


def overhead_pct(traced_walls: Sequence[float], plain_walls: Sequence[float]) -> float:
    return (stats.median(traced_walls) / stats.median(plain_walls) - 1.0) * 100.0


def coverage_lines(out: Outcome, metrics: Dict[str, float]) -> None:
    """Print per-layer self time and share, the coverage and the overhead."""
    out.say("per-layer self time (traced passes, median):")
    for layer in JOB_LAYERS:
        share = metrics[f"{layer}.share"]
        if share > 0:
            out.say(f"  {layer:<11} {metrics[f'{layer}.self_ms']:10.2f} ms "
                    f"{share:7.1%}")
    out.say(f"  unattributed {metrics['trace.unattributed_share']:.1%} "
            f"(target <= 10%); tracing overhead "
            f"{metrics['trace.overhead_pct']:+.1f}% vs untraced passes")


def latency_lines(out: Outcome, label: str,
                  per_pass: Sequence[np.ndarray]) -> Dict[str, float]:
    """p50 and p99 of each pass, reported as medians over the passes (a
    disturbed pass cannot move them), with sample counts and the highest
    percentile all samples together support."""
    summaries = [stats.summarise_latency(samples) for samples in per_pass]
    out.record.update(pass_p50_ms=[summary["p50_ms"] for summary in summaries],
                      pass_p99_ms=[summary["p99_ms"] for summary in summaries])
    p50 = stats.median([summary["p50_ms"] for summary in summaries])
    p99 = stats.median([summary["p99_ms"] for summary in summaries])
    supported = all(summary["p99_supported"] for summary in summaries)
    pooled = stats.summarise_latency(np.concatenate(per_pass))
    tail = (f"highest supported over all {pooled['n']} samples: "
            f"p{pooled['tail']} = {pooled['tail_ms']:.3f} ms" if pooled["tail"]
            else "no tail percentile supported")
    out.say(f"{label}: p50={p50:.3f} ms p99={p99:.3f} ms (medians over "
            f"{len(per_pass)} passes of {min(s.shape[0] for s in per_pass)}+ "
            f"samples{'' if supported else '; p99 unsupported by that count'}); "
            f"{tail}")
    return {"latency_p50_ms": p50, "latency_p99_ms": p99}


def lateness_lines(out: Outcome, late_ms: Sequence[np.ndarray]) -> bool:
    """Report how far behind schedule the generator ran (one array per
    pass, in send order); True when no pass fell behind."""
    behind = sum(stats.fell_behind(late, LATE_LIMIT_MS) for late in late_ms)
    joined = np.concatenate(late_ms)
    out.say(f"  generator lateness: p99={stats.percentile(joined, 99.0):.3f} ms "
            f"max={float(joined.max()):.3f} ms; "
            + (f"INVALID: the generator fell behind in {behind} of "
               f"{len(late_ms)} passes" if behind else
               f"valid (no pass ended behind schedule)"))
    return not behind


def end_to_end(out: Outcome, setup_s: Sequence[float], walls: Sequence[float],
               items: int, label: str, latency_ms: Sequence[np.ndarray]) -> None:
    """Fill and print the end-to-end metrics shared by every workload.

    A closed-loop pass is timed by its fastest repetition: on a shared
    machine contention only ever slows a CPU-bound pass down, and the
    median pass moved by up to 30% between runs minutes apart where the
    fastest moved by 6%.
    """
    out.record.update(setup_s=list(setup_s), wall_s=list(walls))
    best = min(walls)
    out.metrics.update({
        "setup_s": stats.median(setup_s),
        "wall_s": best,
        "throughput_rps": items / best,
        "peak_rss_mb": peak_rss_mb(),
    })
    out.say(f"setup_s: {out.metrics['setup_s']:.4f} s (median of {len(setup_s)})")
    out.say(f"wall_s: {best:.4f} s (fastest of {len(walls)} closed-loop passes of "
            f"{items} items; median {stats.median(walls):.4f} s)")
    out.say(f"throughput_rps: {out.metrics['throughput_rps']:.1f} items/s")
    out.metrics.update(latency_lines(out, label, latency_ms))
    out.say(f"peak_rss_mb: {out.metrics['peak_rss_mb']:.1f} MB")


# ---------------------------------------------------------------------- #
# log-stream: one in-process ScoringService fed sandboxed logs
# ---------------------------------------------------------------------- #
def _log_setup(context):
    from repro.serving import ScoringService

    _ = (context.corpus, context.target_model)
    context.greybox_adversarial()
    servable = ready_servable(context)
    ScoringService(servable, max_batch_size=BATCH, max_delay_ms=MAX_DELAY_MS)
    return context, servable


def _closed_loop(service, requests):
    delivered = []
    started = clock()
    for request in requests:
        delivered += service.submit(request)
    delivered += service.drain()
    return clock() - started, delivered


def _open_loop(service, requests, offsets, sleep=time.sleep):
    """Poisson arrivals from one loop; every request timed from its due time.

    Returns ``(verdicts, due, sent, done_at, call_started, flush_kinds)``
    where ``done_at``/``call_started`` map request ids to when the call that
    delivered the verdict returned and began.
    """
    n = len(requests)
    due = np.empty(n)
    sent = np.empty(n)
    done_at: Dict[str, float] = {}
    call_started: Dict[str, float] = {}
    kinds = {"submit": 0, "poll": 0, "drain": 0}
    verdicts = []

    def deliver(kind: str, began: float, fresh) -> None:
        if fresh:
            finished = clock()
            kinds[kind] += 1
            for verdict in fresh:
                done_at[verdict.request_id] = finished
                call_started[verdict.request_id] = began
            verdicts.extend(fresh)

    start = clock()
    for index, request in enumerate(requests):
        due_at = start + offsets[index]
        while True:
            deadline = service.deadline
            wake = due_at if deadline is None else min(due_at, deadline)
            remaining = wake - clock()
            if remaining > 0:
                sleep(remaining)
            began = clock()
            deliver("poll", began, service.poll())
            if wake >= due_at:
                break
        began = clock()
        due[index], sent[index] = due_at, began
        deliver("submit", began, service.submit(request, enqueued_at=due_at))
    began = clock()
    deliver("drain", began, service.drain())
    return verdicts, due, sent, done_at, call_started, kinds


def _label_failures(requests, verdicts, reference) -> tuple:
    observed = {verdict.request_id: (verdict.label if verdict.status == "ok" else None)
                for verdict in verdicts}
    return stats.count_failures((request.request_id for request in requests),
                                observed, reference)


def log_stream(settings: Settings) -> Outcome:
    from repro.serving import LoadGenerator, ScoringService

    out = Outcome()
    recorder = SpanRecorder() if settings.trace else None
    out.spans = recorder
    setup_s, (context, servable), cache_metrics = timed_setups(
        settings, _log_setup, recorder)

    requests = LoadGenerator(context, seed=settings.seed).generate(N_LOG_REQUESTS)
    is_log = [not isinstance(request.payload, np.ndarray) for request in requests]
    features = np.zeros((len(requests), servable.n_features))
    log_rows = [index for index, flag in enumerate(is_log) if flag]
    row_rows = [index for index, flag in enumerate(is_log) if not flag]
    features[log_rows] = servable.pipeline.transform(
        [requests[index].payload for index in log_rows])
    if row_rows:
        features[row_rows] = np.vstack([requests[index].payload
                                        for index in row_rows])
    reference = dict(zip((request.request_id for request in requests),
                         servable.model.predict(features).tolist()))
    n_records = sum(len(requests[index].payload.records) for index in log_rows)
    out.say(f"inputs: {len(requests)} requests ({len(log_rows)} sandboxed logs, "
            f"{n_records} API-call records, {len(row_rows)} adversarial rows)")

    def service():
        return ScoringService(servable, max_batch_size=BATCH,
                              max_delay_ms=MAX_DELAY_MS)

    # Closed loop (traced runs alternate plain and traced passes).  It needs
    # fewer passes than the open loop: its figure is the fastest pass, while
    # the open loop's are medians over passes.
    traced_walls, plain_walls, per_pass = [], [], []
    for index in passes(settings.seconds * 0.35, minimum=4 if settings.trace else 3):
        traced = settings.trace and index % 2 == 1
        scorer = service()
        if traced:
            install(recorder, LAYERS)
            mark = recorder.mark()
        wall, verdicts = _closed_loop(scorer, requests)
        if traced:
            recorder.restore()
            metrics = time_metrics(recorder.window(mark), wall)
            metrics["features.extract_ns_per_record"] = (
                metrics["features.extract_ms"] * 1e6 / n_records)
            per_pass.append(metrics)
            traced_walls.append(wall)
        else:
            plain_walls.append(wall)
        out.count(*_label_failures(requests, verdicts, reference))

    # Open loop at a fixed rate; latency from each request's due time.
    latency, late, batch_wait, flush_stats = [], [], [], []
    for index in passes(settings.seconds * 0.65, minimum=2):
        offsets = np.random.default_rng((settings.seed, index)).exponential(
            1.0 / LOG_RATE_PER_S, size=len(requests)).cumsum()
        scorer = service()
        if settings.trace:
            install(recorder, LAYERS)
            mark = recorder.mark()
        verdicts, due, sent, done_at, began, kinds = _open_loop(
            scorer, requests, offsets)
        if settings.trace:
            recorder.restore()
            window = recorder.window(mark)
            flushes = np.flatnonzero(window.sizes > 0)
            serving = [index for index in flushes
                       if window.names[index].startswith("serving.")]
            flush_stats.append({
                "serving.flushes": float(sum(kinds.values())),
                "serving.batch_size_mean": len(requests) / max(1, sum(kinds.values())),
                "serving.deadline_flush_share": kinds["poll"] / max(1, sum(kinds.values())),
                "serving.flush_ms": float(window.durations[serving].sum()) * 1e3,
                "serving.verdict_self_ms": float(window.self_s[serving].sum()) * 1e3,
            })
        ids = [request.request_id for request in requests]
        latency.append(stats.due_latencies_ms(due, [done_at.get(i, np.nan) for i in ids]))
        batch_wait.append(stats.due_latencies_ms(due, [began.get(i, np.nan) for i in ids]))
        late.append(stats.lateness_ms(due, sent))
        out.count(*_label_failures(requests, verdicts, reference))

    end_to_end(out, setup_s, plain_walls, len(requests),
               f"open loop @ {LOG_RATE_PER_S:.0f} req/s latency",
               [samples[np.isfinite(samples)] for samples in latency])
    out.record["open_loop_valid"] = lateness_lines(out, late)

    if settings.trace:
        layer = all_layer_metrics()
        layer.update(cache_metrics)
        layer.update(median_metrics(per_pass))
        layer.update(median_metrics(flush_stats))
        waits = np.concatenate(batch_wait)
        layer["serving.batch_wait_ms_p50"] = stats.percentile(waits[np.isfinite(waits)], 50)
        layer["trace.overhead_pct"] = overhead_pct(traced_walls, plain_walls)
        out.metrics = layer
        coverage_lines(out, layer)
        out.say(f"features: extract {layer['features.extract_ms']:.1f} ms "
                f"({layer['features.extract_ns_per_record']:.0f} ns/record), "
                f"transform {layer['features.transform_ms']:.2f} ms, "
                f"share {layer['features.share']:.1%} (expected >= 85%)")
        out.say(f"serving (open loop): {layer['serving.flushes']:.0f} flushes of "
                f"{layer['serving.batch_size_mean']:.1f} rows, "
                f"{layer['serving.deadline_flush_share']:.0%} by deadline, "
                f"batch wait p50 {layer['serving.batch_wait_ms_p50']:.3f} ms")
    return out


# ---------------------------------------------------------------------- #
# fleet-features: a 2-replica WorkerFleet fed pre-featurised rows
# ---------------------------------------------------------------------- #
class _StampingQueue:
    """Records the dispatcher's own send stamp of every request it enqueues.

    The fleet paces an open-loop stream itself and its latencies start at
    its send stamp; its dispatch items are ``(seq, request, stamp)``, so the
    stamp read on ``put`` tells how far behind schedule each request was
    sent.  Items of any other shape are passed through unread.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.stamps: Dict[int, float] = {}

    def put(self, item, *args, **kwargs):
        if (isinstance(item, tuple) and len(item) == 3
                and isinstance(item[0], int) and isinstance(item[2], float)):
            self.stamps.setdefault(item[0], item[2])
        return self._inner.put(item, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _fleet_setup(context):
    ready_servable(context)
    return context


def fleet_features(settings: Settings) -> Outcome:
    import repro.parallel.fleet as fleet_module
    from repro.obs import Instrumentation, ListSink, SpanCollector
    from repro.parallel.fleet import WorkerFleet
    from repro.serving import LoadGenerator, ScoringRequest, ScoringService

    out = Outcome()
    recorder = SpanRecorder() if settings.trace else None
    out.spans = recorder
    # Set-up time is timed per pass (it includes WorkerFleet.start); these
    # set-ups only trace the cache and provide the inputs' context.
    _, context, cache_metrics = timed_setups(settings, _fleet_setup, recorder,
                                             repeats=3)

    pool = np.vstack([context.corpus.test.features,
                      context.greybox_adversarial().features])
    picks = np.random.default_rng(settings.seed).integers(
        0, pool.shape[0], size=N_FLEET_REQUESTS)
    requests = [ScoringRequest(request_id=f"row-{index:05d}", payload=pool[pick])
                for index, pick in enumerate(picks)]
    out.say(f"inputs: {len(requests)} feature rows drawn from {pool.shape[0]} "
            f"(test split + grey-box advEx)")

    def start(observe: bool):
        """Fresh context + registry + 2 forked replicas, timed as set-up."""
        obs = Instrumentation(sink=ListSink()) if observe else None
        started = clock()
        fleet = WorkerFleet(n_workers=N_WORKERS, context=fresh_context(settings),
                            max_batch_size=BATCH, max_delay_ms=MAX_DELAY_MS,
                            start_method="fork", instrumentation=obs,
                            trace_sample_every=1)
        begun = clock()
        fleet.start()
        ended = clock()
        return fleet, ended - started, ended - begun

    setup_s, start_s, answers = [], [], []
    traced_walls, plain_walls, per_pass, hop_stats = [], [], [], []
    for index in passes(settings.seconds * 0.5, minimum=4 if settings.trace else 3):
        traced = settings.trace and index % 2 == 1
        if traced:
            # Keep every replica span: the default per-worker buffer holds
            # fewer events than a 4096-request traced pass records.
            saved_cap = getattr(fleet_module, "_WORKER_OBS_EVENT_CAP", None)
            if saved_cap is not None:
                fleet_module._WORKER_OBS_EVENT_CAP = 8 * N_FLEET_REQUESTS
            install(recorder, ("fleet",))
        fleet, setup, start_only = start(observe=traced)
        setup_s.append(setup)
        start_s.append(start_only)
        mark = recorder.mark() if traced else 0
        started = clock()
        verdicts, report = fleet.score_stream(requests)
        wall = clock() - started
        answers.append((0, verdicts))
        if traced:
            recorder.restore()
            if saved_cap is not None:
                fleet_module._WORKER_OBS_EVENT_CAP = saved_cap
            per_pass.append(time_metrics(recorder.window(mark), wall))
            traced_walls.append(wall)
            hop_stats.append((report, SpanCollector()))
            hop_stats[-1][1].add_snapshot(report.obs)
        else:
            plain_walls.append(wall)

    latency, late, unread = [], [], 0
    for index in passes(settings.seconds * 0.5, minimum=4):
        seed = settings.seed * 1000 + index
        chunk = index % (N_FLEET_REQUESTS // N_FLEET_OPEN)
        stream = requests[chunk * N_FLEET_OPEN:(chunk + 1) * N_FLEET_OPEN]
        offsets = LoadGenerator(context, seed=seed).arrival_times(
            len(stream), FLEET_RATE_PER_S)
        fleet, setup, start_only = start(observe=False)
        setup_s.append(setup)
        start_s.append(start_only)
        stamping = _StampingQueue(getattr(fleet, "_task_queue", None))
        if stamping._inner is not None:
            fleet._task_queue = stamping
        called = clock()
        verdicts, _ = fleet.score_stream(stream, rate_per_s=FLEET_RATE_PER_S,
                                         seed=seed)
        answers.append((chunk * N_FLEET_OPEN, verdicts))
        # Unread stamps count as on schedule (reported below if any).
        due = called + offsets
        sent = np.array([stamping.stamps.get(seq, due[seq])
                         for seq in range(len(stream))])
        unread += len(stream) - len(stamping.stamps)
        late.append(stats.lateness_ms(due, sent))
        latency.append(np.array([verdict.latency_ms for verdict in verdicts])
                       + late[-1])

    # Reference after every fork: BLAS work in the parent before forking
    # changes how the replicas run.
    servable = ready_servable(context)
    expected = ScoringService(servable, max_batch_size=BATCH).score_many(requests)
    want_labels = np.array([verdict.label for verdict in expected])
    want_probs = np.array([verdict.malware_probability for verdict in expected])
    worst = 0.0
    for first, verdicts in answers:
        want = slice(first, first + len(verdicts))
        ok = np.array([verdict.status == "ok" for verdict in verdicts])
        labels = np.array([verdict.label for verdict in verdicts])
        delta = np.abs(np.array([verdict.malware_probability for verdict in verdicts])
                       - want_probs[want])
        worst = max(worst, float(delta.max()))
        bad = ~ok | (labels != want_labels[want]) | (delta > PROBABILITY_TOLERANCE)
        out.count(len(verdicts), int(bad.sum()))
    out.say(f"check: {len(answers)} passes vs in-process score_many, "
            f"max |dp| = {worst:.3g}")

    end_to_end(out, setup_s, plain_walls, len(requests),
               f"open loop @ {FLEET_RATE_PER_S:.0f} req/s latency", latency)
    out.record["open_loop_valid"] = lateness_lines(out, late)
    if unread:
        out.say(f"  {unread} dispatch stamps were unreadable; those requests "
                f"count as sent on schedule")

    if settings.trace:
        layer = all_layer_metrics()
        layer.update(cache_metrics)
        layer.update(median_metrics(per_pass))
        layer["fleet.start_s"] = stats.median(start_s)
        hops = [_hop_metrics(report, collector) for report, collector in hop_stats]
        layer.update(median_metrics(hops))
        layer["trace.overhead_pct"] = overhead_pct(traced_walls, plain_walls)
        out.metrics = layer
        coverage_lines(out, layer)
        out.say(f"hops (closed loop, median of passes): queue p50 "
                f"{layer['fleet.queue_ms_p50']:.2f} ms p99 "
                f"{layer['fleet.queue_ms_p99']:.2f} ms, batch wait p50 "
                f"{layer['fleet.batch_wait_ms_p50']:.3f} ms, score p50 "
                f"{layer['fleet.score_ms_p50']:.3f} ms; queue share "
                f"{layer['fleet.queue_share']:.1%}")
    return out


def _hop_metrics(report, collector) -> Dict[str, float]:
    """Queue / batch-wait / score hops of every once-scored traced request."""
    parts = {"queue_ms": [], "batch_wait_ms": [], "score_ms": []}
    for tree in collector.trees().values():
        breakdown = tree.breakdown()
        counts = tree.hop_counts()
        if all(counts.get(key) == 1 for key in parts):
            for key in parts:
                parts[key].append(breakdown[key])
    queue, wait, score = (np.asarray(parts[key]) for key in
                          ("queue_ms", "batch_wait_ms", "score_ms"))
    per_worker = np.array([worker["n_requests"] for worker in report.per_worker],
                          dtype=np.float64)
    batches = sum(worker["n_batches"] for worker in report.per_worker)
    return {
        "fleet.queue_ms_p50": stats.percentile(queue, 50),
        "fleet.queue_ms_p99": stats.percentile(queue, 99),
        "fleet.queue_share": float(queue.sum() / (queue.sum() + wait.sum() + score.sum())),
        "fleet.batch_wait_ms_p50": stats.percentile(wait, 50),
        "fleet.score_ms_p50": stats.percentile(score, 50),
        "fleet.batch_size_mean": float(per_worker.sum() / max(1, batches)),
        "fleet.worker_imbalance": float(per_worker.max() / per_worker.mean() - 1.0),
        "fleet.redispatches": float(report.reliability.redispatches),
        "fleet.restarts": float(report.reliability.restarts),
    }


# ---------------------------------------------------------------------- #
# attack-sweeps: the Figure 3 and Figure 4 curves in-process
# ---------------------------------------------------------------------- #
#: (name, crafting model, early stop, swept parameter).  The order puts the
#: median item inside the third curve and p99 inside the fourth, away from
#: the boundaries between curves.
CURVES = (("whitebox_gamma", "target", True, "gamma"),
          ("greybox_gamma", "substitute", False, "gamma"),
          ("whitebox_theta", "target", True, "theta"),
          ("greybox_theta", "substitute", False, "theta"))
SWEEP_THETA = 0.1      # fixed θ of the γ curves (Figures 3a, 4a)
SWEEP_GAMMA = 0.025    # fixed γ of the θ curves (Figures 3b, 4b)


def _sweep_setup(context):
    _ = (context.corpus, context.target_model, context.substitute_model)
    ready_servable(context)
    return context


def _curve(context, crafting, early_stop, swept, malware, recorder=None,
           strategy="replay"):
    from repro.attacks.jsma import JsmaAttack
    from repro.evaluation.security_curve import (PAPER_GAMMA_GRID,
                                                 PAPER_THETA_GRID,
                                                 gamma_sweep, theta_sweep)

    target = context.target_model.network
    network = target if crafting == "target" else context.substitute_model.network
    models = ({"target": target} if crafting == "target"
              else {"substitute": network, "target": target})

    def factory(constraints):
        return JsmaAttack(network, constraints=constraints, early_stop=early_stop)

    if swept == "gamma":
        def call():
            return gamma_sweep(factory, malware, models, theta=SWEEP_THETA,
                               gamma_values=list(PAPER_GAMMA_GRID),
                               strategy=strategy)
    else:
        def call():
            return theta_sweep(factory, malware, models, gamma=SWEEP_GAMMA,
                               theta_values=list(PAPER_THETA_GRID))
    if recorder is None:
        return call()
    with recorder.span(f"evaluation.{swept}_sweep"):
        return call()


def attack_sweeps(settings: Settings) -> Outcome:
    out = Outcome()
    recorder = SpanRecorder() if settings.trace else None
    out.spans = recorder
    setup_s, context, cache_metrics = timed_setups(settings, _sweep_setup, recorder)
    malware = context.corpus.test.malware_only().features
    malware = malware[np.random.default_rng(settings.seed).permutation(malware.shape[0])]
    n_rows = malware.shape[0]
    out.say(f"inputs: {n_rows} test-split malware rows (seeded order)")

    latency, curves_per_pass, curve_s = [], [], []
    traced_walls, plain_walls, per_pass = [], [], []
    for index in passes(settings.seconds, minimum=4 if settings.trace else 3):
        traced = settings.trace and index % 2 == 1
        if traced:
            install(recorder, LAYERS)
            mark = recorder.mark()
        started = clock()
        finished, curves = [], []
        for _, crafting, early_stop, swept in CURVES:
            curves.append(_curve(context, crafting, early_stop, swept, malware,
                                 recorder if traced else None))
            finished.append(clock() - started)
        wall = finished[-1]
        if traced:
            recorder.restore()
            per_pass.append(time_metrics(recorder.window(mark), wall))
            traced_walls.append(wall)
        else:
            plain_walls.append(wall)
            items = [n_rows * len(curve.points) for curve in curves]
            latency.append(stats.weighted_repeat(np.asarray(finished) * 1e3, items))
            curve_s.append(np.diff(finished, prepend=0.0))
        curves_per_pass.append(curves)

    # Replayed γ curves must equal the per-point path row for row; θ curves
    # (no replay) must repeat exactly from pass to pass.
    references = []
    for position, (_, crafting, early_stop, swept) in enumerate(CURVES):
        if swept == "gamma":
            references.append(_curve(context, crafting, early_stop, swept,
                                     malware, strategy="per_point").as_rows())
        else:
            references.append(curves_per_pass[0][position].as_rows())
    for curves in curves_per_pass:
        for curve, reference in zip(curves, references):
            rows = curve.as_rows()
            bad = sum(got != want for got, want in zip(rows, reference))
            bad += abs(len(rows) - len(reference))
            out.count(n_rows * len(reference), n_rows * bad)
    out.say(f"check: {len(curves_per_pass)} passes of {len(CURVES)} curves vs "
            f"per-point γ curves and the first pass's θ curves")

    end_to_end(out, setup_s, plain_walls, sum(items),
               "item latency (due at pass start)", latency)
    out.say("curve seconds (median): " + ", ".join(
        f"{name} {seconds:.3f} ({len(curve.points)} points)"
        for (name, *_), seconds, curve in
        zip(CURVES, np.median(curve_s, axis=0), curves_per_pass[0])))

    if settings.trace:
        layer = all_layer_metrics()
        layer.update(cache_metrics)
        layer.update(median_metrics(per_pass))
        evaded = attacked = 0
        for (name, crafting, *_), curve in zip(CURVES, curves_per_pass[0]):
            for point in curve.points:
                evaded += point.evaded_counts[crafting]
                attacked += n_rows
        layer["attacks.evasion_ratio"] = evaded / attacked
        layer["trace.overhead_pct"] = overhead_pct(traced_walls, plain_walls)
        out.metrics = layer
        coverage_lines(out, layer)
        out.say(f"attacks: {layer['attacks.steps_per_run']:.1f} steps per run, "
                f"jsma self {layer['attacks.jsma_self_ms']:.1f} ms, class_gradients "
                f"{layer['nn.class_gradients_ms']:.1f} ms over "
                f"{layer['nn.class_gradients_calls']:.0f} calls; evasion ratio "
                f"{layer['attacks.evasion_ratio']:.3f}")
    return out


# ---------------------------------------------------------------------- #
# defense-grid: Table VI + ensemble through the grid executor
# ---------------------------------------------------------------------- #
def _grid_setup(context):
    # The pool prewarm: every artifact the cells read, loaded in the parent.
    _ = (context.corpus, context.target_model, context.substitute_model)
    context.greybox_adversarial()
    ready_servable(context)
    return context


def _grid_run(context, n_workers: int):
    from repro.experiments import table6_defense
    from repro.parallel.grid import GridExecutor

    specs = table6_defense.specs(context, include_ensemble=True)
    started = clock()
    result = GridExecutor(n_workers=n_workers, start_method="fork").run(
        list(specs.values()), context=context)
    return clock() - started, list(specs), result


def defense_grid(settings: Settings) -> Outcome:
    """Serial grid passes are measured; one 2-worker pooled run per run is
    checked against them and, when traced, gives the ``grid.*`` metrics.

    The pooled wall time is not an end-to-end metric: with default BLAS
    threads the two forked workers' spinning OpenBLAS threads oversubscribe
    2 CPUs, and one pooled pass took anywhere from 4 to 20 s.
    """
    out = Outcome()
    recorder = SpanRecorder() if settings.trace else None
    out.spans = recorder

    # Every pass gets a fresh context: fitted defenses are memoised per
    # context, and a later pass must fit them again.
    setup_s, results = [], []
    traced_walls, plain_walls, per_pass = [], [], []
    for index in passes(settings.seconds, minimum=4 if settings.trace else 3):
        traced = settings.trace and index % 2 == 1
        started = clock()
        context = _grid_setup(fresh_context(settings))
        setup_s.append(clock() - started)
        if traced:
            install(recorder, LAYERS)
            mark = recorder.mark()
        wall, rows, result = _grid_run(context, 1)
        if traced:
            recorder.restore()
            per_pass.append(time_metrics(recorder.window(mark), wall))
            traced_walls.append(wall)
        else:
            plain_walls.append(wall)
            results.append(result)
    if tuple(rows) != TABLE6_ROWS:
        raise RuntimeError(f"Table VI rows changed: {rows}; update the catalogue")
    test = context.corpus.test
    items_per_cell = (test.clean_only().n_samples + test.malware_only().n_samples
                      + context.greybox_adversarial().n_samples)
    items = items_per_cell * len(rows)
    out.say(f"inputs: {len(rows)} Table VI rows x {items_per_cell} scored test rows")

    # The grid returns every row at once: each item's latency is the wall.
    end_to_end(out, setup_s, plain_walls, items, "item latency (due at grid start)",
               [np.full(items, wall * 1e3) for wall in plain_walls])

    # The pooled run, checked against the serial reports.
    pooled_wall, _, pooled = _grid_run(_grid_setup(fresh_context(settings)),
                                       N_WORKERS)
    reference = [report.to_json(include_timing=False)
                 for report in results[0].reports]
    for result in results[1:] + [pooled]:
        for report, want in zip(result.reports, reference):
            same = report.to_json(include_timing=False) == want
            out.count(items_per_cell, 0 if same else items_per_cell)
    out.say(f"check: {len(results)} serial passes and a {N_WORKERS}-worker pooled "
            f"run ({pooled_wall:.2f} s) give identical reports without timing")
    serial_cells = [stats.median([result.reports[i].elapsed_s for result in results])
                    for i in range(len(rows))]
    pooled_cells = [report.elapsed_s for report in pooled.reports]
    out.say("cell seconds, serial median | pooled: " + ", ".join(
        f"{row} {serial:.2f} | {pool:.2f}"
        for row, serial, pool in zip(rows, serial_cells, pooled_cells)))

    if settings.trace:
        layer = all_layer_metrics()
        layer.update(timed_setups(settings, _grid_setup, recorder, repeats=3)[2])
        layer.update(median_metrics(per_pass))
        for row, seconds in zip(rows, serial_cells):
            layer[f"defenses.cell_s.{row}"] = seconds
        layer["grid.pooled_wall_s"] = pooled_wall
        layer["grid.cell_s_sum"] = sum(pooled_cells)
        layer["grid.cell_inflation"] = sum(pooled_cells) / sum(serial_cells)
        layer["grid.parallel_efficiency"] = sum(serial_cells) / (N_WORKERS * pooled_wall)
        layer["grid.overhead_s"] = pooled_wall - sum(pooled_cells) / N_WORKERS
        layer["grid.cell_retries"] = float(pooled.reliability.cell_retries)
        layer["trace.overhead_pct"] = overhead_pct(traced_walls, plain_walls)
        out.metrics = layer
        coverage_lines(out, layer)
        out.say(f"grid ({N_WORKERS}-worker pool): cell inflation "
                f"{layer['grid.cell_inflation']:.2f}x (pooled "
                f"{sum(pooled_cells):.2f} s vs serial {sum(serial_cells):.2f} s of "
                f"cell time), parallel efficiency "
                f"{layer['grid.parallel_efficiency']:.2f}, overhead "
                f"{layer['grid.overhead_s']:.2f} s")
    return out


WORKLOADS: Dict[str, Callable[[Settings], Outcome]] = {
    "log-stream": log_stream,
    "fleet-features": fleet_features,
    "attack-sweeps": attack_sweeps,
    "defense-grid": defense_grid,
}
