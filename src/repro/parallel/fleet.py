"""Multi-process replicated serving: N scoring workers behind one queue.

:class:`WorkerFleet` replicates the single-process
:class:`~repro.serving.service.ScoringService` across N worker processes.
A shared task queue dispatches requests to whichever worker is free (dynamic
load balancing); each worker runs its *own*
:class:`~repro.serving.batcher.MicroBatcher`, so fused-batch scoring and the
``max_delay_ms`` latency SLO hold per replica.  The aggregated
:class:`~repro.serving.stats.ThroughputReport` and the per-worker counts
are built from the verdicts the dispatcher merged — each verdict carries
its latency and arrives from exactly one replica — so a replica that dies
mid-stream still accounts for every verdict it delivered.

The bundle every replica serves is built **once** in the dispatcher process
(cold build or cache warm start) before the workers launch, and each replica
receives the built servable and endpoint detector as process arguments: a
``fork`` replica inherits them, a ``spawn`` replica unpickles them.  The
networks carry their weights' dtype, so a replica computes in the
dispatcher's dtype under either start method.  Because every replica serves
the same versioned bundle, verdict *contents* (probability, label, model
version) are identical to a single service's — only latency observations
differ — and results are merged in submission order, so a fleet replay is
deterministic apart from timing.

Supervision
-----------
The dispatcher runs a claim/ack protocol: a replica announces
``("claim", id, seq)`` the moment it pulls a request off the dispatch queue
and the dispatcher clears the claim when that request's verdict arrives.
When a replica dies — detected through its dying-gasp ``("crashed", ...)``
message or a liveness poll — every claimed-but-unanswered request is
re-enqueued exactly once (verdict dedup guards the race), and a replacement
replica is launched while the restart budget lasts.  Every recovery event is
counted once in a metrics registry: the dispatcher's for redispatches,
restarts and duplicates, each replica's for its own service events.  A
replica ships its registry snapshot home in its final ``stats`` (or dying
``crashed``) message, the dispatcher merges it, and the
:class:`~repro.reliability.report.ReliabilityReport` carried by the
:class:`FleetReport` summarises the merged counters.  A
:class:`~repro.reliability.faults.FaultPlan` can be armed to inject
crashes, flush failures, latency spikes and malformed payloads at the
``fleet.dispatch`` / ``service.flush`` sites.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ParallelError
from repro.experiments.context import ExperimentContext
from repro.obs import Instrumentation, ListSink
from repro.obs.slo import SLOMonitor, SLOSpec
from repro.obs.spans import TraceStamper
from repro.parallel.pool import (
    RemoteFailure,
    resolve_start_method,
    resolve_workers,
)
from repro.reliability import (
    FaultInjector,
    FaultPlan,
    ReliabilityReport,
    RetryPolicy,
    WorkerCrash,
    maybe_fire,
)
from repro.serving.stats import LatencyTracker, ThroughputReport

__all__ = ["WorkerFleet", "FleetReport"]

#: How often the dispatcher wakes from the result queue to poll liveness.
_LIVENESS_POLL_S = 0.25

#: How long the fleet may make *no progress* before it is declared wedged.
_WEDGED_AFTER_S = 300.0

#: Per-worker cap on buffered ObsEvents shipped back with the stats message
#: (oldest dropped first; the drop count travels in the snapshot).
_WORKER_OBS_EVENT_CAP = 4096


def _build_service(servable, detector, options: Mapping[str, object],
                   injector: Optional[FaultInjector],
                   instrumentation: Instrumentation):
    """One replica's ScoringService around the dispatcher-built bundle."""
    from repro.serving.service import ScoringService

    slo_specs = options["slo_specs"]
    return ScoringService(
        servable, detector=detector, threshold=options["threshold"],
        max_batch_size=options["max_batch_size"],
        max_delay_ms=options["max_delay_ms"],
        retry_policy=options["retry_policy"],
        # A poison request must cost one error verdict, not one replica.
        isolate_poison=True,
        injector=injector,
        instrumentation=instrumentation,
        slo=(SLOMonitor(slo_specs, instrumentation=instrumentation)
             if slo_specs else None))


def _n_batches(snapshot: Mapping[str, object]) -> int:
    """Fused batches a replica scored, read from its shipped snapshot."""
    histogram = snapshot["metrics"]["histograms"].get("batcher.batch_size")
    return int(histogram["count"]) if histogram else 0


def _fleet_worker(worker_id: int, servable, detector,
                  options: Mapping[str, object],
                  task_queue, result_queue) -> None:
    """One replica: pull requests, micro-batch them, ship verdicts back.

    ``servable`` and ``detector`` are the dispatcher's built bundle and
    ``options`` the service settings, fault plan, SLO specs and observe
    flag, all received as process arguments (see :meth:`WorkerFleet.start`).
    Protocol on ``result_queue``: ``("ready", id, None)`` after startup,
    ``("claim", id, seq)`` the moment a request is pulled off the dispatch
    queue, ``("verdicts", id, [(seq, Verdict), ...])`` per flush,
    ``("stats", id, snapshot)`` after the stop sentinel, ``("crashed", id,
    snapshot)`` as the dying gasp of an injected crash, and ``("failed",
    id, RemoteFailure)`` on any other error.  ``snapshot`` is the replica's
    :meth:`~repro.obs.Instrumentation.snapshot`.  Verdicts carry the
    dispatcher-assigned sequence numbers so the merge is submission-ordered
    regardless of which replica scored what.
    """
    from dataclasses import replace as dataclass_replace

    fault_plan = options["fault_plan"]
    injector = (fault_plan.injector(scope={"worker": worker_id})
                if fault_plan is not None else None)
    # Every replica counts into its own registry and ships the snapshot
    # home inside its final stats (or dying-gasp) message — no extra queue,
    # no extra pickle per verdict.  When the dispatcher observes, the
    # snapshot also carries a bounded event buffer.  The span-id namespace
    # is ``worker_id + 1`` (restarts get a fresh worker id), so replica
    # spans never collide with the dispatcher's (namespace 0) or another
    # replica's in a stitched trace.
    obs = Instrumentation(
        sink=(ListSink(max_events=_WORKER_OBS_EVENT_CAP)
              if options["observe"] else None),
        tags={"worker": worker_id}, namespace=worker_id + 1)
    try:
        service = _build_service(servable, detector, options, injector, obs)
    except BaseException as error:  # noqa: BLE001 - shipped to the dispatcher
        result_queue.put(("failed", worker_id,
                          RemoteFailure.capture(f"worker {worker_id} startup",
                                                error)))
        return
    result_queue.put(("ready", worker_id, None))
    pending: Dict[str, int] = {}

    def emit(verdicts) -> None:
        # Shed verdicts can overtake queued requests, so sequence numbers
        # are paired by request id (unique per stream) rather than FIFO.
        if verdicts:
            result_queue.put(("verdicts", worker_id,
                              [(pending.pop(verdict.request_id), verdict)
                               for verdict in verdicts]))

    try:
        while True:
            deadline = service.deadline
            timeout = (None if deadline is None
                       else max(0.0, deadline - time.perf_counter()))
            try:
                item = task_queue.get(timeout=timeout)
            except queue_module.Empty:
                emit(service.poll())
                continue
            if item is None:
                break
            seq, request, enqueued_at = item
            # Claim before any work: if this replica dies mid-request the
            # dispatcher knows exactly which sequence numbers to re-enqueue.
            result_queue.put(("claim", worker_id, seq))
            fired = maybe_fire(injector, "fleet.dispatch", obs=obs,
                               seq=seq, request_id=request.request_id)
            if fired is not None and fired.action == "malformed":
                # Corrupt the payload only: the trace context (and id) must
                # survive so the poison request's error span joins its tree.
                request = dataclass_replace(
                    request, payload=np.full(service.n_features, np.nan))
            pending[request.request_id] = seq
            emit(service.submit(request, enqueued_at=enqueued_at))
        emit(service.drain())
        result_queue.put(("stats", worker_id, obs.snapshot()))
    except WorkerCrash:
        # Dying gasp: flush the claims/verdicts already queued (plus this
        # replica's counts, the crash's fault included) through the feeder
        # thread, then die hard — the dispatcher must never see a
        # half-written message.  Spans recorded before the crash (error-
        # tagged flushes included) survive into the dispatcher's stream.
        try:
            result_queue.put(("crashed", worker_id, obs.snapshot()))
            result_queue.close()
            result_queue.join_thread()
        finally:
            os._exit(1)
    except BaseException as error:  # noqa: BLE001 - shipped to the dispatcher
        result_queue.put(("failed", worker_id,
                          RemoteFailure.capture(f"worker {worker_id}", error)))


@dataclass
class FleetReport:
    """Aggregated statistics of one fleet replay."""

    n_workers: int
    start_method: str
    throughput: ThroughputReport
    per_worker: List[Dict[str, object]] = field(default_factory=list)
    reliability: ReliabilityReport = field(default_factory=ReliabilityReport)
    #: Fleet-wide instrumentation snapshot (dispatcher counters folded with
    #: every replica's forwarded snapshot); ``None`` when not observing.
    obs: Optional[Dict[str, object]] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        payload = {
            "n_workers": self.n_workers,
            "start_method": self.start_method,
            "throughput": self.throughput.as_dict(),
            "per_worker": [dict(worker) for worker in self.per_worker],
            "reliability": self.reliability.as_dict(),
        }
        if self.obs is not None:
            payload["obs"] = self.obs
        return payload

    def render(self) -> str:
        """Multi-line human-readable summary (what ``serve --workers`` prints)."""
        lines = [f"fleet: {self.n_workers} workers ({self.start_method}) — "
                 + self.throughput.render()]
        for worker in self.per_worker:
            lines.append(
                f"  worker {worker['worker_id']}: {worker['n_requests']} requests "
                f"in {worker['n_batches']} fused batches "
                f"(mean {worker['mean_ms']:.3f}ms)")
        if not self.reliability.empty():
            lines.append(self.reliability.render())
        return "\n".join(lines)


class WorkerFleet:
    """N replicated scoring workers behind a queue-based dispatcher.

    Parameters
    ----------
    n_workers:
        Replica count (``None``/``0`` = one per CPU).
    model / defense / threshold:
        What each replica serves — a registered bundle name plus an optional
        DefenseRegistry endpoint (fitted with its default parameters),
        exactly like the single-service ``serve`` path.
    context:
        The :class:`~repro.experiments.context.ExperimentContext` the bundle
        is built from (``None`` = ``ExperimentContext()``).  The CLI passes
        its own so the load generator and the fleet share artifacts.
    max_batch_size / max_delay_ms:
        Per-replica micro-batching knobs.
    restart_budget:
        How many dead replicas one :meth:`score_stream` call may replace
        before giving up on restarts (in-flight requests of a dead replica
        are re-dispatched to the survivors regardless).
    fault_plan:
        Optional :class:`~repro.reliability.faults.FaultPlan` armed inside
        every replica (sites ``fleet.dispatch`` and ``service.flush``).
    retry_policy:
        Optional :class:`~repro.reliability.retry.RetryPolicy` each replica
        applies to failing micro-batch flushes.
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation` held by the
        dispatcher.  Counting is always on: the dispatcher counts
        ``fleet.dispatches`` / ``fleet.redispatches`` / ``fleet.restarts``
        / ``fleet.duplicates`` and folds in every replica's shipped
        registry snapshot — into this object when given, else into a fresh
        sink-less one per stream — and :attr:`FleetReport.reliability`
        summarises the stream's share of it.  When given, the fleet also
        *observes*: replicas buffer their events for the dispatcher, the
        merged snapshot is surfaced on :attr:`FleetReport.obs`, and every
        dispatched request is *traced* — the dispatcher stamps a
        :class:`~repro.obs.trace.TraceContext` on (root span per request),
        replicas record the per-hop child spans against it, and the merged
        event stream reconstructs into one span tree per request via
        :class:`~repro.obs.spans.SpanCollector`.
    trace_sample_every:
        Head-based trace sampling: stamp a trace on the first request and
        every ``trace_sample_every``-th after it, passing the rest through
        untraced (see :class:`~repro.obs.spans.TraceStamper`).  ``1`` (the
        default) traces every request — right for chaos soaks and
        debugging; raise it in throughput-critical serving so per-request
        span recording and event transport stay inside the overhead
        budget while every trace that *is* taken remains a complete tree.
    slo_specs:
        Optional :class:`~repro.obs.slo.SLOSpec` objectives armed inside
        every replica: each worker's service runs its own
        :class:`~repro.obs.slo.SLOMonitor` fed by its verdicts, emits
        alert events (merged home like all worker events) and — for
        ``on_breach="shed"/"fallback"`` specs — degrades independently
        while its local windows burn.
    """

    def __init__(self, n_workers: Optional[int] = None, model: str = "target",
                 defense: str = "none",
                 threshold: float = 0.5,
                 context: Optional[ExperimentContext] = None,
                 max_batch_size: int = 32, max_delay_ms: float = 2.0,
                 start_method: Optional[str] = None,
                 restart_budget: int = 2,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 instrumentation: Optional[Instrumentation] = None,
                 trace_sample_every: int = 1,
                 slo_specs: Optional[Sequence[SLOSpec]] = None) -> None:
        # Each replica's service checks these too, but only after the fleet
        # has started processes; a bad setting must fail before that.
        if not 0.0 <= threshold <= 1.0:
            raise ParallelError(f"threshold must lie in [0, 1], got {threshold}")
        if max_batch_size < 1:
            raise ParallelError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_delay_ms < 0:
            raise ParallelError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self.n_workers = resolve_workers(n_workers)
        self.model = model
        self.defense = defense
        self.threshold = float(threshold)
        self.context = context if context is not None else ExperimentContext()
        self.max_batch_size = int(max_batch_size)
        self.max_delay_ms = float(max_delay_ms)
        self.start_method = resolve_start_method(start_method)
        if restart_budget < 0:
            raise ParallelError(
                f"restart_budget must be >= 0, got {restart_budget}")
        self.restart_budget = int(restart_budget)
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.instrumentation = instrumentation
        if trace_sample_every < 1:
            raise ParallelError(
                f"trace_sample_every must be >= 1, got {trace_sample_every}")
        self.trace_sample_every = int(trace_sample_every)
        self.slo_specs = tuple(slo_specs or ())
        self.servable = None
        self._detector = None
        self._mp_context = None
        self._options: Optional[Dict[str, object]] = None
        self._next_worker_id = 0
        self._processes: Dict[int, object] = {}
        self._task_queue = None
        self._result_queue = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _spawn_worker(self) -> int:
        """Launch one replica (initial launch and supervised restarts)."""
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self._mp_context.Process(
            target=_fleet_worker,
            args=(worker_id, self.servable, self._detector, self._options,
                  self._task_queue, self._result_queue),
            daemon=True)
        process.start()
        self._processes[worker_id] = process
        return worker_id

    def start(self) -> "WorkerFleet":
        """Build the bundle once, then launch the worker replicas."""
        if self._processes:
            return self
        import multiprocessing

        from repro.scenarios.registry import build_endpoint
        from repro.serving.registry import ModelRegistry

        self._mp_context = multiprocessing.get_context(self.start_method)
        registry = ModelRegistry(cache=self.context.cache)
        self.servable = registry.get(self.model, context=self.context)
        self._detector = build_endpoint(self.defense, self.context,
                                        model=self.servable.model)
        self._options = {
            "threshold": self.threshold,
            "max_batch_size": self.max_batch_size,
            "max_delay_ms": self.max_delay_ms,
            "retry_policy": self.retry_policy,
            "fault_plan": self.fault_plan,
            "slo_specs": self.slo_specs,
            "observe": self.instrumentation is not None,
        }
        self._task_queue = self._mp_context.Queue()
        self._result_queue = self._mp_context.Queue()
        for _ in range(self.n_workers):
            self._spawn_worker()
        ready = 0
        while ready < self.n_workers:
            kind, worker_id, payload = self._get_result()
            if kind == "failed":
                self.close()
                payload.raise_()
            ready += kind == "ready"
        return self

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, grace_s: float = 5.0) -> None:
        """Stop every worker and release both queues (idempotent, bounded).

        Joins run against one shared ``grace_s`` deadline and stragglers
        are killed, so ``close()`` returns within ``grace_s`` plus a small
        constant even when a worker died before :meth:`start` completed or
        is wedged mid-request.  The queues are explicitly closed (feeder
        threads cancelled) so a half-started fleet leaks neither processes
        nor queue plumbing.
        """
        deadline = time.monotonic() + float(grace_s)
        processes = list(self._processes.values())
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        self._processes = {}
        for queue in (self._task_queue, self._result_queue):
            if queue is not None:
                queue.cancel_join_thread()
                queue.close()
        self._task_queue = None
        self._result_queue = None

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def _get_result(self) -> Tuple[str, int, object]:
        try:
            return self._result_queue.get(timeout=_WEDGED_AFTER_S)
        except queue_module.Empty:
            dead = [worker_id for worker_id, process in self._processes.items()
                    if not process.is_alive()]
            # Tear the wedged fleet down before raising: leaving live workers
            # behind would make the next start() reuse their stale queues.
            self.close()
            raise ParallelError(
                f"fleet produced no results for {_WEDGED_AFTER_S:.0f}s "
                f"(dead workers: {dead or 'none'})") from None

    def score_stream(self, requests: Sequence,
                     rate_per_s: Optional[float] = None,
                     seed: int = 0,
                     progress=None) -> Tuple[List, FleetReport]:
        """Replay ``requests`` through the fleet; one-shot per start.

        Returns ``(verdicts, report)`` with verdicts merged in submission
        order.  With ``rate_per_s`` the dispatcher paces enqueues like a
        Poisson arrival process (same schedule as the single-service
        :func:`~repro.serving.loadgen.replay`); otherwise requests are
        enqueued back-to-back.  Replica deaths are supervised: claimed
        requests are re-dispatched exactly once and replacements launched
        while the restart budget lasts.  Stop sentinels are sent only after
        every verdict arrived (a redispatched request must never strand
        behind a sentinel), so a subsequent call transparently starts a
        fresh fleet.

        With instrumentation attached, every ``trace_sample_every``-th
        request is stamped with a :class:`~repro.obs.trace.TraceContext`
        before dispatch and its root span is closed as its verdict
        arrives; a redispatched request keeps its original context, so
        whichever replica finally scores it parents onto the same root.

        ``progress``, if given, is called from the collection loop —
        ``progress(info)`` with ``new_verdicts`` (just-arrived, merge
        order), ``n_done``, ``n_expected``, ``elapsed_s``, ``restarts``
        and ``redispatches`` — whenever verdicts arrive and on every
        liveness-poll tick; the live ``serve --observe`` dashboard
        publisher hangs off this hook.
        """
        if not requests:
            return [], FleetReport(n_workers=self.n_workers,
                                   start_method=self.start_method,
                                   throughput=ThroughputReport.empty(),
                                   per_worker=[])
        from repro.serving.service import ScoringRequest

        # Wrap raw payloads here, at the dispatcher: per-replica id counters
        # would otherwise hand the same ``req-...`` id out in every worker.
        requests = [request if isinstance(request, ScoringRequest)
                    else ScoringRequest(request_id=f"req-{seq + 1:06d}",
                                        payload=request)
                    for seq, request in enumerate(requests)]
        self.start()
        offsets = None
        if rate_per_s is not None:
            from repro.serving.loadgen import _poisson_offsets

            offsets = _poisson_offsets(len(requests), rate_per_s, seed)
        observe = self.instrumentation is not None
        obs = self.instrumentation if observe else Instrumentation()
        since = obs.metrics.snapshot()
        stamper = (TraceStamper(obs, sample_every=self.trace_sample_every)
                   if observe else None)
        started = time.perf_counter()
        stamps: Dict[int, float] = {}
        for seq, request in enumerate(requests):
            if offsets is not None:
                remaining = (started + offsets[seq]) - time.perf_counter()
                if remaining > 0:
                    time.sleep(remaining)
            stamps[seq] = time.perf_counter()
            if stamper is not None:
                # The stamped request is kept so a redispatch after a
                # replica death reuses the same trace context and root.
                request = requests[seq] = stamper.stamp(request,
                                                        started=stamps[seq])
            self._task_queue.put((seq, request, stamps[seq]))
        obs.count("fleet.dispatches", len(requests))

        verdicts: Dict[int, object] = {}
        claims: Dict[int, Set[int]] = {worker_id: set()
                                       for worker_id in self._processes}
        # Latencies of the scored verdicts each replica delivered, and the
        # fused batches it reported: every replica launched for this stream
        # is listed, including one that died after delivering.
        scored: Dict[int, List[float]] = {worker_id: []
                                          for worker_id in self._processes}
        n_batches: Dict[int, int] = {}
        restarts_remaining = self.restart_budget
        n_expected = len(requests)

        def handle_death(worker_id: int) -> None:
            nonlocal restarts_remaining
            process = self._processes.pop(worker_id, None)
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - defensive
                    process.kill()
                    process.join(timeout=1.0)
            lost = sorted(claims.pop(worker_id, set()) - set(verdicts))
            for seq in lost:
                self._task_queue.put((seq, requests[seq], stamps[seq]))
            if lost:
                obs.count("fleet.redispatches", len(lost), worker=worker_id)
            if restarts_remaining > 0:
                restarts_remaining -= 1
                obs.count("fleet.restarts", worker=worker_id)
                replacement = self._spawn_worker()
                claims[replacement] = set()
                scored[replacement] = []
            if not self._processes:
                self.close()
                raise ParallelError(
                    "every fleet replica died and the restart budget is "
                    f"exhausted ({len(verdicts)}/{n_expected} verdicts in)")

        def fold_snapshot(worker_id: int, snapshot: Mapping[str, object]) -> None:
            obs.merge_snapshot(snapshot)
            n_batches[worker_id] = _n_batches(snapshot)

        def report_progress(fresh: List) -> None:
            if progress is None:
                return
            so_far = ReliabilityReport.from_snapshot(obs.metrics.snapshot(),
                                                     since=since)
            progress({
                "new_verdicts": fresh,
                "n_done": len(verdicts),
                "n_expected": n_expected,
                "elapsed_s": time.perf_counter() - started,
                "restarts": so_far.restarts,
                "redispatches": so_far.redispatches,
            })

        last_progress = time.monotonic()
        while len(verdicts) < n_expected:
            try:
                kind, worker_id, payload = self._result_queue.get(
                    timeout=_LIVENESS_POLL_S)
            except queue_module.Empty:
                # The result queue is drained, so any verdicts a dead
                # replica managed to flush were already merged — claims
                # minus verdicts is exactly the set to re-dispatch.
                for dead_id in [worker_id for worker_id, process
                                in list(self._processes.items())
                                if not process.is_alive()]:
                    handle_death(dead_id)
                    last_progress = time.monotonic()
                report_progress([])
                if time.monotonic() - last_progress > _WEDGED_AFTER_S:
                    self.close()
                    raise ParallelError(
                        f"fleet made no progress for {_WEDGED_AFTER_S:.0f}s "
                        f"({len(verdicts)}/{n_expected} verdicts in)")
                continue
            last_progress = time.monotonic()
            if kind == "claim":
                claims.setdefault(worker_id, set()).add(payload)
            elif kind == "verdicts":
                owned = claims.setdefault(worker_id, set())
                latencies = scored.setdefault(worker_id, [])
                fresh = []
                for seq, verdict in payload:
                    owned.discard(seq)
                    if seq in verdicts:
                        obs.count("fleet.duplicates")
                        continue
                    verdicts[seq] = verdict
                    fresh.append(verdict)
                    if verdict.is_scored:
                        latencies.append(verdict.latency_ms)
                if stamper is not None:
                    stamper.finish_all(fresh)
                if fresh:
                    report_progress(fresh)
            elif kind == "crashed":
                fold_snapshot(worker_id, payload)
                handle_death(worker_id)
            elif kind == "ready":
                claims.setdefault(worker_id, set())
            elif kind == "failed":
                self.close()
                payload.raise_()
        elapsed = time.perf_counter() - started

        for _ in self._processes:
            self._task_queue.put(None)
        shipped: Set[int] = set()
        while len(shipped) < len(self._processes):
            kind, worker_id, payload = self._get_result()
            if kind in ("stats", "crashed"):
                # A replica crashing during drain loses nothing (every
                # verdict is already in): fold its counts like any other.
                fold_snapshot(worker_id, payload)
                shipped.add(worker_id)
            elif kind == "verdicts":
                duplicates = sum(seq in verdicts for seq, _ in payload)
                if duplicates:
                    obs.count("fleet.duplicates", duplicates)
            elif kind == "failed":
                self.close()
                payload.raise_()
        self.close()  # workers have already exited on the sentinel; reap them

        tracker = LatencyTracker()
        per_worker = []
        for worker_id, latencies in sorted(scored.items()):
            for latency_ms in latencies:
                tracker.record(latency_ms)
            per_worker.append({
                "worker_id": worker_id,
                "n_requests": len(latencies),
                "n_batches": n_batches.get(worker_id, 0),
                "mean_ms": (float(sum(latencies) / len(latencies))
                            if latencies else 0.0),
            })
        report = FleetReport(
            n_workers=self.n_workers, start_method=self.start_method,
            throughput=tracker.report(elapsed), per_worker=per_worker,
            reliability=ReliabilityReport.from_snapshot(obs.metrics.snapshot(),
                                                        since=since),
            obs=obs.snapshot() if observe else None)
        return [verdicts[seq] for seq in range(n_expected)], report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkerFleet(n_workers={self.n_workers}, model={self.model!r}, "
                f"defense={self.defense!r}, start_method={self.start_method!r})")
