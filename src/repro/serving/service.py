"""The scoring service facade: API logs in, structured verdicts out.

:class:`ScoringService` exposes the trained ``log → features → verdict``
path as a reusable service.  Requests may carry a raw :class:`ApiLog`, a
pre-aggregated ``api -> count`` mapping, or an already-featurised vector
(the form adversarial traffic arrives in); every batch is featurised and
driven through a *single* fused ``predict_proba`` call on the engine path.

Two endpoint flavours coexist over the same bundle:

* **undefended** — the bare detector; the verdict label is the malware
  probability thresholded at :attr:`ScoringService.threshold`;
* **defended** — any :class:`~repro.defenses.base.DefendedDetector`
  (feature squeezing, ensemble, ...) wraps the decision, exactly as the
  Table VI evaluation consumes them.

Every verdict carries its own measured ``latency_ms``; the ``serve`` CLI
and the benchmark harness report p50/p95/throughput from the verdicts they
collected, through
:meth:`~repro.serving.stats.ThroughputReport.from_verdicts`.

Reliability hooks (all optional, all off by default):

* a :class:`~repro.reliability.retry.RetryPolicy` re-attempts failing
  flushes with backoff; a :class:`~repro.reliability.retry.CircuitBreaker`
  observes flush outcomes and, while open, sheds arriving submissions with
  an explicit ``Verdict(status="shed")`` instead of queueing them past the
  flush-deadline SLO;
* ``isolate_poison`` arms the micro-batcher's bisection path so a single
  poison request becomes a ``Verdict(status="error")`` instead of wedging
  the batch;
* ``slo_specs`` arm an :class:`~repro.obs.slo.SLOMonitor` fed by every
  flush; a breached ``on_breach="shed"`` spec sheds arriving requests and
  a breached ``on_breach="fallback"`` spec demotes a defended endpoint to
  the undefended fast path (verdicts then carry ``defense=None``);
* every such event is counted once, in the metrics registry of the
  service's :class:`~repro.obs.Instrumentation`;
  :attr:`ScoringService.reliability` is the summary of those counters the
  chaos benchmark asserts against.

Shed and error verdicts carry ``label=-1`` and are left out of throughput
reports — those describe scored requests only.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.apilog.log_format import ApiLog
from repro.config import CLASS_MALWARE, CLASS_NAMES
from repro.defenses.base import DefendedDetector
from repro.exceptions import ServingError
from repro.features.extraction import CountSource
from repro.obs.instrument import Instrumentation
from repro.obs.slo import SLOMonitor, SLOSpec
from repro.obs.trace import TraceContext
from repro.reliability import (CircuitBreaker, FaultInjector, ReliabilityReport,
                               RetryPolicy, maybe_fire)
from repro.serving.batcher import MicroBatcher
from repro.serving.registry import ServableModel

#: What a scoring request may carry: a log, a count mapping, or a feature row.
RequestPayload = Union[ApiLog, Mapping[str, int], np.ndarray]


def _is_count(count) -> bool:
    """Whether ``count`` is a finite, non-negative real that fits a float64."""
    if not isinstance(count, numbers.Real):
        return False
    try:
        return math.isfinite(count) and count >= 0
    except OverflowError:
        return False


@dataclass(frozen=True)
class ScoringRequest:
    """One unit of scoring work submitted to the service.

    ``trace`` is the optional distributed-tracing context a dispatcher
    stamps on (see :class:`~repro.obs.spans.TraceStamper`); the service
    then records each hop of the request's life — queue wait, batch wait,
    score time — as spans of that trace.  ``None`` (the default) traces
    nothing and costs one ``is None`` check.
    """

    request_id: str
    payload: RequestPayload
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class Verdict:
    """The structured result the service returns for one request.

    ``status`` distinguishes how the verdict was produced: ``"ok"`` for a
    scored request, ``"shed"`` for one refused under load-shedding, and
    ``"error"`` for a poison request isolated out of a batch.  Non-``ok``
    verdicts carry ``label=-1`` and a zero probability.
    """

    request_id: str
    malware_probability: float
    label: int
    verdict: str
    threshold: float
    model_name: str
    model_version: str
    defense: Optional[str]
    latency_ms: float
    status: str = "ok"

    @property
    def is_malware(self) -> bool:
        """Whether the request was flagged as malware."""
        return self.label == CLASS_MALWARE

    @property
    def is_scored(self) -> bool:
        """Whether the request was actually scored (not shed / errored)."""
        return self.status == "ok"

    def as_dict(self) -> dict:
        """JSON-serialisable representation."""
        data = asdict(self)
        data["malware_probability"] = round(float(data["malware_probability"]), 6)
        data["latency_ms"] = round(float(data["latency_ms"]), 6)
        return data


class ScoringService:
    """Batched malware scoring over one :class:`ServableModel`.

    Parameters
    ----------
    servable:
        The model + pipeline bundle (from a
        :class:`~repro.serving.registry.ModelRegistry`).
    detector:
        Optional defended detector wrapping the decision.  ``None`` serves
        the bare model.
    threshold:
        Malware-probability decision threshold for the undefended endpoint
        (strictly-greater comparison, so the default ``0.5`` reproduces the
        model's own ``argmax`` decision).
    max_batch_size / max_delay_ms:
        Micro-batching knobs for the online :meth:`submit` path.
    clock:
        Time source in seconds (injectable for deterministic tests).
    retry_policy:
        Optional :class:`~repro.reliability.retry.RetryPolicy` re-attempting
        failing flushes with backoff.
    circuit_breaker:
        Optional :class:`~repro.reliability.retry.CircuitBreaker` fed every
        flush outcome; while open, :meth:`submit` sheds instead of queueing.
    isolate_poison:
        Arm the micro-batcher's bisection path: a request whose flush keeps
        failing is answered with ``Verdict(status="error")`` instead of the
        default restore-and-raise.
    injector:
        Optional :class:`~repro.reliability.faults.FaultInjector`; when
        armed, each flush announces itself at the ``service.flush`` site.
    instrumentation:
        The :class:`~repro.obs.Instrumentation` the service counts into;
        ``None`` (the default) makes a sink-less one, so counting is always
        on while the event stream stays opt-in.  Every flush runs inside a
        ``service.flush`` span (tagged with the batch size), the
        ``serve.requests`` / ``serve.sheds`` / ``serve.fallbacks`` /
        ``serve.errors`` / ``serve.flush_retries`` / ``serve.breaker_trips``
        / ``serve.flush_failures`` counters track degradation, fired faults
        count as ``fault.service.flush``, and the micro-batcher reports its
        queue depth and batch sizes.  Requests carrying a
        :class:`~repro.obs.trace.TraceContext` additionally get per-hop
        spans (``fleet.queue``, ``batcher.enqueue``, ``request.score``)
        recorded against their trace.
    slo_specs:
        Optional :class:`~repro.obs.slo.SLOSpec` objectives.  When given,
        the service builds an :class:`~repro.obs.slo.SLOMonitor` on its
        instrumentation (alerts count and emit there); every flush feeds
        its verdict latencies in and re-evaluates the burn-rate windows
        (on this service's ``clock``).  A breached spec with
        ``on_breach="shed"`` makes :meth:`submit` shed arriving requests
        while the breach is active, and ``on_breach="fallback"``
        permanently demotes a defended endpoint to the undefended fast
        path — degradation driven by measured burn instead of breaker
        trips.
    """

    def __init__(self, servable: ServableModel,
                 detector: Optional[DefendedDetector] = None,
                 threshold: float = 0.5,
                 max_batch_size: int = 32, max_delay_ms: float = 2.0,
                 clock: Callable[[], float] = time.perf_counter,
                 retry_policy: Optional[RetryPolicy] = None,
                 circuit_breaker: Optional[CircuitBreaker] = None,
                 isolate_poison: bool = False,
                 injector: Optional[FaultInjector] = None,
                 instrumentation=None,
                 slo_specs: Optional[Sequence[SLOSpec]] = None) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ServingError(f"threshold must lie in [0, 1], got {threshold}")
        self.servable = servable
        self.detector = detector
        self.threshold = float(threshold)
        self._clock = clock
        self._breaker = circuit_breaker
        self._injector = injector
        self._obs = (instrumentation if instrumentation is not None
                     else Instrumentation())
        self._slo = (SLOMonitor(slo_specs, instrumentation=self._obs)
                     if slo_specs else None)
        self._trace_pickups: dict = {}
        self._fallen_back = False
        self._batcher: MicroBatcher[Tuple[ScoringRequest, float], Verdict] = MicroBatcher(
            self._flush_items, max_batch_size=max_batch_size,
            max_delay_ms=max_delay_ms, clock=clock,
            retry_policy=retry_policy,
            error_fn=self._error_verdict if isolate_poison else None,
            instrumentation=self._obs)
        self._request_counter = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def pipeline(self):
        """The bundle's feature pipeline."""
        return self.servable.pipeline

    @property
    def n_features(self) -> int:
        """Feature dimensionality the service scores."""
        return self.servable.n_features

    @property
    def defense_name(self) -> Optional[str]:
        """Name of the wrapping defense (None for the undefended endpoint).

        Also ``None`` after a reliability fallback demoted the endpoint —
        verdicts must advertise the decision path actually taken.
        """
        if self.detector is None or self._fallen_back:
            return None
        return self.detector.name

    @property
    def fell_back(self) -> bool:
        """Whether the defended endpoint fell back to the undefended path."""
        return self._fallen_back

    @property
    def pending(self) -> int:
        """Requests waiting in the micro-batcher."""
        return self._batcher.pending

    @property
    def max_batch_size(self) -> int:
        """The micro-batcher's fixed-size flush threshold."""
        return self._batcher.max_batch_size

    @property
    def max_delay_ms(self) -> float:
        """The micro-batcher's latency SLO in milliseconds."""
        return self._batcher.max_delay_ms

    @property
    def n_batches(self) -> int:
        """Fused batches scored so far."""
        return self._batcher.n_flushes

    @property
    def reliability(self) -> ReliabilityReport:
        """The reliability events this service's registry counted so far."""
        return ReliabilityReport.from_snapshot(self._obs.metrics.snapshot())

    # ------------------------------------------------------------------ #
    # Request construction / featurisation
    # ------------------------------------------------------------------ #
    def make_request(self, source: Union[ScoringRequest, RequestPayload],
                     request_id: Optional[str] = None) -> ScoringRequest:
        """Coerce a payload into a :class:`ScoringRequest` with a stable id.

        Raw payloads are validated here — at the door — so a malformed
        request is rejected on :meth:`submit` instead of poisoning the whole
        micro-batch at flush time.  Pre-wrapped :class:`ScoringRequest`
        objects (bulk streams from trusted producers like the load
        generator) take the fast path and are validated per batch on flush;
        if one does fail there, the batcher restores the other queued
        requests rather than dropping them.
        """
        if isinstance(source, ScoringRequest):
            return source
        if isinstance(source, np.ndarray):
            vector = np.asarray(source, dtype=np.float64).reshape(-1)
            if vector.shape[0] != self.n_features:
                raise ServingError(
                    f"request carries {vector.shape[0]} features but the model "
                    f"expects {self.n_features}")
            if not np.all(np.isfinite(vector)):
                raise ServingError("request carries non-finite features")
            source = vector          # store the validated (n_features,) shape
        elif isinstance(source, Mapping):
            malformed = [api for api, count in source.items()
                         if not isinstance(api, str) or not _is_count(count)]
            if malformed:
                raise ServingError(
                    f"request carries malformed counts for {malformed[:3]}: API "
                    f"names must be strings and counts finite, non-negative numbers")
        elif not isinstance(source, ApiLog):
            raise ServingError(
                f"unsupported payload type {type(source).__name__}; expected an "
                f"ApiLog, an api->count mapping, or a feature vector")
        if request_id is None:
            if isinstance(source, ApiLog) and source.sample_id != "unknown":
                request_id = source.sample_id
            else:
                self._request_counter += 1
                request_id = f"req-{self._request_counter:06d}"
        return ScoringRequest(request_id=request_id, payload=source)

    def _features_of(self, requests: Sequence[ScoringRequest]) -> np.ndarray:
        """Featurise a batch: one row per request, logs through the pipeline.

        Pre-featurised payloads are validated and stacked with whole-batch
        numpy calls (not per row) — the micro-batcher's throughput win
        depends on the per-request Python overhead staying O(1) per batch.
        """
        feature_indices: List[int] = []
        feature_payloads: List[np.ndarray] = []
        log_indices: List[int] = []
        log_sources: List[CountSource] = []
        for index, request in enumerate(requests):
            payload = request.payload
            if isinstance(payload, np.ndarray):
                feature_indices.append(index)
                feature_payloads.append(payload)
            elif isinstance(payload, (ApiLog, Mapping)):
                log_indices.append(index)
                log_sources.append(payload)
            else:
                raise ServingError(
                    f"request {request.request_id!r} has unsupported payload type "
                    f"{type(payload).__name__}")
        rows = np.zeros((len(requests), self.n_features), dtype=np.float64)
        if feature_payloads:
            shapes = {payload.shape for payload in feature_payloads}
            if shapes != {(self.n_features,)}:
                bad = next(request for request in requests
                           if isinstance(request.payload, np.ndarray)
                           and request.payload.shape != (self.n_features,))
                raise ServingError(
                    f"request {bad.request_id!r} carries features of shape "
                    f"{bad.payload.shape} but the model expects ({self.n_features},)")
            matrix = np.asarray(feature_payloads, dtype=np.float64)
            if not np.all(np.isfinite(matrix)):
                bad_row = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
                raise ServingError(
                    f"request {requests[feature_indices[bad_row]].request_id!r} "
                    f"carries non-finite features")
            rows[feature_indices] = matrix
        if log_sources:
            rows[log_indices] = self.pipeline.transform(log_sources)
        return rows

    # ------------------------------------------------------------------ #
    # Scoring core (one fused predict per batch)
    # ------------------------------------------------------------------ #
    def _decide(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(malware probabilities, hard labels) from one fused model call."""
        if self.detector is not None and not self._fallen_back:
            probabilities, labels = self.detector.decide(features)
        else:
            probabilities = self.servable.model.malware_confidence(features)
            labels = (probabilities > self.threshold).astype(np.int64)
        return np.asarray(probabilities, dtype=np.float64), np.asarray(labels)

    def _verdicts_for(self, requests: Sequence[ScoringRequest],
                      enqueued_at: Sequence[float]) -> Tuple[List[Verdict], float]:
        """The verdicts and the clock stamp their latencies run up to."""
        features = self._features_of(requests)
        if features.shape[0] == 0:
            return [], self._clock()
        probabilities, labels = self._decide(features)
        finished = self._clock()
        # Hot loop: one Verdict per request per batch — keep lookups local.
        # A frozen dataclass's __init__ sets each field through
        # object.__setattr__, which cost most of the batched path's
        # per-request time; filling a new instance's __dict__ with every
        # field builds the same Verdict.
        new = object.__new__
        threshold = self.threshold
        model_name = self.servable.name
        model_version = self.servable.version
        defense = self.defense_name
        verdicts = []
        for request, started, probability, label in zip(
                requests, enqueued_at, probabilities.tolist(),
                labels.astype(np.int64, copy=False).tolist()):
            latency_ms = max(0.0, (finished - started) * 1000.0)
            verdict = new(Verdict)
            verdict.__dict__.update(
                request_id=request.request_id,
                malware_probability=probability,
                label=label,
                verdict=CLASS_NAMES[label],
                threshold=threshold,
                model_name=model_name,
                model_version=model_version,
                defense=defense,
                latency_ms=latency_ms,
                status="ok",
            )
            verdicts.append(verdict)
        return verdicts, finished

    def _flush_items(self, items: List[Tuple[ScoringRequest, float]]) -> List[Verdict]:
        """One flush attempt: injector site, scoring, breaker accounting.

        The whole attempt runs inside one per-batch ``service.flush`` span;
        failures count in ``serve.flush_failures`` and scored requests in
        ``serve.requests``.  Traced requests get their ``batcher.enqueue``
        / ``request.score`` spans recorded here, and an attached SLO
        monitor is fed and re-evaluated once per flush — batch-level work,
        like every other instrumentation point.
        """
        with self._obs.span("service.flush", n=len(items)) as flush_span:
            try:
                verdicts, finished = self._flush_attempt(items)
            except BaseException:
                self._obs.count("serve.flush_failures")
                raise
            self._obs.count("serve.requests", len(verdicts))
            if self._trace_pickups:  # only traced requests have hop spans
                self._record_request_spans(items, flush_span.started, finished)
            if self._slo is not None:
                self._feed_slo(verdicts)
            return verdicts

    def _record_request_spans(self, items: Sequence[Tuple[ScoringRequest, float]],
                              flush_started: float, finished: float) -> None:
        """Close the per-hop spans of every traced request in the batch.

        ``request.score`` ends at ``finished``, the stamp the verdicts'
        latencies were measured to, so a request's hops sum to its latency.
        """
        obs = self._obs
        pickups = self._trace_pickups
        batch = len(items)
        for request, _ in items:
            trace = request.trace
            if trace is None:
                continue
            pickup = pickups.pop(request.request_id, None)
            if pickup is not None:
                obs.record_span("batcher.enqueue", pickup, flush_started,
                                trace=trace)
            obs.record_span("request.score", flush_started, finished,
                            trace=trace, batch=batch)

    def _feed_slo(self, verdicts: Sequence[Verdict]) -> None:
        """Feed one flush's outcomes to the SLO monitor and re-evaluate.

        The monitor runs on this service's clock so window bucketing and
        verdict timing share one time base.  A breached fallback-form spec
        permanently demotes a defended endpoint.
        """
        slo = self._slo
        now = self._clock()
        for verdict in verdicts:
            slo.observe_verdict(verdict, now=now)
        slo.evaluate(now=now)
        if (slo.wants_fallback() and not self._fallen_back
                and self.detector is not None):
            self._fallen_back = True
            self._obs.count("serve.fallbacks")

    def _flush_attempt(self, items: List[Tuple[ScoringRequest, float]]
                       ) -> Tuple[List[Verdict], float]:
        try:
            maybe_fire(self._injector, "service.flush", obs=self._obs,
                       n=len(items))
            requests = [request for request, _ in items]
            enqueued = [started for _, started in items]
            verdicts, finished = self._verdicts_for(requests, enqueued)
        except Exception:
            if self._breaker is not None:
                trips = self._breaker.n_trips
                self._breaker.record_failure()
                if self._breaker.n_trips > trips:
                    self._obs.count("serve.breaker_trips")
            raise
        if self._breaker is not None:
            self._breaker.record_success()
        return verdicts, finished

    # ------------------------------------------------------------------ #
    # Degraded verdicts (shed / error) — never counted as scored
    # ------------------------------------------------------------------ #
    def _degraded_verdict(self, request: ScoringRequest, started: float,
                          status: str) -> Verdict:
        return Verdict(
            request_id=request.request_id,
            malware_probability=0.0,
            label=-1,
            verdict=status,
            threshold=self.threshold,
            model_name=self.servable.name,
            model_version=self.servable.version,
            defense=self.defense_name,
            latency_ms=max(0.0, (self._clock() - started) * 1000.0),
            status=status,
        )

    def _error_verdict(self, item: Tuple[ScoringRequest, float],
                       error: Exception) -> Verdict:
        """The batcher's poison-isolation hook: one bad request, answered.

        The batcher has already counted the isolation in ``serve.errors``.
        """
        request, started = item
        if request.trace is not None:
            pickup = self._trace_pickups.pop(request.request_id, started)
            self._obs.record_span("request.score", pickup, self._clock(),
                                  trace=request.trace, error=True)
        if self._slo is not None:
            self._slo.observe(good=False, now=self._clock())
        return self._degraded_verdict(request, started, "error")

    def _should_shed(self) -> bool:
        """Whether an arriving submission must be refused right now.

        Two independent triggers: an open circuit breaker (flushes are
        *failing*) and an active shed-armed SLO breach (flushes succeed
        but burn the latency budget too fast).
        """
        if self._breaker is not None and not self._breaker.allow():
            return True
        return self._slo is not None and self._slo.should_shed()

    # ------------------------------------------------------------------ #
    # Public scoring API
    # ------------------------------------------------------------------ #
    def score(self, source: Union[ScoringRequest, RequestPayload],
              request_id: Optional[str] = None) -> Verdict:
        """Score one request immediately (batch of one)."""
        request = self.make_request(source, request_id)
        verdicts, _ = self._verdicts_for([request], [self._clock()])
        return verdicts[0]

    def score_many(self, sources: Sequence[Union[ScoringRequest, RequestPayload]]
                   ) -> List[Verdict]:
        """Score a whole collection as one fused batch (the offline path)."""
        requests = [self.make_request(source) for source in sources]
        started = self._clock()
        verdicts, _ = self._verdicts_for(requests, [started] * len(requests))
        return verdicts

    def submit(self, source: Union[ScoringRequest, RequestPayload],
               request_id: Optional[str] = None,
               enqueued_at: Optional[float] = None) -> List[Verdict]:
        """Enqueue one request on the micro-batcher (the online path).

        Returns the verdicts of any flush this submission triggered; call
        :meth:`poll` between arrivals and :meth:`drain` at stream end to
        collect the rest.  ``enqueued_at`` (same time base as ``clock``)
        backdates the latency measurement to when the request entered an
        upstream queue — the :class:`~repro.parallel.fleet.WorkerFleet`
        dispatcher uses it so fleet latencies include queueing delay.

        While a configured circuit breaker is open (flushes repeatedly
        failing) the request is *shed*: answered immediately with
        ``Verdict(status="shed")`` rather than queued past a deadline it
        cannot meet.
        """
        request = self.make_request(source, request_id)
        started = enqueued_at if enqueued_at is not None else self._clock()
        if self._should_shed():
            self._obs.count("serve.sheds")
            return [self._degraded_verdict(request, started, "shed")]
        if request.trace is not None:
            # The queue-wait hop ends here: dispatcher enqueue -> pickup.
            pickup = self._clock()
            self._obs.record_span("fleet.queue", started, pickup,
                                  trace=request.trace)
            self._trace_pickups[request.request_id] = pickup
        return self._batcher.submit((request, started))

    def poll(self) -> List[Verdict]:
        """Force a flush if the oldest pending request exceeded the delay SLO."""
        return self._batcher.poll()

    def drain(self) -> List[Verdict]:
        """Flush whatever is still pending and return its verdicts."""
        return self._batcher.flush()

    @property
    def deadline(self) -> Optional[float]:
        """Clock time the pending batch must flush by (None when empty)."""
        return self._batcher.deadline

    def clear_pending(self) -> List[ScoringRequest]:
        """Drop the queued requests (recovery after a failing flush)."""
        return [request for request, _ in self._batcher.clear()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScoringService(model={self.servable.name!r}, "
                f"version={self.servable.version!r}, "
                f"defense={self.defense_name!r})")
