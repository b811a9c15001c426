"""repro.obs — the lightweight instrumentation core.

Three primitives, one facade:

* :mod:`repro.obs.events` — structured :class:`ObsEvent` records and the
  pluggable :class:`EventSink` protocol (:class:`ListSink` buffers for
  tests and for fleet workers forwarding to their dispatcher);
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and O(1) summary histograms with associative snapshot merging;
* :mod:`repro.obs.trace` — nested, monotonic-clock :class:`Tracer` spans
  with span/parent ids, plus the :class:`TraceContext` that carries a
  request's trace across the fleet's process boundary;
* :mod:`repro.obs.instrument` — the :class:`Instrumentation` facade plus
  the ambient :func:`current` / :func:`instrumented` context used by deep
  library code (JSMA step loop, artifact cache) that cannot take an
  explicit instrumentation argument.

On top of the core sit three serving-observability layers:

* :mod:`repro.obs.spans` — the distributed-tracing halves:
  :class:`TraceStamper` (dispatcher-side root spans) and
  :class:`SpanCollector` (per-request span trees with orphan flagging and
  queue/batch-wait/score breakdowns);
* :mod:`repro.obs.slo` — declarative :class:`SLOSpec` objectives under
  multi-window burn-rate alerting (:class:`SLOMonitor`), optionally
  arming service shed/fallback degradation;
* :mod:`repro.obs.live` — atomically-published live snapshots, the
  ``cli top`` dashboard rendering and Prometheus text exposition.

The serving, fleet and grid layers always count into an
:class:`Instrumentation` — the one passed in, or a sink-less default — so
the metrics registry is the single ledger of their events, and
:class:`~repro.reliability.report.ReliabilityReport` is a summary read
from it.  Event sinks and request tracing stay opt-in, and deep library
code (JSMA, the artifact cache) is observed only under an ambient
instrumentation.  The serving benchmark pins the cost of an armed sink at
≤5% of batched throughput with byte-identical verdicts.

Instrumented sites (see each module's docs for the exact metric names;
``fault.<site>`` counts the injected faults fired at each site):

================== ====================================================
seam               metrics
================== ====================================================
ScoringService     ``span.service.flush``, ``serve.requests``,
                   ``serve.sheds``, ``serve.fallbacks``,
                   ``serve.breaker_trips``, ``serve.flush_failures``,
                   ``fault.service.flush``; per traced request:
                   ``span.fleet.queue``, ``span.batcher.enqueue``,
                   ``span.request.score``
MicroBatcher       ``batcher.queue_depth`` (gauge),
                   ``batcher.batch_size`` (histogram),
                   ``batcher.flush_lag_ms`` (histogram: flush time past
                   the oldest item's deadline), ``serve.flush_retries``,
                   ``serve.errors`` (poison requests isolated)
SLOMonitor         ``alert.slo.<name>`` + one ``alert`` event per breach
WorkerFleet        ``fleet.dispatches``, ``fleet.redispatches``,
                   ``fleet.restarts``, ``fleet.duplicates``,
                   ``fault.fleet.dispatch`` + merged per-worker snapshots
GridExecutor       ``span.grid.cell``, ``grid.cells``,
                   ``grid.cell_retries``, ``grid.cell_timeouts``,
                   ``fault.grid.cell`` (serial path)
JsmaAttack         ``span.attack.jsma``, ``jsma.steps``,
                   ``jsma.features_flipped``, ``jsma.evasions``
ArtifactCache      ``cache.hits``, ``cache.misses``,
                   ``cache.build_seconds`` (histogram),
                   ``fault.cache.lock``
================== ====================================================
"""

from repro.obs.events import (
    EVENT_KINDS,
    EventSink,
    ListSink,
    NullSink,
    ObsEvent,
)
from repro.obs.instrument import Instrumentation, current, instrumented
from repro.obs.live import (
    LivePublisher,
    prometheus_exposition,
    read_snapshot,
    render_top,
    snapshot_path,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SLOMonitor, SLOSpec, SLOStatus
from repro.obs.spans import (
    BREAKDOWN_SPANS,
    SpanCollector,
    SpanNode,
    SpanTree,
    TraceStamper,
    breakdown_summary,
)
from repro.obs.trace import Span, TraceContext, Tracer

__all__ = [
    "EVENT_KINDS",
    "EventSink",
    "ListSink",
    "NullSink",
    "ObsEvent",
    "Instrumentation",
    "current",
    "instrumented",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "BREAKDOWN_SPANS",
    "SpanCollector",
    "SpanNode",
    "SpanTree",
    "TraceStamper",
    "breakdown_summary",
    "SLOMonitor",
    "SLOSpec",
    "SLOStatus",
    "LivePublisher",
    "prometheus_exposition",
    "read_snapshot",
    "render_top",
    "snapshot_path",
]
