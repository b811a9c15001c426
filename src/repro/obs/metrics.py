"""In-process metrics registry: counters, gauges and summary histograms.

The registry is the *aggregating* half of the instrumentation core (spans
are the *timing* half, see :mod:`repro.obs.trace`).  Every metric is named
and created on first use, so instrumented sites never need registration
boilerplate::

    metrics.counter("serve.sheds").inc()
    metrics.gauge("batcher.queue_depth").set(7)
    metrics.histogram("cache.build_seconds").observe(12.3)

Histograms keep O(1) summary state (count / sum / min / max), not samples —
a minutes-long soak observes millions of values and the registry must not
grow with them.  Full distributions belong in the analytics store; exact
request-latency quantiles come from the verdicts themselves, through
:meth:`~repro.serving.stats.ThroughputReport.from_verdicts`.

Snapshots are plain nested dicts, and :meth:`MetricsRegistry.merge_snapshot`
folds one registry's snapshot into another associatively — that is how a
:class:`~repro.parallel.fleet.WorkerFleet` dispatcher aggregates the
registries its worker processes ship back over the result queue, and the
only way worker counts are combined.
"""

from __future__ import annotations

import math
from time import monotonic as _monotonic
from typing import Dict, Mapping

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time level (most *recent* write wins).

    Every :meth:`set` records a monotonic ``stamp`` alongside the value.
    Within one process "last write" and "greatest stamp" coincide; across
    processes the stamp is what makes merging deterministic —
    :meth:`MetricsRegistry.merge_snapshot` keeps the value with the
    greatest ``(stamp, value)`` pair, which is associative and commutative,
    so folding per-worker snapshots in any arrival order yields the same
    "last" (``time.monotonic`` is CLOCK_MONOTONIC on Linux, comparable
    across processes on one machine).  A gauge never set keeps
    ``stamp=-inf`` so any real write beats it.
    """

    __slots__ = ("name", "value", "max_value", "stamp")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0
        self.stamp = -math.inf

    def set(self, value: float) -> None:
        self.value = float(value)
        self.stamp = _monotonic()
        if self.value > self.max_value:
            self.max_value = self.value


class Histogram:
    """O(1) summary of an observed distribution (count/sum/min/max)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of the observations (0.0 before the first one)."""
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named metrics, created on first use.

    Names are dot-separated paths (``serve.sheds``, ``jsma.steps``); the
    same name always resolves to the same metric object, and asking for an
    existing name with a *different* metric kind is an error — a counter
    silently shadowing a gauge would corrupt both.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {"counter": self._counters, "gauge": self._gauges,
                  "histogram": self._histograms}
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}, "
                    f"cannot reuse it as a {kind}")

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        metric = self._counters.get(name)
        if metric is None:
            self._check_unique(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        metric = self._gauges.get(name)
        if metric is None:
            self._check_unique(name, "gauge")
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        metric = self._histograms.get(name)
        if metric is None:
            self._check_unique(name, "histogram")
            metric = self._histograms[name] = Histogram(name)
        return metric

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict view of every metric (queue transport / ingestion)."""
        return {
            "counters": {name: counter.value
                         for name, counter in sorted(self._counters.items())},
            "gauges": {name: {"value": gauge.value, "max": gauge.max_value,
                              "stamp": gauge.stamp}
                       for name, gauge in sorted(self._gauges.items())},
            "histograms": {
                name: {"count": hist.count, "sum": hist.total,
                       "min": (hist.min if hist.count else 0.0),
                       "max": (hist.max if hist.count else 0.0),
                       "mean": hist.mean}
                for name, hist in sorted(self._histograms.items())},
        }

    def merge_snapshot(self, snapshot: Mapping[str, Mapping[str, object]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram counts/sums add.  A gauge's ``max`` keeps
        the maximum, and its "last" value goes to the greatest
        ``(stamp, value)`` pair — both associative and commutative folds,
        so merging per-worker snapshots gives the same result in any
        arrival order.  Snapshots predating gauge stamps merge with
        ``stamp=-inf`` (value breaks the tie), preserving the old
        max-value behaviour among themselves while never overriding a
        genuinely stamped write.
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).inc(float(value))
        for name, payload in (snapshot.get("gauges") or {}).items():
            gauge = self.gauge(name)
            peak = float(payload["max"])
            if peak > gauge.max_value:
                gauge.max_value = peak
            stamp = float(payload.get("stamp", -math.inf))
            if (stamp, float(payload["value"])) > (gauge.stamp, gauge.value):
                gauge.value = float(payload["value"])
                gauge.stamp = stamp
        for name, payload in (snapshot.get("histograms") or {}).items():
            hist = self.histogram(name)
            count = int(payload["count"])
            if count == 0:
                continue
            hist.count += count
            hist.total += float(payload["sum"])
            hist.min = min(hist.min, float(payload["min"]))
            hist.max = max(hist.max, float(payload["max"]))

    def empty(self) -> bool:
        """True when no metric was ever touched."""
        return not (self._counters or self._gauges or self._histograms)
