"""Live run snapshots: the data path behind ``cli top`` and metric export.

A replay publishes its progress as one small JSON file,
``<store>/live/snapshot.json``, rewritten atomically (tmp sibling +
``os.replace``) after every verdict-bearing flush — so any number of
``cli top`` processes can poll the file without locks and never observe a
torn write.  The publisher rides the ``progress`` callback both
:func:`repro.serving.loadgen.replay` and
:meth:`repro.parallel.WorkerFleet.score_stream` expose, so one publisher
serves the single-process and fleet paths alike.

Three consumers read the snapshot:

* :func:`render_top` — the refreshing terminal dashboard ``cli top``
  draws: progress, rps, in-flight depth, latency quantiles, per-SLO
  burn rates, restarts and active alerts;
* :func:`prometheus_exposition` — Prometheus text-format exposition of
  the embedded metrics registry snapshot (``cli export-metrics``);
* tests/CI — the payload is plain JSON with stable keys.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.obs.instrument import Instrumentation
from repro.obs.slo import SLOMonitor

__all__ = ["LIVE_SNAPSHOT", "LivePublisher", "snapshot_path",
           "read_snapshot", "render_top", "prometheus_exposition"]

#: Snapshot location relative to the analytics-store root.
LIVE_SNAPSHOT = Path("live") / "snapshot.json"


def snapshot_path(store_root: Union[str, Path]) -> Path:
    """Where a run rooted at ``store_root`` publishes its live snapshot."""
    return Path(store_root) / LIVE_SNAPSHOT


def read_snapshot(store_root: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The last published snapshot under ``store_root`` (None when absent)."""
    path = snapshot_path(store_root)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except ValueError:
        return None  # torn writes are impossible; a hand-edited file is not


class LivePublisher:
    """Progress-callback publisher of atomically-replaced live snapshots.

    Use it as the ``progress=`` callback of a replay.  Each call folds the
    fresh verdicts into running latency/status tallies, feeds the optional
    display-side :class:`~repro.obs.slo.SLOMonitor`, and (rate-limited to
    ``interval_s``) republishes the snapshot file.  ``finish`` forces a
    final publish carrying the end-of-run metrics snapshot.

    Parameters
    ----------
    store_root:
        Analytics-store root; the snapshot lands under ``live/``.
    instrumentation:
        Optional dispatcher-side :class:`~repro.obs.Instrumentation` whose
        metrics registry is embedded in each snapshot (queue gauges,
        counters — what ``export-metrics`` exposes).
    slo:
        Optional display-side monitor evaluated on the verdict stream the
        dispatcher sees; its statuses render as the dashboard's burn-rate
        rows.  Independent of the worker-side monitors that gate shedding.
    stamper:
        Optional :class:`~repro.obs.spans.TraceStamper` to close root
        spans as verdicts arrive (the single-process serving path; the
        fleet dispatcher finishes its own).
    interval_s:
        Minimum seconds between snapshot writes (the final ``finish``
        write always happens).
    """

    def __init__(self, store_root: Union[str, Path],
                 instrumentation: Optional[Instrumentation] = None,
                 slo: Optional[SLOMonitor] = None,
                 stamper=None,
                 interval_s: float = 0.5,
                 clock: Callable[[], float] = time.monotonic,
                 wall_clock: Callable[[], float] = time.time) -> None:
        self.path = snapshot_path(store_root)
        self._obs = instrumentation
        self._slo = slo
        self._stamper = stamper
        self.interval_s = float(interval_s)
        self._clock = clock
        self._wall_clock = wall_clock
        self._last_write: Optional[float] = None
        self._latencies: List[float] = []
        self._status_counts: Dict[str, int] = {}
        self._last_info: Dict[str, object] = {}
        self.n_published = 0

    def __call__(self, info: Mapping[str, object]) -> None:
        """Fold one progress tick; republish if the write interval passed."""
        fresh = info.get("new_verdicts") or []
        now = None
        if fresh:
            if self._stamper is not None:
                self._stamper.finish_all(fresh)
            for verdict in fresh:
                status = getattr(verdict, "status", "ok")
                self._status_counts[status] = \
                    self._status_counts.get(status, 0) + 1
                if status == "ok":
                    self._latencies.append(float(verdict.latency_ms))
                if self._slo is not None:
                    if now is None:
                        now = self._clock()
                    self._slo.observe_verdict(verdict, now=now)
            if self._slo is not None:
                self._slo.evaluate(now=now)
        self._last_info = {key: value for key, value in info.items()
                           if key != "new_verdicts"}
        elapsed = self._clock()
        if (self._last_write is None
                or elapsed - self._last_write >= self.interval_s):
            self.publish()

    def build(self) -> Dict[str, object]:
        """The current snapshot payload (JSON-safe plain types)."""
        info = self._last_info
        n_done = int(info.get("n_done", sum(self._status_counts.values())))
        n_expected = int(info.get("n_expected", 0))
        elapsed_s = float(info.get("elapsed_s", 0.0))
        latencies = np.asarray(self._latencies, dtype=np.float64)
        quantiles = {}
        if latencies.size:
            quantiles = {
                "p50_ms": float(np.percentile(latencies, 50)),
                "p99_ms": float(np.percentile(latencies, 99)),
                "max_ms": float(latencies.max()),
            }
        payload: Dict[str, object] = {
            "updated_at": self._wall_clock(),
            "n_done": n_done,
            "n_expected": n_expected,
            "in_flight": max(0, n_expected - n_done),
            "elapsed_s": elapsed_s,
            "rps": (n_done / elapsed_s if elapsed_s > 0 else 0.0),
            "latency": quantiles,
            "statuses": dict(self._status_counts),
            "restarts": int(info.get("restarts", 0)),
            "redispatches": int(info.get("redispatches", 0)),
            "slo": self._slo.snapshot() if self._slo is not None else [],
            "alerts": (sorted(self._slo.active_alerts)
                       if self._slo is not None else []),
            "metrics": (self._obs.metrics.snapshot()
                        if self._obs is not None else None),
        }
        return payload

    def publish(self, extra: Optional[Mapping[str, object]] = None) -> Path:
        """Atomically replace the snapshot file with the current payload."""
        payload = self.build()
        if extra:
            payload.update(extra)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = self.path.with_name(f".tmp-{self.path.name}")
        tmp_path.write_text(json.dumps(payload, sort_keys=True, default=float),
                            encoding="utf-8")
        os.replace(tmp_path, self.path)  # readers never see a torn file
        self._last_write = self._clock()
        self.n_published += 1
        return self.path

    def finish(self, obs_snapshot: Optional[Mapping[str, object]] = None) -> Path:
        """Force the final publish, embedding the end-of-run metrics.

        ``obs_snapshot`` (an :meth:`Instrumentation.snapshot`, e.g. the
        fleet's merged one) overrides the dispatcher-local metrics so the
        exported exposition covers every replica.
        """
        extra: Dict[str, object] = {"finished": True}
        if obs_snapshot:
            extra["metrics"] = obs_snapshot.get("metrics")
        return self.publish(extra=extra)


# --------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------- #
def _fmt_ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}ms"


def render_top(payload: Optional[Mapping[str, object]],
               now: Optional[float] = None) -> str:
    """The ``cli top`` dashboard text for one snapshot payload."""
    if payload is None:
        return ("repro top — no live snapshot yet\n"
                "(start a replay with `serve --observe --store DIR` "
                "pointing at this store)")
    age = ""
    if now is None:
        now = time.time()
    updated = payload.get("updated_at")
    if updated is not None:
        age = f"  (updated {max(0.0, now - float(updated)):.1f}s ago)"
    state = "finished" if payload.get("finished") else "running"
    lines = [f"repro top — {state}{age}"]

    n_done = int(payload.get("n_done", 0))
    n_expected = int(payload.get("n_expected", 0))
    share = f" ({n_done / n_expected:.0%})" if n_expected else ""
    lines.append(f"progress   {n_done}/{n_expected}{share}"
                 f"   elapsed {float(payload.get('elapsed_s', 0.0)):.1f}s"
                 f"   rps {float(payload.get('rps', 0.0)):,.1f}"
                 f"   in-flight {int(payload.get('in_flight', 0))}")

    latency = payload.get("latency") or {}
    lines.append(f"latency    p50 {_fmt_ms(latency.get('p50_ms'))}"
                 f"   p99 {_fmt_ms(latency.get('p99_ms'))}"
                 f"   max {_fmt_ms(latency.get('max_ms'))}")

    statuses = payload.get("statuses") or {}
    lines.append(f"fleet      restarts {int(payload.get('restarts', 0))}"
                 f"   redispatches {int(payload.get('redispatches', 0))}"
                 f"   shed {statuses.get('shed', 0)}"
                 f"   errors {statuses.get('error', 0)}")

    metrics = payload.get("metrics") or {}
    gauges = (metrics.get("gauges") or {}) if metrics else {}
    depth = gauges.get("batcher.queue_depth")
    if depth:
        lines.append(f"batcher    queue depth last {depth['value']:g} "
                     f"max {depth['max']:g}")

    for status in payload.get("slo") or []:
        flag = "BREACH" if status.get("breached") else "ok"
        lines.append(
            f"slo        {status['name']:<12}"
            f" attainment {float(status.get('attainment', 1.0)):.1%}"
            f"   burn fast {float(status.get('fast_burn', 0.0)):.1f}"
            f" / slow {float(status.get('slow_burn', 0.0)):.1f}"
            f"   {flag} ({status.get('on_breach', 'alert')})")

    alerts = payload.get("alerts") or []
    lines.append("alerts     " + (", ".join(alerts) if alerts else "none"))
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Prometheus exposition
# --------------------------------------------------------------------- #
def _prom_name(name: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if safe and safe[0].isdigit():
        safe = f"_{safe}"
    return f"repro_{safe}"


def prometheus_exposition(metrics: Optional[Mapping[str, object]]) -> str:
    """Prometheus text-format exposition of a metrics-registry snapshot.

    ``metrics`` is the ``{"counters": ..., "gauges": ..., "histograms":
    ...}`` mapping a :meth:`MetricsRegistry.snapshot` produces (or the
    ``metrics`` key of a live snapshot).  Counters follow the ``_total``
    convention; histograms export ``_count`` / ``_sum`` plus ``_max``.
    """
    metrics = metrics or {}
    lines: List[str] = []
    for name, value in sorted((metrics.get("counters") or {}).items()):
        metric = f"{_prom_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {float(value):g}")
    for name, payload in sorted((metrics.get("gauges") or {}).items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {float(payload['value']):g}")
        lines.append(f"# TYPE {metric}_max gauge")
        lines.append(f"{metric}_max {float(payload['max']):g}")
    for name, payload in sorted((metrics.get("histograms") or {}).items()):
        metric = _prom_name(name)
        count = float(payload.get("count", 0.0))
        mean = float(payload.get("mean", 0.0))
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {count:g}")
        lines.append(f"{metric}_sum {count * mean:g}")
        lines.append(f"{metric}_max {float(payload.get('max', 0.0)):g}")
    return "\n".join(lines) + ("\n" if lines else "")
