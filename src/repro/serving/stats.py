"""Latency / throughput accounting for the scoring service.

The serving layer reports the numbers an operator of an online detector
actually watches: request latency quantiles (p50/p95/p99), mean and max
latency, and sustained throughput.  :class:`LatencyTracker` accumulates
per-request latencies as they are observed, one tracker per service;
:class:`ThroughputReport` is the immutable summary the service, the
``serve`` CLI command and the benchmark harness all render from.  A
:class:`~repro.parallel.fleet.WorkerFleet` builds its report the same way,
from the latencies carried by the verdicts its dispatcher merged.

An interval that scored nothing is still a well-defined interval: reporting
on an empty tracker returns an all-zero report rather than raising, so
periodic reporters and fleet aggregation never trip over an idle worker.
The tracker keeps every observation, so percentiles are exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.exceptions import ServingError


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100, linear interpolation) of ``values``."""
    if not 0.0 <= q <= 100.0:
        raise ServingError(f"percentile q must lie in [0, 100], got {q}")
    if len(values) == 0:
        raise ServingError("percentile of an empty sequence is undefined")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass(frozen=True)
class ThroughputReport:
    """Summary of one measured serving interval."""

    n_requests: int
    elapsed_s: float
    requests_per_s: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    def as_dict(self) -> Dict[str, float]:
        """JSON-serialisable representation (rounded for reporting)."""
        return {key: (round(val, 6) if isinstance(val, float) else val)
                for key, val in asdict(self).items()}

    def render(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.n_requests} requests in {self.elapsed_s:.3f}s "
                f"({self.requests_per_s:,.0f} req/s) — latency "
                f"mean {self.mean_ms:.3f}ms / p50 {self.p50_ms:.3f}ms / "
                f"p95 {self.p95_ms:.3f}ms / p99 {self.p99_ms:.3f}ms / "
                f"max {self.max_ms:.3f}ms")

    @classmethod
    def empty(cls, elapsed_s: float = 0.0) -> "ThroughputReport":
        """The well-defined report of an interval that scored nothing."""
        return cls(n_requests=0, elapsed_s=float(max(elapsed_s, 0.0)),
                   requests_per_s=0.0, mean_ms=0.0, p50_ms=0.0, p95_ms=0.0,
                   p99_ms=0.0, max_ms=0.0)


class LatencyTracker:
    """Accumulates per-request latencies (milliseconds) for one service.

    Every observation is kept, so the quantiles a report carries are exact.
    """

    def __init__(self) -> None:
        self._observed_ms: List[float] = []

    def record(self, latency_ms: float) -> None:
        """Record one request's end-to-end latency in milliseconds."""
        if latency_ms < 0:
            raise ServingError(f"latency must be non-negative, got {latency_ms}")
        self._observed_ms.append(float(latency_ms))

    @property
    def count(self) -> int:
        """Number of latencies recorded so far."""
        return len(self._observed_ms)

    def reset(self) -> None:
        """Forget every recorded latency."""
        self._observed_ms.clear()

    def report(self, elapsed_s: float) -> ThroughputReport:
        """Summarise the recorded latencies over a measured wall interval.

        An empty tracker yields :meth:`ThroughputReport.empty` — a zeroed
        report — so callers that report periodically (or a fleet replica
        that scored nothing) need no special case.  A *non-empty* tracker
        still requires a positive interval.
        """
        if self.count == 0:
            return ThroughputReport.empty(elapsed_s)
        if elapsed_s <= 0:
            raise ServingError(f"elapsed_s must be positive, got {elapsed_s}")
        values = np.asarray(self._observed_ms, dtype=np.float64)
        return ThroughputReport(
            n_requests=int(values.size),
            elapsed_s=float(elapsed_s),
            requests_per_s=float(values.size / elapsed_s),
            mean_ms=float(values.mean()),
            p50_ms=percentile(values, 50.0),
            p95_ms=percentile(values, 95.0),
            p99_ms=percentile(values, 99.0),
            max_ms=float(values.max()),
        )
