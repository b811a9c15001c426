"""Latency / throughput accounting for the scoring service.

The serving layer reports the numbers an operator of an online detector
actually watches: request latency quantiles (p50/p95/p99), mean and max
latency, and sustained throughput.  Every
:class:`~repro.serving.service.Verdict` carries its own ``latency_ms``, so
the verdicts of an interval are its one latency ledger:
:meth:`ThroughputReport.from_verdicts` summarises them into the immutable
report that the ``serve`` CLI command, a
:class:`~repro.parallel.fleet.WorkerFleet` and the benchmark harness all
render from.  Only scored verdicts count; shed and error verdicts are
answers, not scored requests.

An interval that scored nothing is still a well-defined interval: it gets
an all-zero report rather than an error, so periodic reporters and fleet
aggregation never trip over an idle worker.  Every latency is kept until
the report is built, so percentiles are exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Sequence

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

    @classmethod
    def from_verdicts(cls, verdicts: Iterable, elapsed_s: float) -> "ThroughputReport":
        """Summarise the scored verdicts of one measured wall interval.

        Only verdicts with ``is_scored`` count.  An interval without one
        yields :meth:`empty` — a zeroed report — so a fleet replica that
        scored nothing needs no special case; otherwise ``elapsed_s`` must
        be positive and no latency may be negative.
        """
        values = np.fromiter((verdict.latency_ms for verdict in verdicts
                              if verdict.is_scored), dtype=np.float64)
        if values.size == 0:
            return cls.empty(elapsed_s)
        if elapsed_s <= 0:
            raise ServingError(f"elapsed_s must be positive, got {elapsed_s}")
        if values.min() < 0:
            raise ServingError(
                f"latency must be non-negative, got {values.min()}")
        return cls(
            n_requests=int(values.size),
            elapsed_s=float(elapsed_s),
            requests_per_s=float(values.size / elapsed_s),
            mean_ms=float(values.mean()),
            p50_ms=percentile(values, 50.0),
            p95_ms=percentile(values, 95.0),
            p99_ms=percentile(values, 99.0),
            max_ms=float(values.max()),
        )
