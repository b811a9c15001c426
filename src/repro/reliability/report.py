"""A read-only summary of every reliability event a run counted.

Supervision and degradation events are counted once, where they happen,
in the :class:`~repro.obs.metrics.MetricsRegistry` of the layer's
:class:`~repro.obs.Instrumentation`: one counter per event kind (see
:data:`COUNTERS`) plus one ``fault.<site>`` counter per injection site.  A
:class:`ReliabilityReport` reads those counters out of a registry snapshot
— it is the view the chaos benchmark asserts against: after a run under a
known :class:`~repro.reliability.faults.FaultPlan` the counts must match
the plan exactly, which is the dependability claim.

Fleets and grids combine their workers' counts by merging snapshots
(:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`), never by
adding reports, so there is one ledger and one merge path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

__all__ = ["COUNTERS", "FAULT_PREFIX", "ReliabilityReport"]

#: Report field -> the registry counter that counts it.
COUNTERS: Dict[str, str] = {
    "restarts": "fleet.restarts",
    "redispatches": "fleet.redispatches",
    "flush_retries": "serve.flush_retries",
    "isolated": "serve.errors",
    "sheds": "serve.sheds",
    "fallbacks": "serve.fallbacks",
    "breaker_trips": "serve.breaker_trips",
    "cell_retries": "grid.cell_retries",
    "cell_timeouts": "grid.cell_timeouts",
    "duplicates": "fleet.duplicates",
}

#: Prefix of the per-site fired-fault counters (``fault.service.flush``).
FAULT_PREFIX = "fault."


@dataclass(frozen=True)
class ReliabilityReport:
    """Counts of every fault seen and every recovery action taken.

    Attributes
    ----------
    restarts:
        Fleet replicas restarted after a detected death.
    redispatches:
        In-flight requests re-enqueued after their replica died.
    flush_retries:
        Micro-batch flushes re-attempted under a retry policy.
    isolated:
        Poison requests bisected out of a batch into ``error`` verdicts.
    sheds:
        Requests answered with ``status="shed"`` instead of being scored.
    fallbacks:
        Defended endpoints that fell back to the undefended fast path.
    breaker_trips:
        Circuit-breaker open transitions.
    cell_retries:
        Grid cells re-run after a failure.
    cell_timeouts:
        Grid cells abandoned after exceeding the per-shard timeout.
    duplicates:
        Duplicate verdicts discarded by the dispatcher (must stay 0).
    faults:
        Injected faults actually fired, per site.
    """

    restarts: int = 0
    redispatches: int = 0
    flush_retries: int = 0
    isolated: int = 0
    sheds: int = 0
    fallbacks: int = 0
    breaker_trips: int = 0
    cell_retries: int = 0
    cell_timeouts: int = 0
    duplicates: int = 0
    faults: Mapping[str, int] = field(default_factory=dict)

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Mapping[str, object]],
                      since: Optional[Mapping[str, Mapping[str, object]]] = None
                      ) -> "ReliabilityReport":
        """The report of a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.

        ``since`` is an earlier snapshot of the same registry; the report
        then covers only the events counted after it (counters only grow,
        so the difference is exact).
        """
        counters = snapshot.get("counters") or {}
        before = (since or {}).get("counters") or {}

        def count(name: str) -> int:
            return int(counters.get(name, 0.0) - before.get(name, 0.0))

        faults = {name[len(FAULT_PREFIX):]: count(name)
                  for name in sorted(counters)
                  if name.startswith(FAULT_PREFIX) and count(name)}
        return cls(faults=faults,
                   **{name: count(counter) for name, counter in COUNTERS.items()})

    def total_events(self) -> int:
        """Every recovery/degradation event counted (faults excluded)."""
        return sum(getattr(self, name) for name in COUNTERS)

    def empty(self) -> bool:
        """True when nothing at all happened (clean, fault-free run)."""
        return self.total_events() == 0 and not self.faults

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for benchmark JSON and grid/fleet payloads."""
        payload: Dict[str, object] = {name: getattr(self, name)
                                      for name in COUNTERS}
        payload["faults"] = dict(self.faults)
        return payload

    def render(self) -> str:
        """Human-readable summary for CLI output."""
        lines: List[str] = ["reliability:"]
        pairs = [(name.replace("_", " "), getattr(self, name))
                 for name in COUNTERS]
        active = [f"{label}={value}" for label, value in pairs if value]
        lines.append("  " + (", ".join(active) if active else "no events"))
        if self.faults:
            fired = ", ".join(f"{site}={count}"
                              for site, count in sorted(self.faults.items()))
            lines.append(f"  faults fired: {fired}")
        return "\n".join(lines)
