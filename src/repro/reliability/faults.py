"""Deterministic, seedable fault injection for the serving fleet.

Production ML serving stacks prove their dependability claims with chaos
testing: faults are *injected* at well-known sites and the stack must
recover without losing, duplicating or corrupting work.  This module is the
injection half of :mod:`repro.reliability`:

* :class:`FaultSpec` — one armed fault: a named *site*, an *action*
  (``error`` / ``crash`` / ``exit`` / ``delay`` / ``malformed``), a
  1-based hit index ``at`` selecting *which* invocation fires, and an
  optional ``where`` context filter (e.g. ``{"worker": 1}``) so a plan can
  target one replica of a fleet;
* :class:`FaultPlan` — a JSON-serialisable list of specs (what the CLI's
  ``serve --fault-plan plan.json`` loads; pool and fleet workers receive
  the plan object itself);
* :class:`FaultInjector` — the per-process runtime: instrumented sites call
  :meth:`FaultInjector.fire` and the injector counts matching invocations,
  firing each spec exactly when its hit window is reached.

Everything is deterministic: a spec fires on the Nth *matching* invocation
of its site in this process, never randomly, so a chaos run is replayable
and its :class:`~repro.reliability.report.ReliabilityReport` counts can be
asserted exactly.  Every fired fault is counted as ``fault.<site>`` in the
instrumentation of the layer that fired it.

Instrumented sites
------------------
==================  =====================================================
``fleet.dispatch``  a fleet replica pulled one request off the dispatch
                    queue (context: ``worker``, ``seq``)
``service.flush``   a :class:`~repro.serving.service.ScoringService`
                    micro-batch is about to score (context: ``n``)
``grid.cell``       a :class:`~repro.parallel.grid.GridExecutor` worker is
                    about to run one cell (context: ``cell``, ``attempt``)
``cache.lock``      an :class:`~repro.utils.artifact_cache.ArtifactCache`
                    builder just acquired an entry lock (context: ``kind``,
                    ``key``)
==================  =====================================================

Actions
-------
``error``
    raise :class:`InjectedFault` (a transient, retryable failure);
``crash``
    raise :class:`WorkerCrash` — a ``BaseException`` that sails past
    ``except Exception`` recovery code; the fleet worker loop catches it,
    flushes its result queue and hard-exits, simulating a replica crash;
``exit``
    ``os._exit(1)`` immediately — a hard crash that releases nothing
    (use only inside sacrificial subprocesses, e.g. a cache-lock holder);
``delay``
    sleep ``delay_ms`` and continue (latency spike);
``malformed``
    no-op at the injector; the call site receives the fired spec back and
    corrupts its own payload (e.g. a non-finite feature vector).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ReproError
from repro.reliability.report import FAULT_PREFIX

__all__ = [
    "FAULT_ACTIONS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "WorkerCrash",
    "maybe_fire",
]

#: Every action a :class:`FaultSpec` may request.
FAULT_ACTIONS = ("error", "crash", "exit", "delay", "malformed")


class InjectedFault(ReproError):
    """A transient failure raised by the fault injector (retryable)."""


class WorkerCrash(BaseException):
    """An injected replica crash.

    Derives from ``BaseException`` so ordinary ``except Exception`` retry
    and recovery paths cannot absorb it — only the worker's top-level crash
    handler (which simulates the process dying) may catch it.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: *where* it strikes, *when*, and *what* it does.

    Parameters
    ----------
    site:
        Instrumented site name (see the module docstring's table).
    action:
        One of :data:`FAULT_ACTIONS`.
    at:
        1-based index of the matching invocation that fires (default: the
        first).  ``count`` consecutive matching invocations fire from there.
    count:
        How many consecutive matching invocations fire (default 1).
    delay_ms:
        Sleep duration for the ``delay`` action.
    where:
        Context filter: the spec only matches invocations whose ``fire``
        context carries every listed key with an equal value.
    message:
        Optional text carried by the raised :class:`InjectedFault`.
    """

    site: str
    action: str = "error"
    at: int = 1
    count: int = 1
    delay_ms: float = 0.0
    where: Mapping[str, object] = field(default_factory=dict)
    message: str = ""

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ReproError(f"unknown fault action {self.action!r}; "
                             f"choose from {FAULT_ACTIONS}")
        if self.at < 1:
            raise ReproError(f"fault 'at' is a 1-based hit index, got {self.at}")
        if self.count < 1:
            raise ReproError(f"fault 'count' must be >= 1, got {self.count}")
        if self.delay_ms < 0:
            raise ReproError(f"fault 'delay_ms' must be >= 0, got {self.delay_ms}")
        # Freeze the filter so specs stay hashable/picklable value objects.
        object.__setattr__(self, "where", dict(self.where))

    def matches(self, context: Mapping[str, object]) -> bool:
        """Whether an invocation context passes this spec's ``where`` filter."""
        return all(key in context and context[key] == value
                   for key, value in self.where.items())

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (what fault-plan files hold)."""
        payload: Dict[str, object] = {"site": self.site, "action": self.action,
                                      "at": self.at}
        if self.count != 1:
            payload["count"] = self.count
        if self.delay_ms:
            payload["delay_ms"] = self.delay_ms
        if self.where:
            payload["where"] = dict(self.where)
        if self.message:
            payload["message"] = self.message
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultSpec":
        """Inverse of :meth:`to_dict`."""
        known = {"site", "action", "at", "count", "delay_ms", "where", "message"}
        unknown = set(payload) - known
        if unknown:
            raise ReproError(f"unknown fault-spec fields {sorted(unknown)}")
        if "site" not in payload:
            raise ReproError("fault spec must name a 'site'")
        return cls(site=str(payload["site"]),
                   action=str(payload.get("action", "error")),
                   at=int(payload.get("at", 1)),
                   count=int(payload.get("count", 1)),
                   delay_ms=float(payload.get("delay_ms", 0.0)),
                   where=dict(payload.get("where", {})),
                   message=str(payload.get("message", "")))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, serialisable collection of :class:`FaultSpec` entries.

    Plans travel as JSON (CLI ``--fault-plan``) and as the pickled plan
    object itself to pool and fleet workers; :meth:`injector` arms them in a
    process.
    """

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def sites(self) -> List[str]:
        """The distinct sites this plan arms (first-seen order)."""
        seen: List[str] = []
        for spec in self.specs:
            if spec.site not in seen:
                seen.append(spec.site)
        return seen

    def injector(self, scope: Optional[Mapping[str, object]] = None,
                 sleep: Callable[[float], None] = time.sleep) -> "FaultInjector":
        """Arm this plan in the current process (see :class:`FaultInjector`)."""
        return FaultInjector(self, scope=scope, sleep=sleep)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {"faults": [spec.to_dict() for spec in self.specs]}

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The plan as a JSON document (the ``--fault-plan`` file format)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload) -> "FaultPlan":
        """Accept ``{"faults": [...]}``, a bare list, or ``None`` (empty)."""
        if payload is None:
            return cls()
        if isinstance(payload, Mapping):
            payload = payload.get("faults", [])
        return cls(specs=tuple(FaultSpec.from_dict(entry) for entry in payload))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a ``--fault-plan`` JSON document."""
        try:
            return cls.from_dict(json.loads(text))
        except ValueError as error:
            raise ReproError(f"invalid fault-plan JSON: {error}") from error


class FaultInjector:
    """Per-process runtime of a :class:`FaultPlan`.

    Parameters
    ----------
    plan:
        The armed plan.
    scope:
        Base context merged into every :meth:`fire` call — a fleet worker
        passes ``{"worker": worker_id}`` so plan specs can target one
        replica without the call sites threading identity everywhere.
    sleep:
        Time source for ``delay`` actions (injectable for tests).
    """

    def __init__(self, plan: FaultPlan,
                 scope: Optional[Mapping[str, object]] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.plan = plan
        self.scope = dict(scope or {})
        self._sleep = sleep
        self._hits: List[int] = [0] * len(plan.specs)
        #: site -> number of faults this injector actually fired there.
        self.fired: Dict[str, int] = {}

    def fire(self, site: str, obs=None, **context: object) -> Optional[FaultSpec]:
        """Announce one invocation of ``site``; maybe inject a fault.

        Raises :class:`InjectedFault` (``error``) or :class:`WorkerCrash`
        (``crash``), calls ``os._exit(1)`` (``exit``), sleeps (``delay``),
        or returns the fired spec (``malformed`` — and ``delay``, after
        sleeping) for the call site to act on.  Returns ``None`` when no
        spec fired.  Each fault that fires is counted as ``fault.<site>``
        in ``obs`` (an :class:`~repro.obs.Instrumentation`) when given,
        before it takes effect.
        """
        full_context = {**self.scope, **context}
        fired_spec: Optional[FaultSpec] = None
        for index, spec in enumerate(self.plan.specs):
            if spec.site != site or not spec.matches(full_context):
                continue
            self._hits[index] += 1
            hit = self._hits[index]
            if not spec.at <= hit < spec.at + spec.count:
                continue
            self.fired[site] = self.fired.get(site, 0) + 1
            if obs is not None:
                obs.count(FAULT_PREFIX + site)
            if spec.action == "error":
                raise InjectedFault(
                    spec.message or f"injected fault at {site} (hit {hit})")
            if spec.action == "crash":
                raise WorkerCrash(spec.message or site)
            if spec.action == "exit":  # pragma: no cover - kills the process
                os._exit(1)
            if spec.action == "delay":
                self._sleep(spec.delay_ms / 1000.0)
            fired_spec = spec
        return fired_spec

    def fired_total(self) -> int:
        """Total faults fired across every site."""
        return sum(self.fired.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultInjector({len(self.plan)} specs, scope={self.scope!r}, "
                f"fired={self.fired!r})")


def maybe_fire(injector: Optional[FaultInjector], site: str, obs=None,
               **context: object) -> Optional[FaultSpec]:
    """Fire ``site`` on ``injector`` when one is armed; no-op otherwise.

    The one-liner instrumented sites call so the fault-free fast path stays
    a single ``None`` check; ``obs`` is where fired faults are counted (see
    :meth:`FaultInjector.fire`).
    """
    if injector is None:
        return None
    return injector.fire(site, obs=obs, **context)
