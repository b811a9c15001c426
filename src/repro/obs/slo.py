"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLOSpec` states an objective over scoring outcomes — "99% of
verdicts within 25 ms", "99% of flushes meet their deadline" — and an
:class:`SLOMonitor` evaluates it over *two* sliding windows at once:

* a **fast** window (default 5 s) that reacts quickly to a live incident,
* a **slow** window (default 60 s) that confirms the burn is sustained.

The alert condition is the classic multi-window burn-rate rule: fire only
when *both* windows burn error budget faster than their thresholds.  Burn
rate is ``error_rate / (1 - objective)`` — 1.0 means "exactly consuming
the budget", 14.4 (the default fast threshold) means "a month's budget in
two days".  The two-window AND keeps alerts both fast *and* unflappable:
the fast window alone would page on a blip, the slow window alone would
page late.

Firing is edge-triggered: one :class:`~repro.obs.events.ObsEvent` of kind
``alert`` per breach transition, via ``Instrumentation.alert``.  While a
spec is breached the monitor reports it *active*, and the serving layer
can arm degradation on that state — ``should_shed`` / ``wants_fallback``
plug into :class:`~repro.serving.service.ScoringService` so load shedding
reacts to measured burn, not only breaker trips (see the service's
``slo_specs`` parameter).

Windows are rings of per-bucket good/bad counts — O(1) memory and O(1)
amortised per observation regardless of request rate, following the same
"never grow with the soak" discipline as the metrics histograms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.instrument import Instrumentation

__all__ = ["SLOSpec", "SLOStatus", "SLOMonitor", "BREACH_ACTIONS"]

#: What an active breach may arm: nothing beyond the alert event, load
#: shedding, or fallback to the undefended model.
BREACH_ACTIONS = ("alert", "shed", "fallback")

#: Ring resolution: buckets per window.
_N_BUCKETS = 12


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective and its alerting policy.

    Parameters
    ----------
    name:
        Objective name (``latency``, ``flush_deadline``) — alert events
        are emitted as ``slo.<name>``.
    objective:
        Required good fraction in ``(0, 1)``, e.g. ``0.99``.
    target_ms:
        Latency form: an observation is *good* when ``latency_ms`` is at
        most this.  ``None`` makes the spec attainment-form — the caller
        reports good/bad outcomes directly (e.g. flush-deadline met).
    fast_window_s / slow_window_s:
        The two sliding windows (defaults 5 s / 60 s).
    fast_burn / slow_burn:
        Burn-rate thresholds that must *both* be exceeded to breach
        (defaults 14.4 / 6.0, the classic page-severity numbers).
    min_events:
        Fast-window observation count required before the spec may
        breach — a two-request blip is noise, not burn.
    on_breach:
        One of :data:`BREACH_ACTIONS`; ``shed``/``fallback`` arm service
        degradation while the breach is active.
    """

    name: str
    objective: float = 0.99
    target_ms: Optional[float] = None
    fast_window_s: float = 5.0
    slow_window_s: float = 60.0
    fast_burn: float = 14.4
    slow_burn: float = 6.0
    min_events: int = 10
    on_breach: str = "alert"

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")
        if self.target_ms is not None and self.target_ms <= 0:
            raise ValueError(f"target_ms must be positive, got {self.target_ms}")
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ValueError(
                f"windows must satisfy 0 < fast <= slow, got "
                f"{self.fast_window_s}/{self.slow_window_s}")
        if self.on_breach not in BREACH_ACTIONS:
            raise ValueError(f"on_breach must be one of {BREACH_ACTIONS}, "
                             f"got {self.on_breach!r}")
        if self.min_events < 1:
            raise ValueError(f"min_events must be >= 1, got {self.min_events}")


@dataclass(frozen=True)
class SLOStatus:
    """One spec's state at the latest evaluation."""

    name: str
    attainment: float      #: good fraction over the slow window (1.0 when empty)
    fast_burn: float
    slow_burn: float
    n_fast: int
    n_slow: int
    breached: bool         #: this evaluation crossed both thresholds
    on_breach: str

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "attainment": self.attainment,
                "fast_burn": self.fast_burn, "slow_burn": self.slow_burn,
                "n_fast": self.n_fast, "n_slow": self.n_slow,
                "breached": self.breached, "on_breach": self.on_breach}


class _BurnWindow:
    """Good/bad counts over a sliding window, as a bucket ring."""

    __slots__ = ("bucket_s", "_good", "_bad", "_head")

    def __init__(self, window_s: float) -> None:
        self.bucket_s = window_s / _N_BUCKETS
        self._good = [0] * _N_BUCKETS
        self._bad = [0] * _N_BUCKETS
        self._head: Optional[int] = None  #: absolute index of newest bucket

    def _advance(self, now: float) -> None:
        bucket = int(now / self.bucket_s)
        if self._head is None or bucket - self._head >= _N_BUCKETS:
            self._good = [0] * _N_BUCKETS
            self._bad = [0] * _N_BUCKETS
        elif bucket > self._head:
            for stale in range(self._head + 1, bucket + 1):
                self._good[stale % _N_BUCKETS] = 0
                self._bad[stale % _N_BUCKETS] = 0
        else:
            return  # same bucket (or clock went backwards): nothing to expire
        self._head = bucket

    def observe(self, good: bool, now: float) -> None:
        self._advance(now)
        slot = self._head % _N_BUCKETS
        if good:
            self._good[slot] += 1
        else:
            self._bad[slot] += 1

    def counts(self, now: float) -> Tuple[int, int]:
        """(good, bad) over the window ending at ``now``."""
        self._advance(now)
        return sum(self._good), sum(self._bad)


class SLOMonitor:
    """Evaluates :class:`SLOSpec` objectives and raises burn-rate alerts.

    Parameters
    ----------
    specs:
        The objectives to track (names must be unique).
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation` receiving one
        ``alert`` event per breach transition (and an ``alert.slo.<name>``
        counter).  ``None`` still tracks state — shedding hooks work
        without an event stream.
    clock:
        Monotonic time source for the sliding windows (injectable; tests
        drive breaches with a fake clock).
    """

    def __init__(self, specs: Iterable[SLOSpec],
                 instrumentation: Optional[Instrumentation] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.specs: Sequence[SLOSpec] = tuple(specs)
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO spec names: {names}")
        self._obs = instrumentation
        self._clock = clock
        self._fast = {spec.name: _BurnWindow(spec.fast_window_s)
                      for spec in self.specs}
        self._slow = {spec.name: _BurnWindow(spec.slow_window_s)
                      for spec in self.specs}
        self._active: Dict[str, bool] = {spec.name: False for spec in self.specs}
        self._last: Dict[str, SLOStatus] = {}

    # ------------------------------------------------------------------ #
    # Feeding
    # ------------------------------------------------------------------ #
    def observe(self, latency_ms: Optional[float] = None,
                good: Optional[bool] = None,
                now: Optional[float] = None) -> None:
        """Record one outcome against every spec it applies to.

        Latency-form specs consume ``latency_ms``; attainment-form specs
        consume ``good``.  Pass ``now`` to reuse a clock stamp the caller
        already took (the service feeds verdict batches this way so the
        hot path pays no extra clock reads).
        """
        if now is None:
            now = self._clock()
        for spec in self.specs:
            if spec.target_ms is not None:
                if latency_ms is not None:
                    outcome = latency_ms <= spec.target_ms
                elif good is not None:
                    # No latency to judge (an errored request): the explicit
                    # outcome stands in — errors burn latency budget too.
                    outcome = bool(good)
                else:
                    continue
            else:
                if good is None:
                    continue
                outcome = bool(good)
            self._fast[spec.name].observe(outcome, now)
            self._slow[spec.name].observe(outcome, now)

    def observe_verdict(self, verdict, now: Optional[float] = None) -> None:
        """Feed one scoring verdict: errors are bad, sheds don't count.

        A shed verdict is the *degradation already in force* — scoring it
        against the latency objective (instant, or as a failure) would
        either mask the burn or latch shedding on forever; the requests
        that were actually scored are the signal.
        """
        if verdict.status == "shed":
            return
        if verdict.status == "error":
            self.observe(good=False, now=now)
            return
        self.observe(latency_ms=verdict.latency_ms, good=True, now=now)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, now: Optional[float] = None) -> List[SLOStatus]:
        """Re-evaluate every spec; fires alerts on breach transitions.

        Called at batch boundaries (each service flush), never per
        request — the same seam discipline as the rest of the
        instrumentation.
        """
        if now is None:
            now = self._clock()
        statuses: List[SLOStatus] = []
        for spec in self.specs:
            budget = 1.0 - spec.objective
            fast_good, fast_bad = self._fast[spec.name].counts(now)
            slow_good, slow_bad = self._slow[spec.name].counts(now)
            n_fast, n_slow = fast_good + fast_bad, slow_good + slow_bad
            fast_rate = fast_bad / n_fast if n_fast else 0.0
            slow_rate = slow_bad / n_slow if n_slow else 0.0
            fast_burn = fast_rate / budget
            slow_burn = slow_rate / budget
            attainment = slow_good / n_slow if n_slow else 1.0
            breached = (n_fast >= spec.min_events
                        and fast_burn >= spec.fast_burn
                        and slow_burn >= spec.slow_burn)
            if breached and not self._active[spec.name] and self._obs is not None:
                self._obs.alert(f"slo.{spec.name}", fast_burn,
                                slow_burn=slow_burn, attainment=attainment,
                                objective=spec.objective,
                                on_breach=spec.on_breach)
            self._active[spec.name] = breached
            status = SLOStatus(name=spec.name, attainment=attainment,
                               fast_burn=fast_burn, slow_burn=slow_burn,
                               n_fast=n_fast, n_slow=n_slow,
                               breached=breached, on_breach=spec.on_breach)
            self._last[spec.name] = status
            statuses.append(status)
        return statuses

    # ------------------------------------------------------------------ #
    # Degradation hooks / reporting
    # ------------------------------------------------------------------ #
    def should_shed(self) -> bool:
        """True while any ``on_breach="shed"`` spec is breached."""
        return any(self._active[spec.name] for spec in self.specs
                   if spec.on_breach == "shed")

    def wants_fallback(self) -> bool:
        """True while any ``on_breach="fallback"`` spec is breached."""
        return any(self._active[spec.name] for spec in self.specs
                   if spec.on_breach == "fallback")

    @property
    def active_alerts(self) -> List[str]:
        """Names of specs currently in breach."""
        return [spec.name for spec in self.specs if self._active[spec.name]]

    def snapshot(self) -> List[Dict[str, object]]:
        """Latest per-spec status dicts (live dashboard payload)."""
        return [self._last[spec.name].as_dict() for spec in self.specs
                if spec.name in self._last]
