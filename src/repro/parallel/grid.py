"""Process-pool execution of scenario grids.

:class:`GridExecutor` takes a list of
:class:`~repro.scenarios.spec.ScenarioSpec` cells — typically from
``ScenarioSpec.grid`` — and shards them across a ``multiprocessing`` worker
pool.  Each worker resolves its own
:class:`~repro.experiments.context.ExperimentContext` (inherited from the
prewarmed parent under ``fork``, or warm-started from the shared
:class:`~repro.utils.artifact_cache.ArtifactCache` under ``spawn``), runs
:func:`repro.scenarios.run_scenario`, and ships the pickled
:class:`~repro.scenarios.runner.ScenarioReport` back.

Determinism contract
--------------------
Results are merged in **spec order**, not completion order, and every
scenario's payload is a deterministic function of (spec, scale, seed,
dtype): under float64 a parallel grid is byte-identical to a serial one
(``report.to_json(include_timing=False)``; wall-times are the only
non-deterministic field).  The shuffled-shard regression tests pin this.

Reliability
-----------
``retries``/``shard_timeout_s`` supervise individual cells: a failed cell
is re-run with exponential backoff + deterministic jitter (the jitter
stream is keyed on the cell index, so concurrent retriers spread out
reproducibly), and a cell that exceeds the per-shard timeout is re-
dispatched — the hung attempt's eventual result is discarded, since a pool
worker cannot be killed mid-task.  Because a retried cell recomputes the
same deterministic payload, retries never break the byte-identical
contract.  A :class:`~repro.reliability.faults.FaultPlan` can arm the
``grid.cell`` site (context: ``cell``, ``attempt``) to exercise these
paths deterministically.  Retries, timeouts and (serial-path) fired faults
are counted once, in the executor's instrumentation; the
:class:`~repro.reliability.report.ReliabilityReport` on the
:class:`GridResult` summarises what one run added there.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config import ScaleProfile, get_profile
from repro.exceptions import ParallelError
from repro.experiments.context import ExperimentContext
from repro.obs.instrument import Instrumentation
from repro.obs.instrument import current as current_instrumentation
from repro.parallel.pool import (
    RemoteFailure,
    resolve_start_method,
    resolve_workers,
)
from repro.reliability import (
    FaultPlan,
    ReliabilityReport,
    RetryPolicy,
    maybe_fire,
)
from repro.scenarios.spec import ScenarioSpec
from repro.utils.artifact_cache import ArtifactCache

__all__ = ["GridExecutor", "GridResult", "run_spec_reports"]

#: Live objects the parent stages for ``fork`` workers to inherit: either a
#: single shared context (``"context"``) or a per-(scale, seed, dtype) map
#: (``"contexts"``).  Only ever populated for the duration of one
#: :meth:`GridExecutor.run` call.
_FORK_STATE: Dict[str, object] = {}

#: Per-worker-process state, set once by :func:`_init_worker`.
_WORKER: Dict[str, object] = {}


def _context_key(spec: ScenarioSpec) -> Tuple[Optional[str], int, Optional[str]]:
    """The (scale, seed, dtype) triple that pins a spec's execution context."""
    return (spec.scale, spec.seed, spec.dtype)


def _build_context(spec: ScenarioSpec,
                   cache: Optional[ArtifactCache]) -> ExperimentContext:
    """A fresh context for ``spec`` (mirrors ``run_scenario``'s own default)."""
    scale = get_profile(spec.scale) if spec.scale is not None else None
    return ExperimentContext(scale=scale, seed=spec.seed, cache=cache,
                             dtype=spec.dtype)


def _warm_context(context: ExperimentContext,
                  specs: Sequence[ScenarioSpec]) -> None:
    """Build the artifacts ``specs`` will need, in the current process.

    Under ``fork`` this runs in the parent so every worker inherits the
    trained models for free; under ``spawn`` it populates the artifact cache
    the workers warm-start from.
    """
    _ = context.corpus
    _ = context.target_model
    if any(spec.model == "substitute" for spec in specs):
        _ = context.substitute_model
    if any(spec.model == "binary_substitute" for spec in specs):
        _ = context.binary_substitute


def _init_worker(payload: Mapping[str, object]) -> None:
    """Pool initializer: stage per-process context resolution state."""
    _WORKER.clear()
    _WORKER["cache_root"] = payload.get("cache_root")
    _WORKER["shared"] = payload.get("shared")
    _WORKER["contexts"] = {}
    plan_payload = payload.get("fault_plan")
    _WORKER["injector"] = (FaultPlan.from_dict(plan_payload).injector()
                           if plan_payload else None)
    # Fork children see the parent's staged live objects; spawn children get
    # an empty mapping and fall back to cache-backed rebuilds.
    if _FORK_STATE.get("context") is not None:
        _WORKER["shared_context"] = _FORK_STATE["context"]
    if _FORK_STATE.get("contexts"):
        _WORKER["contexts"] = dict(_FORK_STATE["contexts"])


def _worker_cache() -> Optional[ArtifactCache]:
    root = _WORKER.get("cache_root")
    return ArtifactCache(root) if root else None


def _worker_context(spec: ScenarioSpec) -> ExperimentContext:
    """Resolve the context one grid cell runs under, inside the worker."""
    shared_context = _WORKER.get("shared_context")
    if shared_context is not None:
        return shared_context
    shared = _WORKER.get("shared")
    if shared is not None:
        # An explicit context governed the run but could not be inherited
        # (spawn): rebuild its equivalent once per worker process.
        if "rebuilt_shared" not in _WORKER:
            _WORKER["rebuilt_shared"] = ExperimentContext(
                scale=ScaleProfile(**shared["scale_fields"]),
                seed=shared["seed"], cache=_worker_cache(),
                dtype=shared["dtype"])
        return _WORKER["rebuilt_shared"]
    contexts: Dict[Tuple, ExperimentContext] = _WORKER["contexts"]
    key = _context_key(spec)
    if key not in contexts:
        contexts[key] = _build_context(spec, _worker_cache())
    return contexts[key]


def _run_cell(task: Tuple[int, ScenarioSpec, int]):
    """Run one grid cell in the worker; failures travel back as data.

    ``task`` carries the retry attempt number so an armed ``grid.cell``
    fault spec can target a specific attempt (``where={"cell": 2,
    "attempt": 0}``) — hit counters are per-process, so the attempt number
    is the only trigger that stays deterministic across pool workers.
    """
    from repro.scenarios.runner import run_scenario

    index, spec, attempt = task
    try:
        maybe_fire(_WORKER.get("injector"), "grid.cell",
                   cell=index, attempt=attempt)
        return index, run_scenario(spec, context=_worker_context(spec))
    except BaseException as error:  # noqa: BLE001 - shipped to the parent
        return index, RemoteFailure.capture(
            where=f"cell {index} ({spec.label or spec.describe()}, "
                  f"attempt {attempt})", error=error)


@dataclass
class GridResult:
    """A completed grid: reports in spec order plus execution metadata."""

    reports: List = field(default_factory=list)
    elapsed_s: float = 0.0
    n_workers: int = 1
    start_method: Optional[str] = None  #: None means serial in-process
    reliability: ReliabilityReport = field(default_factory=ReliabilityReport)

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def __getitem__(self, index: int):
        return self.reports[index]

    def summaries(self, include_timing: bool = True) -> List[Dict[str, object]]:
        """Flat per-cell summaries (spec order)."""
        return [report.summary(include_timing=include_timing)
                for report in self.reports]

    def to_dict(self, include_timing: bool = True) -> Dict[str, object]:
        """JSON-able result: execution metadata + every cell's report."""
        payload: Dict[str, object] = {
            "n_cells": len(self.reports),
            "n_workers": self.n_workers,
            "start_method": self.start_method,
            "reliability": self.reliability.as_dict(),
            "reports": [report.to_dict(include_timing=include_timing)
                        for report in self.reports],
        }
        if include_timing:
            payload["elapsed_s"] = round(self.elapsed_s, 6)
        return payload

    def to_json(self, indent: Optional[int] = 2,
                include_timing: bool = True) -> str:
        """The grid result as a JSON document."""
        import json

        return json.dumps(self.to_dict(include_timing=include_timing),
                          indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human-readable per-cell table (what ``repro run-grid`` prints)."""
        from repro.evaluation.reports import format_table

        rows = []
        for report in self.reports:
            summary = report.summary()
            headline = ""
            for key in ("detection_rate[target]",
                        f"detection_rate[{report.spec.model}]",
                        "evasion_rate"):
                if key in summary:
                    headline = f"{key}={summary[key]:.3f}"
                    break
            rows.append([report.spec.label or report.spec.describe(),
                         report.attack_name, report.defense_name, headline,
                         f"{report.elapsed_s:.3f}"])
        mode = (f"{self.n_workers} workers ({self.start_method})"
                if self.start_method else "serial")
        return format_table(
            ["scenario", "attack", "defense", "headline", "seconds"], rows,
            title=f"grid — {len(self.reports)} cells, {mode}, "
                  f"{self.elapsed_s:.2f}s wall")


def run_spec_reports(spec_map: Mapping[str, Union[ScenarioSpec, Mapping]],
                     context: Optional[ExperimentContext] = None,
                     workers: Optional[int] = None) -> Dict[str, object]:
    """Run a ``{name: spec}`` mapping, pooled when ``workers`` > 1.

    The one dispatch the figure3/figure4/table6 drivers share: returns
    ``{name: ScenarioReport}`` with serial (`workers` ``None``/1) and pooled
    execution producing byte-identical payloads under float64, so a
    driver's rendering is independent of the worker count.
    """
    executor = GridExecutor(n_workers=workers if workers else 1)
    result = executor.run(list(spec_map.values()), context=context)
    return dict(zip(spec_map, result.reports))


class GridExecutor:
    """Shard a list of scenario specs across a process pool.

    Parameters
    ----------
    n_workers:
        Worker processes (``None``/``0`` = one per CPU).  ``1`` runs the grid
        serially in-process — the baseline the parallel path must match
        byte-for-byte.
    cache:
        Optional :class:`~repro.utils.artifact_cache.ArtifactCache` (or cache
        root path) workers warm-start their contexts from.  Strongly
        recommended under ``spawn``; under ``fork`` the prewarmed parent
        state is inherited directly and the cache is a bonus.
    start_method:
        ``multiprocessing`` start method (default: ``fork`` where available,
        overridable with ``REPRO_PARALLEL_START_METHOD``).
    prewarm:
        Build the corpus/models each spec needs once in the parent before
        forking (or, under ``spawn``, into the cache) so workers never
        duplicate training.  Disable only to measure cold-worker behaviour.
    retries:
        Extra attempts a failed cell gets before its failure is final
        (``0``, the default, preserves fail-fast semantics).
    shard_timeout_s:
        Per-cell wall-clock budget in the pooled path; an attempt past the
        budget is abandoned and re-dispatched (counted as a timeout).
        ``None`` disables the watchdog.
    retry_policy:
        Backoff schedule for retries; defaults to
        ``RetryPolicy(max_retries=retries)``.  When given, its
        ``max_retries`` wins over ``retries``.
    fault_plan:
        Optional :class:`~repro.reliability.faults.FaultPlan` arming the
        ``grid.cell`` site in every worker (and in the serial path).
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation`.  When unset the
        executor falls back to the ambient one (:func:`repro.obs.current`),
        so ``with instrumented(obs): executor.run(...)`` observes the grid
        without touching call sites, and else to a fresh sink-less one per
        run — counting is always on.  The serial path wraps every cell in
        a ``grid.cell`` span; both paths count ``grid.cells``,
        ``grid.cell_retries`` and ``grid.cell_timeouts`` at the
        supervisor, so the counters cover pooled runs too.
    """

    def __init__(self, n_workers: Optional[int] = None,
                 cache: Optional[Union[ArtifactCache, str, Path]] = None,
                 start_method: Optional[str] = None,
                 prewarm: bool = True,
                 retries: int = 0,
                 shard_timeout_s: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 instrumentation: Optional[Instrumentation] = None) -> None:
        self.n_workers = resolve_workers(n_workers)
        if cache is not None and not isinstance(cache, ArtifactCache):
            cache = ArtifactCache(cache)
        self.cache = cache
        self.start_method = resolve_start_method(start_method)
        self.prewarm = prewarm
        if retries < 0:
            raise ParallelError(f"retries must be >= 0, got {retries}")
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ParallelError(
                f"shard_timeout_s must be > 0, got {shard_timeout_s}")
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy(max_retries=retries))
        self.shard_timeout_s = shard_timeout_s
        self.fault_plan = fault_plan
        self.instrumentation = instrumentation

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, specs: Sequence[Union[ScenarioSpec, Mapping]],
            context: Optional[ExperimentContext] = None) -> GridResult:
        """Run every spec and return reports merged in spec order.

        ``context`` (optional) governs **all** cells — mirroring
        ``run_scenario``'s semantics — and is inherited by fork workers
        as-is; without it each cell resolves a context from its own
        (scale, seed, dtype) triple, shared per triple within a process.
        """
        specs = [spec if isinstance(spec, ScenarioSpec)
                 else ScenarioSpec.from_dict(spec) for spec in specs]
        if not specs:
            return GridResult(reports=[], elapsed_s=0.0, n_workers=self.n_workers,
                              start_method=None)
        n_workers = min(self.n_workers, len(specs))
        started = time.perf_counter()
        obs = self.instrumentation
        if obs is None:
            obs = current_instrumentation() or Instrumentation()
        since = obs.metrics.snapshot()
        if n_workers == 1:
            reports = self._run_serial(specs, context, obs)
        else:
            reports = self._run_pool(specs, context, n_workers, obs)
        return GridResult(
            reports=reports, elapsed_s=time.perf_counter() - started,
            n_workers=n_workers,
            start_method=self.start_method if n_workers > 1 else None,
            reliability=ReliabilityReport.from_snapshot(obs.metrics.snapshot(),
                                                        since=since))

    # ------------------------------------------------------------------ #
    # Serial baseline
    # ------------------------------------------------------------------ #
    def _run_serial(self, specs: Sequence[ScenarioSpec],
                    context: Optional[ExperimentContext],
                    obs: Instrumentation) -> List:
        from repro.scenarios.runner import run_scenario

        injector = (self.fault_plan.injector()
                    if self.fault_plan is not None else None)
        contexts: Dict[Tuple, ExperimentContext] = {}
        reports = []
        for cell_index, spec in enumerate(specs):
            if context is not None:
                cell_context = context
            else:
                key = _context_key(spec)
                if key not in contexts:
                    contexts[key] = _build_context(spec, self.cache)
                cell_context = contexts[key]
            attempt = 0
            while True:
                try:
                    maybe_fire(injector, "grid.cell", obs=obs,
                               cell=cell_index, attempt=attempt)
                    with obs.span("grid.cell", cell=cell_index,
                                  attempt=attempt):
                        reports.append(run_scenario(spec, context=cell_context))
                    obs.count("grid.cells")
                    break
                except Exception:
                    if attempt >= self.retry_policy.max_retries:
                        raise
                    obs.count("grid.cell_retries", cell=cell_index)
                    time.sleep(self.retry_policy.delay(attempt,
                                                       token=cell_index))
                    attempt += 1
        return reports

    # ------------------------------------------------------------------ #
    # Process pool
    # ------------------------------------------------------------------ #
    def _cache_root(self, context: Optional[ExperimentContext]) -> Optional[str]:
        if context is not None and context.cache is not None:
            return str(context.cache.root)
        return str(self.cache.root) if self.cache is not None else None

    def _run_pool(self, specs: Sequence[ScenarioSpec],
                  context: Optional[ExperimentContext], n_workers: int,
                  obs: Instrumentation) -> List:
        import multiprocessing

        mp_context = multiprocessing.get_context(self.start_method)
        payload: Dict[str, object] = {"cache_root": self._cache_root(context)}
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.to_dict()
        try:
            if context is not None:
                if self.prewarm:
                    _warm_context(context, specs)
                if self.start_method == "fork":
                    _FORK_STATE["context"] = context
                else:
                    payload["shared"] = {
                        "scale_fields": asdict(context.scale),
                        "seed": context.seed,
                        "dtype": (str(context.dtype)
                                  if context.dtype is not None else None),
                    }
            elif self.prewarm and (self.start_method == "fork"
                                   or self.cache is not None):
                contexts: Dict[Tuple, ExperimentContext] = {}
                for spec in specs:
                    key = _context_key(spec)
                    if key not in contexts:
                        contexts[key] = _build_context(spec, self.cache)
                for key, parent_context in contexts.items():
                    _warm_context(parent_context,
                                  [s for s in specs if _context_key(s) == key])
                if self.start_method == "fork":
                    _FORK_STATE["contexts"] = contexts

            collected: Dict[int, object] = {}
            with mp_context.Pool(processes=n_workers, initializer=_init_worker,
                                 initargs=(payload,)) as pool:
                self._supervise(pool, specs, collected, obs)
        finally:
            _FORK_STATE.clear()

        if len(collected) != len(specs):  # pragma: no cover - defensive
            missing = sorted(set(range(len(specs))) - set(collected))
            raise ParallelError(
                f"pool returned {len(collected)}/{len(specs)} cells; "
                f"missing indices {missing}")
        return [collected[index] for index in range(len(specs))]

    def _supervise(self, pool, specs: Sequence[ScenarioSpec],
                   collected: Dict[int, object],
                   obs: Instrumentation) -> None:
        """Dispatch every cell via ``apply_async`` and supervise attempts.

        A failed attempt is rescheduled after the policy's backoff; an
        attempt past ``shard_timeout_s`` is abandoned (a pool worker cannot
        be killed mid-task, so the stale attempt's eventual result is
        simply dropped) and rescheduled the same way.  The first cell to
        exhaust its attempts raises.
        """
        max_retries = self.retry_policy.max_retries
        inflight: Dict[int, object] = {}       # cell -> live AsyncResult
        deadlines: Dict[int, float] = {}       # cell -> abandon-at time
        attempts: Dict[int, int] = {}          # cell -> current attempt
        backoff: Dict[int, float] = {}         # cell -> retry-due time

        def dispatch(cell: int, attempt: int) -> None:
            attempts[cell] = attempt
            inflight[cell] = pool.apply_async(
                _run_cell, ((cell, specs[cell], attempt),))
            if self.shard_timeout_s is not None:
                deadlines[cell] = time.monotonic() + self.shard_timeout_s

        def reschedule(cell: int, failure: Optional[RemoteFailure]) -> None:
            attempt = attempts[cell]
            if attempt >= max_retries:
                if failure is not None:
                    failure.raise_()
                raise ParallelError(
                    f"cell {cell} ({specs[cell].label or specs[cell].describe()}) "
                    f"timed out after {attempt + 1} attempts of "
                    f"{self.shard_timeout_s}s each")
            if failure is not None:
                obs.count("grid.cell_retries", cell=cell)
            backoff[cell] = time.monotonic() + self.retry_policy.delay(
                attempt, token=cell)

        for cell in range(len(specs)):
            dispatch(cell, 0)
        while inflight or backoff:
            now = time.monotonic()
            for cell in [cell for cell, due in backoff.items() if due <= now]:
                del backoff[cell]
                dispatch(cell, attempts[cell] + 1)
            progressed = False
            for cell, async_result in list(inflight.items()):
                if async_result.ready():
                    del inflight[cell]
                    deadlines.pop(cell, None)
                    _, outcome = async_result.get()
                    if isinstance(outcome, RemoteFailure):
                        reschedule(cell, outcome)
                    else:
                        collected[cell] = outcome
                        progressed = True
                        obs.count("grid.cells")
                elif cell in deadlines and now > deadlines[cell]:
                    del inflight[cell]
                    del deadlines[cell]
                    obs.count("grid.cell_timeouts", cell=cell)
                    reschedule(cell, None)
            if not progressed and (inflight or backoff):
                time.sleep(0.005)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GridExecutor(n_workers={self.n_workers}, "
                f"start_method={self.start_method!r}, "
                f"cache={None if self.cache is None else str(self.cache.root)!r})")
