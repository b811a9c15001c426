"""Process-pool execution of scenario grids.

:class:`GridExecutor` takes a list of
:class:`~repro.scenarios.spec.ScenarioSpec` cells — typically from
``ScenarioSpec.grid`` — and shards them across a ``multiprocessing`` worker
pool.  The parent resolves the
:class:`~repro.experiments.context.ExperimentContext` every cell runs under
and builds the artifacts the cells need once; the pool initializer hands
each worker those context objects as process arguments, which a ``fork``
worker inherits and a ``spawn`` worker unpickles.  Either way no worker
rebuilds or retrains anything.  Each worker runs
:func:`repro.scenarios.run_scenario` and ships the pickled
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
``retry_policy``/``shard_timeout_s`` supervise individual cells: a failed
cell is re-run with exponential backoff + deterministic jitter (the jitter
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config import get_profile
from repro.exceptions import ParallelError
from repro.experiments.context import ExperimentContext
from repro.nn.engine import compute_dtype, set_default_dtype
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

#: Per-worker-process state, set once by :func:`_init_worker`.
_WORKER: Dict[str, object] = {}


def _context_key(spec: ScenarioSpec) -> Tuple[Optional[str], int, Optional[str]]:
    """The (scale, seed, dtype) triple that pins a spec's execution context."""
    return (spec.scale, spec.seed, spec.dtype)


def _cell_contexts(specs: Sequence[ScenarioSpec],
                   context: Optional[ExperimentContext],
                   cache: Optional[ArtifactCache]
                   ) -> Dict[Tuple, ExperimentContext]:
    """Map each spec's (scale, seed, dtype) key to the context it runs under.

    ``context`` governs every cell when given (``run_scenario``'s
    semantics); otherwise each key gets a fresh context built from its own
    triple (mirroring ``run_scenario``'s default), so cells that share a
    key share one corpus and one set of models.
    """
    contexts: Dict[Tuple, ExperimentContext] = {}
    for spec in specs:
        key = _context_key(spec)
        if context is not None:
            contexts[key] = context
        elif key not in contexts:
            scale = get_profile(spec.scale) if spec.scale is not None else None
            contexts[key] = ExperimentContext(scale=scale, seed=spec.seed,
                                              cache=cache, dtype=spec.dtype)
    return contexts


def _warm_context(context: ExperimentContext,
                  specs: Sequence[ScenarioSpec]) -> None:
    """Build the artifacts ``specs`` will need, in the parent process."""
    _ = context.corpus
    _ = context.target_model
    if any(spec.model == "substitute" for spec in specs):
        _ = context.substitute_model
    if any(spec.model == "binary_substitute" for spec in specs):
        _ = context.binary_substitute


def _init_worker(contexts: Mapping[Tuple, ExperimentContext],
                 fault_plan: Optional[FaultPlan], dtype) -> None:
    """Pool initializer: keep the parent's contexts and arm its fault plan.

    ``contexts`` arrive as process arguments, inherited under ``fork`` and
    unpickled under ``spawn``.  A pickled context does not carry the
    parent's in-process engine dtype (a surrounding ``use_dtype`` block), so
    the worker adopts the parent's ``dtype`` before running any cell.
    """
    set_default_dtype(dtype)
    _WORKER.clear()
    _WORKER["contexts"] = contexts
    _WORKER["injector"] = (fault_plan.injector()
                           if fault_plan is not None else None)


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
        maybe_fire(_WORKER["injector"], "grid.cell",
                   cell=index, attempt=attempt)
        context = _WORKER["contexts"][_context_key(spec)]
        return index, run_scenario(spec, context=context)
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
        root path) the per-key contexts persist their artifacts in, so a
        later run warm-starts.  Unused when :meth:`run` gets a ``context``,
        which brings its own cache.
    start_method:
        ``multiprocessing`` start method (default: ``fork`` where available,
        overridable with ``REPRO_PARALLEL_START_METHOD``).
    shard_timeout_s:
        Per-cell wall-clock budget in the pooled path; an attempt past the
        budget is abandoned and re-dispatched (counted as a timeout).
        ``None`` disables the watchdog.
    retry_policy:
        How often and after what backoff a failed cell is re-run; defaults
        to ``RetryPolicy(max_retries=0)``, which fails fast.
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
                 shard_timeout_s: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 instrumentation: Optional[Instrumentation] = None) -> None:
        self.n_workers = resolve_workers(n_workers)
        if cache is not None and not isinstance(cache, ArtifactCache):
            cache = ArtifactCache(cache)
        self.cache = cache
        self.start_method = resolve_start_method(start_method)
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ParallelError(
                f"shard_timeout_s must be > 0, got {shard_timeout_s}")
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy(max_retries=0))
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
        ``run_scenario``'s semantics; without it each cell runs under a
        context built from its own (scale, seed, dtype) triple, one per
        triple.  Pool workers receive the very same context objects.
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
        contexts = _cell_contexts(specs, context, self.cache)
        if n_workers == 1:
            reports = self._run_serial(specs, contexts, obs)
        else:
            reports = self._run_pool(specs, contexts, n_workers, obs)
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
                    contexts: Mapping[Tuple, ExperimentContext],
                    obs: Instrumentation) -> List:
        from repro.scenarios.runner import run_scenario

        injector = (self.fault_plan.injector()
                    if self.fault_plan is not None else None)
        reports = []
        for cell_index, spec in enumerate(specs):
            cell_context = contexts[_context_key(spec)]
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
    def _run_pool(self, specs: Sequence[ScenarioSpec],
                  contexts: Mapping[Tuple, ExperimentContext], n_workers: int,
                  obs: Instrumentation) -> List:
        import multiprocessing

        # Build every artifact once, here: the workers receive these objects.
        for key, key_context in contexts.items():
            _warm_context(key_context,
                          [spec for spec in specs if _context_key(spec) == key])
        mp_context = multiprocessing.get_context(self.start_method)
        collected: Dict[int, object] = {}
        with mp_context.Pool(processes=n_workers, initializer=_init_worker,
                             initargs=(contexts, self.fault_plan,
                                       compute_dtype())) as pool:
            self._supervise(pool, specs, collected, obs)

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
