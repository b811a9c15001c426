"""Shared process-pool plumbing for the parallel execution engine.

Both halves of :mod:`repro.parallel` — the :class:`~repro.parallel.grid.GridExecutor`
and the :class:`~repro.parallel.fleet.WorkerFleet` — need the same small
toolbox: resolving a worker count against the machine, picking a
``multiprocessing`` start method, deterministic round-robin sharding, and
shipping worker-side exceptions back to the dispatcher without losing the
traceback.  It lives here so the two subsystems cannot drift apart.

Start methods
-------------
Both engines build their state once in the parent — the
:class:`~repro.experiments.context.ExperimentContext` artifacts of a grid,
the servable and endpoint detector of a fleet — and pass those objects to
each worker as process arguments, so no worker retrains anything.  Under
``fork`` (the default where available) a worker inherits them by
copy-on-write memory; under ``spawn`` it starts from a blank interpreter
and unpickles them, on the same code path.  Override the choice with
``REPRO_PARALLEL_START_METHOD`` or per call.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from dataclasses import dataclass
from typing import List, Optional

from repro.exceptions import ParallelError

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def resolve_workers(n_workers: Optional[int]) -> int:
    """Normalise a worker count: ``None``/``0`` means "one per CPU"."""
    if n_workers is None or n_workers == 0:
        return max(1, available_cpus())
    if n_workers < 0:
        raise ParallelError(f"n_workers must be >= 1 (or None/0 for one per "
                            f"CPU), got {n_workers}")
    return int(n_workers)


def resolve_start_method(start_method: Optional[str] = None) -> str:
    """The multiprocessing start method to use (arg > env > fork > spawn)."""
    candidate = start_method or os.environ.get(START_METHOD_ENV)
    methods = multiprocessing.get_all_start_methods()
    if candidate is not None:
        if candidate not in methods:
            raise ParallelError(
                f"start method {candidate!r} not available on this platform; "
                f"choose from {methods}")
        return candidate
    return "fork" if "fork" in methods else "spawn"


def shard_indices(n_items: int, n_shards: int) -> List[List[int]]:
    """Deterministic round-robin sharding of ``range(n_items)``.

    Shard ``s`` holds items ``s, s + n_shards, s + 2*n_shards, ...``.
    Note that the in-process :class:`~repro.parallel.grid.GridExecutor` and
    :class:`~repro.parallel.fleet.WorkerFleet` deliberately do *not* use a
    static assignment — they load-balance dynamically off a shared queue,
    which the spec-order merge makes invisible.  This helper is for callers
    splitting one grid across *machines or sessions* themselves (run shard
    ``s`` of ``N`` here, the rest elsewhere, concatenate the reports), and
    for tests that need a reproducible worker-assignment permutation.
    Empty shards are kept so ``len(result) == n_shards``.
    """
    if n_shards < 1:
        raise ParallelError(f"n_shards must be >= 1, got {n_shards}")
    return [list(range(shard, n_items, n_shards)) for shard in range(n_shards)]


@dataclass(frozen=True)
class RemoteFailure:
    """A worker-side exception, flattened into picklable parts."""

    where: str
    exc_type: str
    message: str
    traceback_text: str

    @classmethod
    def capture(cls, where: str, error: BaseException) -> "RemoteFailure":
        """Flatten ``error`` (raised while processing ``where``) for transport."""
        return cls(where=where, exc_type=type(error).__name__,
                   message=str(error),
                   traceback_text="".join(traceback.format_exception(
                       type(error), error, error.__traceback__)))

    def raise_(self) -> None:
        """Re-raise as a :class:`ParallelError` carrying the remote traceback."""
        raise ParallelError(
            f"worker failed on {self.where}: {self.exc_type}: {self.message}\n"
            f"--- remote traceback ---\n{self.traceback_text}")
