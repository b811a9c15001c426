"""repro.parallel — process-pool execution for grids and serving.

The paper's core artifact is a grid of attacks x defenses; this package is
the layer that runs it (and the scoring service) as fast as the hardware
allows:

* :mod:`repro.parallel.grid` — :class:`GridExecutor` shards a list of
  :class:`~repro.scenarios.ScenarioSpec` cells across a ``multiprocessing``
  pool; workers receive the parent's prewarmed
  :class:`~repro.experiments.context.ExperimentContext` objects (inherited
  under ``fork``, unpickled under ``spawn``) and reports merge **in spec
  order**, so a parallel grid is byte-identical to a serial one under
  float64;
* :mod:`repro.parallel.fleet` — :class:`WorkerFleet` replicates the
  :class:`~repro.serving.service.ScoringService` across N worker processes
  behind one dispatch queue, each replica micro-batching independently,
  with one aggregated :class:`~repro.serving.stats.ThroughputReport`;
* :mod:`repro.parallel.pool` — shared plumbing: worker-count/start-method
  resolution, deterministic round-robin sharding, remote-failure transport.

Quickstart::

    from repro.parallel import GridExecutor
    from repro.scenarios import ScenarioSpec

    specs = ScenarioSpec.grid(attacks=["jsma", "random_addition"],
                              defenses=["none", "feature_squeezing"],
                              model="substitute", scale="small")
    result = GridExecutor(n_workers=4, cache=".repro-cache").run(specs)
    for report in result:
        print(report.render())
"""

from repro.parallel.fleet import FleetReport, WorkerFleet
from repro.parallel.grid import GridExecutor, GridResult, run_spec_reports
from repro.parallel.pool import (
    available_cpus,
    resolve_start_method,
    resolve_workers,
    shard_indices,
)

__all__ = [
    "GridExecutor",
    "GridResult",
    "WorkerFleet",
    "FleetReport",
    "run_spec_reports",
    "available_cpus",
    "resolve_start_method",
    "resolve_workers",
    "shard_indices",
]
