"""Every metric the benchmark reports, and what each one should move.

``BENCHMARK.json`` lists the same names (``test_stats.py`` checks they
agree).  For each per-layer metric the table records the layer it is
measured on, the end-to-end metric and workload a change to that layer
should move, and where the prediction is no change.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

WORKLOADS = {
    "log-stream": "featurisation is ~90% of log scoring, and an open-loop "
                  "phase shows a throughput gain that costs latency",
    "fleet-features": "pre-featurised rows through 2 fork replicas, so "
                      "per-request IPC dominates and featurisation is absent",
    "attack-sweeps": "Figure 3/4 curves: class_gradients and JSMA bookkeeping "
                     "dominate while serving, fleet and grid are bypassed",
    "defense-grid": "Table VI plus the ensemble through the grid executor: "
                    "defense training dominates; a traced 2-worker pool shows "
                    "the grid layer",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "warm start to ready: context artifacts, ModelRegistry.get, and "
             "WorkerFleet.start or the pool prewarm; median of several"),
    EndToEnd("wall_s", "s", "lower", 0.25,
             "one closed-loop pass of the workload's job, fastest of the run's "
             "passes"),
    EndToEnd("throughput_rps", "1/s", "higher", 0.25,
             "items completed per second of that pass's wall time"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "median item latency from when it was due to its result; per "
             "pass, median over passes"),
    EndToEnd("latency_p99_ms", "ms", "lower", 0.25,
             "99th percentile of the same latencies; per pass, median over "
             "passes"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident memory of the process plus its largest child"),
)

#: The unit of work one item is, per workload.
ITEMS = {
    "log-stream": "one scoring request (50% clean log, 40% malware log, "
                  "10% adversarial feature row)",
    "fleet-features": "one pre-featurised scoring request",
    "attack-sweeps": "one malware row at one operating point of one curve",
    "defense-grid": "one test row scored under one Table VI defense",
}


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    no_change: str


_SERVING = "log-stream, fleet-features"
_NOT_LOG = "fleet-features, attack-sweeps, defense-grid"

PER_LAYER: List[PerLayer] = [
    PerLayer("features.extract_ms", "ms", "lower", "features",
             "throughput_rps, latency_p99_ms @ log-stream", _NOT_LOG),
    PerLayer("features.extract_ns_per_record", "ns", "lower", "features",
             "throughput_rps, latency_p99_ms @ log-stream", _NOT_LOG),
    PerLayer("features.transform_ms", "ms", "lower", "features",
             "throughput_rps @ log-stream", _NOT_LOG),
    PerLayer("features.share", "fraction", "lower", "features",
             "throughput_rps @ log-stream", _NOT_LOG),
    PerLayer("nn.forward_ms", "ms", "lower", "nn",
             "throughput_rps @ fleet-features; wall_s @ attack-sweeps", "-"),
    PerLayer("nn.forward_calls", "count", "lower", "nn",
             "throughput_rps @ fleet-features; wall_s @ attack-sweeps", "-"),
    PerLayer("nn.forward_rows_per_call", "rows", "higher", "nn",
             "throughput_rps @ fleet-features; wall_s @ attack-sweeps", "-"),
    PerLayer("nn.class_gradients_ms", "ms", "lower", "nn",
             "wall_s @ attack-sweeps", _SERVING),
    PerLayer("nn.class_gradients_calls", "count", "lower", "nn",
             "wall_s @ attack-sweeps", _SERVING),
    PerLayer("nn.class_gradients_rows", "rows", "lower", "nn",
             "wall_s @ attack-sweeps", _SERVING),
    PerLayer("nn.train_s", "s", "lower", "nn",
             "wall_s @ defense-grid", _SERVING + ", attack-sweeps"),
    PerLayer("nn.train_calls", "count", "lower", "nn",
             "wall_s @ defense-grid", _SERVING + ", attack-sweeps"),
    PerLayer("serving.flushes", "count", "lower", "serving",
             "throughput_rps @ log-stream; latency_p50_ms open loop",
             "attack-sweeps, defense-grid"),
    PerLayer("serving.batch_size_mean", "rows", "higher", "serving",
             "throughput_rps @ log-stream; latency_p50_ms open loop",
             "attack-sweeps, defense-grid"),
    PerLayer("serving.deadline_flush_share", "fraction", "lower", "serving",
             "latency_p50_ms @ log-stream open loop",
             "attack-sweeps, defense-grid"),
    PerLayer("serving.flush_ms", "ms", "lower", "serving",
             "throughput_rps @ log-stream", "attack-sweeps, defense-grid"),
    PerLayer("serving.verdict_self_ms", "ms", "lower", "serving",
             "throughput_rps @ log-stream", "attack-sweeps, defense-grid"),
    PerLayer("serving.batch_wait_ms_p50", "ms", "lower", "serving",
             "latency_p50_ms @ log-stream open loop",
             "attack-sweeps, defense-grid"),
    PerLayer("fleet.start_s", "s", "lower", "fleet",
             "setup_s @ fleet-features", "log-stream, attack-sweeps, defense-grid"),
    PerLayer("fleet.queue_ms_p50", "ms", "lower", "fleet",
             "throughput_rps, latency_p99_ms @ fleet-features",
             "log-stream, attack-sweeps, defense-grid"),
    PerLayer("fleet.queue_ms_p99", "ms", "lower", "fleet",
             "latency_p99_ms @ fleet-features",
             "log-stream, attack-sweeps, defense-grid"),
    PerLayer("fleet.queue_share", "fraction", "lower", "fleet",
             "throughput_rps, latency_p99_ms @ fleet-features",
             "log-stream, attack-sweeps, defense-grid"),
    PerLayer("fleet.batch_wait_ms_p50", "ms", "lower", "fleet",
             "latency_p50_ms @ fleet-features",
             "log-stream, attack-sweeps, defense-grid"),
    PerLayer("fleet.score_ms_p50", "ms", "lower", "fleet",
             "throughput_rps @ fleet-features",
             "log-stream, attack-sweeps, defense-grid"),
    PerLayer("fleet.batch_size_mean", "rows", "higher", "fleet",
             "throughput_rps @ fleet-features",
             "log-stream, attack-sweeps, defense-grid"),
    PerLayer("fleet.worker_imbalance", "fraction", "lower", "fleet",
             "throughput_rps @ fleet-features",
             "log-stream, attack-sweeps, defense-grid"),
    PerLayer("fleet.redispatches", "count", "lower", "fleet",
             "throughput_rps @ fleet-features",
             "log-stream, attack-sweeps, defense-grid"),
    PerLayer("fleet.restarts", "count", "lower", "fleet",
             "throughput_rps @ fleet-features",
             "log-stream, attack-sweeps, defense-grid"),
    PerLayer("attacks.jsma_ms", "ms", "lower", "attacks",
             "wall_s @ attack-sweeps", _SERVING),
    PerLayer("attacks.jsma_self_ms", "ms", "lower", "attacks",
             "wall_s @ attack-sweeps", _SERVING),
    PerLayer("attacks.steps_per_run", "count", "lower", "attacks",
             "wall_s @ attack-sweeps", _SERVING),
    PerLayer("attacks.evasion_ratio", "fraction", "higher", "attacks",
             "- (correctness of the curves, not speed)", _SERVING),
    PerLayer("evaluation.sweep_self_ms", "ms", "lower", "evaluation",
             "wall_s @ attack-sweeps", _SERVING),
]

#: Table VI rows plus the ensemble the paper's discussion proposes.
TABLE6_ROWS = ("no_defense", "adversarial_training", "distillation",
               "feature_squeezing", "dim_reduction",
               "ensemble_advtrain_dimreduct")

PER_LAYER += [
    PerLayer(f"defenses.cell_s.{row}", "s", "lower", "defenses",
             "wall_s @ defense-grid", _SERVING)
    for row in TABLE6_ROWS
]

_GRID_ONLY = "log-stream, fleet-features, attack-sweeps"
_POOLED = "grid.pooled_wall_s @ defense-grid (the serial wall_s is unaffected)"
PER_LAYER += [
    PerLayer("grid.pooled_wall_s", "s", "lower", "grid",
             "- (the pooled grid is too unsteady for an end-to-end bound)",
             _GRID_ONLY),
    PerLayer("grid.cell_s_sum", "s", "lower", "grid", _POOLED,
             _GRID_ONLY),
    PerLayer("grid.cell_inflation", "ratio", "lower", "grid",
             _POOLED, _GRID_ONLY),
    PerLayer("grid.parallel_efficiency", "fraction", "higher", "grid",
             _POOLED, _GRID_ONLY),
    PerLayer("grid.overhead_s", "s", "lower", "grid", _POOLED,
             _GRID_ONLY),
    PerLayer("grid.cell_retries", "count", "lower", "grid",
             _POOLED, _GRID_ONLY),
    PerLayer("cache.warm_start_s", "s", "lower", "cache",
             "setup_s @ every workload", "-"),
    PerLayer("cache.hits", "count", "higher", "cache",
             "setup_s @ every workload", "-"),
    PerLayer("cache.misses", "count", "lower", "cache",
             "setup_s @ every workload", "-"),
    PerLayer("trace.overhead_pct", "%", "lower", "trace", "-", "-"),
    PerLayer("trace.unattributed_share", "fraction", "lower", "trace", "-", "-"),
]

#: The layers a pass's self time is attributed to (span names are
#: ``<layer>.<call>``); the cache layer is traced in set-up only.
JOB_LAYERS = ("features", "nn", "serving", "fleet", "attacks", "evaluation",
              "defenses", "grid")
LAYERS = JOB_LAYERS + ("cache",)

PER_LAYER += [
    PerLayer(f"{layer}.self_ms", "ms", "lower", layer,
             "the end-to-end metric its own rows above name", "-")
    for layer in JOB_LAYERS
]
PER_LAYER += [
    PerLayer(f"{layer}.share", "fraction", "lower", layer,
             "the end-to-end metric its own rows above name", "-")
    for layer in JOB_LAYERS if layer != "features"
]


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document these tables define."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": metric.name, "unit": metric.unit,
                        "better": metric.better, "bound": metric.bound}
                       for metric in END_TO_END],
        "per_layer": [{"name": metric.name, "unit": metric.unit,
                       "better": metric.better}
                      for metric in PER_LAYER],
    }


def describe() -> str:
    """The prediction table, as ``run.py --describe`` prints it."""
    lines = ["end-to-end metrics (untraced runs):"]
    for metric in END_TO_END:
        lines.append(f"  {metric.name} [{metric.unit}, {metric.better} is "
                     f"better, bound {metric.bound:g}]: {metric.meaning}")
    lines.append("items:")
    lines.extend(f"  {name}: {item}" for name, item in ITEMS.items())
    lines.append("per-layer metrics (traced runs): layer | moves | no change on")
    for metric in PER_LAYER:
        lines.append(f"  {metric.name} [{metric.unit}] {metric.layer} | "
                     f"{metric.moves} | {metric.no_change}")
    return "\n".join(lines)
