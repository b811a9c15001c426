"""Benchmark the process-pool execution engine: serial vs parallel grids.

Runs the same 8-cell attack x defense grid through
:class:`~repro.parallel.GridExecutor` serially and with a 4-worker pool
(fork-prewarmed from the shared bench context), recording both wall-times
and their ratio to ``BENCH_parallel.json`` — plus a 2-worker
:class:`~repro.parallel.WorkerFleet` serving measurement against the
single-process service baseline.

Byte-parity of the merged reports (``to_json(include_timing=False)``) is
asserted unconditionally: a parallel grid must be indistinguishable from a
serial one under float64.  The >= 2x speedup acceptance gate only makes
physical sense with cores to spare, so it is asserted when the machine
exposes >= 4 usable CPUs (force it with ``REPRO_BENCH_REQUIRE_SPEEDUP=1``,
waive with ``=0``); the measured numbers and the CPU count are recorded
either way, so CI and laptops both leave an honest trail.
"""

from __future__ import annotations

import os
import time

from conftest import BENCH_SEED, BenchJson, run_once, save_rendering

from repro.evaluation.reports import format_table
from repro.parallel import GridExecutor, WorkerFleet, available_cpus
from repro.scenarios import ScenarioSpec
from repro.serving import ModelRegistry, ScoringService

BENCH = BenchJson("parallel")

GRID_WORKERS = 4
FLEET_WORKERS = 2


def _require_speedup() -> bool:
    forced = os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP")
    if forced is not None:
        return forced != "0"
    return available_cpus() >= GRID_WORKERS


def _benchmark_grid(scale_name: str) -> list:
    """8 cells of comparable cost: full-budget grey-box JSMA crafting at
    four non-canonical γ budgets x 2 defenses.  Non-canonical operating
    points bypass the cached advEx artifact, so every cell performs real
    crafting work — the embarrassingly parallel load the executor shards."""
    specs = []
    for gamma in (0.025, 0.03, 0.035, 0.04):
        specs.extend(ScenarioSpec.grid(
            attacks=[{"id": "jsma", "params": {"early_stop": False}}],
            defenses=["none", "feature_squeezing"],
            model="substitute", scale=scale_name, seed=BENCH_SEED,
            theta=0.1, gamma=gamma))
    for spec_index, spec in enumerate(specs):
        specs[spec_index] = spec.with_overrides(
            label=f"{spec.label} (gamma={spec.gamma:g})")
    return specs


def test_bench_parallel_grid(benchmark, bench_context, results_dir):
    """Serial vs 4-worker wall-time on the benchmark grid + byte parity."""
    context = bench_context
    # Warm the shared artifacts outside the measured region: both execution
    # modes then measure grid execution, not corpus/model training.
    _ = context.target_model, context.substitute_model, context.attack_malware
    specs = _benchmark_grid(context.scale.name)

    serial_executor = GridExecutor(n_workers=1)
    parallel_executor = GridExecutor(n_workers=GRID_WORKERS)

    started = time.perf_counter()
    serial = serial_executor.run(specs, context=context)
    serial_s = time.perf_counter() - started

    def run_parallel():
        return parallel_executor.run(specs, context=context)

    parallel = run_once(benchmark, run_parallel)
    parallel_s = parallel.elapsed_s
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")

    # Determinism is non-negotiable regardless of the machine: merged
    # reports must be byte-identical to the serial baseline under float64.
    serial_docs = [r.to_json(include_timing=False) for r in serial.reports]
    parallel_docs = [r.to_json(include_timing=False) for r in parallel.reports]
    assert parallel_docs == serial_docs

    rows = [["serial (1 worker)", f"{serial_s:.3f}", ""],
            [f"parallel ({parallel.n_workers} workers, "
             f"{parallel.start_method})", f"{parallel_s:.3f}",
             f"{speedup:.2f}x"]]
    save_rendering(results_dir, "parallel_grid",
                   format_table(["execution", "seconds", "speedup"], rows,
                                title=f"grid of {len(specs)} cells "
                                      f"(scale={context.scale.name}, "
                                      f"seed={BENCH_SEED}, "
                                      f"cpus={available_cpus()})"))

    BENCH.records["parallel_grid"] = {
        "scale": context.scale.name,
        "seed": BENCH_SEED,
        "n_cells": len(specs),
        "n_workers": parallel.n_workers,
        "n_cpus": available_cpus(),
        "start_method": parallel.start_method,
        "serial_s": round(serial_s, 6),
        "parallel_s": round(parallel_s, 6),
        "speedup": round(speedup, 4),
        "byte_identical_to_serial": parallel_docs == serial_docs,
        "speedup_asserted": _require_speedup(),
    }

    if _require_speedup():
        assert speedup >= 2.0, (
            f"4-worker grid should be >= 2x faster than serial on "
            f"{available_cpus()} CPUs, measured {speedup:.2f}x")


def test_bench_worker_fleet(benchmark, bench_context, results_dir):
    """2-worker fleet vs single-process service on a feature-row stream."""
    context = bench_context
    servable = ModelRegistry().get("target", context=context)
    rows = context.attack_malware.features
    stream = [rows[index % rows.shape[0]] for index in range(512)]

    single = ScoringService(servable, max_batch_size=64)
    started = time.perf_counter()
    baseline = single.score_many(list(stream))
    single_s = time.perf_counter() - started

    fleet = WorkerFleet(n_workers=FLEET_WORKERS, context=context,
                        max_batch_size=64)

    def run_fleet():
        return fleet.score_stream(list(stream))

    verdicts, report = run_once(benchmark, run_fleet)
    assert len(verdicts) == len(baseline)
    mismatches = sum(ours.label != theirs.label
                     for ours, theirs in zip(verdicts, baseline))
    assert mismatches == 0

    BENCH.records["worker_fleet"] = {
        "scale": context.scale.name,
        "seed": BENCH_SEED,
        "n_requests": len(stream),
        "n_workers": report.n_workers,
        "n_cpus": available_cpus(),
        "start_method": report.start_method,
        "single_service_s": round(single_s, 6),
        "fleet_s": round(report.throughput.elapsed_s, 6),
        "fleet_requests_per_s": round(report.throughput.requests_per_s, 2),
        "fleet_p50_ms": round(report.throughput.p50_ms, 6),
        "fleet_p99_ms": round(report.throughput.p99_ms, 6),
        "verdict_mismatches": mismatches,
    }

    save_rendering(results_dir, "worker_fleet",
                   "\n".join([f"single service: {len(stream)} requests in "
                              f"{single_s:.3f}s",
                              report.render()]))
