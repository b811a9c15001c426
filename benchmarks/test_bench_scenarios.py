"""Benchmark the declarative scenario engine on a small attack x defense grid.

Runs ``ScenarioSpec.grid`` (2 attacks x 2 defenses, grey-box crafting at the
Table VI operating point) through :func:`repro.scenarios.run_scenario`
against the shared bench context and records per-cell and whole-grid
wall-times to ``BENCH_scenarios.json`` at the repository root — the measured
cost of "one grid cell" that consumers of the scenario API (sweeps, serving,
CI smoke) can budget against.

The grid also asserts the engine's reuse contracts: defense fits are
memoised per context (the second cell referencing a defense must not refit
it) and the canonical grey-box JSMA set is crafted once and shared.
"""

from __future__ import annotations

import time

from conftest import BENCH_SEED, BenchJson, run_once, save_rendering

from repro.evaluation.reports import format_table
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scenarios.registry import build_defense

BENCH = BenchJson("scenarios")


def _grid_specs(scale_name: str) -> list:
    return ScenarioSpec.grid(
        attacks=[{"id": "jsma", "params": {"early_stop": False}},
                 "random_addition"],
        defenses=["none", "feature_squeezing"],
        model="substitute", scale=scale_name, seed=BENCH_SEED,
        theta=0.1, gamma=0.02)


def test_bench_scenario_grid(benchmark, bench_context, results_dir):
    """Wall-time of a 2x2 attack x defense grid through run_scenario."""
    context = bench_context
    # Warm the shared artifacts outside the measured region so the grid
    # numbers measure the scenario engine, not corpus/model training.
    _ = context.target_model, context.substitute_model, context.attack_malware

    specs = _grid_specs(context.scale.name)
    cell_times: dict = {}
    reports: dict = {}

    def run_grid():
        for spec in specs:
            started = time.perf_counter()
            reports[spec.label] = run_scenario(spec, context=context)
            cell_times[spec.label] = time.perf_counter() - started
        return reports

    run_once(benchmark, run_grid)
    total = sum(cell_times.values())

    # Reuse contracts: the defended cells share one memoised squeezing fit,
    # and jsma cells share the canonical cached grey-box advEx set.
    squeezed = build_defense("feature_squeezing", context)
    assert build_defense("feature_squeezing", context) is squeezed
    jsma_reports = [r for label, r in reports.items() if label.startswith("jsma")]
    assert all(r.attack_result is not None for r in jsma_reports)

    rows = [[label, f"{elapsed:.3f}"] for label, elapsed in cell_times.items()]
    rows.append(["grid total", f"{total:.3f}"])
    save_rendering(results_dir, "scenario_grid",
                   format_table(["scenario", "seconds"], rows,
                                title=f"scenario grid wall-time "
                                      f"(scale={context.scale.name}, "
                                      f"seed={BENCH_SEED})"))

    BENCH.records["scenario_grid"] = {
        "scale": context.scale.name,
        "seed": BENCH_SEED,
        "n_cells": len(specs),
        "cells_s": {label: round(elapsed, 6)
                    for label, elapsed in cell_times.items()},
        "total_s": round(total, 6),
    }

    # Sanity: the structured attack beats the random control on the target.
    jsma_rate = reports["jsma vs none"].detection["target"]
    random_rate = reports["random_addition vs none"].detection["target"]
    assert jsma_rate < random_rate
