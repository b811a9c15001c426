"""Benchmark command for the scoring service and the evasion study.

Usage (from the repository root)::

    python3 perfbench/run.py --workload log-stream --seed 1 --seconds 20 --trace 0

Workloads: ``log-stream``, ``fleet-features``, ``attack-sweeps`` and
``defense-grid`` (``--describe`` prints what each metric means and which
end-to-end metric each per-layer metric should move).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer breakdown of a
separate traced run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human-readable report with sample counts and the machine
fingerprint.  The full result (spans included when traced) is also written
under ``perfbench/.results/``.

The program is imported from ``src/`` next to this directory; its artifact
cache lives in ``perfbench/.cache/``.  A cold cache is built once, before
anything is timed.  The exit code is non-zero when a
correctness check fails or the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the metric catalogue and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import catalogue

    if args.describe:
        print(catalogue.describe())
        return 0
    if args.workload not in catalogue.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(catalogue.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program's sources are missing: {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    from perfbench import stats, workloads
    from perfbench.fingerprint import fingerprint

    settings = workloads.Settings(cache_root=BENCH_DIR / ".cache", seed=args.seed,
                                  seconds=args.seconds, trace=bool(args.trace))
    started = time.perf_counter()
    workloads.warm_cache(settings)
    warmed = time.perf_counter()
    outcome = workloads.WORKLOADS[args.workload](settings)
    machine = fingerprint(ROOT, workload=args.workload, workload_seed=args.seed,
                          context_seed=workloads.CONTEXT_SEED,
                          scale=workloads.SCALE, dtype=workloads.DTYPE,
                          trace=bool(args.trace))

    print(f"== {args.workload} (seed {args.seed}, trace {args.trace}, "
          f"{args.seconds:g} s measured) ==")
    if args.trace:
        print("traced run: the result line holds the per-layer metrics; the "
              "closed-loop figures below come from its untraced passes")
    for line in outcome.lines:
        print(line)
    rate = stats.error_rate(outcome.attempted, outcome.failed)
    print(f"error_rate: {rate:.6f} ({outcome.failed} of {outcome.attempted} "
          f"items failed or mismatched)")
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"elapsed: cache check {warmed - started:.1f} s, run "
          f"{time.perf_counter() - warmed:.1f} s")

    expected = ([metric.name for metric in catalogue.PER_LAYER] if args.trace
                else [metric.name for metric in catalogue.END_TO_END])
    units = {metric.name: metric.unit
             for metric in (*catalogue.END_TO_END, *catalogue.PER_LAYER)}
    missing = sorted(set(expected) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]),
                           "unit": units[name]} for name in expected},
    }
    results = BENCH_DIR / ".results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": machine, "result": result, "report": outcome.lines,
                    **outcome.record}, indent=1) + "\n", encoding="utf-8")
    if outcome.spans is not None:
        outcome.spans.dump(results / f"{args.workload}-spans.npz")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
