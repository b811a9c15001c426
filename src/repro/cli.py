"""Command-line interface for the experiments and the scoring service.

Usage examples::

    repro-experiments list
    repro-experiments run figure3 --scale small --seed 7
    repro-experiments run table6 --scale tiny --out results/
    repro-experiments run-all --scale tiny
    repro-experiments run-all --scale small --cache-dir .repro-cache

    repro-experiments list-attacks
    repro-experiments list-defenses
    repro-experiments run-scenario --attack jsma --defense feature_squeezing \\
        --model substitute --scale tiny --theta 0.1 --gamma 0.02
    repro-experiments run-scenario --spec scenario.json --json
    repro-experiments run-scenario --spec scenarios.json --workers 4

    repro-experiments run-grid --attacks jsma,random_addition \\
        --defenses none,feature_squeezing --model substitute --workers 4

    repro-experiments serve --scale small --cache-dir default --requests 512
    repro-experiments serve --scale small --workers 4 --requests 2048
    repro-experiments serve --scale tiny --observe --store runs/ --run-id r1
    repro-experiments serve --scale tiny --observe --store runs/ \\
        --workers 2 --slo-ms 25 --slo-breach shed
    repro-experiments top --store runs/ --once
    repro-experiments export-metrics --store runs/
    repro-experiments report --store runs/ --import-bench
    repro-experiments score sample.log --scale tiny --cache-dir default
    repro-experiments cache-info --cache-dir default

``run`` prints the experiment's rendered table/figure to stdout and (with
``--out``) also writes it to ``<out>/<experiment>.txt``.  ``--cache-dir``
attaches an :class:`~repro.utils.artifact_cache.ArtifactCache` so the
corpus and trained models persist across invocations — a warm ``run-all``
or ``serve`` skips straight to the measurement.  ``--dtype`` selects the
compute engine precision per invocation (first-class alternative to the
``REPRO_DTYPE`` environment variable).

``run-scenario`` executes one declarative cell of the attack x defense
grid through :func:`repro.scenarios.run_scenario` — either assembled from
flags or loaded from a :class:`~repro.scenarios.ScenarioSpec` JSON file
(a file holding a JSON *array* runs every spec in it) — and
``list-attacks`` / ``list-defenses`` print the registries with their
parameter schemas.  γ-sweeps (``--sweep gamma``) execute through the
trajectory-replay engine by default — one instrumented full-budget attack,
operating points sliced from its recorded trajectory, byte-identical under
float64; ``--sweep-strategy per_point`` forces the seed per-point path.  ``run-grid`` expands an attacks x defenses product into
specs and runs them; with ``--workers N`` both commands shard the cells
across a :class:`~repro.parallel.GridExecutor` process pool (reports merge
in spec order, byte-identical to serial execution under float64).

``serve`` replays a synthetic clean/malware/adversarial request stream
through the batched :class:`~repro.serving.service.ScoringService` —
or, with ``--workers N``, through a
:class:`~repro.parallel.WorkerFleet` of N replicated service processes
behind one dispatch queue — and
reports throughput and latency quantiles; ``score`` renders the structured
verdict for one API log file (Table II text or JSON counts); ``cache-info``
lists the artifact-cache entries with sizes and version compatibility.  The
``--defense`` endpoint wrapper resolves through the DefenseRegistry, so
every registered defense (and alias, e.g. ``squeeze``) is servable.

``serve --observe`` arms the :mod:`repro.obs` instrumentation layer
(spans and counters across the service/batcher/attack seams — verdicts
stay byte-identical); ``serve --store DIR`` records the run's verdict
stream, latency metrics and instrumentation snapshot into the
:mod:`repro.analytics` store, and ``report --store DIR`` summarises every
recorded run — evasion-rate drift per model version, p99 regressions,
shed/fallback rates — without re-running any scoring
(``--import-bench`` folds existing ``BENCH_*.json`` files in first).

With ``--observe`` every request is trace-stamped: the serve summary ends
with assembled span trees (queue / batch-wait / score breakdown per
request), and ``--slo-ms`` arms a latency SLO under multi-window
burn-rate alerting (``--slo-breach shed`` lets an active breach shed
load).  A ``--store`` run additionally publishes a live snapshot file the
``top`` command renders as a refreshing terminal dashboard, and
``export-metrics`` re-emits in Prometheus text exposition format.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.apilog.log_format import ApiLog
from repro.config import PROFILES, get_profile
from repro.exceptions import ServingError
from repro.experiments import ExperimentContext, available_experiments
from repro.experiments.registry import EXPERIMENTS
from repro.scenarios import (
    ATTACKS,
    DEFENSES,
    MODEL_KINDS,
    ScenarioSpec,
    build_endpoint,
    ensure_registries,
)
from repro.utils.artifact_cache import ArtifactCache
from repro.version import __version__


def _defense_choices() -> tuple:
    """Registered defense ids plus their aliases (``squeeze`` et al.)."""
    ensure_registries()
    choices = []
    for entry in DEFENSES.entries():
        choices.append(entry.entry_id)
        choices.extend(entry.aliases)
    return tuple(sorted(choices))


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro-experiments`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Malware Evasion "
                    "Attack and Defense' (DSN 2019) on the synthetic substrate, "
                    "and serve the trained detector as a batched scoring service.",
    )
    # The same version string the artifact cache stamps into each entry's
    # cache-meta.json (see repro.utils.artifact_cache).
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")
    subparsers.add_parser("list-attacks",
                          help="list the registered attacks and their parameters")
    subparsers.add_parser("list-defenses",
                          help="list the registered defenses and their parameters")

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--scale", choices=sorted(PROFILES), default="small",
                         help="scale profile (default: small)")
        sub.add_argument("--seed", type=int, default=0,
                         help="master seed for the experiment context")
        sub.add_argument("--out", type=Path, default=None,
                         help="directory to write rendered outputs into")
        sub.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                         help="persist the corpus and trained models under DIR "
                              "so warm runs skip retraining (pass 'default' for "
                              "$REPRO_CACHE_DIR or ~/.cache/repro-dsn2019)")
        sub.add_argument("--dtype", choices=("float32", "float64"), default=None,
                         help="compute dtype for artifacts built by this "
                              "invocation (default: $REPRO_DTYPE or float64)")

    def add_workers(sub: argparse.ArgumentParser, what: str) -> None:
        sub.add_argument("--workers", type=int, default=1, metavar="N",
                         help=f"shard {what} across N worker processes "
                              f"(default: 1 = serial; 0 = one per CPU)")

    def add_grid_reliability(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--retries", type=int, default=0, metavar="N",
                         help="extra attempts a failed grid cell gets, with "
                              "exponential backoff + jitter (default: 0 = "
                              "fail fast)")
        sub.add_argument("--shard-timeout", type=float, default=None,
                         metavar="SECONDS", dest="shard_timeout",
                         help="per-cell wall-clock budget; an attempt past it "
                              "is abandoned and re-dispatched (default: none)")

    def add_serving_model(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--model", default="target",
                         help="registered model bundle to serve (default: target)")
        sub.add_argument("--defense", choices=_defense_choices(), default="none",
                         help="wrap the endpoint in a registered defense "
                              "(resolved through the DefenseRegistry)")
        sub.add_argument("--threshold", type=float, default=0.5,
                         help="malware-probability decision threshold (default: 0.5)")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=available_experiments(),
                            help="experiment id (table1..table6, figure1..figure5, live_greybox)")
    add_common(run_parser)
    add_workers(run_parser, "the experiment's scenarios (figure3/figure4/table6)")

    run_all_parser = subparsers.add_parser("run-all", help="run every experiment")
    add_common(run_all_parser)
    add_workers(run_all_parser, "each parallelisable experiment's scenarios")

    scenario_parser = subparsers.add_parser(
        "run-scenario", help="run one declarative attack-vs-defense scenario")
    scenario_parser.add_argument("--spec", type=Path, default=None, metavar="FILE",
                                 help="ScenarioSpec JSON file; its fields are "
                                      "authoritative (--scale/--dtype only fill "
                                      "in where the file leaves them null, "
                                      "other flags are ignored)")
    scenario_parser.add_argument("--attack", default="jsma",
                                 help="attack registry id (see list-attacks)")
    scenario_parser.add_argument("--defense", choices=_defense_choices(),
                                 default="none",
                                 help="defense registry id (see list-defenses)")
    scenario_parser.add_argument("--model", choices=MODEL_KINDS, default="target",
                                 help="crafting surface (default: target — the "
                                      "white-box setting)")
    scenario_parser.add_argument("--theta", type=float, default=0.1,
                                 help="per-feature perturbation magnitude")
    scenario_parser.add_argument("--gamma", type=float, default=0.02,
                                 help="fraction of perturbable features")
    scenario_parser.add_argument("--sweep", choices=("gamma", "theta"), default=None,
                                 help="sweep one constraint parameter into a "
                                      "security curve")
    scenario_parser.add_argument("--sweep-values", default=None, metavar="V1,V2,...",
                                 help="explicit sweep grid (default: the paper "
                                      "grid at the scale profile's resolution)")
    scenario_parser.add_argument("--sweep-strategy", choices=("replay", "per_point"),
                                 default=None,
                                 help="gamma-sweep execution: 'replay' (default) "
                                      "slices one recorded full-budget attack "
                                      "trajectory per operating point; "
                                      "'per_point' re-runs the attack per point")
    scenario_parser.add_argument("--robustness-budget", type=int, default=None,
                                 metavar="N",
                                 help="also compute the minimal-evasion-budget "
                                      "distribution up to N added features")
    scenario_parser.add_argument("--attack-params", default=None, metavar="JSON",
                                 help="attack parameter overrides as a JSON object")
    scenario_parser.add_argument("--defense-params", default=None, metavar="JSON",
                                 help="defense parameter overrides as a JSON object")
    scenario_parser.add_argument("--json", action="store_true", dest="as_json",
                                 help="print the full ScenarioReport as JSON")
    add_common(scenario_parser)
    add_workers(scenario_parser, "the specs (when --spec holds a JSON array)")
    add_grid_reliability(scenario_parser)

    grid_parser = subparsers.add_parser(
        "run-grid", help="run an attacks x defenses grid of scenarios, "
                         "optionally across a process pool")
    grid_parser.add_argument("--attacks", default="jsma", metavar="A1,A2,...",
                             help="comma-separated attack ids, or a JSON array "
                                  "of ids / {'id':..., 'params':...} objects")
    grid_parser.add_argument("--defenses", default="none", metavar="D1,D2,...",
                             help="comma-separated defense ids, or a JSON "
                                  "array (see --attacks)")
    grid_parser.add_argument("--model", choices=MODEL_KINDS, default="target",
                             help="crafting surface for every cell")
    grid_parser.add_argument("--theta", type=float, default=0.1,
                             help="per-feature perturbation magnitude")
    grid_parser.add_argument("--gamma", type=float, default=0.02,
                             help="fraction of perturbable features")
    grid_parser.add_argument("--json", action="store_true", dest="as_json",
                             help="print the merged GridResult as JSON")
    add_common(grid_parser)
    add_workers(grid_parser, "the grid cells")
    add_grid_reliability(grid_parser)

    serve_parser = subparsers.add_parser(
        "serve", help="replay a synthetic request stream through the scoring "
                      "service and report throughput/latency")
    add_common(serve_parser)
    add_serving_model(serve_parser)
    add_workers(serve_parser, "the scoring service (replicated workers)")
    serve_parser.add_argument("--requests", type=int, default=256,
                              help="number of requests to replay (default: 256)")
    serve_parser.add_argument("--batch-size", type=int, default=32,
                              help="micro-batch flush size (default: 32)")
    serve_parser.add_argument("--max-delay-ms", type=float, default=2.0,
                              help="micro-batch latency SLO in ms (default: 2)")
    serve_parser.add_argument("--mix", default="0.5,0.4,0.1", metavar="C,M,A",
                              help="clean,malware,adversarial traffic fractions "
                                   "(default: 0.5,0.4,0.1; adversarial traffic "
                                   "trains the substitute and runs JSMA once)")
    serve_parser.add_argument("--rate", type=float, default=None,
                              help="replay rate in requests/s (default: as fast "
                                   "as the service accepts them)")
    serve_parser.add_argument("--restart-budget", type=int, default=2,
                              metavar="N", dest="restart_budget",
                              help="dead fleet replicas to replace per replay "
                                   "before giving up on restarts (default: 2)")
    serve_parser.add_argument("--fault-plan", type=Path, default=None,
                              metavar="FILE", dest="fault_plan",
                              help="JSON FaultPlan to arm in the service/fleet "
                                   "(chaos testing; see repro.reliability)")
    serve_parser.add_argument("--observe", action="store_true",
                              help="enable the instrumentation layer (spans + "
                                   "counters across service/batcher/attack "
                                   "seams; verdicts stay byte-identical)")
    serve_parser.add_argument("--store", type=Path, default=None, metavar="DIR",
                              help="record this run (verdicts, latency metrics "
                                   "and, with --observe, the instrumentation "
                                   "snapshot) into the analytics store at DIR "
                                   "— see the 'report' command")
    serve_parser.add_argument("--run-id", default=None, dest="run_id",
                              help="analytics run id for --store (default: "
                                   "serve-<unix-time>)")
    serve_parser.add_argument("--slo-ms", type=float, default=None,
                              metavar="MS", dest="slo_ms",
                              help="arm a latency SLO: verdicts over MS burn "
                                   "error budget; breaches fire burn-rate "
                                   "alerts (see --slo-breach)")
    serve_parser.add_argument("--slo-objective", type=float, default=0.99,
                              dest="slo_objective", metavar="FRACTION",
                              help="required good fraction for --slo-ms "
                                   "(default: 0.99)")
    serve_parser.add_argument("--slo-breach", choices=("alert", "shed",
                                                       "fallback"),
                              default="alert", dest="slo_breach",
                              help="what an active SLO breach arms: alert "
                                   "only, load shedding, or fallback to the "
                                   "undefended model (default: alert)")

    score_parser = subparsers.add_parser(
        "score", help="score one API log file and print the structured verdict")
    score_parser.add_argument("log_file", type=Path,
                              help="Table II text log, or JSON ({'api': count} "
                                   "mapping / {'api_counts': ...} object)")
    add_common(score_parser)
    add_serving_model(score_parser)

    cache_parser = subparsers.add_parser(
        "cache-info", help="list artifact-cache entries, sizes and versions")
    cache_parser.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                              help="cache root to inspect (pass 'default' for "
                                   "$REPRO_CACHE_DIR or ~/.cache/repro-dsn2019)")

    report_parser = subparsers.add_parser(
        "report", help="summarise recorded runs from an analytics store: "
                       "evasion-rate drift, per-model-version deltas, "
                       "shed/fallback rates and p99 regressions — without "
                       "re-running any scoring")
    report_parser.add_argument("--store", type=Path, required=True, metavar="DIR",
                               help="analytics store root (see 'serve --store')")
    report_parser.add_argument("--import-bench", type=Path, nargs="*",
                               default=None, metavar="FILE", dest="import_bench",
                               help="fold BENCH_*.json files into the store "
                                    "before reporting (idempotent; with no "
                                    "FILE arguments, globs ./BENCH_*.json)")
    report_parser.add_argument("--json", action="store_true", dest="as_json",
                               help="print the full report payload as JSON")
    report_parser.add_argument("--out", type=Path, default=None,
                               help="directory to write the rendered report into")

    top_parser = subparsers.add_parser(
        "top", help="live terminal dashboard for a running replay: progress, "
                    "rps, latency quantiles, SLO burn rates and alerts, read "
                    "from the store's atomically-published live snapshot")
    top_parser.add_argument("--store", type=Path, required=True, metavar="DIR",
                            help="analytics store root the replay publishes "
                                 "into (see 'serve --observe --store')")
    top_parser.add_argument("--once", action="store_true",
                            help="render one frame and exit (scripts, CI)")
    top_parser.add_argument("--interval", type=float, default=1.0,
                            metavar="SECONDS",
                            help="refresh interval (default: 1.0)")
    top_parser.add_argument("--frames", type=int, default=None, metavar="N",
                            help="stop after N refreshes (default: until "
                                 "interrupted or the run reports finished)")

    export_parser = subparsers.add_parser(
        "export-metrics", help="emit the last published metrics snapshot in "
                               "Prometheus text exposition format")
    export_parser.add_argument("--store", type=Path, required=True,
                               metavar="DIR",
                               help="analytics store root holding the live "
                                    "snapshot (see 'serve --observe --store')")
    export_parser.add_argument("--out", type=Path, default=None,
                               help="directory to write the exposition into")
    return parser


def _emit(name: str, rendered: str, out_dir: Optional[Path]) -> None:
    print(rendered)
    print()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")


def _cache_from(cache_dir: Optional[Path]) -> Optional[ArtifactCache]:
    if cache_dir is None:
        return None
    return ArtifactCache() if str(cache_dir) == "default" else ArtifactCache(cache_dir)


def load_scoring_source(path: Path):
    """Read a log file into something the scoring service accepts.

    ``.json`` files may carry a plain ``{"api": count}`` mapping, an object
    with an ``api_counts`` mapping, or an object with a ``log`` string in the
    Table II text format.  Any other extension is parsed as Table II text.
    Counts are call counts: ``2.0`` reads as 2, while ``2.7``, ``NaN`` and
    ``Infinity`` (which Python's ``json`` accepts) are rejected.
    """
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        data = json.loads(text)
        if isinstance(data, dict) and "api_counts" in data:
            data = data["api_counts"]
        if isinstance(data, dict) and "log" in data:
            return ApiLog.from_text(str(data["log"]), sample_id=path.stem)
        if isinstance(data, dict) and all(
                isinstance(count, (int, float)) for count in data.values()):
            for api, count in data.items():
                if isinstance(count, float) and not count.is_integer():
                    raise ServingError(
                        f"{path}: the count for API {api!r} must be a whole "
                        f"number, got {count!r}")
            return {str(api): int(count) for api, count in data.items()}
        raise ServingError(
            f"{path} must contain an api->count mapping, an 'api_counts' "
            f"object, or a 'log' text field")
    return ApiLog.from_text(text, sample_id=path.stem)


def _serve_summary_lines(args, servable, verdicts, endpoint_line: str,
                         scored_suffix: str = "") -> list:
    """The traffic/verdict lines `serve` prints in both execution modes."""
    flagged = sum(verdict.is_malware for verdict in verdicts)
    by_kind = {}
    for verdict in verdicts:
        kind = verdict.request_id.split("-", 1)[0]
        hits, total = by_kind.get(kind, (0, 0))
        by_kind[kind] = (hits + int(verdict.is_malware), total + 1)
    lines = [
        f"scoring service — model {servable.name} v{servable.version} "
        f"(scale {servable.scale.name}, seed {servable.seed}, dtype {servable.dtype})",
        endpoint_line,
        f"traffic: {args.requests} requests, mix {args.mix}"
        + (f", rate {args.rate:g} req/s" if args.rate else ", unpaced"),
        f"verdicts: {flagged} flagged malware / {len(verdicts)} scored"
        + scored_suffix,
    ]
    for kind in sorted(by_kind):
        hits, total = by_kind[kind]
        lines.append(f"  {kind:<8} {hits}/{total} flagged malware")
    return lines


def _load_fault_plan(args):
    """The ``--fault-plan`` file as a FaultPlan (None when the flag is unset)."""
    if getattr(args, "fault_plan", None) is None:
        return None
    from repro.reliability import FaultPlan

    return FaultPlan.from_json(args.fault_plan.read_text(encoding="utf-8"))


def _obs_summary_lines(snapshot: dict) -> list:
    """A compact text view of an instrumentation snapshot for ``serve``."""
    metrics = snapshot.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    histograms = metrics.get("histograms") or {}
    lines = [f"instrumentation: {snapshot.get('n_spans', 0)} spans, "
             f"{len(counters)} counters, {len(histograms)} histograms"]
    for name in sorted(counters):
        lines.append(f"  {name} = {counters[name]:g}")
    for name in sorted(gauges):
        lines.append(f"  {name} (gauge): last={gauges[name]['value']:g} "
                     f"max={gauges[name]['max']:g}")
    for name in sorted(histograms):
        stats = histograms[name]
        lines.append(f"  {name}: n={stats['count']} mean={stats['mean']:.6g} "
                     f"max={stats['max']:.6g}")
    dropped = snapshot.get("n_dropped_events", 0)
    if dropped:
        lines.append(f"  (event buffer full: {dropped} oldest events dropped)")
    return lines


def _slo_specs(args):
    """The SLO specs the ``--slo-*`` flags describe (empty when unarmed)."""
    if getattr(args, "slo_ms", None) is None:
        return ()
    from repro.obs import SLOSpec

    return (SLOSpec(name="latency", objective=args.slo_objective,
                    target_ms=args.slo_ms, on_breach=args.slo_breach),)


def _live_publisher(args, obs, slo_specs, stamper=None):
    """A live-snapshot publisher for ``--store`` runs (None without one)."""
    if args.store is None:
        return None
    from repro.obs import LivePublisher, SLOMonitor

    display = SLOMonitor(slo_specs) if slo_specs else None
    return LivePublisher(args.store, instrumentation=obs, slo=display,
                         stamper=stamper)


def _trace_summary_lines(args, snapshot: Optional[dict]) -> list:
    """Span-tree and SLO-alert summary for ``serve`` (empty when untraced)."""
    if not snapshot:
        return []
    from repro.obs import SpanCollector, breakdown_summary

    collector = SpanCollector()
    collector.add_snapshot(snapshot)
    trees = collector.trees()
    lines = []
    if trees:
        complete = sum(tree.complete for tree in trees.values())
        lines.append(f"traces: {len(trees)} requests traced — {complete} "
                     f"complete, {collector.n_orphans} orphans, "
                     f"{collector.n_duplicates} duplicate span ids")
        summary = breakdown_summary(trees)
        if summary["queue_ms"]["count"]:
            lines.append(
                "  breakdown (once-scored traces, mean): "
                f"queue {summary['queue_ms']['mean_ms']:.3f} ms | "
                f"batch-wait {summary['batch_wait_ms']['mean_ms']:.3f} ms | "
                f"score {summary['score_ms']['mean_ms']:.3f} ms | "
                f"end-to-end {summary['total_ms']['mean_ms']:.3f} ms")
        sample = next((tree for tree in trees.values()
                       if tree.complete and len(tree.nodes) >= 4), None)
        if sample is not None:
            lines.extend("  " + line for line in sample.render().splitlines())
    if getattr(args, "slo_ms", None) is not None:
        alerts = [event for event in snapshot.get("events") or []
                  if event.get("kind") == "alert"]
        if alerts:
            names = sorted({str(event.get("name", "")) for event in alerts})
            lines.append(f"slo alerts: {len(alerts)} fired "
                         f"({', '.join(names)})")
        else:
            lines.append("slo alerts: none fired")
    return lines


def _generate_requests(generator, n_requests: int, obs):
    """Generate the replay stream, under ambient instrumentation when on.

    The adversarial slice of the traffic mix trains a substitute and runs
    JSMA once — with ``--observe`` that crafting work lands in the
    ``jsma.*`` counters and the ``attack.jsma`` span.
    """
    if obs is None:
        return generator.generate(n_requests)
    from repro.obs import instrumented

    with instrumented(obs):
        return generator.generate(n_requests)


def _record_serve_run(args, verdicts, servable, throughput, snapshot) -> list:
    """Record the replayed run into ``--store`` (no-op without the flag)."""
    if args.store is None:
        return []
    from repro.analytics import AnalyticsStore, record_serve_run

    run_id = args.run_id or f"serve-{int(time.time())}"
    record_serve_run(
        AnalyticsStore(args.store), run_id, verdicts,
        model_version=servable.version,
        scenario=f"serve:{args.model}/{args.defense}",
        throughput=throughput, obs_snapshot=snapshot)
    return [f"recorded run {run_id} → {args.store}"]


def _cmd_serve(args) -> int:
    from repro.serving import (
        LoadGenerator,
        ModelRegistry,
        ScoringService,
        ThroughputReport,
        TrafficMix,
        replay,
    )

    cache = _cache_from(args.cache_dir)
    context = ExperimentContext(scale=get_profile(args.scale), seed=args.seed,
                                cache=cache, dtype=args.dtype)
    generator = LoadGenerator(context, mix=TrafficMix.parse(args.mix), seed=args.seed)
    plan = _load_fault_plan(args)
    retry_policy = None
    if plan is not None:
        from repro.reliability import RetryPolicy

        # Chaos runs need recovery armed; keep backoff short for the CLI.
        retry_policy = RetryPolicy(max_retries=2, base_delay_s=0.01,
                                   seed=args.seed)
    obs = None
    if args.observe:
        from repro.obs import Instrumentation, ListSink

        # Tracing emits ~4 span events per request; size the buffer so a
        # multi-thousand-request replay keeps every root reachable.
        obs = Instrumentation(sink=ListSink(max_events=32768))
    slo_specs = _slo_specs(args)
    # The ScoringService keywords both execution modes share.
    options = dict(threshold=args.threshold, max_batch_size=args.batch_size,
                   max_delay_ms=args.max_delay_ms, retry_policy=retry_policy,
                   slo_specs=slo_specs)
    # The endpoint as configured: an SLO fallback during the replay shows
    # in the reliability counters, not here.
    endpoint = (f"endpoint: defense={DEFENSES.get(args.defense).entry_id} "
                f"threshold={args.threshold} batch_size={args.batch_size} "
                f"max_delay_ms={args.max_delay_ms}")

    if args.workers != 1:
        from repro.parallel import WorkerFleet

        fleet = WorkerFleet(n_workers=args.workers, model=args.model,
                            defense=args.defense, context=context,
                            restart_budget=args.restart_budget,
                            fault_plan=plan, instrumentation=obs, **options)
        requests = _generate_requests(generator, args.requests, obs)
        publisher = _live_publisher(args, obs, slo_specs)
        verdicts, fleet_report = fleet.score_stream(requests,
                                                    rate_per_s=args.rate,
                                                    seed=args.seed,
                                                    progress=publisher)
        servable = fleet.servable
        endpoint += f" workers={fleet.n_workers}"
        scored_suffix = ""
        throughput = fleet_report.throughput
        summary = [fleet_report.render()]
        snapshot = fleet_report.obs
    else:
        servable = ModelRegistry(cache=cache).get(args.model, context=context)
        detector = build_endpoint(args.defense, context, model=servable.model)
        injector = (plan.injector(scope={"worker": 0})
                    if plan is not None else None)
        service = ScoringService(servable, detector,
                                 isolate_poison=plan is not None,
                                 injector=injector, instrumentation=obs,
                                 **options)
        requests = _generate_requests(generator, args.requests, obs)
        stamper = None
        if obs is not None:
            from repro.obs import TraceStamper

            # Single-process path: stamp trace contexts here, where the
            # fleet dispatcher would; root durations fall back to verdict
            # latency.
            stamper = TraceStamper(obs)
            requests = [stamper.stamp(request) for request in requests]
        publisher = _live_publisher(args, obs, slo_specs, stamper=stamper)
        start = time.perf_counter()
        verdicts = replay(service, requests, rate_per_s=args.rate,
                          seed=args.seed, progress=publisher)
        elapsed = time.perf_counter() - start
        if stamper is not None:
            stamper.finish_all(verdicts)
        scored_suffix = f" in {service.n_batches} fused batches"
        throughput = ThroughputReport.from_verdicts(verdicts, elapsed)
        summary = [throughput.render()]
        reliability = service.reliability
        if not reliability.empty():
            summary.append(reliability.render())
        snapshot = obs.snapshot() if obs is not None else None

    if publisher is not None:
        publisher.finish(snapshot)
    lines = _serve_summary_lines(args, servable, verdicts, endpoint,
                                 scored_suffix=scored_suffix)
    lines.extend(summary)
    if snapshot is not None:
        lines.extend(_obs_summary_lines(snapshot))
        lines.extend(_trace_summary_lines(args, snapshot))
    lines.extend(_record_serve_run(args, verdicts, servable, throughput,
                                   snapshot))
    _emit("serve", "\n".join(lines), args.out)
    return 0


def _cmd_report(args) -> int:
    from repro.analytics import (
        AnalyticsStore,
        build_report,
        import_bench,
        render_report,
    )

    store = AnalyticsStore(args.store)
    lines = []
    if args.import_bench is not None:
        paths = (list(args.import_bench) if args.import_bench
                 else sorted(Path(".").glob("BENCH_*.json")))
        imported = import_bench(store, paths)
        lines.append(f"imported {len(imported)} benchmark file(s)"
                     + (": " + ", ".join(imported) if imported else ""))
    report = build_report(store)
    if args.as_json:
        rendered = json.dumps(report, indent=2, sort_keys=True, default=float)
    else:
        rendered = "\n".join(lines + [render_report(
            report, store_root=str(store.root))])
    _emit("report", rendered, args.out)
    return 0


def _cmd_top(args) -> int:
    from repro.obs import read_snapshot, render_top

    frame = 0
    while True:
        payload = read_snapshot(args.store)
        rendered = render_top(payload)
        if args.once or args.frames is not None:
            print(rendered)
        else:
            # Clear + home keeps the dashboard in place on ANSI terminals.
            print(f"\x1b[2J\x1b[H{rendered}", flush=True)
        frame += 1
        if args.once:
            return 0
        if args.frames is not None and frame >= args.frames:
            return 0
        if payload is not None and payload.get("finished"):
            return 0
        try:
            time.sleep(max(0.05, args.interval))
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


def _cmd_export_metrics(args) -> int:
    from repro.obs import prometheus_exposition, read_snapshot, snapshot_path

    payload = read_snapshot(args.store)
    if payload is None:
        print(f"no live snapshot at {snapshot_path(args.store)} — run "
              f"`serve --observe --store {args.store}` first", file=sys.stderr)
        return 1
    rendered = prometheus_exposition(payload.get("metrics"))
    print(rendered, end="")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "metrics.prom").write_text(rendered, encoding="utf-8")
    return 0


def _cmd_score(args) -> int:
    from repro.serving import ModelRegistry, ScoringService

    source = load_scoring_source(args.log_file)
    cache = _cache_from(args.cache_dir)
    context = ExperimentContext(scale=get_profile(args.scale), seed=args.seed,
                                cache=cache, dtype=args.dtype)
    servable = ModelRegistry(cache=cache).get(args.model, context=context)
    detector = build_endpoint(args.defense, context, model=servable.model)
    service = ScoringService(servable, detector=detector, threshold=args.threshold)
    verdict = service.score(source, request_id=args.log_file.stem)
    _emit("score", json.dumps(verdict.as_dict(), indent=2, sort_keys=True), args.out)
    return 0


def _human_size(n_bytes: int) -> str:
    """Render a byte count as B/KiB/MiB/GiB with one decimal."""
    size = float(n_bytes)
    for unit in ("B", "KiB", "MiB"):
        if size < 1024.0:
            return f"{size:,.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{size:,.1f} GiB"


def _cmd_cache_info(args) -> int:
    cache = _cache_from(args.cache_dir if args.cache_dir is not None else Path("default"))
    entries = cache.entries()
    print(f"cache root: {cache.root}")
    if not entries:
        print("(no cached artifacts)")
        return 0
    print(f"{'kind':<22} {'key':<18} {'version':<10} {'size':>10} "
          f"{'':>11} {'files':>6}  state")
    total = 0
    for entry in entries:
        total += entry.size_bytes
        state = ("ok" if entry.compatible
                 else ("incomplete" if not entry.complete else "stale-version"))
        version = entry.package_version or "unstamped"
        print(f"{entry.kind:<22} {entry.key:<18} {version:<10} "
              f"{entry.size_bytes:>10,} {_human_size(entry.size_bytes):>11} "
              f"{entry.n_files:>6}  {state}")
    print(f"{len(entries)} entries, {total:,} bytes total ({_human_size(total)})")
    by_kind = {}
    for entry in entries:
        count, size = by_kind.get(entry.kind, (0, 0))
        by_kind[entry.kind] = (count + 1, size + entry.size_bytes)
    print()
    print("per-kind breakdown:")
    print(f"{'kind':<22} {'entries':>7} {'bytes':>14} {'size':>11} {'share':>7}")
    for kind in sorted(by_kind):
        count, size = by_kind[kind]
        share = size / total if total else 0.0
        print(f"{kind:<22} {count:>7} {size:>14,} {_human_size(size):>11} "
              f"{share:>6.1%}")
    return 0


def _registry_listing(registry) -> str:
    """Render one registry (ids, aliases, classes, param schemas) as text."""
    lines = []
    for entry in registry.entries():
        alias_note = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        lines.append(f"{entry.entry_id:<22} {entry.cls.__name__:<28} "
                     f"[{entry.kind}]{alias_note}")
        lines.append(f"    {entry.summary}")
        lines.append(f"    params: {entry.schema()}")
    return "\n".join(lines)


def _fill_spec_defaults(spec: ScenarioSpec, args) -> ScenarioSpec:
    """Spec files are authoritative; flags only fill fields left null."""
    if spec.scale is None:
        spec = spec.with_overrides(scale=args.scale)
    if spec.dtype is None and args.dtype is not None:
        spec = spec.with_overrides(dtype=args.dtype)
    if (spec.sweep is not None and spec.sweep_strategy is None
            and getattr(args, "sweep_strategy", None) is not None):
        spec = spec.with_overrides(sweep_strategy=args.sweep_strategy)
    return spec


def _run_specs_for_cli(specs, args):
    """Run CLI-assembled specs through the grid executor and emit the result."""
    from repro.parallel import GridExecutor
    from repro.reliability import RetryPolicy

    executor = GridExecutor(n_workers=args.workers or None,
                            cache=_cache_from(args.cache_dir),
                            retry_policy=RetryPolicy(max_retries=args.retries),
                            shard_timeout_s=args.shard_timeout)
    result = executor.run(specs)
    if args.as_json:
        rendered = result.to_json()
    elif len(result.reports) == 1:
        rendered = result.reports[0].render()
    else:
        rendered = "\n\n".join([report.render() for report in result.reports]
                               + [result.render()])
    return result, rendered


def _cmd_run_scenario(args) -> int:
    from repro.scenarios import run_scenario

    if args.spec is not None:
        from repro.exceptions import ConfigurationError

        try:
            payload = json.loads(args.spec.read_text(encoding="utf-8"))
        except ValueError as error:
            raise ConfigurationError(
                f"invalid scenario spec JSON in {args.spec}: {error}") from error
        if isinstance(payload, list):
            # A spec-array file is a grid: shard it across --workers.
            specs = [_fill_spec_defaults(ScenarioSpec.from_dict(entry), args)
                     for entry in payload]
            _, rendered = _run_specs_for_cli(specs, args)
            _emit("scenario", rendered, args.out)
            return 0
        spec = _fill_spec_defaults(ScenarioSpec.from_dict(payload), args)
    else:
        sweep_values = None
        if args.sweep_values is not None:
            sweep_values = tuple(float(v) for v in args.sweep_values.split(","))
        spec = ScenarioSpec(
            attack=args.attack,
            attack_params=json.loads(args.attack_params) if args.attack_params else {},
            defense=args.defense,
            defense_params=json.loads(args.defense_params) if args.defense_params else {},
            model=args.model,
            scale=args.scale,
            seed=args.seed,
            dtype=args.dtype,
            theta=args.theta,
            gamma=args.gamma,
            sweep=args.sweep,
            sweep_values=sweep_values,
            sweep_strategy=args.sweep_strategy,
            robustness_budget=args.robustness_budget,
        )
    cache = _cache_from(args.cache_dir)
    context = ExperimentContext(scale=get_profile(spec.scale), seed=spec.seed,
                                cache=cache, dtype=spec.dtype)
    report = run_scenario(spec, context=context)
    _emit("scenario", report.to_json() if args.as_json else report.render(), args.out)
    return 0


def _parse_grid_axis(text: str, what: str):
    """``a,b,c`` or a JSON array of ids / {"id":..., "params":...} objects."""
    text = text.strip()
    if text.startswith("["):
        from repro.exceptions import ConfigurationError

        try:
            return json.loads(text)
        except ValueError as error:
            raise ConfigurationError(
                f"invalid JSON for --{what}: {error}") from error
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_run_grid(args) -> int:
    specs = ScenarioSpec.grid(
        attacks=_parse_grid_axis(args.attacks, "attacks"),
        defenses=_parse_grid_axis(args.defenses, "defenses"),
        model=args.model, scale=args.scale, seed=args.seed, dtype=args.dtype,
        theta=args.theta, gamma=args.gamma)
    _, rendered = _run_specs_for_cli(specs, args)
    _emit("grid", rendered, args.out)
    return 0


#: Experiments whose drivers accept ``workers=`` (scenario fan-out).
PARALLEL_EXPERIMENTS = ("figure3", "figure4", "table6")


def _runner_kwargs(experiment_id: str, workers: int) -> dict:
    if workers != 1 and experiment_id in PARALLEL_EXPERIMENTS:
        from repro.parallel import resolve_workers

        return {"workers": resolve_workers(workers or None)}
    return {}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for experiment_id in available_experiments():
            spec = EXPERIMENTS[experiment_id]
            print(f"{experiment_id:<14} {spec.title}  [{spec.paper_section}]")
        return 0

    if args.command == "list-attacks":
        ensure_registries()
        print(_registry_listing(ATTACKS))
        return 0
    if args.command == "list-defenses":
        ensure_registries()
        print(_registry_listing(DEFENSES))
        return 0
    if args.command == "run-scenario":
        return _cmd_run_scenario(args)
    if args.command == "run-grid":
        return _cmd_run_grid(args)

    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "score":
        return _cmd_score(args)
    if args.command == "cache-info":
        return _cmd_cache_info(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "export-metrics":
        return _cmd_export_metrics(args)

    cache = _cache_from(args.cache_dir)
    context = ExperimentContext(scale=get_profile(args.scale), seed=args.seed,
                                cache=cache, dtype=args.dtype)
    if args.command == "run":
        result = EXPERIMENTS[args.experiment].runner(
            context, **_runner_kwargs(args.experiment, args.workers))
        _emit(args.experiment, result.render(), args.out)
        return 0

    if args.command == "run-all":
        for experiment_id in available_experiments():
            print(f"== {experiment_id}: {EXPERIMENTS[experiment_id].title}")
            result = EXPERIMENTS[experiment_id].runner(
                context, **_runner_kwargs(experiment_id, args.workers))
            _emit(experiment_id, result.render(), args.out)
        return 0

    return 2  # unreachable given required=True


if __name__ == "__main__":  # pragma: no cover - manual invocation path
    sys.exit(main())
