"""Tests for the repro-experiments command-line interface."""

import json

import pytest

from repro.cli import build_parser, load_scoring_source, main
from repro.experiments import available_experiments


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure99"])

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "table3"])
        assert args.scale == "small"
        assert args.seed == 0
        assert args.out is None

    def test_scale_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table3", "--scale", "huge"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dtype_flag_parses_and_validates(self):
        args = build_parser().parse_args(["run", "table3", "--dtype", "float32"])
        assert args.dtype == "float32"
        assert build_parser().parse_args(["run", "table3"]).dtype is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table3", "--dtype", "float16"])

    def test_serve_command_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.model == "target"
        assert args.defense == "none"
        assert args.requests == 256
        assert args.batch_size == 32
        assert args.rate is None

    def test_score_command_requires_log_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["score"])
        args = build_parser().parse_args(["score", "sample.log", "--defense", "squeeze"])
        assert args.command == "score"
        assert str(args.log_file) == "sample.log"
        assert args.defense == "squeeze"

    def test_cache_info_command_parses(self):
        args = build_parser().parse_args(["cache-info", "--cache-dir", "x"])
        assert args.command == "cache-info"

    def test_sweep_strategy_flag_parses_and_validates(self):
        args = build_parser().parse_args(
            ["run-scenario", "--sweep", "gamma", "--sweep-strategy", "per_point"])
        assert args.sweep_strategy == "per_point"
        assert build_parser().parse_args(["run-scenario"]).sweep_strategy is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run-scenario", "--sweep-strategy", "memoized"])

    def test_sweep_strategy_flag_fills_null_spec_field(self):
        from repro.cli import _fill_spec_defaults
        from repro.scenarios import ScenarioSpec

        args = build_parser().parse_args(
            ["run-scenario", "--sweep-strategy", "per_point"])
        sweep_spec = ScenarioSpec(sweep="gamma", scale="tiny")
        assert _fill_spec_defaults(sweep_spec, args).sweep_strategy == "per_point"
        # Spec files stay authoritative, and point runs have no sweep to fill.
        pinned = ScenarioSpec(sweep="gamma", sweep_strategy="replay", scale="tiny")
        assert _fill_spec_defaults(pinned, args).sweep_strategy == "replay"
        point = ScenarioSpec(scale="tiny")
        assert _fill_spec_defaults(point, args).sweep_strategy is None


class TestLoadScoringSource:
    def test_reads_table2_text_log(self, tmp_path):
        from repro.apilog.log_format import ApiLog

        log_file = tmp_path / "sample.log"
        log_file.write_text('WriteFile:13FBC1111 ()"61468"\n', encoding="utf-8")
        source = load_scoring_source(log_file)
        assert isinstance(source, ApiLog)
        assert source.api_counts() == {"writefile": 1}

    def test_reads_json_count_mapping(self, tmp_path):
        log_file = tmp_path / "sample.json"
        log_file.write_text(json.dumps({"writefile": 3, "winexec": 1}),
                            encoding="utf-8")
        assert load_scoring_source(log_file) == {"writefile": 3, "winexec": 1}

    def test_reads_json_api_counts_object(self, tmp_path):
        log_file = tmp_path / "sample.json"
        log_file.write_text(json.dumps({"api_counts": {"writefile": 2}}),
                            encoding="utf-8")
        assert load_scoring_source(log_file) == {"writefile": 2}

    def test_rejects_malformed_json_payload(self, tmp_path):
        from repro.exceptions import ServingError

        log_file = tmp_path / "sample.json"
        log_file.write_text(json.dumps({"unexpected": ["shape"]}), encoding="utf-8")
        with pytest.raises(ServingError):
            load_scoring_source(log_file)

    def test_integral_float_counts_read_as_ints(self, tmp_path):
        log_file = tmp_path / "sample.json"
        log_file.write_text('{"writefile": 2.0, "winexec": 1}', encoding="utf-8")
        source = load_scoring_source(log_file)
        assert source == {"writefile": 2, "winexec": 1}
        assert all(type(count) is int for count in source.values())

    @pytest.mark.parametrize("text", ['{"writefile": 2.7}',
                                      '{"writefile": NaN}',
                                      '{"writefile": Infinity}',
                                      '{"api_counts": {"writefile": -Infinity}}'])
    def test_rejects_fractional_and_non_finite_counts(self, tmp_path, text):
        from repro.exceptions import ServingError

        log_file = tmp_path / "sample.json"
        log_file.write_text(text, encoding="utf-8")
        with pytest.raises(ServingError, match="writefile"):
            load_scoring_source(log_file)


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro.version import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestScenarioCommands:
    def test_list_attacks_prints_registry(self, capsys):
        from repro.scenarios import ATTACKS

        assert main(["list-attacks"]) == 0
        output = capsys.readouterr().out
        for attack_id in ATTACKS.available():
            assert attack_id in output
        assert "early_stop" in output  # schemas are rendered

    def test_list_defenses_prints_registry_with_aliases(self, capsys):
        from repro.scenarios import DEFENSES

        assert main(["list-defenses"]) == 0
        output = capsys.readouterr().out
        for defense_id in DEFENSES.available():
            assert defense_id in output
        assert "squeeze" in output
        assert "temperature" in output

    def test_run_scenario_defense_choices_come_from_the_registry(self):
        args = build_parser().parse_args(
            ["run-scenario", "--defense", "feature_squeezing"])
        assert args.defense == "feature_squeezing"
        args = build_parser().parse_args(["run-scenario", "--defense", "squeeze"])
        assert args.defense == "squeeze"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-scenario", "--defense", "tinfoil"])

    def test_run_scenario_point_prints_report(self, capsys):
        code = main(["run-scenario", "--scale", "tiny", "--seed", "3",
                     "--attack", "random_addition", "--theta", "0.1",
                     "--gamma", "0.02"])
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario: attack=random_addition" in output
        assert "detection[target]" in output

    def test_run_scenario_json_output_is_parseable(self, capsys, tmp_path):
        code = main(["run-scenario", "--scale", "tiny", "--seed", "3",
                     "--attack", "random_addition", "--sweep", "gamma",
                     "--sweep-values", "0,0.01", "--json",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attack"] == "random_addition"
        assert len(payload["curve"]["points"]) == 2
        assert (tmp_path / "scenario.txt").exists()

    def test_run_scenario_from_spec_file(self, capsys, tmp_path):
        from repro.scenarios import ScenarioSpec

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(ScenarioSpec(
            attack="random_addition", scale="tiny", seed=3,
            theta=0.1, gamma=0.02).to_json(), encoding="utf-8")
        assert main(["run-scenario", "--spec", str(spec_file)]) == 0
        assert "attack=random_addition" in capsys.readouterr().out

    def test_run_scenario_rejects_unknown_attack_param(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="no parameter"):
            main(["run-scenario", "--scale", "tiny",
                  "--attack-params", '{"warp": 9}'])

    def test_run_scenario_spec_array_runs_every_spec(self, capsys, tmp_path):
        from repro.scenarios import ScenarioSpec

        spec_file = tmp_path / "specs.json"
        specs = [ScenarioSpec(attack="random_addition", scale="tiny", seed=3,
                              theta=0.1, gamma=0.02).to_dict(),
                 ScenarioSpec(attack="random_addition", scale="tiny", seed=3,
                              theta=0.1, gamma=0.03).to_dict()]
        spec_file.write_text(json.dumps(specs), encoding="utf-8")
        assert main(["run-scenario", "--spec", str(spec_file),
                     "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "2 cells" in output
        assert "gamma=0.03" in output

    def test_run_scenario_spec_array_json_output(self, capsys, tmp_path):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps(
            [{"attack": "random_addition", "scale": "tiny", "seed": 3}]),
            encoding="utf-8")
        assert main(["run-scenario", "--spec", str(spec_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_cells"] == 1
        assert payload["reports"][0]["attack"] == "random_addition"

    def test_run_scenario_rejects_malformed_spec_file(self, tmp_path):
        from repro.exceptions import ConfigurationError

        spec_file = tmp_path / "broken.json"
        spec_file.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid scenario spec"):
            main(["run-scenario", "--spec", str(spec_file)])


class TestRunGridCommand:
    def test_run_grid_parses_defaults(self):
        args = build_parser().parse_args(["run-grid"])
        assert args.attacks == "jsma"
        assert args.defenses == "none"
        assert args.workers == 1

    def test_run_grid_serial_prints_cells(self, capsys):
        # A single-cell grid renders the one report directly.
        assert main(["run-grid", "--attacks", "random_addition",
                     "--defenses", "none", "--scale", "tiny", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "attack=random_addition" in output
        assert "detection[target]" in output

    def test_run_grid_multi_cell_renders_summary_table(self, capsys):
        assert main(["run-grid", "--attacks", "random_addition",
                     "--defenses", "none,feature_squeezing",
                     "--model", "substitute",
                     "--scale", "tiny", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "random_addition vs none" in output
        assert "random_addition vs feature_squeezing" in output
        assert "2 cells" in output

    def test_run_grid_parallel_json(self, capsys):
        assert main(["run-grid",
                     "--attacks", '[{"id": "random_addition"}]',
                     "--defenses", "none,feature_squeezing",
                     "--model", "substitute",
                     "--scale", "tiny", "--seed", "3",
                     "--workers", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_cells"] == 2
        assert payload["n_workers"] == 2
        defenses = [report["defense"] for report in payload["reports"]]
        assert defenses == ["none", "feature_squeezing"]

    def test_run_grid_rejects_bad_json_axis(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="invalid JSON"):
            main(["run-grid", "--attacks", "[not json", "--scale", "tiny"])


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in available_experiments():
            assert experiment_id in output

    def test_run_light_experiment_prints_rendering(self, capsys, tmp_path):
        code = main(["run", "table3", "--scale", "tiny", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "waitmessage" in output
        assert (tmp_path / "table3.txt").exists()

    def test_run_table1_at_tiny_scale(self, capsys):
        assert main(["run", "table1", "--scale", "tiny"]) == 0
        assert "Table I" in capsys.readouterr().out


class TestServingCommands:
    def test_serve_replays_stream_and_reports(self, capsys, tmp_path):
        code = main(["serve", "--scale", "tiny", "--seed", "4",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--requests", "16", "--batch-size", "8",
                     "--mix", "0.6,0.4,0", "--out", str(tmp_path / "out")])
        assert code == 0
        output = capsys.readouterr().out
        assert "scoring service — model target" in output
        assert "fused batches" in output
        assert "p95" in output
        assert (tmp_path / "out" / "serve.txt").exists()

    def test_serve_warm_start_uses_cached_bundle(self, capsys, tmp_path):
        argv = ["serve", "--scale", "tiny", "--seed", "4",
                "--cache-dir", str(tmp_path / "cache"),
                "--requests", "8", "--mix", "1,0,0"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        version = [line for line in first.splitlines() if "model target v" in line]
        assert version and version[0] in second  # same bundle version served

    def test_score_prints_verdict_json(self, capsys, tmp_path):
        log_file = tmp_path / "sample.log"
        log_file.write_text('WriteFile:13FBC1111 ()"61468"\n'
                            'WinExec:13FBC2222 ()"61468"\n', encoding="utf-8")
        code = main(["score", str(log_file), "--scale", "tiny", "--seed", "4",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["request_id"] == "sample"
        assert payload["verdict"] in ("clean", "malware")
        assert payload["model_name"] == "target"
        assert 0.0 <= payload["malware_probability"] <= 1.0

    def test_score_with_dtype_flag_builds_float32_bundle(self, capsys, tmp_path):
        log_file = tmp_path / "sample.json"
        log_file.write_text(json.dumps({"writefile": 2}), encoding="utf-8")
        code = main(["score", str(log_file), "--scale", "tiny", "--seed", "4",
                     "--dtype", "float32"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] in ("clean", "malware")

    def test_cache_info_lists_entries(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["serve", "--scale", "tiny", "--seed", "4",
                     "--cache-dir", str(cache_dir),
                     "--requests", "8", "--mix", "1,0,0"]) == 0
        capsys.readouterr()
        assert main(["cache-info", "--cache-dir", str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert "cache root" in output
        assert "serving" in output
        assert "target" in output
        assert "entries" in output and "bytes total" in output
        assert "KiB" in output or "MiB" in output  # human-readable sizes

    def test_cache_info_on_empty_cache(self, capsys, tmp_path):
        assert main(["cache-info", "--cache-dir", str(tmp_path / "empty")]) == 0
        assert "(no cached artifacts)" in capsys.readouterr().out

    def test_serve_with_worker_fleet(self, capsys, tmp_path):
        code = main(["serve", "--scale", "tiny", "--seed", "4",
                     "--workers", "2", "--requests", "16", "--batch-size", "8",
                     "--mix", "0.6,0.4,0", "--out", str(tmp_path / "out")])
        assert code == 0
        output = capsys.readouterr().out
        assert "scoring service — model target" in output
        assert "workers=2" in output
        assert "fleet: 2 workers" in output
        assert "worker 0:" in output and "worker 1:" in output
        assert "p99" in output
        assert (tmp_path / "out" / "serve.txt").exists()

    def test_serve_fleet_verdicts_match_single_service(self, capsys):
        argv = ["serve", "--scale", "tiny", "--seed", "4",
                "--requests", "16", "--mix", "0.5,0.5,0"]
        assert main(argv) == 0
        single = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        fleet = capsys.readouterr().out

        def verdict_lines(text):
            # The per-kind breakdown lines (indented); the totals line also
            # carries a mode-specific "fused batches" suffix, so compare the
            # kind counts, which must match exactly.
            return [line for line in text.splitlines()
                    if line.startswith("  ") and "flagged malware" in line]

        assert verdict_lines(single) == verdict_lines(fleet)
        assert verdict_lines(single)


class TestObservabilityCommands:
    def test_serve_observe_and_store_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--observe", "--store", "runs", "--run-id", "r1"])
        assert args.observe is True
        assert str(args.store) == "runs"
        assert args.run_id == "r1"
        defaults = build_parser().parse_args(["serve"])
        assert defaults.observe is False
        assert defaults.store is None
        assert defaults.run_id is None

    def test_report_parser_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])
        args = build_parser().parse_args(["report", "--store", "runs"])
        assert args.import_bench is None
        args = build_parser().parse_args(
            ["report", "--store", "runs", "--import-bench"])
        assert args.import_bench == []
        args = build_parser().parse_args(
            ["report", "--store", "runs", "--import-bench", "a.json", "--json"])
        assert [str(p) for p in args.import_bench] == ["a.json"]
        assert args.as_json is True

    def test_serve_observe_prints_instrumentation_summary(self, capsys, tmp_path):
        code = main(["serve", "--scale", "tiny", "--seed", "4",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--requests", "16", "--batch-size", "8",
                     "--mix", "0.5,0.5,0", "--observe"])
        assert code == 0
        output = capsys.readouterr().out
        assert "instrumentation:" in output
        assert "serve.requests = 16" in output
        assert "batcher.batch_size" in output
        assert "span.service.flush" in output

    def test_serve_observe_leaves_verdicts_identical(self, capsys, tmp_path):
        argv = ["serve", "--scale", "tiny", "--seed", "4",
                "--cache-dir", str(tmp_path / "cache"),
                "--requests", "16", "--mix", "0.5,0.5,0"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--observe"]) == 0
        observed = capsys.readouterr().out

        def verdict_lines(text):
            return [line for line in text.splitlines()
                    if line.startswith("  ") and "flagged malware" in line]

        assert verdict_lines(plain) == verdict_lines(observed)
        assert verdict_lines(plain)

    def test_serve_records_and_report_surfaces_drift(self, capsys, tmp_path):
        store = tmp_path / "store"
        for seed, run_id in (("4", "run-s4"), ("5", "run-s5")):
            code = main(["serve", "--scale", "tiny", "--seed", seed,
                         "--cache-dir", str(tmp_path / "cache"),
                         "--requests", "24", "--batch-size", "8",
                         "--mix", "0.4,0.3,0.3", "--observe",
                         "--store", str(store), "--run-id", run_id])
            assert code == 0
            assert f"recorded run {run_id}" in capsys.readouterr().out

        assert main(["report", "--store", str(store)]) == 0
        report = capsys.readouterr().out
        # Two seeds build two model versions: the drift and p99 sections
        # must both render, computed purely from the recorded store.
        assert "2 recorded runs (2 serve, 0 bench), 2 model versions" in report
        assert "evasion drift [" in report
        assert "evasion across versions" in report
        assert "p99 regressions" in report
        assert "run-s4" in report and "run-s5" in report

        assert main(["report", "--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_serve_runs"] == 2
        assert len(payload["model_versions"]) == 2

    def test_report_import_bench_is_idempotent(self, capsys, tmp_path):
        store = tmp_path / "store"
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(json.dumps({"section": {"metric": 1.5}}),
                         encoding="utf-8")
        argv = ["report", "--store", str(store), "--import-bench", str(bench)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "imported 1 benchmark file(s): bench:BENCH_demo" in first
        assert "imported benchmarks: bench:BENCH_demo" in first
        assert main(argv) == 0
        assert "imported 0 benchmark file(s)" in capsys.readouterr().out

    def test_report_on_empty_store(self, capsys, tmp_path):
        assert main(["report", "--store", str(tmp_path / "empty")]) == 0
        assert "no recorded runs" in capsys.readouterr().out


class TestTraceAndTopCommands:
    def test_slo_flags_parse_with_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--slo-ms", "25", "--slo-breach", "shed"])
        assert args.slo_ms == 25.0
        assert args.slo_objective == 0.99
        assert args.slo_breach == "shed"
        defaults = build_parser().parse_args(["serve"])
        assert defaults.slo_ms is None
        assert defaults.slo_breach == "alert"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--slo-breach", "explode"])

    def test_top_parser_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["top"])
        args = build_parser().parse_args(["top", "--store", "runs", "--once"])
        assert args.once is True
        assert args.interval == 1.0
        assert args.frames is None
        args = build_parser().parse_args(
            ["top", "--store", "runs", "--frames", "3", "--interval", "0.1"])
        assert args.frames == 3 and args.interval == 0.1

    def test_export_metrics_parser_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export-metrics"])
        args = build_parser().parse_args(
            ["export-metrics", "--store", "runs", "--out", "prom"])
        assert str(args.store) == "runs" and str(args.out) == "prom"

    def test_serve_with_slo_prints_trace_summary(self, capsys, tmp_path):
        store = tmp_path / "store"
        code = main(["serve", "--scale", "tiny", "--seed", "4",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--requests", "16", "--batch-size", "8",
                     "--mix", "0.5,0.5,0", "--observe",
                     "--store", str(store), "--slo-ms", "250"])
        assert code == 0
        output = capsys.readouterr().out
        assert "traces: 16 requests traced — 16 complete, 0 orphans" in output
        assert "request" in output  # the sample span tree renders
        assert "slo alerts: none fired" in output

        # The replay published a live snapshot that `top` can render after
        # the fact, and `export-metrics` can turn into Prometheus text.
        assert main(["top", "--store", str(store), "--once"]) == 0
        dashboard = capsys.readouterr().out
        assert "repro top — finished" in dashboard
        assert "progress" in dashboard and "latency" in dashboard
        assert "slo" in dashboard

        out_dir = tmp_path / "prom"
        assert main(["export-metrics", "--store", str(store),
                     "--out", str(out_dir)]) == 0
        exposition = capsys.readouterr().out
        assert "repro_serve_requests_total 16" in exposition
        assert (out_dir / "metrics.prom").read_text(
            encoding="utf-8") == exposition

    def test_forced_breach_fires_alert_and_sheds(self, capsys, tmp_path):
        code = main(["serve", "--scale", "tiny", "--seed", "4",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--requests", "24", "--batch-size", "8",
                     "--mix", "0.5,0.5,0", "--observe",
                     "--slo-ms", "0.0001", "--slo-breach", "shed"])
        assert code == 0
        output = capsys.readouterr().out
        assert "slo alerts: 1 fired (slo.latency)" in output
        assert "serve.sheds" in output

    def test_endpoint_line_names_the_configured_defense(self, capsys, tmp_path):
        # A forced SLO breach demotes the in-process endpoint mid-replay;
        # the endpoint line still names the defense as configured, by its
        # registry id (not the alias as typed) in both modes, and the
        # demotion shows in the reliability counters.
        argv = ["serve", "--scale", "tiny", "--seed", "4",
                "--cache-dir", str(tmp_path / "cache"),
                "--requests", "24", "--batch-size", "8",
                "--mix", "0.5,0.5,0", "--defense", "squeeze",
                "--slo-ms", "0.0001", "--slo-breach", "fallback"]
        assert main(argv) == 0
        single = capsys.readouterr().out
        assert "fallbacks=1" in single
        assert main(argv + ["--workers", "2"]) == 0
        fleet = capsys.readouterr().out
        for output in (single, fleet):
            assert "endpoint: defense=feature_squeezing " in output

    def test_top_without_snapshot_renders_placeholder(self, capsys, tmp_path):
        assert main(["top", "--store", str(tmp_path / "empty"),
                     "--once"]) == 0
        assert "no live snapshot" in capsys.readouterr().out

    def test_export_metrics_without_snapshot_fails(self, capsys, tmp_path):
        assert main(["export-metrics", "--store",
                     str(tmp_path / "empty")]) == 1
        err = capsys.readouterr().err
        assert "no live snapshot" in err and "serve --observe" in err

    def test_report_out_creates_nested_parent_dirs(self, capsys, tmp_path):
        out = tmp_path / "deep" / "nested" / "reports"
        assert main(["report", "--store", str(tmp_path / "empty"),
                     "--out", str(out)]) == 0
        assert (out / "report.txt").exists()
        assert "no recorded runs" in (out / "report.txt").read_text(
            encoding="utf-8")
