"""Tests of the analytics store: schema evolution, queries, reports.

Covers the edge cases the store is designed around: an empty store, a
duplicated run id, segments written under an older schema, and two
processes appending concurrently into one root.
"""

from __future__ import annotations

import json
import multiprocessing
import uuid

import numpy as np
import pytest

from repro.analytics import (
    AnalyticsStore,
    build_report,
    import_bench,
    record_serve_run,
    render_report,
    schema,
    traffic_kind,
)
from repro.config import CLASS_CLEAN, CLASS_MALWARE
from repro.exceptions import AnalyticsError
from repro.serving.stats import ThroughputReport


@pytest.fixture()
def store(tmp_path):
    return AnalyticsStore(tmp_path / "store")


def _verdict(request_id, label, *, latency_ms=1.0, status="ok",
             probability=0.5, model_version="v1"):
    return {"request_id": request_id, "label": label,
            "malware_probability": probability, "latency_ms": latency_ms,
            "status": status, "model_version": model_version}


def _serve_run(store, run_id, *, model_version="v1", started_at=100.0,
               evaded=1, total=4, p99_ms=2.0, sheds=0.0):
    """Record a small serve run with ``evaded``/``total`` adv evasions."""
    verdicts = [
        _verdict(f"adv-{index:03d}",
                 CLASS_CLEAN if index < evaded else CLASS_MALWARE,
                 model_version=model_version)
        for index in range(total)
    ] + [_verdict("clean-000", CLASS_CLEAN, model_version=model_version),
         _verdict("malware-000", CLASS_MALWARE, model_version=model_version)]
    throughput = ThroughputReport(
        n_requests=len(verdicts), elapsed_s=1.0,
        requests_per_s=float(len(verdicts)), mean_ms=1.0, p50_ms=1.0,
        p95_ms=p99_ms, p99_ms=p99_ms, max_ms=p99_ms)
    obs_snapshot = {"metrics": {"counters": {"serve.sheds": sheds},
                                "gauges": {}, "histograms": {}}, "events": []}
    record_serve_run(store, run_id, verdicts, model_version=model_version,
                     started_at=started_at, throughput=throughput,
                     obs_snapshot=obs_snapshot)


# --------------------------------------------------------------------- #
# Schema
# --------------------------------------------------------------------- #
class TestSchema:
    def test_unknown_table_rejected(self):
        with pytest.raises(AnalyticsError):
            schema.table_dtype("nope")

    def test_unknown_column_rejected(self):
        with pytest.raises(AnalyticsError):
            schema.make_rows("runs", [{"run_id": "r", "typo": 1}])

    def test_missing_columns_take_defaults(self):
        rows = schema.make_rows("verdicts", [{"run_id": "r",
                                              "request_id": "adv-0"}])
        assert rows["traffic"][0] == "other"
        assert rows["label"][0] == -1
        assert rows["status"][0] == "ok"

    def test_traffic_kind_prefixes(self):
        assert traffic_kind("adv-017") == "adv"
        assert traffic_kind("clean-2") == "clean"
        assert traffic_kind("malware-9") == "malware"
        assert traffic_kind("req-1") == "other"
        assert traffic_kind("noprefix") == "other"


# --------------------------------------------------------------------- #
# Store mechanics
# --------------------------------------------------------------------- #
class TestStoreMechanics:
    def test_empty_store_scans_queries_and_reports(self, store):
        assert len(store.scan("verdicts")) == 0
        assert len(store.query("runs", where={"kind": "serve"})) == 0
        assert store.group_by("metrics", "name", "value") == {}
        assert len(store.top_k("metrics", "value")) == 0
        assert store.run_ids() == []
        assert len(store.runs()) == 0
        report = build_report(store)
        assert report["n_runs"] == 0
        assert "no recorded runs" in render_report(report)

    def test_append_empty_writes_nothing(self, store):
        assert store.append("runs", []) is None
        assert store.segments("runs") == []

    def test_append_and_scan_round_trip(self, store):
        store.append("metrics", [{"run_id": "r1", "name": "m", "value": 2.0}])
        store.append("metrics", [{"run_id": "r2", "name": "m", "value": 4.0}])
        scanned = store.scan("metrics")
        assert len(scanned) == 2
        assert len(store.segments("metrics")) == 2
        assert set(scanned["run_id"].tolist()) == {"r1", "r2"}

    def test_query_scalar_membership_and_callable(self, store):
        store.append("metrics", [
            {"run_id": "r1", "name": "a", "value": 1.0},
            {"run_id": "r1", "name": "b", "value": 5.0},
            {"run_id": "r2", "name": "a", "value": 9.0},
        ])
        assert len(store.query("metrics", where={"run_id": "r1"})) == 2
        assert len(store.query("metrics", where={"name": ["a", "b"],
                                                 "run_id": "r1"})) == 2
        big = store.query("metrics", where={"value": lambda v: v > 4.0})
        assert sorted(big["value"].tolist()) == [5.0, 9.0]

    def test_query_unknown_column_rejected(self, store):
        store.append("metrics", [{"run_id": "r", "name": "a", "value": 1.0}])
        with pytest.raises(AnalyticsError):
            store.query("metrics", where={"typo": 1})

    def test_query_column_projection(self, store):
        store.append("metrics", [{"run_id": "r", "name": "a", "value": 1.0}])
        projected = store.query("metrics", columns=["run_id", "value"])
        assert projected.dtype.names == ("run_id", "value")

    def test_group_by_and_top_k(self, store):
        store.append("verdicts", [
            {"run_id": "r1", "request_id": "adv-0", "latency_ms": 4.0},
            {"run_id": "r1", "request_id": "adv-1", "latency_ms": 2.0},
            {"run_id": "r2", "request_id": "adv-0", "latency_ms": 10.0},
        ])
        means = store.group_by("verdicts", "run_id", "latency_ms")
        assert means == {"r1": 3.0, "r2": 10.0}
        counts = store.group_by("verdicts", "run_id", "latency_ms",
                                agg="count")
        assert counts == {"r1": 2, "r2": 1}
        slowest = store.top_k("verdicts", "latency_ms", k=1)
        assert slowest["run_id"][0] == "r2"
        fastest = store.top_k("verdicts", "latency_ms", k=1, largest=False)
        assert fastest["latency_ms"][0] == 2.0
        with pytest.raises(AnalyticsError):
            store.group_by("verdicts", "run_id", "latency_ms", agg="median")

    def test_group_by_compound_key(self, store):
        store.append("metrics", [
            {"run_id": "r1", "name": "a", "value": 1.0},
            {"run_id": "r1", "name": "a", "value": 3.0},
            {"run_id": "r1", "name": "b", "value": 7.0},
        ])
        means = store.group_by("metrics", ["run_id", "name"], "value")
        assert means == {("r1", "a"): 2.0, ("r1", "b"): 7.0}

    def test_duplicate_run_ids_dedupe_to_earliest(self, store):
        store.append("runs", [{"run_id": "r1", "started_at": 50.0,
                               "n_requests": 8}])
        store.append("runs", [{"run_id": "r1", "started_at": 10.0,
                               "n_requests": 4}])
        store.append("runs", [{"run_id": "r0", "started_at": 30.0}])
        runs = store.runs()
        assert runs["run_id"].tolist() == ["r1", "r0"]
        assert int(runs[runs["run_id"] == "r1"]["n_requests"][0]) == 4
        assert store.run_ids() == ["r0", "r1"]

    def test_schema_evolution_fills_defaults_and_drops_unknown(self, store):
        # A segment written before `status`/`model_version` existed, with a
        # column the current schema no longer knows.
        old_dtype = np.dtype([("run_id", "U64"), ("request_id", "U64"),
                              ("label", "i4"), ("retired_column", "f8")])
        old = np.zeros(2, dtype=old_dtype)
        old["run_id"] = "ancient"
        old["request_id"] = ["adv-0", "adv-1"]
        old["label"] = [CLASS_CLEAN, CLASS_MALWARE]
        old["retired_column"] = 9.9
        table_dir = store.root / "verdicts"
        table_dir.mkdir(parents=True)
        np.save(table_dir / f"seg-0-{uuid.uuid4().hex[:12]}.npy", old,
                allow_pickle=False)

        scanned = store.scan("verdicts")
        assert scanned.dtype == schema.table_dtype("verdicts")
        assert scanned["status"].tolist() == ["ok", "ok"]
        assert scanned["traffic"].tolist() == ["other", "other"]
        assert "retired_column" not in scanned.dtype.names
        # New-schema rows appended next to the old segment read seamlessly.
        store.append("verdicts", [{"run_id": "modern", "request_id": "adv-2",
                                   "traffic": "adv", "status": "shed"}])
        assert len(store.scan("verdicts")) == 3

    def test_tmp_segments_invisible_to_readers(self, store):
        store.append("metrics", [{"run_id": "r", "name": "a", "value": 1.0}])
        table_dir = store.root / "metrics"
        (table_dir / ".tmp-seg-0-dead.npy").write_bytes(b"torn write")
        assert len(store.scan("metrics")) == 1

    def test_sql_path_gated_on_duckdb(self, store):
        if store.has_sql:  # pragma: no cover - image has no duckdb
            pytest.skip("duckdb installed; gating path not reachable")
        with pytest.raises(AnalyticsError, match="duckdb"):
            store.sql("SELECT 1")


def _writer_process(root, writer_id, n_appends):
    writer_store = AnalyticsStore(root)
    for index in range(n_appends):
        writer_store.append("metrics", [
            {"run_id": f"w{writer_id}", "name": f"m{index}",
             "value": float(index)}])


class TestConcurrentWriters:
    def test_two_processes_share_one_root(self, store):
        n_appends = 10
        context = multiprocessing.get_context("spawn")
        workers = [context.Process(target=_writer_process,
                                   args=(str(store.root), writer, n_appends))
                   for writer in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        scanned = store.scan("metrics")
        assert len(scanned) == 2 * n_appends
        per_writer = store.group_by("metrics", "run_id", "value", agg="count")
        assert per_writer == {"w0": n_appends, "w1": n_appends}
        assert not list((store.root / "metrics").glob(".tmp-*"))


# --------------------------------------------------------------------- #
# Ingest
# --------------------------------------------------------------------- #
class TestIngest:
    def test_record_serve_run_requires_run_id(self, store):
        with pytest.raises(AnalyticsError):
            record_serve_run(store, "", [])

    def test_record_serve_run_persists_all_tables(self, store):
        obs_snapshot = {
            "metrics": {"counters": {"serve.requests": 6.0},
                        "gauges": {"batcher.queue_depth": {"last": 1.0,
                                                           "max": 3.0}},
                        "histograms": {"batcher.batch_size":
                                       {"count": 2, "sum": 6.0, "min": 2.0,
                                        "max": 4.0, "mean": 3.0}}},
            "events": [{"kind": "counter", "name": "serve.requests",
                        "value": 6.0, "span_id": 0, "parent_id": 1}],
        }
        record_serve_run(
            store, "run-a",
            [_verdict("adv-0", CLASS_CLEAN), _verdict("clean-0", CLASS_CLEAN)],
            started_at=10.0,
            throughput=ThroughputReport(n_requests=2, elapsed_s=0.5,
                                        requests_per_s=4.0, mean_ms=1.0,
                                        p50_ms=1.0, p95_ms=2.0, p99_ms=2.0,
                                        max_ms=2.0),
            obs_snapshot=obs_snapshot,
            curves={"gamma_sweep": [(0.01, 0.2), (0.02, 0.5)]})
        runs = store.runs()
        assert runs["run_id"].tolist() == ["run-a"]
        assert runs["model_version"][0] == "v1"  # taken from the verdicts
        assert int(runs["n_requests"][0]) == 2
        verdicts = store.scan("verdicts")
        assert verdicts["traffic"].tolist() == ["adv", "clean"]
        metrics = store.scan("metrics")
        names = set(metrics["name"].tolist())
        assert {"throughput.rps", "latency.p99_ms", "serve.requests",
                "batcher.queue_depth.max",
                "batcher.batch_size.count"} <= names
        assert len(store.scan("events")) == 1
        curve = store.query("curves", where={"curve": "gamma_sweep"})
        assert curve["y"].tolist() == [0.2, 0.5]

    def test_import_bench_is_idempotent(self, store, tmp_path):
        bench = tmp_path / "BENCH_serving.json"
        bench.write_text(json.dumps({
            "serve_batched": {"requests_per_s": 1000.0, "speedup": 5.5},
            "notes": "ignored, not a section mapping",
            "flags": {"ok": True},
        }))
        imported = import_bench(store, [bench])
        assert imported == ["bench:BENCH_serving"]
        assert import_bench(store, [bench]) == []  # second import: no-op
        runs = store.runs()
        assert runs["kind"].tolist() == ["bench"]
        metrics = store.scan("metrics")
        assert set(metrics["name"].tolist()) == {
            "serve_batched.requests_per_s", "serve_batched.speedup"}
        assert all(kind == "bench" for kind in metrics["kind"].tolist())

    def test_import_bench_rejects_non_object(self, store, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(AnalyticsError):
            import_bench(store, [bad])


class TestTraceIngest:
    def _traced_snapshot(self):
        return {"metrics": {}, "events": [
            {"kind": "span", "name": "request", "value": 0.010,
             "span_id": 1, "parent_id": 0, "trace_id": "adv-0",
             "tags": {"status": "ok"}},
            {"kind": "span", "name": "request.score", "value": 0.002,
             "span_id": 2, "parent_id": 1, "trace_id": "adv-0",
             "tags": {"worker": 1, "error": True}},
            {"kind": "span", "name": "fleet.dispatch", "value": 0.001,
             "span_id": 3, "parent_id": 0},  # untraced: not a request hop
            {"kind": "alert", "name": "slo.latency", "value": 20.0,
             "span_id": 0, "parent_id": 0,
             "tags": {"slow_burn": 7.5, "attainment": 0.8,
                      "on_breach": "shed"}},
        ]}

    def test_traced_spans_and_alerts_land_in_tables(self, store):
        record_serve_run(store, "run-t", [_verdict("adv-0", CLASS_CLEAN)],
                         obs_snapshot=self._traced_snapshot())
        spans = store.scan("spans")
        assert len(spans) == 2  # the untraced dispatch span stays out
        by_name = {row["name"].item(): row for row in spans}
        root = by_name["request"]
        assert root["trace_id"] == "adv-0"
        assert root["duration_ms"] == pytest.approx(10.0)
        assert int(root["worker"]) == -1
        score = by_name["request.score"]
        assert int(score["worker"]) == 1
        assert int(score["error"]) == 1
        alerts = store.scan("alerts")
        assert len(alerts) == 1
        assert alerts["slo"][0] == "slo.latency"
        assert alerts["on_breach"][0] == "shed"
        assert float(alerts["fast_burn"][0]) == pytest.approx(20.0)
        assert float(alerts["slow_burn"][0]) == pytest.approx(7.5)
        assert float(alerts["attainment"][0]) == pytest.approx(0.8)

    def test_span_rows_reassemble_into_trees(self, store):
        from repro.obs import SpanCollector

        record_serve_run(store, "run-t", [_verdict("adv-0", CLASS_CLEAN)],
                         obs_snapshot=self._traced_snapshot())
        collector = SpanCollector()
        for row in store.scan("spans"):
            collector.add({"kind": "span", "name": row["name"].item(),
                           "trace_id": row["trace_id"].item(),
                           "span_id": int(row["span_id"]),
                           "parent_id": int(row["parent_id"]),
                           "value": float(row["duration_ms"]) / 1000.0})
        tree = collector.tree("adv-0")
        assert tree.complete
        assert tree.root.name == "request"

    def test_events_carry_trace_id(self, store):
        record_serve_run(store, "run-t", [],
                         obs_snapshot=self._traced_snapshot())
        events = store.scan("events")
        traced = events[events["name"] == "request"]
        assert traced["trace_id"].tolist() == ["adv-0"]

    def test_old_events_segments_upgrade_with_blank_trace_id(self, store):
        old_dtype = np.dtype([("run_id", "U64"), ("kind", "U16"),
                              ("name", "U80"), ("value", "f8"),
                              ("span_id", "i8"), ("parent_id", "i8")])
        old = np.array([("run-old", "span", "request", 0.01, 1, 0)],
                       dtype=old_dtype)
        upgraded = schema.upgrade("events", old)
        assert upgraded["trace_id"].tolist() == [""]
        assert upgraded["name"].tolist() == ["request"]


# --------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------- #
class TestReport:
    def test_drift_and_p99_regression_across_versions(self, store):
        _serve_run(store, "run-1", model_version="vA", started_at=10.0,
                   evaded=1, p99_ms=2.0)
        _serve_run(store, "run-2", model_version="vA", started_at=20.0,
                   evaded=2, p99_ms=2.05)
        _serve_run(store, "run-3", model_version="vB", started_at=30.0,
                   evaded=4, p99_ms=3.0, sheds=1.0)

        report = build_report(store)
        assert report["n_serve_runs"] == 3
        assert report["model_versions"] == ["vA", "vB"]

        drift = report["evasion_drift"]["by_model_version"]
        assert drift["vA"]["delta"] == pytest.approx(0.25)  # 1/4 → 2/4
        assert drift["vB"]["n_runs"] == 1
        across = report["evasion_drift"]["across_versions"]
        assert across["highest"]["model_version"] == "vB"
        assert across["spread"] == pytest.approx(1.0 - 0.375)

        # run-2 → run-3 p99 went 2.05 → 3.0: > +10%, flagged.
        assert report["p99"]["n_regressions"] == 1
        assert report["p99"]["worst"]["run_id"] == "run-3"
        by_id = {record["run_id"]: record for record in report["serve_runs"]}
        assert by_id["run-2"]["p99_regression"] is False
        assert by_id["run-3"]["shed_rate"] == pytest.approx(1.0 / 6.0)

        rendered = render_report(report, store_root=str(store.root))
        assert "evasion drift [vA]" in rendered
        assert "evasion across versions" in rendered
        assert "p99 regressions: 1 runs" in rendered
        assert "run-3" in rendered

    def test_report_orders_runs_by_start_time(self, store):
        _serve_run(store, "late", started_at=99.0)
        _serve_run(store, "early", started_at=1.0)
        report = build_report(store)
        assert [record["run_id"] for record in report["serve_runs"]] == \
               ["early", "late"]

    def test_report_without_regressions_says_so(self, store):
        _serve_run(store, "run-1", started_at=1.0, p99_ms=2.0)
        _serve_run(store, "run-2", started_at=2.0, p99_ms=2.01)
        rendered = render_report(build_report(store))
        assert "p99 regressions: none" in rendered

    def test_bench_runs_listed_separately(self, store, tmp_path):
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps({"s": {"v": 1.0}}))
        import_bench(store, [bench])
        _serve_run(store, "run-1")
        report = build_report(store)
        assert report["n_serve_runs"] == 1
        assert report["bench_runs"] == ["bench:BENCH_x"]
        assert "imported benchmarks: bench:BENCH_x" in render_report(report)

    def test_empty_store_renders_explicit_message(self, store):
        rendered = render_report(build_report(store))
        assert "no recorded runs" in rendered

    def test_runs_only_store_names_every_skipped_section(self, store):
        # A store holding runs rows but no verdicts/metrics (e.g. recorded
        # by a version that predates those tables) must diagnose each
        # missing section instead of silently rendering nothing.
        store.append("runs", [{"run_id": "bare", "kind": "serve",
                               "started_at": 1.0, "n_requests": 4}])
        rendered = render_report(build_report(store))
        assert "evasion drift: skipped — no adversarial verdicts" in rendered
        assert "p99 regressions: skipped — need at least 2 serve runs" \
            in rendered
        assert "slo alerts: none recorded" in rendered

    def test_alert_rows_render_headline(self, store):
        _serve_run(store, "run-1", started_at=1.0)
        store.append("alerts", [
            {"run_id": "run-1", "slo": "slo.latency", "on_breach": "shed",
             "fast_burn": 20.0, "slow_burn": 7.0, "attainment": 0.8},
            {"run_id": "run-1", "slo": "slo.latency", "on_breach": "shed",
             "fast_burn": 35.0, "slow_burn": 9.0, "attainment": 0.7},
        ])
        report = build_report(store)
        assert report["alerts"]["n_alerts"] == 2
        entry = report["alerts"]["by_slo"]["slo.latency"]
        assert entry["n_alerts"] == 2
        assert entry["worst_fast_burn"] == pytest.approx(35.0)
        rendered = render_report(report)
        assert "slo alerts: 2 fired" in rendered
        assert "slo.latency ×2" in rendered
