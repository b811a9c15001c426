"""Tests of the benchmark's own arithmetic and span bookkeeping.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import catalogue, stats
from perfbench.tracing import SpanRecorder


# ---------------------------------------------------------------------- #
# Percentile rule: the highest percentile with >= 10 samples beyond it
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("n, expected", [
    (19, None), (20, "50"), (99, "50"), (100, "90"), (999, "90"),
    (1000, "99"), (9999, "99"), (10000, "99.9"), (100000, "99.99"),
])
def test_supported_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected


def test_samples_beyond_uses_exact_arithmetic():
    # 100 - 99.9 is not exactly 0.1 in binary floating point.
    assert stats.samples_beyond(10000, "99.9") == 10
    assert stats.samples_beyond(1000, "99") == 10
    assert stats.samples_beyond(1001, "99") == 10
    assert stats.samples_beyond(999, "99") == 9


def test_summarise_latency_flags_an_unsupported_p99():
    summary = stats.summarise_latency(np.arange(1.0, 101.0))
    assert summary["n"] == 100
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert not summary["p99_supported"]
    assert summary["tail"] == "90"
    assert stats.summarise_latency(np.ones(1000))["p99_supported"]


# ---------------------------------------------------------------------- #
# Latency from the due time, lateness and falling behind
# ---------------------------------------------------------------------- #
def test_latency_runs_from_the_due_time_not_the_send_time():
    due = [0.000, 0.001, 0.002]
    sent = [0.000, 0.005, 0.005]        # a 5 ms stall delayed two sends
    done = [0.006, 0.006, 0.006]
    np.testing.assert_allclose(stats.due_latencies_ms(due, done), [6.0, 5.0, 4.0])
    np.testing.assert_allclose(stats.lateness_ms(due, sent), [0.0, 4.0, 3.0])


def test_lateness_is_never_negative():
    np.testing.assert_allclose(stats.lateness_ms([1.0], [0.999]), [0.0])


def test_due_latency_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        stats.due_latencies_ms([0.0, 1.0], [1.0])


def test_fell_behind_only_when_lateness_persists():
    transient = np.zeros(1000)
    transient[100:110] = 50.0            # one stall, then back on schedule
    assert not stats.fell_behind(transient, limit_ms=5.0)
    growing = np.linspace(0.0, 100.0, 1000)   # backlog grows to the end
    assert stats.fell_behind(growing, limit_ms=5.0)


# ---------------------------------------------------------------------- #
# Self time and coverage
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    # root(10) -> a(6) -> b(2); root -> c(1)
    durations = [10.0, 6.0, 2.0, 1.0]
    parents = [-1, 0, 1, 0]
    np.testing.assert_allclose(stats.self_times(durations, parents),
                               [3.0, 4.0, 2.0, 1.0])


def test_self_time_clips_clock_granularity_to_zero():
    np.testing.assert_allclose(stats.self_times([1.0, 1.0 + 1e-9], [-1, 0]),
                               [0.0, 1.0 + 1e-9])


def test_layer_self_times_and_coverage():
    layers = ["serving", "features", "nn", "serving"]
    durations = [8.0, 5.0, 1.0, 1.0]
    parents = [-1, 0, 0, -1]
    per_layer = stats.layer_self_times(layers, durations, parents)
    assert per_layer == {"serving": 3.0, "features": 5.0, "nn": 1.0}
    shares, unattributed = stats.coverage(10.0, per_layer)
    assert shares["features"] == pytest.approx(0.5)
    assert unattributed == pytest.approx(0.1)


def test_coverage_rejects_a_zero_wall():
    with pytest.raises(ValueError):
        stats.coverage(0.0, {})


def test_recorder_nests_spans_and_restores_patches():
    class Layer:
        def outer(self, rows):
            return self.inner(rows)

        def inner(self, rows):
            return list(rows)

    original = Layer.outer
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.patch(Layer, "outer", "a.outer",
                   size=lambda args, kwargs, result: len(result))
    recorder.patch(Layer, "inner", "b.inner")
    assert Layer().outer([1, 2, 3]) == [1, 2, 3]
    recorder.restore()
    assert Layer.outer is original
    window = recorder.window(0)
    assert window.names == ["a.outer", "b.inner"]
    assert window.parents.tolist() == [-1, 0]
    assert window.sizes.tolist() == [3.0, 0.0]
    # outer: clock 0 -> 3, inner: 1 -> 2
    np.testing.assert_allclose(window.self_s, [2.0, 1.0])
    assert window.layer_self() == {"a": 2.0, "b": 1.0}
    Layer().outer([1])
    assert len(recorder.names) == 2        # unpatched calls record nothing


def test_recorder_restores_an_inherited_method_by_deleting_the_override():
    class Base:
        def call(self):
            return "base"

    class Child(Base):
        pass

    recorder = SpanRecorder()
    recorder.patch(Child, "call", "x.call")
    assert Child().call() == "base"
    recorder.restore()
    assert "call" not in vars(Child)


# ---------------------------------------------------------------------- #
# Failure counting
# ---------------------------------------------------------------------- #
def test_count_failures_counts_missing_non_ok_and_mismatched():
    reference = {"a": 1, "b": 0, "c": 1, "d": 0}
    observed = {"a": 1, "b": 1, "c": None}   # b mismatched, c non-ok, d missing
    assert stats.count_failures(["a", "b", "c", "d"], observed, reference) == (4, 3)
    assert stats.error_rate(4, 3) == pytest.approx(0.75)


def test_error_rate_needs_an_attempt():
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)


# ---------------------------------------------------------------------- #
# The catalogue is what BENCHMARK.json declares
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_catalogue():
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    assert json.loads(path.read_text(encoding="utf-8")) == catalogue.benchmark_json()


def test_catalogue_names_are_unique_and_well_formed():
    names = ([metric.name for metric in catalogue.END_TO_END]
             + [metric.name for metric in catalogue.PER_LAYER]
             + list(catalogue.WORKLOADS))
    assert len(names) == len(set(names))
    for name in names:
        assert len(name) <= 64 and name[0].isalnum()
        assert all(ch.isalnum() or ch in "_.-" for ch in name)
    assert max(metric.bound for metric in catalogue.END_TO_END) == \
        next(m.bound for m in catalogue.END_TO_END if m.name == "setup_s")
