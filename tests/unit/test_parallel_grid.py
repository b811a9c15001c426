"""Tests for the process-pool grid executor (repro.parallel)."""

import pickle
import random

import pytest

from repro.exceptions import ParallelError
from repro.parallel import (
    GridExecutor,
    GridResult,
    resolve_start_method,
    resolve_workers,
    shard_indices,
)
from repro.parallel.pool import RemoteFailure
from repro.scenarios import ScenarioSpec, run_scenario


def _grid_specs(seed: int = 123) -> list:
    return ScenarioSpec.grid(
        attacks=[{"id": "jsma", "params": {"early_stop": False}},
                 "random_addition"],
        defenses=["none", "feature_squeezing"],
        model="substitute", scale="tiny", seed=seed, theta=0.1, gamma=0.02)


class TestPoolHelpers:
    def test_resolve_workers_defaults_to_cpu_count(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)
        assert resolve_workers(3) == 3
        with pytest.raises(ParallelError):
            resolve_workers(-1)

    def test_resolve_start_method_validates(self):
        assert resolve_start_method() in ("fork", "spawn")
        assert resolve_start_method("spawn") == "spawn"
        with pytest.raises(ParallelError):
            resolve_start_method("teleport")

    def test_start_method_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "spawn")
        assert resolve_start_method() == "spawn"

    def test_shard_indices_round_robin(self):
        shards = shard_indices(7, 3)
        assert shards == [[0, 3, 6], [1, 4], [2, 5]]
        assert sorted(i for shard in shards for i in shard) == list(range(7))

    def test_shard_indices_keeps_empty_shards(self):
        assert shard_indices(2, 4) == [[0], [1], [], []]
        with pytest.raises(ParallelError):
            shard_indices(2, 0)

    def test_remote_failure_reraises_with_traceback(self):
        try:
            raise ValueError("boom")
        except ValueError as error:
            failure = RemoteFailure.capture("cell 3", error)
        transported = pickle.loads(pickle.dumps(failure))
        with pytest.raises(ParallelError, match="cell 3.*ValueError.*boom"):
            transported.raise_()


class TestSerialExecution:
    def test_serial_matches_direct_run_scenario(self, tiny_context):
        specs = _grid_specs()[:2]
        direct = [run_scenario(spec, context=tiny_context) for spec in specs]
        grid = GridExecutor(n_workers=1).run(specs, context=tiny_context)
        assert grid.start_method is None
        assert grid.n_workers == 1
        assert [r.to_json(include_timing=False) for r in grid.reports] == \
               [r.to_json(include_timing=False) for r in direct]

    def test_empty_grid(self):
        result = GridExecutor(n_workers=2).run([])
        assert result.reports == [] and len(result) == 0

    def test_mapping_specs_accepted(self, tiny_context):
        report = GridExecutor(n_workers=1).run(
            [{"attack": "random_addition", "scale": "tiny", "seed": 123}],
            context=tiny_context)[0]
        assert report.attack_name == "random_addition"

    def test_serial_without_context_shares_one_context_per_key(self, tmp_path):
        # Two cells with the same (scale, seed, dtype) triple must not build
        # the corpus twice: the executor memoises per key, cache-backed.
        executor = GridExecutor(n_workers=1, cache=tmp_path / "cache")
        specs = [ScenarioSpec(attack="random_addition", scale="tiny", seed=9),
                 ScenarioSpec(attack="random_addition", scale="tiny", seed=9,
                              theta=0.2)]
        result = executor.run(specs)
        assert len(result) == 2
        # The cache now warm-starts a fresh executor instantly.
        warm = GridExecutor(n_workers=1, cache=tmp_path / "cache").run(specs[:1])
        assert warm[0].to_json(include_timing=False) == \
               result[0].to_json(include_timing=False)


class TestParallelExecution:
    def test_parallel_reports_are_byte_identical_to_serial(self, tiny_context):
        specs = _grid_specs()
        serial = GridExecutor(n_workers=1).run(specs, context=tiny_context)
        parallel = GridExecutor(n_workers=2).run(specs, context=tiny_context)
        assert parallel.n_workers == 2
        assert parallel.start_method in ("fork", "spawn")
        assert [r.to_json(include_timing=False) for r in parallel.reports] == \
               [r.to_json(include_timing=False) for r in serial.reports]

    def test_shuffled_shard_assignment_is_byte_identical(self, tiny_context):
        # The grid determinism contract: whatever order (and therefore
        # whatever shard/worker assignment) the cells execute in, the
        # per-spec payloads are byte-identical to serial execution.  The
        # permutation interleaves a 3-way round-robin shard assignment and
        # then shuffles, so cells land on different workers than in spec
        # order.
        specs = _grid_specs()
        serial = GridExecutor(n_workers=1).run(specs, context=tiny_context)
        by_label = {spec.label: report.to_json(include_timing=False)
                    for spec, report in zip(specs, serial.reports)}
        shuffled = [specs[index] for shard in shard_indices(len(specs), 3)
                    for index in shard]
        random.Random(7).shuffle(shuffled)
        parallel = GridExecutor(n_workers=2).run(shuffled, context=tiny_context)
        # Reports come back in (shuffled) spec order...
        assert [r.spec.label for r in parallel.reports] == \
               [spec.label for spec in shuffled]
        # ...and every payload matches its serial counterpart byte-for-byte.
        for spec, report in zip(shuffled, parallel.reports):
            assert report.to_json(include_timing=False) == by_label[spec.label]
        for spec, report in zip(shuffled, parallel.reports):
            assert report.summary(include_timing=False) == {
                key: value
                for key, value in serial.reports[specs.index(spec)]
                .summary(include_timing=False).items()}

    def test_parallel_without_shared_context_uses_cache(self, tmp_path,
                                                        tiny_context):
        # Workers resolve contexts from the spec triple + shared cache.
        specs = [ScenarioSpec(attack="random_addition", scale="tiny", seed=123),
                 ScenarioSpec(attack="random_addition", scale="tiny", seed=123,
                              gamma=0.03)]
        serial = [run_scenario(spec, context=tiny_context) for spec in specs]
        parallel = GridExecutor(n_workers=2, cache=tmp_path / "cache").run(specs)
        assert [r.to_json(include_timing=False) for r in parallel.reports] == \
               [r.to_json(include_timing=False) for r in serial]

    def test_spawn_workers_rebuild_shared_context_from_cache(self, tmp_path):
        # Under spawn nothing is inherited: workers unpickle the governing
        # context (cache attached) and must reproduce the serial reports.
        import multiprocessing

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        from repro.config import TINY_PROFILE
        from repro.experiments.context import ExperimentContext

        context = ExperimentContext(scale=TINY_PROFILE, seed=321,
                                    cache=tmp_path / "cache")
        specs = [ScenarioSpec(attack="random_addition", scale="tiny", seed=321),
                 ScenarioSpec(attack="random_addition", scale="tiny", seed=321,
                              gamma=0.03)]
        serial = GridExecutor(n_workers=1).run(specs, context=context)
        spawned = GridExecutor(n_workers=2, start_method="spawn").run(
            specs, context=context)
        assert spawned.start_method == "spawn"
        assert [r.to_json(include_timing=False) for r in spawned.reports] == \
               [r.to_json(include_timing=False) for r in serial.reports]

    def test_spawn_workers_compute_in_the_parents_dtype(self):
        # A pickled context does not carry the parent's use_dtype block, so
        # the pool initializer adopts the parent's engine dtype; without it
        # spawn reports read float64 where the serial ones read float32.
        import multiprocessing

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        from repro.config import TINY_PROFILE
        from repro.experiments.context import ExperimentContext
        from repro.nn.engine import use_dtype

        specs = [ScenarioSpec(attack="random_addition", scale="tiny", seed=321),
                 ScenarioSpec(attack="random_addition", scale="tiny", seed=321,
                              gamma=0.03)]
        with use_dtype("float32"):
            context = ExperimentContext(scale=TINY_PROFILE, seed=321)
            serial = GridExecutor(n_workers=1).run(specs, context=context)
            spawned = GridExecutor(n_workers=2, start_method="spawn").run(
                specs, context=context)
        assert serial.reports[0].dtype == "float32"
        assert [r.to_json(include_timing=False) for r in spawned.reports] == \
               [r.to_json(include_timing=False) for r in serial.reports]

    def test_worker_failure_propagates_with_cell_name(self, tiny_context):
        specs = [ScenarioSpec(attack="random_addition", scale="tiny", seed=123,
                              label="good cell"),
                 # binary-substitute cells cannot carry a defense: the worker
                 # raises ConfigurationError, which must travel back.
                 ScenarioSpec(attack="jsma", defense="feature_squeezing",
                              model="binary_substitute", scale="tiny",
                              seed=123, label="bad cell")]
        with pytest.raises(ParallelError, match="bad cell"):
            GridExecutor(n_workers=2).run(specs, context=tiny_context)

    def test_reports_pickle_roundtrip(self, tiny_context):
        report = GridExecutor(n_workers=1).run(
            [_grid_specs()[0]], context=tiny_context)[0]
        clone = pickle.loads(pickle.dumps(report))
        assert clone.to_json() == report.to_json()


class TestGridResult:
    def _result(self, tiny_context) -> GridResult:
        return GridExecutor(n_workers=1).run(_grid_specs()[:2],
                                             context=tiny_context)

    def test_render_mentions_cells_and_mode(self, tiny_context):
        rendered = self._result(tiny_context).render()
        assert "2 cells" in rendered
        assert "serial" in rendered
        assert "jsma vs none" in rendered

    def test_to_json_round_trips_and_timing_flag(self, tiny_context):
        import json

        result = self._result(tiny_context)
        payload = json.loads(result.to_json())
        assert payload["n_cells"] == 2
        assert "elapsed_s" in payload
        untimed = json.loads(result.to_json(include_timing=False))
        assert "elapsed_s" not in untimed
        assert all("elapsed_s" not in report for report in untimed["reports"])

    def test_summaries_follow_spec_order(self, tiny_context):
        summaries = self._result(tiny_context).summaries()
        assert [s["defense"] for s in summaries] == ["none", "feature_squeezing"]
