"""Tests for the persistent experiment-artifact cache."""

import threading
import time

import numpy as np
import pytest

from repro.config import TINY_PROFILE
from repro.data.dataset import Dataset
from repro.exceptions import SerializationError
from repro.experiments.context import ExperimentContext
from repro.utils.artifact_cache import ArtifactCache, default_cache_root


class TestKeys:
    def test_key_is_deterministic(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.key_for("target", seed=1, scale={"name": "tiny"}) == \
               cache.key_for("target", seed=1, scale={"name": "tiny"})

    def test_key_depends_on_components(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        base = cache.key_for("target", seed=1)
        assert cache.key_for("target", seed=2) != base
        assert cache.key_for("substitute", seed=1) != base
        assert cache.key_for("target", seed=1, dtype="float32") != base

    def test_key_order_insensitive(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.key_for("k", a=1, b=2) == cache.key_for("k", b=2, a=1)

    def test_default_root_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_root() == tmp_path / "env-cache"
        assert ArtifactCache().root == tmp_path / "env-cache"


class TestLoadOrBuild:
    def _dataset(self) -> Dataset:
        return Dataset(features=np.linspace(0, 1, 12).reshape(4, 3),
                       labels=np.array([0, 1, 0, 1]), name="toy")

    def test_builds_on_miss_and_loads_on_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = {"build": 0}

        def build() -> Dataset:
            calls["build"] += 1
            return self._dataset()

        key = cache.key_for("dataset", seed=0)
        save = lambda ds, path: ds.save(path / "data")
        load = lambda path: Dataset.load(path / "data")

        first = cache.load_or_build("dataset", key, build, save, load)
        assert calls["build"] == 1
        assert cache.has("dataset", key)
        second = cache.load_or_build("dataset", key, build, save, load)
        assert calls["build"] == 1  # warm hit: no rebuild
        np.testing.assert_array_equal(second.features, first.features)
        np.testing.assert_array_equal(second.labels, first.labels)

    def test_incomplete_entry_is_rebuilt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key_for("dataset", seed=1)
        # Simulate a crash mid-save: directory exists, marker missing.
        cache.path_for("dataset", key).mkdir(parents=True)
        assert not cache.has("dataset", key)
        result = cache.load_or_build(
            "dataset", key, self._dataset,
            lambda ds, path: ds.save(path / "data"),
            lambda path: Dataset.load(path / "data"))
        assert cache.has("dataset", key)
        assert result.n_samples == 4

    def test_corrupt_entry_is_evicted_and_rebuilt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key_for("dataset", seed=2)
        path = cache.path_for("dataset", key)
        path.mkdir(parents=True)
        (path / "COMPLETE").touch()  # marker present, payload missing
        result = cache.load_or_build(
            "dataset", key, self._dataset,
            lambda ds, path: ds.save(path / "data"),
            lambda path: Dataset.load(path / "data"))
        assert result.n_samples == 4
        assert cache.has("dataset", key)

    def test_entry_is_stamped_with_package_version(self, tmp_path):
        from repro.version import __version__

        cache = ArtifactCache(tmp_path)
        key = cache.key_for("dataset", seed=3)
        cache.load_or_build("dataset", key, self._dataset,
                            lambda ds, path: ds.save(path / "data"),
                            lambda path: Dataset.load(path / "data"))
        entries = cache.entries()
        assert len(entries) == 1
        assert entries[0].package_version == __version__
        assert entries[0].compatible
        assert entries[0].created_at is not None

    def test_entry_from_other_package_version_is_refused_and_rebuilt(self, tmp_path):
        import json

        cache = ArtifactCache(tmp_path)
        key = cache.key_for("dataset", seed=4)
        calls = {"build": 0}

        def build() -> Dataset:
            calls["build"] += 1
            return self._dataset()

        save = lambda ds, path: ds.save(path / "data")
        load = lambda path: Dataset.load(path / "data")
        cache.load_or_build("dataset", key, build, save, load)
        assert calls["build"] == 1

        # Simulate an entry written by an older release of the package.
        meta_path = cache.path_for("dataset", key) / "cache-meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["package_version"] = "0.0.1"
        meta_path.write_text(json.dumps(meta), encoding="utf-8")

        assert not cache.has("dataset", key)        # refused, not served
        assert not cache.entries()[0].compatible
        cache.load_or_build("dataset", key, build, save, load)
        assert calls["build"] == 2                  # rebuilt under this version
        assert cache.has("dataset", key)

    def test_unstamped_legacy_entry_is_treated_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key_for("dataset", seed=5)
        path = cache.path_for("dataset", key)
        self._dataset().save(path / "data")
        (path / "COMPLETE").touch()                 # pre-stamping layout
        assert not cache.has("dataset", key)
        result = cache.load_or_build(
            "dataset", key, self._dataset,
            lambda ds, path: ds.save(path / "data"),
            lambda path: Dataset.load(path / "data"))
        assert result.n_samples == 4
        assert cache.has("dataset", key)

    def test_entries_reports_sizes_and_totals(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.entries() == []
        for seed in (0, 1):
            key = cache.key_for("dataset", seed=seed)
            cache.load_or_build("dataset", key, self._dataset,
                                lambda ds, path: ds.save(path / "data"),
                                lambda path: Dataset.load(path / "data"))
        entries = cache.entries()
        assert len(entries) == 2
        assert all(entry.kind == "dataset" for entry in entries)
        assert all(entry.size_bytes > 0 and entry.n_files >= 2 for entry in entries)
        assert cache.total_size_bytes() == sum(e.size_bytes for e in entries)

    def test_invalidate_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for seed in (0, 1):
            key = cache.key_for("dataset", seed=seed)
            cache.load_or_build("dataset", key, self._dataset,
                                lambda ds, path: ds.save(path / "data"),
                                lambda path: Dataset.load(path / "data"))
        key0 = cache.key_for("dataset", seed=0)
        assert cache.invalidate("dataset", key0)
        assert not cache.has("dataset", key0)
        assert not cache.invalidate("dataset", key0)
        assert cache.clear() == 1
        assert cache.clear() == 0


class TestConcurrentWriters:
    """Threads as a proxy for parallel worker processes: the per-entry lock
    file and the atomic temp-dir-then-rename publication must hold for both
    (``flock`` serialises distinct fds within one process exactly as it does
    across processes)."""

    def _dataset(self) -> Dataset:
        return Dataset(features=np.linspace(0, 1, 12).reshape(4, 3),
                       labels=np.array([0, 1, 0, 1]), name="toy")

    def test_concurrent_load_or_build_builds_exactly_once(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key_for("dataset", seed=0)
        build_calls = []
        results = {}
        barrier = threading.Barrier(4)

        def build() -> Dataset:
            build_calls.append(threading.get_ident())
            time.sleep(0.05)  # widen the window a losing racer would hit
            return self._dataset()

        def worker(index: int) -> None:
            barrier.wait()
            results[index] = cache.load_or_build(
                "dataset", key, build,
                lambda ds, path: ds.save(path / "data"),
                lambda path: Dataset.load(path / "data"))

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(build_calls) == 1            # no double-build
        assert len(results) == 4
        for dataset in results.values():
            np.testing.assert_array_equal(dataset.features,
                                          self._dataset().features)
        assert cache.has("dataset", key)
        assert len(cache.entries()) == 1        # no stray tmp/partial entries

    def test_failed_save_leaves_no_entry_and_releases_lock(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key_for("dataset", seed=1)

        def bad_save(ds, path):
            (path / "partial").write_text("...", encoding="utf-8")
            raise SerializationError("disk full")

        with pytest.raises(SerializationError):
            cache.load_or_build("dataset", key, self._dataset, bad_save,
                                lambda path: Dataset.load(path / "data"))
        assert not cache.has("dataset", key)
        assert not cache.path_for("dataset", key).exists()   # atomic: no debris
        # The lock was released: the next builder proceeds immediately.
        result = cache.load_or_build(
            "dataset", key, self._dataset,
            lambda ds, path: ds.save(path / "data"),
            lambda path: Dataset.load(path / "data"))
        assert result.n_samples == 4
        assert cache.has("dataset", key)

    def test_stale_tmp_dirs_are_swept_and_ignored(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key_for("dataset", seed=2)
        stale = cache.root / "dataset" / f".tmp-{key}-999-deadbeef"
        stale.mkdir(parents=True)
        (stale / "junk").write_text("crashed build", encoding="utf-8")
        assert cache.entries() == []            # tmp dirs are not entries
        cache.load_or_build("dataset", key, self._dataset,
                            lambda ds, path: ds.save(path / "data"),
                            lambda path: Dataset.load(path / "data"))
        assert not stale.exists()               # swept under the lock
        assert [entry.key for entry in cache.entries()] == [key]

    def test_lock_files_are_invisible_to_entries_and_survive_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key_for("dataset", seed=3)
        cache.load_or_build("dataset", key, self._dataset,
                            lambda ds, path: ds.save(path / "data"),
                            lambda path: Dataset.load(path / "data"))
        lock_files = list((cache.root / "dataset").glob("*.lock"))
        assert lock_files                        # the build left its lock file
        assert [entry.key for entry in cache.entries()] == [key]
        assert cache.clear() == 1                # locks don't count as entries
        assert cache.entries() == []
        # Lock files are deliberately NOT unlinked: a concurrent flock holder
        # must keep its inode, or two builders could hold "the" lock at once.
        assert list((cache.root / "dataset").glob("*.lock")) == lock_files
        # And a post-clear build still works through the surviving lock file.
        cache.load_or_build("dataset", key, self._dataset,
                            lambda ds, path: ds.save(path / "data"),
                            lambda path: Dataset.load(path / "data"))
        assert cache.has("dataset", key)

    def test_lock_timeout_raises_instead_of_hanging(self, tmp_path):
        cache = ArtifactCache(tmp_path, lock_timeout_s=0.2)
        key = cache.key_for("dataset", seed=4)
        entered = threading.Event()

        def slow_build() -> Dataset:
            entered.set()
            time.sleep(1.0)
            return self._dataset()

        holder = threading.Thread(target=lambda: cache.load_or_build(
            "dataset", key, slow_build,
            lambda ds, path: ds.save(path / "data"),
            lambda path: Dataset.load(path / "data")))
        holder.start()
        try:
            assert entered.wait(timeout=5)
            with pytest.raises(SerializationError, match="timed out"):
                cache.load_or_build(
                    "dataset", key, self._dataset,
                    lambda ds, path: ds.save(path / "data"),
                    lambda path: Dataset.load(path / "data"))
        finally:
            holder.join(timeout=30)

    def test_concurrent_contexts_share_one_corpus_build(self, tmp_path):
        # The integration-shaped version of the satellite: two contexts
        # warm-starting from one cache dir race on the corpus entry.
        cache_root = tmp_path / "cache"
        corpora = {}
        barrier = threading.Barrier(2)

        def worker(index: int) -> None:
            context = ExperimentContext(scale=TINY_PROFILE, seed=55,
                                        cache=ArtifactCache(cache_root))
            barrier.wait()
            corpora[index] = context.corpus

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(corpora) == 2
        np.testing.assert_array_equal(corpora[0].train.features,
                                      corpora[1].train.features)
        cache = ArtifactCache(cache_root)
        assert sum(entry.kind == "corpus" for entry in cache.entries()) == 1


class TestStaleLocks:
    """The O_EXCL spin path must sweep lock files whose holder died, so a
    crashed builder never stalls concurrent builders for ``lock_timeout_s``.
    ``fcntl`` is monkeypatched away to force the portable spin path (the
    ``flock`` path needs no sweeping — the kernel releases with the holder)."""

    def _dataset(self) -> Dataset:
        return Dataset(features=np.linspace(0, 1, 12).reshape(4, 3),
                       labels=np.array([0, 1, 0, 1]), name="toy")

    def _build(self, cache: ArtifactCache, key: str) -> Dataset:
        return cache.load_or_build(
            "dataset", key, self._dataset,
            lambda ds, path: ds.save(path / "data"),
            lambda path: Dataset.load(path / "data"))

    def _dead_pid(self) -> int:
        import subprocess
        import sys

        probe = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                               capture_output=True, text=True, check=True)
        return int(probe.stdout.strip())

    def test_flock_path_stamps_holder_pid(self, tmp_path):
        import os

        cache = ArtifactCache(tmp_path)
        key = cache.key_for("dataset", seed=0)
        self._build(cache, key)
        lock_path = cache.root / "dataset" / f"{key}.lock"
        assert lock_path.read_text(encoding="ascii").strip() == str(os.getpid())

    def test_dead_holder_lock_is_swept_instead_of_waited_on(self, tmp_path,
                                                            monkeypatch):
        import time

        monkeypatch.setattr("repro.utils.artifact_cache.fcntl", None)
        cache = ArtifactCache(tmp_path, lock_timeout_s=30.0)
        key = cache.key_for("dataset", seed=1)
        lock_path = cache.root / "dataset" / f"{key}.lock"
        lock_path.parent.mkdir(parents=True)
        lock_path.write_text(str(self._dead_pid()), encoding="ascii")
        started = time.monotonic()
        result = self._build(cache, key)
        # Regression: this used to block the full lock_timeout_s.
        assert time.monotonic() - started < 5.0
        assert result.n_samples == 4
        assert cache.n_stale_locks_swept == 1

    def test_killed_lock_holder_does_not_stall_next_builder(self, tmp_path,
                                                            monkeypatch):
        import subprocess
        import sys
        import time

        # A real crashed holder: the subprocess acquires the spin lock (its
        # PID stamped inside) and an injected ``exit`` fault at the
        # ``cache.lock`` site kills it mid-build, releasing nothing.
        code = f"""
import repro.utils.artifact_cache as ac
ac.fcntl = None
from repro.reliability import FaultPlan, FaultSpec

plan = FaultPlan(specs=(FaultSpec(site="cache.lock", action="exit"),))
cache = ac.ArtifactCache({str(tmp_path)!r}, injector=plan.injector())
with cache._entry_lock("dataset", "deadkey"):
    raise AssertionError("the injected exit must fire first")
"""
        holder = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert holder.returncode == 1, holder.stderr
        lock_path = tmp_path / "dataset" / "deadkey.lock"
        assert lock_path.exists()               # died holding the lock
        assert lock_path.read_text(encoding="ascii").strip().isdigit()

        monkeypatch.setattr("repro.utils.artifact_cache.fcntl", None)
        cache = ArtifactCache(tmp_path, lock_timeout_s=30.0)
        started = time.monotonic()
        result = self._build(cache, "deadkey")
        assert time.monotonic() - started < 10.0
        assert result.n_samples == 4
        assert cache.n_stale_locks_swept == 1

    def test_empty_lock_file_is_treated_as_live(self, tmp_path, monkeypatch):
        # An empty file is a holder between creating the lock and stamping
        # its PID: sweeping it would break mutual exclusion.
        monkeypatch.setattr("repro.utils.artifact_cache.fcntl", None)
        cache = ArtifactCache(tmp_path, lock_timeout_s=0.3)
        key = cache.key_for("dataset", seed=2)
        lock_path = cache.root / "dataset" / f"{key}.lock"
        lock_path.parent.mkdir(parents=True)
        lock_path.touch()
        with pytest.raises(SerializationError, match="timed out"):
            self._build(cache, key)
        assert cache.n_stale_locks_swept == 0
        assert lock_path.exists()

    def test_live_holder_lock_is_never_swept(self, tmp_path, monkeypatch):
        import os

        monkeypatch.setattr("repro.utils.artifact_cache.fcntl", None)
        cache = ArtifactCache(tmp_path, lock_timeout_s=0.3)
        key = cache.key_for("dataset", seed=3)
        lock_path = cache.root / "dataset" / f"{key}.lock"
        lock_path.parent.mkdir(parents=True)
        lock_path.write_text(str(os.getpid()), encoding="ascii")  # us: alive
        with pytest.raises(SerializationError, match="timed out"):
            self._build(cache, key)
        assert cache.n_stale_locks_swept == 0
        assert lock_path.exists()

    def test_spin_path_serialises_builders_and_releases(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr("repro.utils.artifact_cache.fcntl", None)
        cache = ArtifactCache(tmp_path)
        key = cache.key_for("dataset", seed=4)
        build_calls = []
        results = {}
        barrier = threading.Barrier(3)

        def build() -> Dataset:
            build_calls.append(threading.get_ident())
            time.sleep(0.05)
            return self._dataset()

        def worker(index: int) -> None:
            barrier.wait()
            results[index] = cache.load_or_build(
                "dataset", key, build,
                lambda ds, path: ds.save(path / "data"),
                lambda path: Dataset.load(path / "data"))

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(build_calls) == 1
        assert len(results) == 3
        # The spin lock file is removed on release (unlike flock's).
        assert not (cache.root / "dataset" / f"{key}.lock").exists()


class TestContextIntegration:
    @pytest.fixture()
    def cached_context(self, tmp_path):
        return ExperimentContext(scale=TINY_PROFILE, seed=77,
                                 cache=ArtifactCache(tmp_path / "cache"))

    def test_context_accepts_path_as_cache(self, tmp_path):
        context = ExperimentContext(scale=TINY_PROFILE, seed=77,
                                    cache=tmp_path / "cache")
        assert isinstance(context.cache, ArtifactCache)
        assert context.describe()["cache_root"] == str(tmp_path / "cache")

    def test_warm_context_matches_cold_context(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = ExperimentContext(scale=TINY_PROFILE, seed=77, cache=cache)
        cold_corpus = cold.corpus
        cold_target = cold.target_model

        warm = ExperimentContext(scale=TINY_PROFILE, seed=77, cache=cache)
        warm_corpus = warm.corpus
        warm_target = warm.target_model

        np.testing.assert_array_equal(warm_corpus.train.features,
                                      cold_corpus.train.features)
        np.testing.assert_array_equal(warm_corpus.test.labels,
                                      cold_corpus.test.labels)
        x = cold_corpus.test.features[:16]
        np.testing.assert_allclose(warm_target.predict_proba(x),
                                   cold_target.predict_proba(x), atol=1e-9)
        # Training history rides along with the cached model (Table IV reads
        # the final train accuracy from it on warm runs).
        assert warm_target.history.epochs_run == cold_target.history.epochs_run
        np.testing.assert_allclose(warm_target.history.train_accuracy,
                                   cold_target.history.train_accuracy)

    def test_warm_context_loads_greybox_adversarial(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = ExperimentContext(scale=TINY_PROFILE, seed=78, cache=cache)
        cold_advex = cold.greybox_adversarial(theta=0.1, gamma=0.02)
        warm = ExperimentContext(scale=TINY_PROFILE, seed=78, cache=cache)
        warm_advex = warm.greybox_adversarial(theta=0.1, gamma=0.02)
        np.testing.assert_array_equal(warm_advex.features, cold_advex.features)

    def test_warm_pipeline_loads_without_the_corpus(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = ExperimentContext(scale=TINY_PROFILE, seed=80, cache=cache)
        assert cold.pipeline is cold.corpus.pipeline
        warm = ExperimentContext(scale=TINY_PROFILE, seed=80, cache=cache)
        assert warm.pipeline.catalog.names == cold.pipeline.catalog.names
        np.testing.assert_array_equal(warm.pipeline.transformer.scales,
                                      cold.pipeline.transformer.scales)
        assert warm.describe()["corpus_built"] is False
        assert [entry.kind for entry in cache.entries()] == ["corpus", "pipeline"]

    def test_different_seeds_do_not_share_artifacts(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        a = ExperimentContext(scale=TINY_PROFILE, seed=1, cache=cache)
        b = ExperimentContext(scale=TINY_PROFILE, seed=2, cache=cache)
        assert not np.array_equal(a.corpus.train.features,
                                  b.corpus.train.features)

    def test_binary_substitute_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = ExperimentContext(scale=TINY_PROFILE, seed=79, cache=cache)
        cold_model = cold.binary_substitute
        cold_pipeline = cold.binary_pipeline
        warm = ExperimentContext(scale=TINY_PROFILE, seed=79, cache=cache)
        warm_model = warm.binary_substitute
        assert warm.binary_pipeline.n_features == cold_pipeline.n_features
        x = np.clip(np.random.default_rng(0).random(
            (8, cold_model.network.input_dim)), 0, 1)
        np.testing.assert_allclose(warm_model.predict_proba(x),
                                   cold_model.predict_proba(x), atol=1e-9)
