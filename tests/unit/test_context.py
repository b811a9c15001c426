"""Tests for the shared ExperimentContext (lazy building and caching)."""

import numpy as np
import pytest

from repro.config import CLASS_MALWARE, TINY_PROFILE
from repro.experiments.context import ExperimentContext


class TestLazyCaching:
    def test_nothing_is_built_up_front(self):
        context = ExperimentContext(scale=TINY_PROFILE, seed=5)
        description = context.describe()
        assert description["corpus_built"] is False
        assert description["target_trained"] is False
        assert description["substitute_trained"] is False

    def test_corpus_is_cached(self, tiny_context):
        assert tiny_context.corpus is tiny_context.corpus

    def test_target_model_is_cached(self, tiny_context):
        assert tiny_context.target_model is tiny_context.target_model

    def test_substitute_model_is_cached(self, tiny_context):
        assert tiny_context.substitute_model is tiny_context.substitute_model

    def test_pipeline_comes_from_corpus(self, tiny_context):
        assert tiny_context.pipeline is tiny_context.corpus.pipeline

    def test_describe_reflects_built_artifacts(self, tiny_context):
        description = tiny_context.describe()
        assert description["corpus_built"] is True
        assert description["target_trained"] is True
        assert description["scale"] == "tiny"


class TestAttackInputs:
    def test_attack_malware_is_all_malware(self, tiny_context):
        assert np.all(tiny_context.attack_malware.labels == CLASS_MALWARE)

    def test_attack_malware_respects_profile_cap(self, tiny_context):
        assert tiny_context.attack_malware.n_samples <= tiny_context.scale.attack_samples

    def test_greybox_adversarial_is_cached_per_operating_point(self, tiny_context):
        first = tiny_context.greybox_adversarial(theta=0.1, gamma=0.02)
        second = tiny_context.greybox_adversarial(theta=0.1, gamma=0.02)
        assert first is second

    def test_greybox_adversarial_distinct_operating_points_differ(self, tiny_context):
        small = tiny_context.greybox_adversarial(theta=0.1, gamma=0.01)
        large = tiny_context.greybox_adversarial(theta=0.1, gamma=0.02)
        assert small is not large
        assert (np.abs(large.features - large.features.clip(0, 1)).max() == 0.0)

    def test_greybox_adversarial_respects_add_only(self, tiny_context):
        advex = tiny_context.greybox_adversarial(theta=0.1, gamma=0.02)
        original = tiny_context.attack_malware.features
        assert np.all(advex.features >= original - 1e-12)

    def test_binary_pipeline_available_after_binary_substitute(self, tiny_context):
        _ = tiny_context.binary_substitute
        assert tiny_context.binary_pipeline is not None


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = ExperimentContext(scale=TINY_PROFILE, seed=9).corpus
        b = ExperimentContext(scale=TINY_PROFILE, seed=9).corpus
        np.testing.assert_allclose(a.train.features, b.train.features)

    def test_different_seed_different_corpus(self):
        a = ExperimentContext(scale=TINY_PROFILE, seed=9).corpus
        b = ExperimentContext(scale=TINY_PROFILE, seed=10).corpus
        assert not np.allclose(a.train.features, b.train.features)


class TestScaleValidation:
    def test_profile_name_rejected_at_construction(self):
        from repro.exceptions import ConfigurationError

        # Refused at construction, not on first use deep inside corpus
        # generation.
        with pytest.raises(ConfigurationError, match="get_profile"):
            ExperimentContext(scale="small")
        with pytest.raises(ConfigurationError, match="ScaleProfile"):
            ExperimentContext(scale=3)


class TestDtypeOverride:
    def test_invalid_dtype_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExperimentContext(scale=TINY_PROFILE, seed=9, dtype="float16")

    def test_dtype_override_builds_float32_artifacts(self):
        from repro.nn.engine import compute_dtype

        engine_dtype_before = compute_dtype()
        context = ExperimentContext(scale=TINY_PROFILE, seed=9, dtype="float32")
        assert context.describe()["dtype"] == "float32"
        target = context.target_model
        # The override applies to the built network without mutating the
        # process-wide engine dtype.
        assert target.network.layers[0].weight.value.dtype == np.float32
        assert compute_dtype() == engine_dtype_before

    def test_dtype_override_keys_distinct_cache_entries(self, tmp_path):
        from repro.utils.artifact_cache import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        f64 = ExperimentContext(scale=TINY_PROFILE, seed=9, cache=cache,
                                dtype="float64")
        f32 = ExperimentContext(scale=TINY_PROFILE, seed=9, cache=cache,
                                dtype="float32")
        assert f64._cache_key("target") != f32._cache_key("target")
