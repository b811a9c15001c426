"""Tests for the corpus generator and the label oracle."""

import numpy as np
import pytest

from repro.config import CLASS_MALWARE
from repro.data.generator import CorpusGenerator
from repro.data.oracle import LabelOracle
from repro.exceptions import AttackError, DatasetError
from repro.features.pipeline import FeaturePipeline
from repro.features.transformation import BinaryTransformer


class TestCorpusGenerator:
    def test_split_sizes_match_profile(self, tiny_corpus, tiny_scale):
        assert tiny_corpus.train.n_samples == tiny_scale.train_total
        assert tiny_corpus.validation.n_samples == tiny_scale.val_total
        assert tiny_corpus.test.n_samples == tiny_scale.test_total

    def test_class_counts_match_profile(self, tiny_corpus, tiny_scale):
        counts = tiny_corpus.train.class_counts()
        assert counts["clean"] == tiny_scale.train_clean
        assert counts["malware"] == tiny_scale.train_malware

    def test_features_are_in_unit_interval(self, tiny_corpus):
        for split in (tiny_corpus.train, tiny_corpus.validation, tiny_corpus.test):
            assert split.features.min() >= 0.0
            assert split.features.max() <= 1.0

    def test_feature_dimension_is_491(self, tiny_corpus):
        assert tiny_corpus.train.n_features == 491

    def test_pipeline_is_fitted(self, tiny_corpus):
        assert tiny_corpus.pipeline.is_fitted

    def test_metadata_attached(self, tiny_corpus):
        assert tiny_corpus.train.sample_ids is not None
        assert tiny_corpus.train.families is not None
        assert tiny_corpus.train.os_versions is not None

    def test_test_set_contains_novel_families(self, tiny_corpus):
        train_families = set(tiny_corpus.train.families)
        test_families = set(tiny_corpus.test.families)
        assert test_families - train_families, "test distribution shift missing"

    def test_generation_is_deterministic(self, tiny_scale):
        a = CorpusGenerator(scale=tiny_scale, seed=99).generate_corpus()
        b = CorpusGenerator(scale=tiny_scale, seed=99).generate_corpus()
        np.testing.assert_allclose(a.train.features, b.train.features)
        np.testing.assert_array_equal(a.test.labels, b.test.labels)

    def test_different_seeds_differ(self, tiny_scale):
        a = CorpusGenerator(scale=tiny_scale, seed=1).generate_corpus()
        b = CorpusGenerator(scale=tiny_scale, seed=2).generate_corpus()
        assert not np.allclose(a.train.features, b.train.features)

    def test_table1_rows_shape(self, tiny_corpus):
        rows = tiny_corpus.table1_rows()
        assert len(rows) == 3
        assert rows[0][0] == "Training Set"

    def test_classes_are_separable(self, tiny_corpus):
        # A trivial centroid classifier should already beat chance by a wide
        # margin — this is what makes the detector trainable at all.
        train = tiny_corpus.train
        clean_centroid = train.clean_only().features.mean(axis=0)
        malware_centroid = train.malware_only().features.mean(axis=0)
        test = tiny_corpus.test
        distance_clean = np.linalg.norm(test.features - clean_centroid, axis=1)
        distance_malware = np.linalg.norm(test.features - malware_centroid, axis=1)
        predictions = (distance_malware < distance_clean).astype(int)
        accuracy = float(np.mean(predictions == test.labels))
        assert accuracy > 0.7

    def test_generate_source_samples_validation(self, tiny_scale):
        generator = CorpusGenerator(scale=tiny_scale, seed=0)
        with pytest.raises(DatasetError):
            generator.generate_source_samples(0, CLASS_MALWARE)
        with pytest.raises(DatasetError):
            generator.generate_source_samples(3, 7)
        with pytest.raises(DatasetError):
            generator.generate_source_samples(3, CLASS_MALWARE, source="prod")

    def test_attacker_corpus_with_own_binary_pipeline(self, tiny_scale):
        generator = CorpusGenerator(scale=tiny_scale, seed=5)
        pipeline = FeaturePipeline(catalog=generator.catalog,
                                   transformer=BinaryTransformer())
        data = generator.generate_attacker_corpus(30, 30, pipeline=pipeline)
        assert data.n_samples == 60
        assert set(np.unique(data.features)) <= {0.0, 1.0}

    def test_attacker_corpus_without_pipeline_returns_raw_counts(self, tiny_scale):
        generator = CorpusGenerator(scale=tiny_scale, seed=5)
        data = generator.generate_attacker_corpus(10, 10, pipeline=None)
        assert data.features.max() > 1.0  # raw counts, not normalised


class TestLabelOracle:
    def test_labels_match_model_predictions(self, tiny_target, tiny_corpus):
        oracle = LabelOracle(tiny_target)
        features = tiny_corpus.test.features[:20]
        np.testing.assert_array_equal(oracle.labels(features),
                                      tiny_target.predict(features))

    def test_query_counter_increments(self, tiny_target, tiny_corpus):
        oracle = LabelOracle(tiny_target)
        oracle.labels(tiny_corpus.test.features[:7])
        oracle.labels(tiny_corpus.test.features[:3])
        assert oracle.queries_used == 10

    def test_budget_enforced(self, tiny_target, tiny_corpus):
        oracle = LabelOracle(tiny_target, query_budget=5)
        oracle.labels(tiny_corpus.test.features[:5])
        with pytest.raises(AttackError):
            oracle.labels(tiny_corpus.test.features[:1])

    def test_queries_remaining(self, tiny_target, tiny_corpus):
        oracle = LabelOracle(tiny_target, query_budget=10)
        oracle.labels(tiny_corpus.test.features[:4])
        assert oracle.queries_remaining == 6
        assert LabelOracle(tiny_target).queries_remaining is None

    def test_scores_require_opt_in(self, tiny_target, tiny_corpus):
        strict = LabelOracle(tiny_target)
        with pytest.raises(AttackError):
            strict.scores(tiny_corpus.test.features[:2])
        leaky = LabelOracle(tiny_target, return_scores=True)
        scores = leaky.scores(tiny_corpus.test.features[:2])
        assert scores.shape == (2,)

    def test_reset_clears_counter(self, tiny_target, tiny_corpus):
        oracle = LabelOracle(tiny_target, query_budget=5)
        oracle.labels(tiny_corpus.test.features[:5])
        oracle.reset()
        assert oracle.queries_used == 0
        oracle.labels(tiny_corpus.test.features[:5])

    def test_invalid_budget_rejected(self, tiny_target):
        with pytest.raises(AttackError):
            LabelOracle(tiny_target, query_budget=0)
