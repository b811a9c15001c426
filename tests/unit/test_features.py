"""Tests for feature extraction, transformation and the pipeline."""

import numpy as np
import pytest

from repro.apilog.api_catalog import build_catalog
from repro.apilog.log_format import ApiLog, LogRecord
from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.features.extraction import CountExtractor
from repro.features.pipeline import FeaturePipeline
from repro.features.transformation import (
    BinaryTransformer,
    CountTransformer,
    IdentityTransformer,
    transformer_from_config,
)


class TestCountExtractor:
    def test_dimension_matches_catalog(self):
        assert CountExtractor().n_features == 491

    def test_extract_from_mapping(self):
        extractor = CountExtractor()
        vector = extractor.extract({"writefile": 3, "winexec": 1})
        assert vector.sum() == 4
        assert vector[extractor.catalog.index_of("writefile")] == 3

    def test_extract_from_log(self):
        extractor = CountExtractor()
        log = ApiLog(sample_id="s", os_version="win7")
        log.append(LogRecord("WriteFile", 0x1, (), 1))
        log.append(LogRecord("WriteFile", 0x2, (), 1))
        vector = extractor.extract(log)
        assert vector[extractor.catalog.index_of("writefile")] == 2

    def test_unmonitored_apis_are_ignored(self):
        extractor = CountExtractor()
        vector = extractor.extract({"totally_unknown_api": 50, "writefile": 1})
        assert vector.sum() == 1

    def test_extract_is_case_insensitive(self):
        extractor = CountExtractor()
        a = extractor.extract({"WriteFile": 2})
        b = extractor.extract({"writefile": 2})
        np.testing.assert_array_equal(a, b)

    def test_negative_count_rejected(self):
        with pytest.raises(ShapeError):
            CountExtractor().extract({"writefile": -1})

    def test_extract_batch_stacks_rows(self):
        extractor = CountExtractor()
        batch = extractor.extract_batch([{"writefile": 1}, {"winexec": 2}])
        assert batch.shape == (2, 491)

    def test_extract_batch_empty_returns_zero_row_matrix(self):
        # The serving path sees empty micro-batches; they must not raise.
        batch = CountExtractor().extract_batch([])
        assert batch.shape == (0, 491)

    def test_empty_log_extracts_to_zero_vector(self):
        vector = CountExtractor().extract(ApiLog(sample_id="e", os_version="win7"))
        assert vector.shape == (491,)
        assert vector.sum() == 0

    def test_unknown_api_only_log_extracts_to_zero_vector(self):
        vector = CountExtractor().extract({"not_a_monitored_api": 9,
                                           "another_unknown": 3})
        assert vector.sum() == 0

    def test_monitored_fraction(self):
        extractor = CountExtractor()
        assert extractor.monitored_fraction({"writefile": 1, "unknown": 1}) == 0.5
        assert extractor.monitored_fraction({}) == 0.0

    def test_invalid_source_type_rejected(self):
        with pytest.raises(ShapeError):
            CountExtractor().extract([1, 2, 3])

    def test_name_cache_is_bounded_and_counts_stay_right(self):
        from repro.features.extraction import NAME_CACHE_FACTOR

        catalog = build_catalog(n_features=64)
        extractor = CountExtractor(catalog)
        cap = NAME_CACHE_FACTOR * len(catalog)
        monitored = catalog.names[5]
        junk = [f"UnhookedApi{index}" for index in range(cap + 50)]
        # The junk fills the cache first, so the monitored name (in two
        # spellings) arrives past the cap and must resolve without a slot.
        log = ApiLog(sample_id="junk", os_version="win7", records=[
            LogRecord(name, 0x1) for name in junk + [monitored, monitored.upper()]])
        more_junk = {f"OtherUnhooked{index}": 2 for index in range(cap)}
        more_junk[monitored.title()] = 4
        for _ in range(2):
            rows = extractor.extract_batch([log, more_junk])
            assert len(extractor._columns) == cap
            column = catalog.index_of(monitored)
            assert rows[0, column] == 2 and rows[0].sum() == 2
            assert rows[1, column] == 4 and rows[1].sum() == 4


class TestCountTransformer:
    def test_output_in_unit_interval(self):
        counts = np.random.default_rng(0).integers(0, 500, size=(30, 10)).astype(float)
        features = CountTransformer().fit_transform(counts)
        assert features.min() >= 0.0
        assert features.max() <= 1.0

    def test_monotonic_in_counts(self):
        transformer = CountTransformer()
        train = np.array([[0.0, 100.0], [50.0, 10.0]])
        transformer.fit(train)
        low = transformer.transform(np.array([[1.0, 1.0]]))
        high = transformer.transform(np.array([[5.0, 5.0]]))
        assert np.all(high >= low)

    def test_zero_counts_map_to_zero(self):
        transformer = CountTransformer().fit(np.ones((3, 4)))
        np.testing.assert_array_equal(transformer.transform(np.zeros((2, 4))),
                                      np.zeros((2, 4)))

    def test_counts_above_training_max_are_clipped(self):
        transformer = CountTransformer(min_scale_count=10).fit(np.full((2, 3), 20.0))
        out = transformer.transform(np.full((1, 3), 1e6))
        np.testing.assert_array_equal(out, np.ones((1, 3)))

    def test_min_scale_floor_applies_to_rare_features(self):
        transformer = CountTransformer(min_scale_count=50).fit(np.full((2, 2), 3.0))
        out = transformer.transform(np.array([[5.0, 5.0]]))
        np.testing.assert_allclose(out, 0.1)

    def test_linear_scaling_definition(self):
        transformer = CountTransformer(min_scale_count=1.0, scaling="linear")
        transformer.fit(np.array([[10.0, 20.0]]))
        out = transformer.transform(np.array([[5.0, 5.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.25]])

    def test_log_scaling_definition(self):
        transformer = CountTransformer(min_scale_count=1.0, scaling="log")
        transformer.fit(np.array([[10.0]]))
        out = transformer.transform(np.array([[10.0]]))
        np.testing.assert_allclose(out, [[1.0]])

    def test_inverse_count_round_trip(self):
        transformer = CountTransformer(min_scale_count=10.0)
        transformer.fit(np.array([[40.0, 5.0]]))
        counts = np.array([[8.0, 3.0]])
        features = transformer.transform(counts)
        np.testing.assert_allclose(transformer.inverse_count(features), counts, rtol=1e-9)

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            CountTransformer().transform(np.ones((1, 3)))

    def test_negative_counts_rejected(self):
        with pytest.raises(ShapeError):
            CountTransformer().fit(np.array([[-1.0]]))

    def test_invalid_scaling_rejected(self):
        with pytest.raises(ConfigurationError):
            CountTransformer(scaling="sqrt")

    def test_is_fitted_flag(self):
        transformer = CountTransformer()
        assert not transformer.is_fitted
        transformer.fit(np.ones((2, 2)))
        assert transformer.is_fitted


class TestBinaryTransformer:
    def test_output_is_zero_one(self):
        out = BinaryTransformer().fit_transform(np.array([[0.0, 1.0, 7.0]]))
        np.testing.assert_array_equal(out, [[0.0, 1.0, 1.0]])

    def test_threshold_respected(self):
        out = BinaryTransformer(threshold=2.0).transform(np.array([[1.0, 3.0]]))
        np.testing.assert_array_equal(out, [[0.0, 1.0]])

    def test_negative_counts_rejected(self):
        with pytest.raises(ShapeError):
            BinaryTransformer().transform(np.array([[-0.5]]))


class TestTransformerConfig:
    @pytest.mark.parametrize("transformer", [
        CountTransformer(min_scale_count=30, scaling="log"),
        BinaryTransformer(threshold=1.5),
        IdentityTransformer(),
    ])
    def test_config_round_trip(self, transformer):
        rebuilt = transformer_from_config(transformer.get_config())
        assert type(rebuilt) is type(transformer)
        assert rebuilt.get_config() == transformer.get_config()

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            transformer_from_config({"type": "MysteryTransformer"})


class TestFeaturePipeline:
    def _sources(self):
        return [{"writefile": 5, "winexec": 1},
                {"writeprocessmemory": 3, "writefile": 1},
                {"waitmessage": 2}]

    def test_fit_transform_shape(self):
        pipeline = FeaturePipeline()
        features = pipeline.fit_transform(self._sources())
        assert features.shape == (3, 491)
        assert pipeline.is_fitted

    def test_transform_one_matches_batch(self):
        pipeline = FeaturePipeline()
        pipeline.fit(self._sources())
        batch = pipeline.transform(self._sources())
        single = pipeline.transform_one(self._sources()[1])
        np.testing.assert_allclose(single, batch[1])

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            FeaturePipeline().transform(self._sources())

    def test_save_load_round_trip(self, tmp_path):
        pipeline = FeaturePipeline()
        pipeline.fit(self._sources())
        expected = pipeline.transform(self._sources())
        pipeline.save(tmp_path / "pipeline")
        restored = FeaturePipeline.load(tmp_path / "pipeline")
        np.testing.assert_allclose(restored.transform(self._sources()), expected)

    def test_save_load_preserves_catalog(self, tmp_path):
        catalog = build_catalog(n_features=64)
        pipeline = FeaturePipeline(catalog=catalog, transformer=BinaryTransformer())
        pipeline.fit([{"writefile": 1}])
        pipeline.save(tmp_path / "p")
        restored = FeaturePipeline.load(tmp_path / "p")
        assert restored.n_features == 64
        assert isinstance(restored.transformer, BinaryTransformer)

    def test_binary_pipeline_features_are_binary(self):
        pipeline = FeaturePipeline(transformer=BinaryTransformer())
        features = pipeline.fit_transform(self._sources())
        assert set(np.unique(features)) <= {0.0, 1.0}

    def test_empty_log_transforms_to_zero_vector(self):
        # Regression for the serving path: an empty execution trace must
        # yield a well-formed all-zero feature row, not an error.
        pipeline = FeaturePipeline()
        pipeline.fit(self._sources())
        row = pipeline.transform_one(ApiLog(sample_id="empty", os_version="win7"))
        assert row.shape == (491,)
        np.testing.assert_array_equal(row, np.zeros(491))

    def test_unknown_api_log_transforms_to_zero_vector(self):
        pipeline = FeaturePipeline()
        pipeline.fit(self._sources())
        row = pipeline.transform_one({"completely_unknown_api": 40})
        np.testing.assert_array_equal(row, np.zeros(491))

    def test_empty_source_batch_transforms_to_zero_row_matrix(self):
        pipeline = FeaturePipeline()
        pipeline.fit(self._sources())
        assert pipeline.transform([]).shape == (0, 491)
        assert pipeline.transform_counts(np.zeros((0, 491))).shape == (0, 491)


class TestPipelineBundleRoundTrip:
    """save_bundle/load_bundle round trips for both pipeline flavours."""

    def _sources(self):
        return [{"writefile": 5, "winexec": 1},
                {"writeprocessmemory": 3, "writefile": 1},
                {"waitmessage": 2, "writefile": 9}]

    def test_count_pipeline_bundle_contents(self, tmp_path):
        from repro.utils.serialization import load_bundle

        pipeline = FeaturePipeline()
        pipeline.fit(self._sources())
        pipeline.save(tmp_path / "bundle")
        meta, arrays = load_bundle(tmp_path / "bundle")
        assert meta["transformer"]["type"] == "CountTransformer"
        assert len(meta["catalog"]) == 491
        np.testing.assert_allclose(arrays["scales"],
                                   pipeline.transformer.scales)

    def test_count_pipeline_round_trip_preserves_transform(self, tmp_path):
        pipeline = FeaturePipeline(transformer=CountTransformer(min_scale_count=30,
                                                                scaling="log"))
        pipeline.fit(self._sources())
        pipeline.save(tmp_path / "bundle")
        restored = FeaturePipeline.load(tmp_path / "bundle")
        assert isinstance(restored.transformer, CountTransformer)
        assert restored.transformer.scaling == "log"
        assert restored.transformer.min_scale_count == 30
        np.testing.assert_allclose(restored.transform(self._sources()),
                                   pipeline.transform(self._sources()))

    def test_binary_pipeline_round_trip(self, tmp_path):
        # The grey-box attacker's featurisation: presence/absence features.
        pipeline = FeaturePipeline(transformer=BinaryTransformer(threshold=1.5))
        pipeline.fit(self._sources())
        expected = pipeline.transform(self._sources())
        pipeline.save(tmp_path / "bundle")
        restored = FeaturePipeline.load(tmp_path / "bundle")
        assert isinstance(restored.transformer, BinaryTransformer)
        assert restored.transformer.threshold == 1.5
        assert restored.is_fitted
        np.testing.assert_array_equal(restored.transform(self._sources()), expected)
        assert set(np.unique(restored.transform(self._sources()))) <= {0.0, 1.0}

    def test_binary_substitute_pipeline_round_trip_via_context(self, tmp_path):
        # The exact binary pipeline the second grey-box attacker trains
        # behind, persisted and restored through the context's save path.
        from repro.config import TINY_PROFILE
        from repro.experiments.context import ExperimentContext

        context = ExperimentContext(scale=TINY_PROFILE, seed=41)
        binary_pipeline = context.binary_pipeline
        binary_pipeline.save(tmp_path / "bundle")
        restored = FeaturePipeline.load(tmp_path / "bundle")
        assert isinstance(restored.transformer, BinaryTransformer)
        counts = CountExtractor().extract_batch(self._sources())
        np.testing.assert_array_equal(restored.transform_counts(counts),
                                      binary_pipeline.transform_counts(counts))
