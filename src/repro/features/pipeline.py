"""The end-to-end, serialisable ``log → feature vector`` pipeline."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from repro.apilog.api_catalog import ApiCatalog, default_catalog
from repro.exceptions import NotFittedError, SerializationError
from repro.features.extraction import CountExtractor, CountSource
from repro.features.transformation import (
    CountTransformer,
    FeatureTransformer,
    transformer_from_config,
)
from repro.utils.serialization import load_bundle, save_bundle


class FeaturePipeline:
    """Extraction + transformation, fitted on raw training counts.

    This is the object the *defender* owns (and the first grey-box attacker
    is assumed to know): it fixes both the catalog ordering and the count
    normalisation.  The second grey-box attacker builds their own pipeline
    with a :class:`~repro.features.transformation.BinaryTransformer` instead.
    """

    def __init__(self, catalog: Optional[ApiCatalog] = None,
                 transformer: Optional[FeatureTransformer] = None) -> None:
        self.extractor = CountExtractor(catalog if catalog is not None else default_catalog())
        self.transformer = transformer if transformer is not None else CountTransformer()

    @property
    def catalog(self) -> ApiCatalog:
        """The monitored-API catalog the pipeline extracts against."""
        return self.extractor.catalog

    @property
    def n_features(self) -> int:
        """Feature dimensionality (491 for the canonical catalog)."""
        return self.extractor.n_features

    @property
    def is_fitted(self) -> bool:
        """Whether the transformation has been fitted."""
        return self.transformer.is_fitted

    # ------------------------------------------------------------------ #
    # Fitting / transforming
    # ------------------------------------------------------------------ #
    def fit_counts(self, raw_counts: np.ndarray) -> "FeaturePipeline":
        """Fit the transformation on a matrix of raw counts."""
        self.transformer.fit(raw_counts)
        return self

    def fit(self, sources: Iterable[CountSource]) -> "FeaturePipeline":
        """Fit the transformation on logs / count mappings."""
        return self.fit_counts(self.extractor.extract_batch(sources))

    def transform_counts(self, raw_counts: np.ndarray) -> np.ndarray:
        """Transform a matrix of raw counts into model-input features.

        A zero-row matrix (an empty scoring batch) maps to a zero-row
        feature matrix; a zero *vector* (an empty or fully-unmonitored log)
        transforms like any other row, yielding the all-zero feature vector.
        """
        if not self.is_fitted:
            raise NotFittedError("FeaturePipeline must be fitted before transform")
        raw = np.asarray(raw_counts, dtype=np.float64)
        if raw.ndim == 2 and raw.shape[0] == 0:
            return np.zeros((0, self.n_features), dtype=np.float64)
        return self.transformer.transform(raw)

    def transform(self, sources: Iterable[CountSource]) -> np.ndarray:
        """Transform logs / count mappings into model-input features."""
        return self.transform_counts(self.extractor.extract_batch(sources))

    def transform_one(self, source: CountSource) -> np.ndarray:
        """Transform a single log / count mapping into one feature row."""
        return self.transform([source])[0]

    def fit_transform(self, sources: Iterable[CountSource]) -> np.ndarray:
        """Fit then transform the same sources."""
        raw = self.extractor.extract_batch(sources)
        self.transformer.fit(raw)
        return self.transformer.transform(raw)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Persist the pipeline (catalog + fitted transformation)."""
        meta = {
            "catalog": list(self.catalog.names),
            "transformer": self.transformer.get_config(),
        }
        arrays = {}
        if isinstance(self.transformer, CountTransformer) and self.transformer.is_fitted:
            arrays["scales"] = self.transformer.scales
        return save_bundle(path, meta, arrays)

    @classmethod
    def load(cls, path: str | Path) -> "FeaturePipeline":
        """Restore a pipeline saved with :meth:`save`."""
        meta, arrays = load_bundle(path)
        catalog = ApiCatalog(tuple(meta["catalog"]))
        transformer = transformer_from_config(meta["transformer"])
        pipeline = cls(catalog=catalog, transformer=transformer)
        if isinstance(transformer, CountTransformer):
            if "scales" not in arrays:
                raise SerializationError("CountTransformer bundle is missing its scales")
            transformer._scales = arrays["scales"].astype(np.float64)
        return pipeline
