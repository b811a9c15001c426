"""Feature transformations: raw counts → model inputs.

The paper (Section II-A) applies a transformation to the raw API counts and
normalises the result to ``[0, 1]``.  :class:`CountTransformer` scales each
count by the per-feature maximum observed on the training set (linear by
default, ``log1p`` as an ablation), which lands every value in ``[0, 1]``
and keeps the "add API calls" attack surface monotonic (more calls → larger
feature value, saturating at 1).

:class:`BinaryTransformer` is the featurisation the second grey-box
experiment assumes the attacker uses: 1 when the API appears, 0 otherwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.utils.validation import check_matrix


class FeatureTransformer:
    """Interface: ``fit`` on raw training counts, ``transform`` to model space."""

    def fit(self, raw_counts: np.ndarray) -> "FeatureTransformer":
        """Learn any data-dependent parameters from training raw counts."""
        raise NotImplementedError

    def transform(self, raw_counts: np.ndarray) -> np.ndarray:
        """Map raw counts to model-input features in ``[0, 1]``."""
        raise NotImplementedError

    def fit_transform(self, raw_counts: np.ndarray) -> np.ndarray:
        """Convenience: fit then transform the same matrix."""
        return self.fit(raw_counts).transform(raw_counts)

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called (stateless transforms are always fitted)."""
        return True

    def get_config(self) -> dict:
        """JSON-serialisable description."""
        return {"type": type(self).__name__}


class CountTransformer(FeatureTransformer):
    """Per-feature count scaling normalised to ``[0, 1]``.

    Two scaling modes are supported:

    * ``"linear"`` (default): ``feature_j = min(1, count_j / scale_j)`` where
      ``scale_j`` is the maximum training count of feature j (floored at
      ``min_scale_count``).  Because common APIs have large maxima, a typical
      *present* API maps to a small value — which is what makes a θ=0.1
      perturbation a large change relative to natural feature values, the
      regime the paper's attacks operate in.
    * ``"log"``: ``feature_j = min(1, log(1 + count_j) / log(1 + scale_j))``,
      a smoother alternative kept for ablations.
    """

    def __init__(self, min_scale_count: float = 100.0, scaling: str = "linear") -> None:
        if min_scale_count <= 0:
            raise ConfigurationError("min_scale_count must be positive")
        if scaling not in ("linear", "log"):
            raise ConfigurationError(f"scaling must be 'linear' or 'log', got {scaling!r}")
        self.min_scale_count = float(min_scale_count)
        self.scaling = scaling
        self._scales: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        return self._scales is not None

    @property
    def scales(self) -> np.ndarray:
        """Per-feature normalisation denominators (after fitting)."""
        if self._scales is None:
            raise NotFittedError("CountTransformer has not been fitted")
        return self._scales

    def fit(self, raw_counts: np.ndarray) -> "CountTransformer":
        counts = check_matrix(raw_counts, name="raw_counts")
        if np.any(counts < 0):
            raise ShapeError("raw counts must be non-negative")
        max_counts = np.maximum(counts.max(axis=0), self.min_scale_count)
        self._scales = np.log1p(max_counts) if self.scaling == "log" else max_counts
        return self

    def transform(self, raw_counts: np.ndarray) -> np.ndarray:
        if self._scales is None:
            raise NotFittedError("CountTransformer must be fitted before transform")
        counts = check_matrix(raw_counts, name="raw_counts", n_features=self._scales.shape[0])
        if np.any(counts < 0):
            raise ShapeError("raw counts must be non-negative")
        numerator = np.log1p(counts) if self.scaling == "log" else counts
        return np.clip(numerator / self._scales, 0.0, 1.0)

    def inverse_count(self, features: np.ndarray) -> np.ndarray:
        """Map feature values back to (approximate) raw counts.

        Used by the live grey-box tooling to translate "increase feature j by
        theta" into "add roughly N calls to API j in the source".  Values at
        the saturation point map to the fitted maximum count.
        """
        if self._scales is None:
            raise NotFittedError("CountTransformer must be fitted before inverse_count")
        feats = check_matrix(features, name="features", n_features=self._scales.shape[0])
        feats = np.clip(feats, 0.0, 1.0)
        if self.scaling == "log":
            return np.expm1(feats * self._scales)
        return feats * self._scales

    def get_config(self) -> dict:
        return {"type": "CountTransformer", "min_scale_count": self.min_scale_count,
                "scaling": self.scaling}


class BinaryTransformer(FeatureTransformer):
    """Presence/absence featurisation (the second grey-box substitute)."""

    def __init__(self, threshold: float = 0.5) -> None:
        if threshold < 0:
            raise ConfigurationError("threshold must be non-negative")
        self.threshold = float(threshold)

    def fit(self, raw_counts: np.ndarray) -> "BinaryTransformer":
        check_matrix(raw_counts, name="raw_counts")
        return self

    def transform(self, raw_counts: np.ndarray) -> np.ndarray:
        counts = check_matrix(raw_counts, name="raw_counts")
        if np.any(counts < 0):
            raise ShapeError("raw counts must be non-negative")
        return (counts > self.threshold).astype(np.float64)

    def get_config(self) -> dict:
        return {"type": "BinaryTransformer", "threshold": self.threshold}


class IdentityTransformer(FeatureTransformer):
    """Pass-through transform (for already-featurised data in unit tests)."""

    def fit(self, raw_counts: np.ndarray) -> "IdentityTransformer":
        check_matrix(raw_counts, name="raw_counts")
        return self

    def transform(self, raw_counts: np.ndarray) -> np.ndarray:
        return check_matrix(raw_counts, name="raw_counts")


_TRANSFORMERS = {
    "CountTransformer": CountTransformer,
    "BinaryTransformer": BinaryTransformer,
    "IdentityTransformer": IdentityTransformer,
}


def transformer_from_config(config: dict) -> FeatureTransformer:
    """Rebuild a transformer from its :meth:`FeatureTransformer.get_config`."""
    kind = config.get("type")
    if kind not in _TRANSFORMERS:
        raise ConfigurationError(f"unknown transformer type {kind!r}")
    kwargs = {k: v for k, v in config.items() if k != "type"}
    return _TRANSFORMERS[kind](**kwargs)
