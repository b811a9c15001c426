"""Common interface shared by all defenses.

Each defense turns the defender's assets (the corpus bundle, the trained
target model, and — for adversarial training — a batch of adversarial
examples) into a :class:`DefendedDetector`: an object with exactly the same
prediction surface as the undefended detector, so the Table VI evaluation
treats "No Defense" and every defended variant identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import CLASS_MALWARE
from repro.data.dataset import Dataset
from repro.exceptions import DefenseError
from repro.nn.metrics import ClassificationReport, detection_rate
from repro.scenarios.registry import register_defense
from repro.utils.validation import check_matrix


class DefendedDetector:
    """A (possibly wrapped) detector produced by a defense.

    Subclasses override :meth:`predict` (hard labels) and, when meaningful,
    :meth:`malware_confidence`.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard decisions (0 clean, 1 malware) for a feature matrix."""
        raise NotImplementedError

    def malware_confidence(self, features: np.ndarray) -> np.ndarray:
        """Malware probability per sample (defaults to the hard decision)."""
        return self.predict(features).astype(np.float64)

    def decide(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(malware confidences, hard labels)`` for one feature matrix.

        The results are exactly ``malware_confidence(features)`` and
        ``predict(features)``; detectors whose two surfaces share expensive
        intermediates (squeezed forward passes, member votes) override this
        to compute both in one evaluation — the scoring service's per-batch
        hot path.
        """
        return self.malware_confidence(features), self.predict(features)

    def detection_rate(self, features: np.ndarray) -> float:
        """Fraction of the batch flagged as malware."""
        return detection_rate(self.predict(features), positive_class=CLASS_MALWARE)

    def report(self, dataset: Dataset) -> ClassificationReport:
        """Confusion-matrix rates on a dataset."""
        return ClassificationReport.from_predictions(dataset.labels,
                                                     self.predict(dataset.features))


class ModelBackedDetector(DefendedDetector):
    """A defended detector that simply wraps a retrained model."""

    def __init__(self, model, name: str) -> None:
        super().__init__(name)
        if not hasattr(model, "predict"):
            raise DefenseError("model must expose a predict() method")
        self.model = model

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.model.predict(check_matrix(features, name="features"))

    def malware_confidence(self, features: np.ndarray) -> np.ndarray:
        features = check_matrix(features, name="features")
        if hasattr(self.model, "malware_confidence"):
            return self.model.malware_confidence(features)
        if hasattr(self.model, "malware_score"):
            return self.model.malware_score(features)
        return super().malware_confidence(features)

    def decide(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One ``predict_proba`` pass yields both surfaces when available."""
        features = check_matrix(features, name="features")
        if hasattr(self.model, "predict_proba"):
            probabilities = np.asarray(self.model.predict_proba(features))
            return (probabilities[:, CLASS_MALWARE],
                    np.argmax(probabilities, axis=1))
        return super().decide(features)


class Defense:
    """Base class for defenses.

    A defense is *fit* from the defender's assets and returns a
    :class:`DefendedDetector`; the returned detector is also stored on
    ``self.detector`` for convenience.
    """

    name = "defense"

    def __init__(self) -> None:
        self.detector: Optional[DefendedDetector] = None

    def fit(self, *args, **kwargs) -> DefendedDetector:
        """Build the defended detector; must be implemented by subclasses."""
        raise NotImplementedError

    def _finalize(self, detector: DefendedDetector) -> DefendedDetector:
        self.detector = detector
        return detector


def _fit_none(cls, context, params, model=None):
    """Wrap the (served or deployed) detector without any defense."""
    return cls().fit(model if model is not None else context.target_model)


@register_defense("none", fitter=_fit_none, aliases=("no_defense",),
                  summary="Undefended detector (Table VI 'No Defense' row)")
class NoDefense(Defense):
    """The identity defense: the Table VI baseline row.

    Registering "no defense" as a first-class entry keeps every consumer —
    the scenario engine, ``repro serve --defense``, grid sweeps — on one
    uniform code path instead of special-casing the undefended detector.
    """

    def fit(self, model) -> ModelBackedDetector:
        """Wrap ``model`` in the standard detector surface, unchanged."""
        return self._finalize(ModelBackedDetector(model, name="no_defense"))
