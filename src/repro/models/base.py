"""Shared wrapper around a trained detector network.

Both the target model and the substitute models expose the same surface:
probability / hard-label prediction, malware confidence scores, detection
rate on a batch, and persistence.  Keeping the interface identical is what
makes the transfer harness, the defenses and the evaluation code work on
either model unchanged.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from repro.config import CLASS_MALWARE
from repro.data.dataset import Dataset
from repro.nn.metrics import ClassificationReport, detection_rate
from repro.nn.network import NeuralNetwork
from repro.nn.optimizers import Adam
from repro.nn.training import EarlyStopping, Trainer, TrainingHistory
from repro.utils.rng import RandomState


class DetectorModel:
    """A malware detector backed by a :class:`~repro.nn.network.NeuralNetwork`."""

    def __init__(self, network: NeuralNetwork, name: str = "detector") -> None:
        self.network = network
        self.name = name
        self.history: Optional[TrainingHistory] = None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, train: Dataset, validation: Optional[Dataset] = None,
            epochs: int = 10, batch_size: int = 256, learning_rate: float = 1e-3,
            random_state: RandomState = None,
            early_stopping: Optional[EarlyStopping] = None) -> TrainingHistory:
        """Train the underlying network on ``train`` (optionally with validation)."""
        trainer = Trainer(
            self.network,
            optimizer=Adam(learning_rate=learning_rate),
            batch_size=batch_size,
            epochs=epochs,
            early_stopping=early_stopping,
            random_state=random_state,
        )
        x_val = validation.features if validation is not None else None
        y_val = validation.labels if validation is not None else None
        self.history = trainer.fit(train.features, train.labels, x_val, y_val)
        return self.history

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called (or weights were loaded)."""
        return self.history is not None

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard class decisions (0 clean, 1 malware)."""
        return self.network.predict(features)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class-probability rows."""
        return self.network.predict_proba(features)

    def malware_confidence(self, features: np.ndarray) -> np.ndarray:
        """Malware-class probability per sample (the engine's confidence)."""
        return self.network.malware_score(features)

    def detection_rate(self, features: np.ndarray) -> float:
        """Fraction of the batch flagged as malware."""
        return detection_rate(self.predict(features), positive_class=CLASS_MALWARE)

    def report(self, dataset: Dataset) -> ClassificationReport:
        """Confusion-matrix rates on a dataset."""
        return ClassificationReport.from_predictions(dataset.labels,
                                                     self.predict(dataset.features))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Persist the underlying network."""
        return self.network.save(path)

    @classmethod
    def load(cls, path: str | Path, name: str = "detector") -> "DetectorModel":
        """Restore a detector from a network bundle."""
        model = cls.__new__(cls)
        DetectorModel.__init__(model, NeuralNetwork.load(path), name=name)
        model.history = TrainingHistory()
        return model

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, sizes={self.network.layer_sizes})"
