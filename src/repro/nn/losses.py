"""Loss functions.

:class:`SoftmaxCrossEntropy` is the work-horse: it combines the softmax and
the cross-entropy so the backward pass is the numerically friendly
``probabilities - targets`` form.  It supports

* hard integer labels (normal training),
* soft probability targets (defensive distillation trains the student on the
  teacher's soft labels), and
* a distillation temperature ``T`` applied inside the softmax.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.activations import softmax
from repro.nn.engine import float_dtype_of


class Loss:
    """Base class for losses operating on network logits."""

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        """Return the scalar loss value."""
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        """Return the gradient of the loss w.r.t. the logits."""
        raise NotImplementedError

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(logits, targets)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Encode integer ``labels`` as one-hot rows."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ShapeError(
            f"labels must be in [0, {n_classes}), got range [{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], n_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels.astype(int)] = 1.0
    return encoded


class SoftmaxCrossEntropy(Loss):
    """Temperature-scaled softmax + cross-entropy.

    Parameters
    ----------
    temperature:
        Softmax temperature ``T`` (1.0 for standard training, 50 for the
        paper's defensive distillation configuration).
    label_smoothing:
        Optional label-smoothing factor applied to hard labels.
    """

    def __init__(self, temperature: float = 1.0, label_smoothing: float = 0.0) -> None:
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
        self.temperature = float(temperature)
        self.label_smoothing = float(label_smoothing)
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def _prepare_targets(self, targets: np.ndarray, n_classes: int) -> np.ndarray:
        targets = np.asarray(targets)
        if targets.ndim == 1:
            encoded = one_hot(targets, n_classes)
        elif targets.ndim == 2:
            if targets.shape[1] != n_classes:
                raise ShapeError(
                    f"soft targets must have {n_classes} columns, got {targets.shape[1]}"
                )
            encoded = targets.astype(np.float64)
        else:
            raise ShapeError(f"targets must be 1-D labels or 2-D soft labels, got {targets.shape}")
        if self.label_smoothing > 0:
            encoded = (1 - self.label_smoothing) * encoded + self.label_smoothing / n_classes
        return encoded

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(logits, dtype=float_dtype_of(logits))
        if logits.ndim != 2:
            raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
        encoded = self._prepare_targets(targets, logits.shape[1])
        if encoded.shape[0] != logits.shape[0]:
            raise ShapeError(
                f"targets have {encoded.shape[0]} rows but logits have {logits.shape[0]}"
            )
        probs = softmax(logits, temperature=self.temperature)
        self._probs = probs
        self._targets = encoded.astype(probs.dtype, copy=False)
        log_probs = np.log(np.clip(probs, 1e-12, 1.0))
        return float(-(encoded * log_probs).sum(axis=1).mean())

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        n = self._probs.shape[0]
        return (self._probs - self._targets) / (n * self.temperature)


class MeanSquaredError(Loss):
    """Mean squared error on raw network outputs (no softmax)."""

    def __init__(self) -> None:
        self._diff: np.ndarray | None = None

    def forward(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        outputs = np.asarray(outputs, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if outputs.shape != targets.shape:
            raise ShapeError(
                f"outputs shape {outputs.shape} does not match targets shape {targets.shape}"
            )
        self._diff = outputs - targets
        return float(np.mean(self._diff ** 2))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._diff / self._diff.size
