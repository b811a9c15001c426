"""Mini-batch training loop with validation tracking and early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.engine import as_compute
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.network import NeuralNetwork
from repro.nn.optimizers import Adam, Optimizer
from repro.utils.rng import RandomState, as_rng


@dataclass
class TrainingHistory:
    """Per-epoch training curves."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)

    def best_epoch(self, monitor: str = "val_loss") -> int:
        """Index of the best epoch under ``monitor`` (lower-is-better for
        losses, higher-is-better for accuracies)."""
        values = getattr(self, monitor)
        if not values:
            raise ConfigurationError(f"history has no values for {monitor!r}")
        arr = np.asarray(values)
        return int(np.argmax(arr)) if monitor.endswith("accuracy") else int(np.argmin(arr))

    def as_dict(self) -> Dict[str, List[float]]:
        """Dictionary view of all curves."""
        return {
            "train_loss": list(self.train_loss),
            "train_accuracy": list(self.train_accuracy),
            "val_loss": list(self.val_loss),
            "val_accuracy": list(self.val_accuracy),
        }


class EarlyStopping:
    """Stop training when the monitored value stops improving.

    Parameters
    ----------
    patience:
        Number of epochs without improvement tolerated before stopping.
    min_delta:
        Minimum change that counts as an improvement.
    monitor:
        ``val_loss`` (default), ``train_loss``, ``val_accuracy`` or
        ``train_accuracy``.
    """

    def __init__(self, patience: int = 5, min_delta: float = 1e-4,
                 monitor: str = "val_loss") -> None:
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        if min_delta < 0:
            raise ConfigurationError(f"min_delta must be non-negative, got {min_delta}")
        if monitor not in ("val_loss", "train_loss", "val_accuracy", "train_accuracy"):
            raise ConfigurationError(f"unsupported monitor {monitor!r}")
        self.patience = patience
        self.min_delta = min_delta
        self.monitor = monitor
        self._best: Optional[float] = None
        self._stale_epochs = 0

    @property
    def maximize(self) -> bool:
        """Whether the monitored quantity should increase."""
        return self.monitor.endswith("accuracy")

    def update(self, value: float) -> bool:
        """Record the latest value; return True when training should stop."""
        if self._best is None:
            self._best = value
            return False
        improved = (value > self._best + self.min_delta if self.maximize
                    else value < self._best - self.min_delta)
        if improved:
            self._best = value
            self._stale_epochs = 0
        else:
            self._stale_epochs += 1
        return self._stale_epochs >= self.patience


class Trainer:
    """Mini-batch gradient-descent trainer for :class:`NeuralNetwork`.

    Parameters
    ----------
    network:
        The network to train (modified in place).
    optimizer:
        Any :class:`~repro.nn.optimizers.Optimizer`; defaults to Adam with
        the paper's learning rate of ``1e-3``.
    loss:
        The training loss; defaults to temperature-1 softmax cross-entropy.
    batch_size, epochs:
        Mini-batch size and number of passes over the training data (the
        paper uses batch size 256).
    shuffle:
        Whether to reshuffle the training data every epoch.
    early_stopping:
        Optional :class:`EarlyStopping` policy (requires validation data when
        monitoring a validation quantity).
    random_state:
        Seed controlling shuffling.
    """

    def __init__(self, network: NeuralNetwork, optimizer: Optional[Optimizer] = None,
                 loss: Optional[SoftmaxCrossEntropy] = None, batch_size: int = 256,
                 epochs: int = 10, shuffle: bool = True,
                 early_stopping: Optional[EarlyStopping] = None,
                 random_state: RandomState = None,
                 epoch_callback: Optional[Callable[[int, TrainingHistory], None]] = None) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        self.network = network
        self.optimizer = optimizer if optimizer is not None else Adam(learning_rate=1e-3)
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.shuffle = bool(shuffle)
        self.early_stopping = early_stopping
        self.epoch_callback = epoch_callback
        self._rng = as_rng(random_state)

    def _validate_inputs(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Cast to the compute dtype once up front so per-batch slices need no
        # dtype conversion inside the epoch loop.
        x = as_compute(x)
        y = np.asarray(y)
        if x.ndim != 2:
            raise ShapeError(f"training inputs must be 2-D, got shape {x.shape}")
        if y.shape[0] != x.shape[0]:
            raise ShapeError(
                f"targets have {y.shape[0]} rows but inputs have {x.shape[0]}"
            )
        return x, y

    def fit(self, x_train: np.ndarray, y_train: np.ndarray,
            x_val: Optional[np.ndarray] = None,
            y_val: Optional[np.ndarray] = None) -> TrainingHistory:
        """Train the network and return per-epoch history.

        ``y_train`` may be integer labels or soft-label rows (the latter is
        how defensive distillation trains the distilled model).
        """
        x_train, y_train = self._validate_inputs(x_train, y_train)
        has_val = x_val is not None and y_val is not None
        if self.early_stopping is not None and self.early_stopping.monitor.startswith("val") \
                and not has_val:
            raise ConfigurationError(
                "early stopping monitors a validation quantity but no validation data was given"
            )
        history = TrainingHistory()
        n_samples = x_train.shape[0]
        indices = np.arange(n_samples)
        hard_labels = y_train if y_train.ndim == 1 else np.argmax(y_train, axis=1)

        for epoch in range(self.epochs):
            if self.shuffle:
                self._rng.shuffle(indices)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n_samples, self.batch_size):
                batch_idx = indices[start:start + self.batch_size]
                batch_loss = self.network.train_step(
                    x_train[batch_idx], y_train[batch_idx], self.loss, self.optimizer)
                epoch_loss += batch_loss
                n_batches += 1
            history.train_loss.append(epoch_loss / max(n_batches, 1))
            history.train_accuracy.append(
                accuracy(hard_labels, self.network.predict(x_train)))
            if has_val:
                val_logits = self.network.predict_logits(x_val)
                val_loss = SoftmaxCrossEntropy(temperature=self.loss.temperature)
                history.val_loss.append(val_loss.forward(val_logits, np.asarray(y_val)))
                val_hard = np.asarray(y_val)
                if val_hard.ndim == 2:
                    val_hard = np.argmax(val_hard, axis=1)
                history.val_accuracy.append(
                    accuracy(val_hard, np.argmax(val_logits, axis=1)))
            if self.epoch_callback is not None:
                self.epoch_callback(epoch, history)
            if self.early_stopping is not None:
                monitored = getattr(history, self.early_stopping.monitor)[-1]
                if self.early_stopping.update(monitored):
                    break
        return history
