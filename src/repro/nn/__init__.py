"""From-scratch numpy neural-network substrate.

The paper trains its detector and substitute models with a standard deep
learning stack (and crafts JSMA adversarial examples with CleverHans).
Neither TensorFlow nor PyTorch is available offline here, so this package
re-implements the pieces those experiments need:

* fully-connected layers with He/Xavier initialisation (:mod:`layers`),
* ReLU / sigmoid / tanh activations (:mod:`activations`),
* temperature-scaled softmax cross-entropy with hard *or soft* labels —
  soft labels are what defensive distillation trains on (:mod:`losses`),
* SGD, momentum and Adam optimisers (:mod:`optimizers`),
* a :class:`~repro.nn.network.NeuralNetwork` container exposing
  prediction, class-probability output, loss/backprop, *input* gradients and
  the per-class Jacobian that JSMA's saliency map is built from,
* a mini-batch :class:`~repro.nn.training.Trainer` with validation tracking
  and early stopping,
* classification metrics (confusion matrix, TPR/TNR/FPR/FNR, ROC/AUC)
  (:mod:`metrics`),
* the compute dtype of every hot path (:mod:`engine`).

Layers keep no output buffers: every result is a new array (an identity
layer hands back its input), so it stays valid across later passes.

``float64`` is the default compute dtype and reproduces the reference
experiment outputs digit for digit; set ``REPRO_DTYPE=float32`` (or call
:func:`~repro.nn.engine.set_default_dtype` / use the
:func:`~repro.nn.engine.use_dtype` context manager) before building a
network to roughly halve memory bandwidth in attack/training loops at the
cost of low-order digits (attack success rates agree within 1%).  Binary
networks additionally use a fused single-backward Jacobian in
:meth:`NeuralNetwork.class_gradients` — softmax rows sum to 1, so
``dF_clean/dx == -dF_malware/dx`` and one backward pass yields both rows.
"""

from repro.nn.activations import LeakyReLU, ReLU, Sigmoid, Tanh, softmax
from repro.nn.engine import as_compute, compute_dtype, set_default_dtype, use_dtype
from repro.nn.initializers import he_normal, xavier_uniform, zeros_init
from repro.nn.layers import Dense, Dropout, Layer, Parameter
from repro.nn.losses import Loss, MeanSquaredError, SoftmaxCrossEntropy
from repro.nn.metrics import (
    ClassificationReport,
    accuracy,
    confusion_matrix,
    detection_rate,
    rates_from_confusion,
    roc_auc,
    roc_curve,
)
from repro.nn.network import NeuralNetwork
from repro.nn.optimizers import SGD, Adam, Momentum, Optimizer
from repro.nn.training import EarlyStopping, Trainer, TrainingHistory

__all__ = [
    "ReLU", "LeakyReLU", "Sigmoid", "Tanh", "softmax",
    "compute_dtype", "set_default_dtype", "use_dtype", "as_compute",
    "he_normal", "xavier_uniform", "zeros_init",
    "Layer", "Dense", "Dropout", "Parameter",
    "Loss", "SoftmaxCrossEntropy", "MeanSquaredError",
    "accuracy", "confusion_matrix", "rates_from_confusion", "detection_rate",
    "roc_curve", "roc_auc", "ClassificationReport",
    "NeuralNetwork",
    "Optimizer", "SGD", "Momentum", "Adam",
    "Trainer", "TrainingHistory", "EarlyStopping",
]
