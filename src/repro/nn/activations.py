"""Activation layers and the (temperature-scaled) softmax function.

Activations are implemented as :class:`~repro.nn.layers.Layer` subclasses so
that a network is simply an ordered list of layers; each stores the cache it
needs for its backward pass.
"""

from __future__ import annotations

import numpy as np

from repro.nn.engine import float_dtype_of
from repro.nn.layers import Layer


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Numerically stable softmax with distillation temperature.

    Parameters
    ----------
    logits:
        Array of shape ``(n_samples, n_classes)``.
    temperature:
        Softmax temperature ``T``.  ``T > 1`` (the paper uses ``T = 50`` for
        defensive distillation) smooths the output distribution.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    scaled = np.asarray(logits, dtype=float_dtype_of(logits)) / float(temperature)
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    exp = np.exp(scaled)
    return exp / exp.sum(axis=-1, keepdims=True)


def softmax_input_gradient(probabilities: np.ndarray, class_index: int,
                           temperature: float = 1.0) -> np.ndarray:
    """Gradient of ``softmax(z/T)[:, class_index]`` with respect to ``z``.

    Used when computing the per-class Jacobian that the JSMA saliency map is
    built on.  For ``p = softmax(z/T)``:

    ``d p_k / d z_j = (1/T) * p_k * (delta_kj - p_j)``
    """
    p = np.asarray(probabilities, dtype=float_dtype_of(probabilities))
    p_k = p[:, class_index:class_index + 1]
    grad = -p_k * p
    grad[:, class_index] += p_k[:, 0]
    return grad / float(temperature)


class ReLU(Layer):
    """Rectified linear unit: ``max(0, x)``."""

    _CACHES = ("_mask",)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = inputs > 0
        return np.where(self._mask, inputs, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._mask

    def output_dim(self, input_dim: int) -> int:
        return input_dim


class LeakyReLU(Layer):
    """Leaky ReLU with configurable negative slope."""

    _CACHES = ("_mask",)

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ValueError("negative_slope must be non-negative")
        self.negative_slope = float(negative_slope)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = inputs > 0
        return np.where(self._mask, inputs, self.negative_slope * inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_output, self.negative_slope * grad_output)

    def output_dim(self, input_dim: int) -> int:
        return input_dim

    def get_config(self) -> dict:
        config = super().get_config()
        config["negative_slope"] = self.negative_slope
        return config


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

    _CACHES = ("_out",)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        # Clip to avoid overflow in exp for extreme logits.
        self._out = 1.0 / (1.0 + np.exp(-np.clip(inputs, -60.0, 60.0)))
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._out * (1.0 - self._out)

    def output_dim(self, input_dim: int) -> int:
        return input_dim


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    _CACHES = ("_out",)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self._out = np.tanh(inputs)
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self._out ** 2)

    def output_dim(self, input_dim: int) -> int:
        return input_dim


ACTIVATIONS = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
}


def get_activation(name: str) -> Layer:
    """Instantiate an activation layer by name."""
    try:
        return ACTIVATIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; expected one of {sorted(ACTIVATIONS)}"
        ) from None
