"""The :class:`NeuralNetwork` container.

A network is an ordered list of layers ending in a linear (logit) layer; the
softmax lives in the loss / prediction functions so the same logits can be
re-used with different distillation temperatures.  Besides the usual
``fit``-adjacent plumbing (delegated to :class:`repro.nn.training.Trainer`),
the container exposes the *input-gradient* machinery the attacks need:

* :meth:`class_gradients` — the Jacobian ``dF_i(x)/dx_j`` of the softmax
  output with respect to the input, i.e. Equation (1) of the paper, which the
  JSMA saliency map is computed from;
* :meth:`loss_input_gradient` — gradient of the training loss w.r.t. the
  input, used by FGSM and by gradient-based data augmentation in the
  black-box framework.
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import SerializationError, ShapeError
from repro.nn.activations import ACTIVATIONS, get_activation, softmax, softmax_input_gradient
from repro.nn.engine import SUPPORTED_DTYPES
from repro.nn.layers import Dense, Dropout, Layer, Parameter
from repro.nn.losses import SoftmaxCrossEntropy
from repro.utils.rng import RandomState, spawn_rngs
from repro.utils.serialization import load_bundle, save_bundle


class NeuralNetwork:
    """A feed-forward network (multi-layer perceptron).

    Parameters
    ----------
    layers:
        Ordered list of layers.  The final layer's output is interpreted as
        class logits.
    n_classes:
        Number of output classes (2 throughout the paper: clean vs malware).
    temperature:
        Default softmax temperature used by :meth:`predict_proba`; defensive
        distillation trains with ``T = 50`` and predicts with ``T = 1``.
    name:
        Human-readable model name, recorded in serialized bundles.
    """

    def __init__(self, layers: Sequence[Layer], n_classes: int = 2,
                 temperature: float = 1.0, name: str = "network") -> None:
        if not layers:
            raise ShapeError("a network needs at least one layer")
        if n_classes < 2:
            raise ShapeError(f"n_classes must be >= 2, got {n_classes}")
        self.layers: List[Layer] = list(layers)
        self.n_classes = int(n_classes)
        self.temperature = float(temperature)
        self.name = name

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def mlp(cls, layer_sizes: Sequence[int], activation: str = "relu",
            dropout: float = 0.0, temperature: float = 1.0,
            name: str = "mlp", random_state: RandomState = None) -> "NeuralNetwork":
        """Build a fully-connected network from ``layer_sizes``.

        ``layer_sizes`` includes the input dimension and the output (class)
        dimension, e.g. Table IV's substitute model is
        ``[491, 1200, 1500, 1300, 2]``.  Hidden layers use ``activation`` and
        optional dropout; the final Dense layer produces logits.
        """
        if len(layer_sizes) < 2:
            raise ShapeError("layer_sizes must contain at least input and output sizes")
        if activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; expected one of {sorted(ACTIVATIONS)}"
            )
        rngs = spawn_rngs(random_state, 2 * (len(layer_sizes) - 1))
        layers: List[Layer] = []
        rng_index = 0
        for i in range(len(layer_sizes) - 1):
            is_output = i == len(layer_sizes) - 2
            init = "xavier_uniform" if is_output or activation in ("tanh", "sigmoid") else "he_normal"
            layers.append(Dense(layer_sizes[i], layer_sizes[i + 1],
                                weight_init=init, random_state=rngs[rng_index]))
            rng_index += 1
            if not is_output:
                layers.append(get_activation(activation))
                if dropout > 0:
                    layers.append(Dropout(dropout, random_state=rngs[rng_index]))
                rng_index += 1
        return cls(layers, n_classes=layer_sizes[-1], temperature=temperature, name=name)

    @property
    def input_dim(self) -> int:
        """Input feature dimension (taken from the first Dense layer)."""
        for layer in self.layers:
            if isinstance(layer, Dense):
                return layer.in_features
        raise ShapeError("network has no Dense layer")

    @property
    def layer_sizes(self) -> List[int]:
        """The Dense layer sizes, e.g. ``[491, 1200, 1500, 1300, 2]``."""
        sizes: List[int] = []
        for layer in self.layers:
            if isinstance(layer, Dense):
                if not sizes:
                    sizes.append(layer.in_features)
                sizes.append(layer.out_features)
        return sizes

    def parameters(self) -> List[Parameter]:
        """Every trainable parameter in layer order."""
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def n_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.value.size for p in self.parameters()))

    def zero_grad(self) -> None:
        """Clear all accumulated parameter gradients."""
        for param in self.parameters():
            param.zero_grad()

    def clone(self) -> "NeuralNetwork":
        """Deep-copy the network (weights and configuration)."""
        return copy.deepcopy(self)

    # ------------------------------------------------------------------ #
    # Forward / prediction
    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run a forward pass and return logits of shape ``(n, n_classes)``.

        The compute dtype follows the layer parameters (fixed when the
        network was built, see :mod:`repro.nn.engine`).
        """
        out = np.asarray(inputs)
        if out.ndim == 1:
            out = out.reshape(1, -1)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict_logits(self, inputs: np.ndarray) -> np.ndarray:
        """Logits in inference mode (:meth:`forward` with ``training=False``)."""
        return self.forward(inputs, training=False)

    def predict_proba(self, inputs: np.ndarray,
                      temperature: Optional[float] = None) -> np.ndarray:
        """Class probabilities ``softmax(logits / T)``."""
        temp = self.temperature if temperature is None else temperature
        return softmax(self.predict_logits(inputs), temperature=temp)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return np.argmax(self.predict_logits(inputs), axis=1)

    def malware_score(self, inputs: np.ndarray) -> np.ndarray:
        """Probability assigned to the malware class (class 1).

        This is the "confidence" the paper's live grey-box experiment tracks
        as API calls are added to the source sample.
        """
        return self.predict_proba(inputs)[:, 1]

    # ------------------------------------------------------------------ #
    # Backward passes
    # ------------------------------------------------------------------ #
    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Backpropagate a gradient w.r.t. the logits through every layer.

        Returns the gradient with respect to the network input.  Parameter
        gradients are accumulated as a side effect (the training path);
        :meth:`backward_input` is the input-gradient-only pass.
        """
        grad = np.asarray(grad_logits)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def backward_input(self, grad_logits: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """Backpropagate to the input only, through every layer.

        Computes no parameter gradient and leaves every ``Parameter.grad``
        as it was.  With ``out`` the first layer writes the input gradient
        straight into that caller-owned array (:meth:`Layer.backward_input`),
        which is returned.
        """
        grad = np.asarray(grad_logits)
        for layer in self.layers[:0:-1]:
            grad = layer.backward_input(grad)
        return self.layers[0].backward_input(grad, out=out)

    def train_step(self, inputs: np.ndarray, targets: np.ndarray,
                   loss: SoftmaxCrossEntropy, optimizer) -> float:
        """One optimisation step on a mini-batch; returns the batch loss."""
        logits = self.forward(inputs, training=True)
        value = loss.forward(logits, targets)
        self.backward(loss.backward())
        optimizer.step(self.parameters())
        return value

    def class_gradients(self, inputs: np.ndarray,
                        temperature: Optional[float] = None,
                        fused: Optional[bool] = None,
                        return_probs: bool = False,
                        class_index: Optional[int] = None):
        """Jacobian of the softmax output w.r.t. the input (Equation 1).

        Returns an array of shape ``(n_samples, n_classes, n_features)``
        where entry ``[s, i, j]`` is ``dF_i(x_s) / dx_j`` with
        ``F = softmax(logits / T)``.

        For binary classifiers the softmax rows sum to 1, so
        ``dF_0/dx == -dF_1/dx`` and the full Jacobian needs only ONE backward
        pass — this fused path halves the per-step backward cost of JSMA.
        Row 1 is then the exact negation of row 0, bit for bit.
        ``fused=None`` (the default) selects it automatically when
        ``n_classes == 2``; pass ``fused=False`` to force the per-class loop
        (used by the verification tests and benchmarks).

        Every backward pass is input-only (:meth:`backward_input`): no
        parameter gradient is computed, and ``Parameter.grad`` is untouched.
        The result is a transposed view of a contiguous
        ``(n_classes, n_samples, n_features)`` block, so each class row
        ``jacobian[:, i, :]`` is one contiguous array.  Each row's backward
        writes straight into its slice of the block (``out=``), so nothing
        is copied.

        ``class_index=k`` returns only row ``k``, as a fresh contiguous
        ``(n_samples, n_features)`` array bitwise equal to
        ``class_gradients(inputs)[:, k, :]`` under the same ``fused``
        setting.  For a fused binary network that is one backward pass
        (plus an in-place negation for ``k = 1``); otherwise it is the one
        backward pass of class ``k``.  The binary JSMA step needs nothing
        else.

        With ``return_probs=True`` the softmax probabilities from the forward
        pass are returned alongside the Jacobian, letting attack loops reuse
        them for early-stop predictions instead of running a second forward
        pass.
        """
        temp = self.temperature if temperature is None else temperature
        if class_index is not None and not 0 <= class_index < self.n_classes:
            raise ShapeError(
                f"class_index must be in [0, {self.n_classes}), got {class_index}")
        inputs = np.asarray(inputs)
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        logits = self.forward(inputs, training=False)
        probs = softmax(logits, temperature=temp)
        use_fused = self.n_classes == 2 if fused is None else (fused and self.n_classes == 2)
        # One forward serves every class: backward_input() leaves the layer
        # caches as they are.
        if class_index is not None:
            result = np.empty(inputs.shape, dtype=probs.dtype)
            self.backward_input(
                softmax_input_gradient(probs, 0 if use_fused else class_index,
                                       temperature=temp), out=result)
            if use_fused and class_index == 1:
                np.negative(result, out=result)
        else:
            block = np.empty((self.n_classes,) + inputs.shape, dtype=probs.dtype)
            for index in range(1 if use_fused else self.n_classes):
                self.backward_input(
                    softmax_input_gradient(probs, index, temperature=temp),
                    out=block[index])
            if use_fused:
                np.negative(block[0], out=block[1])
            result = block.transpose(1, 0, 2)
        if return_probs:
            return result, probs
        return result

    def loss_input_gradient(self, inputs: np.ndarray, labels: np.ndarray,
                            temperature: Optional[float] = None) -> np.ndarray:
        """Gradient of the cross-entropy loss w.r.t. the input (for FGSM)."""
        temp = self.temperature if temperature is None else temperature
        loss = SoftmaxCrossEntropy(temperature=temp)
        logits = self.forward(inputs, training=False)
        loss.forward(logits, labels)
        return self.backward_input(loss.backward())

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def get_config(self) -> dict:
        """JSON-serialisable architecture description."""
        return {
            "name": self.name,
            "n_classes": self.n_classes,
            "temperature": self.temperature,
            "layers": [layer.get_config() for layer in self.layers],
        }

    def save(self, path: str | Path) -> Path:
        """Persist architecture + weights to directory ``path``."""
        arrays = {}
        for index, layer in enumerate(self.layers):
            for param in layer.parameters():
                arrays[f"layer{index}_{param.name}"] = param.value
        return save_bundle(path, self.get_config(), arrays)

    @classmethod
    def load(cls, path: str | Path) -> "NeuralNetwork":
        """Restore a network saved with :meth:`save`."""
        meta, arrays = load_bundle(path)
        layers: List[Layer] = []
        for config in meta["layers"]:
            layer_type = config.get("type")
            if layer_type == "Dense":
                layers.append(Dense(config["in_features"], config["out_features"],
                                    weight_init=config.get("weight_init", "he_normal"),
                                    random_state=0))
            elif layer_type == "Dropout":
                layers.append(Dropout(config["rate"]))
            elif layer_type == "LeakyReLU":
                from repro.nn.activations import LeakyReLU
                layers.append(LeakyReLU(config.get("negative_slope", 0.01)))
            elif layer_type in ("ReLU", "Sigmoid", "Tanh"):
                layers.append(get_activation(layer_type.lower()))
            else:
                raise SerializationError(f"unknown layer type {layer_type!r} in bundle")
        network = cls(layers, n_classes=meta["n_classes"],
                      temperature=meta.get("temperature", 1.0),
                      name=meta.get("name", "network"))
        for index, layer in enumerate(network.layers):
            for param in layer.parameters():
                key = f"layer{index}_{param.name}"
                if key not in arrays:
                    raise SerializationError(f"missing weight array {key!r} in bundle")
                if arrays[key].shape != param.value.shape:
                    raise SerializationError(
                        f"weight {key!r} has shape {arrays[key].shape}, "
                        f"expected {param.value.shape}"
                    )
                saved = arrays[key]
                # A checkpoint carries its compute dtype with it: float32
                # bundles restore as float32 regardless of the current engine
                # default (non-float payloads fall back to the engine dtype).
                dtype = saved.dtype if saved.dtype in SUPPORTED_DTYPES else param.value.dtype
                param.value = saved.astype(dtype)
                param.grad = np.zeros_like(param.value)
        return network

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NeuralNetwork(name={self.name!r}, sizes={self.layer_sizes}, "
                f"parameters={self.n_parameters()})")
