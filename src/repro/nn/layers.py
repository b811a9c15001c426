"""Trainable layers of the numpy neural-network substrate."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.engine import as_compute
from repro.nn.initializers import get_initializer
from repro.utils.rng import RandomState, as_rng


class Parameter:
    """A trainable tensor together with its accumulated gradient.

    Values are stored in the engine's compute dtype at construction time
    (see :mod:`repro.nn.engine`); all layer math follows the parameter dtype.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray) -> None:
        self.name = name
        self.value = as_compute(value)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad.fill(0.0)

    @property
    def shape(self) -> tuple:
        """Shape of the underlying value array."""
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`; layers with
    trainable state expose it through :meth:`parameters` and override
    :meth:`backward_input`.
    """

    #: Attributes a forward call leaves for the next backward.  They are
    #: per-call state: a pickled (or deep-copied) layer carries them as
    #: ``None``, so a network sent to a worker after scoring a large batch
    #: does not ship that batch's activations.
    _CACHES: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.training = False

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._CACHES:
            if name in state:
                state[name] = None
        return state

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for ``inputs``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and return the gradient w.r.t. inputs.

        Trainable layers also accumulate parameter gradients here.
        """
        raise NotImplementedError

    def backward_input(self, grad_output: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """Backpropagate ``grad_output`` to the inputs only.

        The input-gradient path (``class_gradients``, ``loss_input_gradient``):
        no parameter gradient is computed and ``Parameter.grad`` is left as
        it was.  A parameter-free layer's :meth:`backward` already is that;
        a layer with parameters must override this method, so that its
        :meth:`backward` is never run just to have its parameter gradients
        discarded.

        ``out``, when given, is a caller-owned array of the input gradient's
        shape and dtype: the gradient is written into it and ``out`` is
        returned.
        """
        if self.parameters():
            raise NotImplementedError(
                f"{type(self).__name__} has parameters but no input-only "
                f"backward_input()")
        grad = self.backward(grad_output)
        if out is None:
            return grad
        np.copyto(out, grad)
        return out

    def parameters(self) -> List[Parameter]:
        """Return this layer's trainable parameters (possibly empty)."""
        return []

    def output_dim(self, input_dim: int) -> int:
        """Return the output feature dimension given ``input_dim``."""
        raise NotImplementedError

    def get_config(self) -> dict:
        """Return a JSON-serialisable description of the layer."""
        return {"type": type(self).__name__}


class Dense(Layer):
    """Fully-connected layer: ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    weight_init:
        Name of the weight initializer (``he_normal`` by default, matching
        the ReLU hidden layers used by the paper's DNNs).
    random_state:
        Seed or generator for weight initialisation.
    """

    _CACHES = ("_inputs",)

    def __init__(self, in_features: int, out_features: int,
                 weight_init: str = "he_normal",
                 random_state: RandomState = None) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ShapeError(
                f"Dense dimensions must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight_init = weight_init
        rng = as_rng(random_state)
        init = get_initializer(weight_init)
        self.weight = Parameter("weight", init(self.in_features, self.out_features, rng))
        self.bias = Parameter("bias", np.zeros(self.out_features))
        self._inputs: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        weight = self.weight.value
        inputs = np.asarray(inputs, dtype=weight.dtype)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ShapeError(
                f"Dense layer expected input of shape (n, {self.in_features}), "
                f"got {inputs.shape}"
            )
        self._inputs = inputs
        out = inputs @ weight
        out += self.bias.value
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise RuntimeError("backward called before forward")
        weight = self.weight.value
        grad_output = np.asarray(grad_output, dtype=weight.dtype)
        self.weight.grad += self._inputs.T @ grad_output
        self.bias.grad += grad_output.sum(axis=0)
        return self.backward_input(grad_output)

    def backward_input(self, grad_output: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """``grad_output @ W.T`` alone: no weight or bias gradient.

        With ``out`` the product is written straight into the caller's array
        (one ``np.matmul(..., out=out)``, no copy; see
        :meth:`Layer.backward_input`).
        """
        if self._inputs is None:
            raise RuntimeError("backward called before forward")
        weight = self.weight.value
        grad_output = np.asarray(grad_output, dtype=weight.dtype)
        if out is None:
            return grad_output @ weight.T
        np.matmul(grad_output, weight.T, out=out)
        return out

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def output_dim(self, input_dim: int) -> int:
        if input_dim != self.in_features:
            raise ShapeError(
                f"Dense layer expects {self.in_features} input features, got {input_dim}"
            )
        return self.out_features

    def get_config(self) -> dict:
        return {
            "type": "Dense",
            "in_features": self.in_features,
            "out_features": self.out_features,
            "weight_init": self.weight_init,
        }


class Dropout(Layer):
    """Inverted dropout.

    During training each unit is zeroed with probability ``rate`` and the
    survivors are scaled by ``1 / (1 - rate)`` so that inference needs no
    rescaling.  At inference time the layer is the identity.
    """

    _CACHES = ("_mask",)

    def __init__(self, rate: float = 0.5, random_state: RandomState = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = as_rng(random_state)
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return inputs
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(inputs.shape) < keep) / keep
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def output_dim(self, input_dim: int) -> int:
        return input_dim

    def get_config(self) -> dict:
        return {"type": "Dropout", "rate": self.rate}
