"""First-order optimisers for the numpy substrate.

The paper trains the substitute model with Adam (learning rate ``1e-3``,
batch size 256); :class:`Adam` reproduces that configuration.  Plain
:class:`SGD` and :class:`Momentum` are provided for ablations.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.nn.layers import Parameter


class Optimizer:
    """Base class: subclasses implement :meth:`update` for a single parameter."""

    def __init__(self, learning_rate: float = 1e-3, weight_decay: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self._state: Dict[int, dict] = {}
        self.iterations = 0

    def state_for(self, param: Parameter) -> dict:
        """Return (and lazily create) the per-parameter optimiser state."""
        key = id(param)
        if key not in self._state:
            self._state[key] = self._init_state(param)
        return self._state[key]

    def _init_state(self, param: Parameter) -> dict:
        return {}

    def step(self, parameters: Sequence[Parameter]) -> None:
        """Apply one update to every parameter, then clear its gradient."""
        self.iterations += 1
        for param in parameters:
            grad = param.grad
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * param.value
            self.update(param, grad)
            param.zero_grad()

    def update(self, param: Parameter, grad: np.ndarray) -> None:
        """Update ``param.value`` in place given ``grad``."""
        raise NotImplementedError

    def get_config(self) -> dict:
        """Return a serialisable description of the optimiser."""
        return {
            "type": type(self).__name__,
            "learning_rate": self.learning_rate,
            "weight_decay": self.weight_decay,
        }


class SGD(Optimizer):
    """Vanilla stochastic gradient descent."""

    def update(self, param: Parameter, grad: np.ndarray) -> None:
        param.value -= self.learning_rate * grad


class Momentum(Optimizer):
    """SGD with classical momentum."""

    def __init__(self, learning_rate: float = 1e-2, momentum: float = 0.9,
                 weight_decay: float = 0.0) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)

    def _init_state(self, param: Parameter) -> dict:
        return {"velocity": np.zeros_like(param.value)}

    def update(self, param: Parameter, grad: np.ndarray) -> None:
        state = self.state_for(param)
        state["velocity"] = self.momentum * state["velocity"] - self.learning_rate * grad
        param.value += state["velocity"]

    def get_config(self) -> dict:
        config = super().get_config()
        config["momentum"] = self.momentum
        return config


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got ({beta1}, {beta2})")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)

    def _init_state(self, param: Parameter) -> dict:
        return {
            "m": np.zeros_like(param.value),
            "v": np.zeros_like(param.value),
            "t": 0,
        }

    def update(self, param: Parameter, grad: np.ndarray) -> None:
        state = self.state_for(param)
        state["t"] += 1
        state["m"] = self.beta1 * state["m"] + (1 - self.beta1) * grad
        state["v"] = self.beta2 * state["v"] + (1 - self.beta2) * grad ** 2
        m_hat = state["m"] / (1 - self.beta1 ** state["t"])
        v_hat = state["v"] / (1 - self.beta2 ** state["t"])
        param.value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def get_config(self) -> dict:
        config = super().get_config()
        config.update({"beta1": self.beta1, "beta2": self.beta2, "epsilon": self.epsilon})
        return config


OPTIMIZERS = {"sgd": SGD, "momentum": Momentum, "adam": Adam}


def get_optimizer(name: str, **kwargs) -> Optimizer:
    """Instantiate an optimiser by name."""
    try:
        cls = OPTIMIZERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; expected one of {sorted(OPTIMIZERS)}"
        ) from None
    return cls(**kwargs)
