"""The compute dtype of the nn substrate.

Every hot path of the library (training mini-batches, JSMA Jacobian steps,
defense retraining) bottoms out in dense matmuls over numpy arrays.  The
seed implementation forced ``float64`` everywhere via
``np.asarray(..., dtype=np.float64)`` calls scattered through ``layers.py``,
``activations.py``, ``losses.py`` and ``network.py``.  This module makes the
dtype configurable:

* ``float64`` (the default) — bit-for-bit reproduction of the paper
  experiments; every table and figure is numerically identical to the
  reference outputs recorded in ``EXPERIMENTS.md``.
* ``float32`` (opt-in) — roughly halves memory bandwidth in the matmul-bound
  attack and training loops.  Attack success rates match the ``float64``
  engine within 1% (asserted by the test suite); use it for large sweeps
  where throughput matters more than digit-level reproducibility.

Select the dtype with the ``REPRO_DTYPE`` environment variable (``float64`` /
``float32``), with :func:`set_default_dtype`, or temporarily with the
:func:`use_dtype` context manager.  The dtype is applied when parameters are
*created*: networks built while a dtype is active compute in that dtype
(layers cast their inputs to the parameter dtype, so a ``float32`` network
runs ``float32`` end to end regardless of later engine changes).

Layers keep no output buffers: every result is a new array (an identity
layer hands back its input), so it stays valid across later passes through
the same network.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.exceptions import ConfigurationError

_ENV_DTYPE_VAR = "REPRO_DTYPE"

#: The dtypes the engine supports (the matmul-friendly IEEE float types).
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def resolve_dtype(dtype) -> np.dtype:
    """Normalise/validate a compute-dtype spec (``"float32"``/``"float64"``)."""
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        raise ConfigurationError(
            f"unsupported compute dtype {dtype!r}; expected one of "
            f"{[str(d) for d in SUPPORTED_DTYPES]}"
        ) from None
    if resolved not in SUPPORTED_DTYPES:
        raise ConfigurationError(
            f"unsupported compute dtype {dtype!r}; expected one of "
            f"{[str(d) for d in SUPPORTED_DTYPES]}"
        )
    return resolved


_dtype = resolve_dtype(os.environ.get(_ENV_DTYPE_VAR, "float64"))


def compute_dtype() -> np.dtype:
    """The current compute dtype."""
    return _dtype


def set_default_dtype(dtype) -> np.dtype:
    """Set the compute dtype for subsequently built networks; returns the old one."""
    global _dtype
    previous, _dtype = _dtype, resolve_dtype(dtype)
    return previous


def as_compute(x) -> np.ndarray:
    """Cast ``x`` to the current compute dtype (no copy when already right)."""
    return np.asarray(x, dtype=_dtype)


@contextmanager
def use_dtype(dtype) -> Iterator[np.dtype]:
    """Temporarily switch the compute dtype; yields the dtype in force.

    Networks built inside the block carry the dtype with them afterwards
    (it is baked into their parameters)::

        with use_dtype("float32"):
            network = NeuralNetwork.mlp([491, 96, 120, 104, 2], random_state=0)
        # `network` keeps computing in float32 here.
    """
    previous = set_default_dtype(dtype)
    try:
        yield _dtype
    finally:
        set_default_dtype(previous)


def float_dtype_of(x: np.ndarray) -> np.dtype:
    """The dtype an elementwise op should compute in for input ``x``.

    Keeps pure functions (softmax, losses) dtype-following: float inputs are
    processed in their own precision, anything else is promoted to the
    engine's compute dtype.
    """
    dtype = getattr(x, "dtype", None)
    if dtype is not None and np.dtype(dtype) in SUPPORTED_DTYPES:
        return np.dtype(dtype)
    return _dtype
