"""The tensor compute engine: dtype configuration and buffer reuse.

Every hot path of the library (training mini-batches, JSMA Jacobian steps,
defense retraining) bottoms out in dense matmuls over numpy arrays.  This
module centralises two performance knobs that used to be hard-coded:

**Compute dtype.**  The seed implementation forced ``float64`` everywhere via
``np.asarray(..., dtype=np.float64)`` calls scattered through ``layers.py``,
``activations.py``, ``losses.py`` and ``network.py``.  The engine makes the
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

**Buffer reuse.**  When :attr:`TensorEngine.reuse_buffers` is enabled (the
default), :class:`~repro.nn.layers.Dense` writes its forward output, its
input-gradient and its weight-gradient scratch into preallocated per-layer
buffers (``np.matmul(..., out=...)``) instead of allocating fresh arrays on
every call, and the :class:`~repro.nn.training.Trainer` gathers mini-batches
into a reusable batch buffer.  The contract: an array returned by
``Dense.forward`` / ``Dense.backward`` / ``Dense.backward_input`` is only
valid until the *next* forward/backward pass through the same layer.
Public methods never hand back a layer buffer.  ``predict``,
``predict_proba`` and ``loss_input_gradient`` copy out of the buffers;
``class_gradients`` allocates its result and has the first layer write each
class row straight into it (``backward_input(..., out=row)``), so a row is
neither a buffer nor a copy of one.  The aliasing is therefore invisible
unless you call a layer directly and hold the result across passes — set
``get_engine().reuse_buffers = False`` for that.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

_ENV_DTYPE_VAR = "REPRO_DTYPE"

#: The dtypes the engine supports (the matmul-friendly IEEE float types).
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _resolve_dtype(dtype) -> np.dtype:
    """Normalise a dtype spec to one of the supported compute dtypes."""
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


def resolve_dtype(dtype) -> np.dtype:
    """Normalise/validate a compute-dtype spec (``"float32"``/``"float64"``)."""
    return _resolve_dtype(dtype)


def _env_default_dtype() -> np.dtype:
    return _resolve_dtype(os.environ.get(_ENV_DTYPE_VAR, "float64"))


class TensorEngine:
    """Compute configuration shared by the nn substrate.

    Parameters
    ----------
    dtype:
        Compute dtype (``float32`` or ``float64``).  Defaults to the
        ``REPRO_DTYPE`` environment variable, falling back to ``float64``.
    reuse_buffers:
        Whether layers and the trainer reuse preallocated output buffers
        (see the module docstring for the aliasing contract).
    """

    def __init__(self, dtype=None, reuse_buffers: bool = True) -> None:
        self.dtype = _env_default_dtype() if dtype is None else _resolve_dtype(dtype)
        self.reuse_buffers = bool(reuse_buffers)

    def asarray(self, x) -> np.ndarray:
        """View/cast ``x`` as a compute-dtype array (no copy when possible)."""
        return np.asarray(x, dtype=self.dtype)

    def empty(self, shape) -> np.ndarray:
        """Allocate an uninitialised compute-dtype array."""
        return np.empty(shape, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        """Allocate a zeroed compute-dtype array."""
        return np.zeros(shape, dtype=self.dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TensorEngine(dtype={self.dtype}, reuse_buffers={self.reuse_buffers})"


_engine = TensorEngine()


def get_engine() -> TensorEngine:
    """The process-wide engine instance."""
    return _engine


def set_engine(engine: TensorEngine) -> TensorEngine:
    """Replace the process-wide engine; returns the previous one."""
    global _engine
    previous, _engine = _engine, engine
    return previous


def compute_dtype() -> np.dtype:
    """The current compute dtype."""
    return _engine.dtype


def set_default_dtype(dtype) -> np.dtype:
    """Set the compute dtype for subsequently built networks; returns the old one."""
    previous = _engine.dtype
    _engine.dtype = _resolve_dtype(dtype)
    return previous


def as_compute(x) -> np.ndarray:
    """Cast ``x`` to the current compute dtype (no copy when already right)."""
    return np.asarray(x, dtype=_engine.dtype)


@contextmanager
def use_dtype(dtype) -> Iterator[TensorEngine]:
    """Temporarily switch the compute dtype.

    Networks built inside the block carry the dtype with them afterwards
    (it is baked into their parameters)::

        with use_dtype("float32"):
            network = NeuralNetwork.mlp([491, 96, 120, 104, 2], random_state=0)
        # `network` keeps computing in float32 here.
    """
    previous = set_default_dtype(dtype)
    try:
        yield _engine
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
    return _engine.dtype


def ensure_buffer(buf: Optional[np.ndarray], shape: Tuple[int, ...],
                  dtype: np.dtype) -> np.ndarray:
    """Return ``buf`` if it matches ``shape``/``dtype``, else a fresh buffer."""
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        return np.empty(shape, dtype=dtype)
    return buf
