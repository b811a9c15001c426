"""Input validation helpers shared across the library.

Validation errors surface as :class:`repro.exceptions.ShapeError` or
:class:`repro.exceptions.ConfigurationError` so that user mistakes are
reported with actionable messages instead of deep numpy tracebacks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError


def check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer ``>= minimum`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_fraction(value: float, name: str, inclusive_low: bool = True,
                   inclusive_high: bool = True) -> float:
    """Validate that ``value`` lies in the unit interval and return it."""
    if not isinstance(value, (int, float, np.floating, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number in [0, 1], got {value!r}")
    value = float(value)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok):
        raise ConfigurationError(f"{name} must lie in the unit interval, got {value}")
    return value


def check_matrix(x: np.ndarray, name: str = "X",
                 n_features: Optional[int] = None) -> np.ndarray:
    """Validate a 2-D float matrix ``(n_samples, n_features)`` and return it.

    1-D inputs are promoted to a single-row matrix, matching the convenience
    behaviour users expect when scoring a single sample.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D (n_samples, n_features), got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ShapeError(f"{name} must contain at least one sample")
    if n_features is not None and arr.shape[1] != n_features:
        raise ShapeError(
            f"{name} has {arr.shape[1]} features but {n_features} were expected"
        )
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains NaN or infinite values")
    return arr


def check_labels(y: np.ndarray, n_samples: Optional[int] = None,
                 name: str = "y", n_classes: int = 2) -> np.ndarray:
    """Validate an integer label vector in ``[0, n_classes)`` and return it."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    if n_samples is not None and arr.shape[0] != n_samples:
        raise ShapeError(
            f"{name} has {arr.shape[0]} entries but {n_samples} samples were provided"
        )
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.round(arr)):
            raise ShapeError(f"{name} must contain integer class labels")
        arr = arr.astype(np.int64)
    arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
        raise ShapeError(
            f"{name} must contain labels in [0, {n_classes}), "
            f"got range [{arr.min()}, {arr.max()}]"
        )
    return arr


def check_in_unit_interval(x: np.ndarray, name: str = "X", atol: float = 1e-9) -> np.ndarray:
    """Validate that every entry of ``x`` lies in ``[0, 1]`` (within ``atol``)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (arr.min() < -atol or arr.max() > 1.0 + atol):
        raise ShapeError(
            f"{name} must have entries in [0, 1]; observed range "
            f"[{arr.min():.6g}, {arr.max():.6g}]"
        )
    return np.clip(arr, 0.0, 1.0)


def check_probability_matrix(p: np.ndarray, name: str = "probabilities",
                             atol: float = 1e-6) -> np.ndarray:
    """Validate that rows of ``p`` are probability distributions."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if np.any(arr < -atol) or np.any(arr > 1 + atol):
        raise ShapeError(f"{name} entries must lie in [0, 1]")
    sums = arr.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=max(atol, 1e-4)):
        raise ShapeError(f"{name} rows must sum to 1 (max deviation {np.abs(sums - 1).max():.3g})")
    return arr
