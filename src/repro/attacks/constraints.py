"""The perturbation constraint set shared by every attack.

Section II-B of the paper fixes the threat model for API-count features:

* **add-only** — the attacker may only *add* API calls to the malware, never
  remove existing behaviour (removing calls could break functionality), so
  feature values may only increase;
* **box** — features live in ``[0, 1]`` after the count transformation;
* **budget** — ``gamma`` bounds the *fraction of features* that may be
  perturbed (``gamma * 491`` features) and ``theta`` bounds the magnitude
  added to each perturbed feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import N_FEATURES
from repro.exceptions import AttackError
from repro.utils.validation import check_fraction


@dataclass(frozen=True)
class PerturbationConstraints:
    """Constraint set for feature-space perturbations.

    Parameters
    ----------
    theta:
        Magnitude added to each perturbed feature (paper notation θ).
    gamma:
        Maximum fraction of features that may be perturbed (paper notation γ).
    add_only:
        Only allow feature increases (the API-addition threat model).
    clip_min, clip_max:
        Box constraints on feature values.
    feature_mask:
        Optional boolean mask of *modifiable* features (True = attacker may
        touch it).  Defaults to all features.
    """

    theta: float = 0.1
    gamma: float = 0.025
    add_only: bool = True
    clip_min: float = 0.0
    clip_max: float = 1.0
    feature_mask: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise AttackError(f"theta must be non-negative, got {self.theta}")
        check_fraction(self.gamma, "gamma")
        if self.clip_min >= self.clip_max:
            raise AttackError(
                f"clip_min must be < clip_max, got [{self.clip_min}, {self.clip_max}]"
            )
        if self.feature_mask is not None:
            mask = np.asarray(self.feature_mask, dtype=bool)
            if mask.ndim != 1:
                raise AttackError("feature_mask must be 1-D")
            if not mask.any():
                raise AttackError("feature_mask excludes every feature")
            object.__setattr__(self, "feature_mask", mask)

    def max_features(self, n_features: int = N_FEATURES) -> int:
        """Number of features the budget allows to be perturbed.

        The paper's operating points map γ to a feature count via
        ``round(gamma * n_features)`` (e.g. γ=0.025 → 12 features out of 491,
        γ=0.005 → 2 features).
        """
        return int(round(self.gamma * n_features))

    def modifiable_mask(self, n_features: int) -> np.ndarray:
        """Boolean mask of features the attacker may touch."""
        if self.feature_mask is None:
            return np.ones(n_features, dtype=bool)
        if self.feature_mask.shape[0] != n_features:
            raise AttackError(
                f"feature_mask has {self.feature_mask.shape[0]} entries for "
                f"{n_features} features"
            )
        return self.feature_mask

    def clip(self, features: np.ndarray) -> np.ndarray:
        """Project feature values back into the box."""
        return np.clip(features, self.clip_min, self.clip_max)

    def project(self, adversarial: np.ndarray, original: np.ndarray) -> np.ndarray:
        """Project an adversarial candidate onto the feasible set.

        Enforces the box constraint and, when ``add_only`` is set, the
        non-decrease constraint relative to ``original``.
        """
        adversarial = np.asarray(adversarial, dtype=np.float64)
        original = np.asarray(original, dtype=np.float64)
        if adversarial.shape != original.shape:
            raise AttackError(
                f"adversarial shape {adversarial.shape} does not match original "
                f"shape {original.shape}"
            )
        projected = self.clip(adversarial)
        if self.add_only:
            projected = np.maximum(projected, original)
        mask = self.modifiable_mask(original.shape[-1])
        projected = np.where(mask, projected, original)
        return projected

    def is_feasible(self, adversarial: np.ndarray, original: np.ndarray,
                    atol: float = 1e-9) -> bool:
        """Check feasibility (box, add-only, mask and feature budget)."""
        adversarial = np.atleast_2d(np.asarray(adversarial, dtype=np.float64))
        original = np.atleast_2d(np.asarray(original, dtype=np.float64))
        if adversarial.shape != original.shape:
            return False
        if adversarial.min() < self.clip_min - atol or adversarial.max() > self.clip_max + atol:
            return False
        delta = adversarial - original
        if self.add_only and delta.min() < -atol:
            return False
        mask = self.modifiable_mask(original.shape[-1])
        if np.any(np.abs(delta[:, ~mask]) > atol):
            return False
        changed = np.abs(delta) > atol
        budget = self.max_features(original.shape[-1])
        return bool(np.all(changed.sum(axis=1) <= budget))

    def with_strength(self, theta: Optional[float] = None,
                      gamma: Optional[float] = None) -> "PerturbationConstraints":
        """Copy with a different attack strength (used by sweep harnesses)."""
        return PerturbationConstraints(
            theta=self.theta if theta is None else theta,
            gamma=self.gamma if gamma is None else gamma,
            add_only=self.add_only,
            clip_min=self.clip_min,
            clip_max=self.clip_max,
            feature_mask=self.feature_mask,
        )
