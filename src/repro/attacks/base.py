"""Attack interface and the :class:`AttackResult` container."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.attacks.constraints import PerturbationConstraints
from repro.config import CLASS_CLEAN
from repro.exceptions import AttackError
from repro.nn.metrics import detection_rate
from repro.nn.network import NeuralNetwork
from repro.utils.validation import check_matrix


@dataclass
class AttackResult:
    """Everything an attack run produces.

    Attributes
    ----------
    original:
        The unmodified feature matrix ``(n, d)``.
    adversarial:
        The perturbed feature matrix ``(n, d)``.
    original_predictions / adversarial_predictions:
        Hard decisions of the *crafting* model before / after the attack.
    perturbed_features:
        Number of features changed per sample.
    constraints:
        The constraint set the attack ran under.
    attack_name:
        Name of the attack that produced the result.
    iterations:
        Per-sample number of attack iterations (when meaningful).
    """

    original: np.ndarray
    adversarial: np.ndarray
    original_predictions: np.ndarray
    adversarial_predictions: np.ndarray
    perturbed_features: np.ndarray
    constraints: PerturbationConstraints
    attack_name: str = "attack"
    iterations: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.original = check_matrix(self.original, name="original")
        self.adversarial = check_matrix(self.adversarial, name="adversarial",
                                        n_features=self.original.shape[1])
        if self.adversarial.shape[0] != self.original.shape[0]:
            raise AttackError("original and adversarial have different sample counts")

    @property
    def n_samples(self) -> int:
        """Number of attacked samples."""
        return self.original.shape[0]

    @property
    def evasion_mask(self) -> np.ndarray:
        """Boolean mask of samples classified clean (class 0) after the attack."""
        return self.adversarial_predictions == CLASS_CLEAN

    @property
    def evasion_rate(self) -> float:
        """Fraction of samples that evade the crafting model."""
        return float(np.mean(self.evasion_mask))

    @property
    def detection_rate(self) -> float:
        """Fraction of adversarial samples still detected by the crafting model."""
        return detection_rate(self.adversarial_predictions)

    @property
    def l2_distances(self) -> np.ndarray:
        """Per-sample L2 norm of the perturbation (paper's perturbation metric)."""
        return np.linalg.norm(self.adversarial - self.original, axis=1)

    @property
    def mean_l2_distance(self) -> float:
        """Mean perturbation L2 norm."""
        return float(np.mean(self.l2_distances))

    @property
    def mean_perturbed_features(self) -> float:
        """Mean number of features changed per sample."""
        return float(np.mean(self.perturbed_features))

    def detection_rate_under(self, model: NeuralNetwork) -> float:
        """Detection rate of an arbitrary model on the adversarial examples.

        Passing the *target* model here is exactly the grey-box evaluation:
        examples were crafted on the substitute, scored on the target.
        """
        return detection_rate(model.predict(self.adversarial))

    def transfer_rate_to(self, model: NeuralNetwork) -> float:
        """Transfer rate onto ``model`` (1 - its detection rate), per Section III-B."""
        return 1.0 - self.detection_rate_under(model)

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by experiment drivers."""
        return {
            "n_samples": float(self.n_samples),
            "evasion_rate": self.evasion_rate,
            "detection_rate": self.detection_rate,
            "mean_l2_distance": self.mean_l2_distance,
            "mean_perturbed_features": self.mean_perturbed_features,
            "theta": self.constraints.theta,
            "gamma": self.constraints.gamma,
        }


class Attack:
    """Base class for evasion attacks operating on feature vectors.

    Subclasses implement :meth:`run` and must respect the constraint set
    (``self.constraints.project`` / the add-only threat model).
    """

    name = "attack"

    #: Whether :meth:`run` accepts a
    #: :class:`~repro.attacks.trajectory.TrajectoryRecorder` and produces a
    #: budget-sliceable perturbation log (the γ-sweep replay contract).
    supports_trajectory = False

    def __init__(self, network: NeuralNetwork,
                 constraints: Optional[PerturbationConstraints] = None) -> None:
        self.network = network
        self.constraints = constraints if constraints is not None else PerturbationConstraints()
        self._primed_original: Optional[np.ndarray] = None
        self._primed_original_predictions: Optional[np.ndarray] = None

    def run(self, features: np.ndarray) -> AttackResult:
        """Craft adversarial examples for ``features`` (malware rows)."""
        raise NotImplementedError

    def prime_original_predictions(self, original: np.ndarray,
                                   predictions: np.ndarray) -> None:
        """Provide precomputed crafting-model predictions for ``original``.

        Sweep harnesses and the scenario engine attack the *same* malware
        matrix many times; predicting it once and priming every attack stops
        :meth:`_package` from re-running an identical forward pass per run.
        The cache is matched by object identity, so a run over a different
        matrix silently falls back to a fresh predict.
        """
        original = np.asarray(original)
        predictions = np.asarray(predictions)
        if predictions.shape[0] != original.shape[0]:
            raise AttackError(
                f"got {predictions.shape[0]} primed predictions for "
                f"{original.shape[0]} samples")
        self._primed_original = original
        self._primed_original_predictions = predictions

    def _original_predictions_for(self, original: np.ndarray) -> np.ndarray:
        """Primed predictions when they match ``original``, else a predict."""
        if (self._primed_original_predictions is not None
                and original is self._primed_original):
            return self._primed_original_predictions
        return self.network.predict(original)

    def _package(self, original: np.ndarray, adversarial: np.ndarray,
                 iterations: Optional[np.ndarray] = None,
                 original_predictions: Optional[np.ndarray] = None) -> AttackResult:
        """Build an :class:`AttackResult`, computing predictions and deltas.

        ``original_predictions`` (or a matrix previously registered through
        :meth:`prime_original_predictions`) skips the redundant forward pass
        over the unmodified inputs.
        """
        changed = np.abs(adversarial - original) > 1e-12
        if original_predictions is None:
            original_predictions = self._original_predictions_for(original)
        return AttackResult(
            original=original,
            adversarial=adversarial,
            original_predictions=original_predictions,
            adversarial_predictions=self.network.predict(adversarial),
            perturbed_features=changed.sum(axis=1).astype(np.int64),
            constraints=self.constraints,
            attack_name=self.name,
            iterations=iterations,
        )
