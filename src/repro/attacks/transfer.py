"""Grey-box transfer harness: craft on a substitute, replay on the target.

Section II-B-2: the transferability of adversarial examples is what makes
grey-box and black-box attacks possible — examples crafted against the
attacker's substitute model remain adversarial for the (different) target
model.  :class:`TransferAttack` packages that workflow and reports both
models' detection rates plus the transfer rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.exceptions import AttackError
from repro.nn.metrics import detection_rate
from repro.nn.network import NeuralNetwork
from repro.utils.validation import check_matrix


@dataclass
class TransferResult:
    """The outcome of one transfer attack at one operating point."""

    attack_result: AttackResult
    substitute_detection_rate: float
    target_detection_rate: float
    target_detection_rate_original: float

    @property
    def transfer_rate(self) -> float:
        """Paper definition: 1 - target detection rate on adversarial examples."""
        return 1.0 - self.target_detection_rate

    @property
    def evaded_count(self) -> int:
        """Number of adversarial samples the target classifies as clean."""
        return int(round(self.transfer_rate * self.attack_result.n_samples))

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary for experiment tables."""
        summary = self.attack_result.summary()
        summary.update({
            "substitute_detection_rate": self.substitute_detection_rate,
            "target_detection_rate": self.target_detection_rate,
            "target_detection_rate_original": self.target_detection_rate_original,
            "transfer_rate": self.transfer_rate,
        })
        return summary


class TransferAttack:
    """Craft adversarial examples on ``attack.network``, evaluate on ``target``.

    Parameters
    ----------
    attack:
        Any configured :class:`~repro.attacks.base.Attack` whose network is
        the attacker's substitute (or the target itself for the white-box
        sanity case).
    target:
        The deployed model the examples are replayed against.  The target may
        consume a *different* featurisation than the substitute; pass
        ``target_features`` to :meth:`run` in that case (second grey-box
        experiment, binary substitute features vs count target features).
    """

    def __init__(self, attack: Attack, target: NeuralNetwork) -> None:
        self.attack = attack
        self.target = target

    def run(self, substitute_features: np.ndarray,
            target_features: Optional[np.ndarray] = None) -> TransferResult:
        """Execute the transfer attack on a batch of malware samples.

        Parameters
        ----------
        substitute_features:
            Malware features in the *substitute's* feature space (what the
            attack perturbs).
        target_features:
            The same malware samples in the *target's* feature space.  When
            omitted the two spaces are assumed identical (first grey-box
            experiment) and the perturbed features are replayed directly.
            When provided, the perturbation crafted in the substitute space
            is transplanted onto the target-space features: the same feature
            indices are increased by the same amounts (clipped to the box),
            which models "add the same API calls to the sample".
        """
        substitute_features = check_matrix(substitute_features, name="substitute_features")
        result = self.attack.run(substitute_features)

        if target_features is None:
            target_adversarial = result.adversarial
            target_original = result.original
        else:
            target_original = check_matrix(target_features, name="target_features")
            if target_original.shape[0] != result.n_samples:
                raise AttackError(
                    "target_features must contain the same samples as substitute_features"
                )
            if target_original.shape[1] != result.original.shape[1]:
                raise AttackError(
                    "feature dimensionality mismatch between substitute and target spaces"
                )
            delta = result.adversarial - result.original
            target_adversarial = np.clip(target_original + delta,
                                         self.attack.constraints.clip_min,
                                         self.attack.constraints.clip_max)
            target_adversarial = self.attack.constraints.project(target_adversarial,
                                                                 target_original)

        return TransferResult(
            attack_result=result,
            substitute_detection_rate=result.detection_rate,
            target_detection_rate=detection_rate(self.target.predict(target_adversarial)),
            target_detection_rate_original=detection_rate(self.target.predict(target_original)),
        )
