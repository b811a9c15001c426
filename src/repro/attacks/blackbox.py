"""The Figure 2 black-box attack framework.

The paper *proposes* (and leaves as future work) a framework in which the
attacker has no knowledge of the target system at all: they train a
substitute model purely from the target's observable decisions and then rely
on transferability.  This module implements that framework end to end,
following Papernot et al.'s practical black-box attack:

1. the attacker assembles a small seed set of samples (their own corpus);
2. the deployed detector — wrapped behind a :class:`~repro.data.oracle.LabelOracle`
   — is queried for labels;
3. a substitute model is trained on the oracle-labelled data;
4. the dataset is augmented with Jacobian-based synthetic samples
   (``x' = x + lambda * sign(dF_label(x)/dx)``) that probe the oracle near
   its decision boundary, and steps 2-4 repeat for ``augmentation_rounds``;
5. adversarial examples are crafted on the substitute with JSMA and replayed
   against the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.attacks.transfer import TransferAttack, TransferResult
from repro.config import ScaleProfile, default_profile
from repro.data.dataset import Dataset
from repro.data.oracle import LabelOracle
from repro.exceptions import AttackError
from repro.models.substitute_model import SubstituteModel
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_matrix


@dataclass
class BlackBoxAttackReport:
    """Everything the black-box engagement produced."""

    substitute: SubstituteModel
    transfer: TransferResult
    oracle_queries: int
    augmentation_rounds: int
    substitute_agreement: float
    seed_set_size: int

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary for experiment tables."""
        summary = self.transfer.summary()
        summary.update({
            "oracle_queries": float(self.oracle_queries),
            "augmentation_rounds": float(self.augmentation_rounds),
            "substitute_agreement": self.substitute_agreement,
            "seed_set_size": float(self.seed_set_size),
        })
        return summary


class BlackBoxFramework:
    """Oracle-only substitute training + JSMA transfer (Figure 2).

    Parameters
    ----------
    oracle:
        Query-only access to the deployed detector.
    scale:
        Scale profile controlling the substitute's size and training length.
    augmentation_rounds:
        Number of Jacobian-augmentation rounds (ρ in Papernot et al.).
    augmentation_step:
        Step size λ of the Jacobian augmentation.
    constraints:
        Constraint set for the final JSMA crafting step.
    """

    def __init__(self, oracle: LabelOracle, scale: Optional[ScaleProfile] = None,
                 augmentation_rounds: int = 2, augmentation_step: float = 0.1,
                 constraints: Optional[PerturbationConstraints] = None,
                 random_state: RandomState = 0) -> None:
        if augmentation_rounds < 0:
            raise AttackError("augmentation_rounds must be non-negative")
        if augmentation_step <= 0:
            raise AttackError("augmentation_step must be positive")
        self.oracle = oracle
        self.scale = scale if scale is not None else default_profile()
        self.augmentation_rounds = int(augmentation_rounds)
        self.augmentation_step = float(augmentation_step)
        self.constraints = constraints if constraints is not None else PerturbationConstraints()
        self._rng = as_rng(random_state)

    # ------------------------------------------------------------------ #
    # Substitute training with Jacobian-based augmentation
    # ------------------------------------------------------------------ #
    def train_substitute(self, seed_features: np.ndarray) -> SubstituteModel:
        """Train the substitute from oracle labels on (augmented) seed data."""
        features = check_matrix(seed_features, name="seed_features")
        labels = self.oracle.labels(features)
        substitute = SubstituteModel.for_scale(
            self.scale, random_state=self._rng, n_features=features.shape[1],
            name="blackbox_substitute")

        for round_index in range(self.augmentation_rounds + 1):
            dataset = Dataset(features=features, labels=labels,
                              name=f"blackbox_round_{round_index}")
            substitute.fit(dataset, epochs=self.scale.substitute_epochs,
                           batch_size=self.scale.batch_size,
                           learning_rate=self.scale.learning_rate,
                           random_state=self._rng)
            if round_index == self.augmentation_rounds:
                break
            # Jacobian-based dataset augmentation: push each sample along the
            # sign of the gradient of its current label's output, query the
            # oracle for the new points, and grow the training set.
            jacobian = substitute.network.class_gradients(features)
            label_grad = jacobian[np.arange(features.shape[0]), labels, :]
            synthetic = features + self.augmentation_step * np.sign(label_grad)
            synthetic = np.clip(synthetic, self.constraints.clip_min,
                                self.constraints.clip_max)
            synthetic_labels = self.oracle.labels(synthetic)
            features = np.vstack([features, synthetic])
            labels = np.concatenate([labels, synthetic_labels])
        return substitute

    # ------------------------------------------------------------------ #
    # End-to-end engagement
    # ------------------------------------------------------------------ #
    def execute(self, seed_features: np.ndarray,
                malware_features: np.ndarray) -> BlackBoxAttackReport:
        """Run the full Figure 2 pipeline and report transfer statistics.

        ``seed_features`` is the attacker's unlabeled seed corpus (mixed
        clean/malware); ``malware_features`` are the malware samples to make
        evasive.
        """
        malware_features = check_matrix(malware_features, name="malware_features")
        substitute = self.train_substitute(seed_features)

        # Agreement between substitute and oracle on the malware batch is a
        # useful diagnostic of how well the substitute copied the boundary.
        oracle_labels = self.oracle.labels(malware_features)
        substitute_labels = substitute.predict(malware_features)
        agreement = float(np.mean(oracle_labels == substitute_labels))

        attack = JsmaAttack(substitute.network, constraints=self.constraints)
        transfer = TransferAttack(attack, self.oracle.network)
        result = transfer.run(malware_features)
        return BlackBoxAttackReport(
            substitute=substitute,
            transfer=result,
            oracle_queries=self.oracle.queries_used,
            augmentation_rounds=self.augmentation_rounds,
            substitute_agreement=agreement,
            seed_set_size=int(np.asarray(seed_features).shape[0]),
        )
