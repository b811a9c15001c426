"""Adversarial training (Section II-C-1, Tables V and VI).

The paper augments the training set with a subset of the grey-box
adversarial examples (crafted at θ=0.1, γ=0.02) plus a subset of test
malware, re-balances it with additional clean samples, removes duplicates
("sanity check on the data"), and retrains the detector.  The result — Table
VI — is a detector whose adversarial detection rate rises from 0.304 to
0.931 with no loss on clean or original malware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import CLASS_MALWARE, ScaleProfile, default_profile
from repro.data.dataset import Dataset
from repro.defenses.base import Defense, ModelBackedDetector
from repro.exceptions import DefenseError
from repro.models.target_model import TargetModel
from repro.scenarios.registry import Param, register_defense
from repro.utils.rng import RandomState, as_rng


def deduplicate(dataset: Dataset, decimals: int = 6) -> Dataset:
    """Drop duplicated feature rows (the paper's "sanity check on the data").

    Rows are compared after rounding to ``decimals`` decimal places so that
    numerically identical samples produced by different pipeline runs
    collapse together.
    """
    rounded = np.round(dataset.features, decimals=decimals)
    _, unique_indices = np.unique(rounded, axis=0, return_index=True)
    if unique_indices.size == dataset.n_samples:
        return dataset
    return dataset.subset(np.sort(unique_indices), name=dataset.name)


@dataclass
class AdversarialTrainingData:
    """The Table V datasets: the augmented training set and its test set."""

    train: Dataset
    test: Dataset
    n_adversarial_train: int
    n_adversarial_test: int

    def table5_rows(self) -> list[tuple[str, str]]:
        """Rows of Table V."""
        train_counts = self.train.class_counts()
        test_counts = self.test.class_counts()
        return [
            ("Training Set",
             f"{self.train.n_samples} ({train_counts['clean']} clean, "
             f"{train_counts['malware']} malware and advEx)"),
            ("Test Set",
             f"{self.test.n_samples} ({test_counts['clean']} clean, "
             f"{test_counts['malware'] - self.n_adversarial_test} malware and "
             f"{self.n_adversarial_test} advEx)"),
        ]


def _scenario_fitter(cls, context, params, model=None):
    """Retrain on the context's corpus plus its cached grey-box advEx set.

    The adversarial set comes from
    :meth:`~repro.experiments.context.ExperimentContext.greybox_adversarial`
    at the paper's Table VI operating point by default (θ=0.1, γ=0.02), so
    the fit is shared with — and artifact-cached alongside — the defense
    experiments.  The default ``seed_name`` reproduces the Table VI fit for
    any master seed.
    """
    adversarial = context.greybox_adversarial(theta=params["advex_theta"],
                                              gamma=params["advex_gamma"])
    defense = cls(scale=context.scale,
                  adv_train_fraction=params["adv_train_fraction"],
                  malware_train_fraction=params["malware_train_fraction"],
                  random_state=context.seeds.seed_for(params["seed_name"]))
    return defense.fit(context.corpus.train, context.corpus.test, adversarial,
                       validation=context.corpus.validation)


@register_defense("adversarial_training", aliases=("adv_training",),
                  fitter=_scenario_fitter, params=(
    Param("adv_train_fraction", "float", 0.4,
          help="fraction of the adversarial examples mixed into training"),
    Param("malware_train_fraction", "float", 0.3,
          help="fraction of the test malware mixed into training"),
    Param("advex_theta", "float", 0.1,
          help="theta of the grey-box advEx set trained against (Table VI)"),
    Param("advex_gamma", "float", 0.02,
          help="gamma of the grey-box advEx set trained against (Table VI)"),
    Param("seed_name", "str", "table6:advtraining",
          help="named seed for subset selection and retraining"),
))
class AdversarialTrainingDefense(Defense):
    """Retrain the detector on a training set augmented with adversarial examples.

    Parameters
    ----------
    scale:
        Scale profile controlling the retrained model's size and epochs.
    adv_train_fraction:
        Fraction of the supplied adversarial examples injected into the
        training set (the remainder is reserved for the defense test set,
        mirroring Table V where most adversarial examples are test-only).
    malware_train_fraction:
        Fraction of the supplied *test* malware mixed into the training set.
    random_state:
        Seed controlling the subsets and retraining.
    """

    name = "adversarial_training"

    def __init__(self, scale: Optional[ScaleProfile] = None,
                 adv_train_fraction: float = 0.4,
                 malware_train_fraction: float = 0.3,
                 random_state: RandomState = 0) -> None:
        super().__init__()
        if not 0.0 < adv_train_fraction < 1.0:
            raise DefenseError("adv_train_fraction must be in (0, 1)")
        if not 0.0 <= malware_train_fraction < 1.0:
            raise DefenseError("malware_train_fraction must be in [0, 1)")
        self.scale = scale if scale is not None else default_profile()
        self.adv_train_fraction = float(adv_train_fraction)
        self.malware_train_fraction = float(malware_train_fraction)
        self.random_state = random_state
        self.data: Optional[AdversarialTrainingData] = None
        self.model: Optional[TargetModel] = None

    # ------------------------------------------------------------------ #
    # Table V dataset construction
    # ------------------------------------------------------------------ #
    def build_datasets(self, train: Dataset, test: Dataset,
                       adversarial: Dataset) -> AdversarialTrainingData:
        """Assemble the Table V training/test sets.

        ``adversarial`` must contain adversarial malware examples (label 1).
        """
        if not np.all(adversarial.labels == CLASS_MALWARE):
            raise DefenseError("adversarial examples must all carry the malware label")
        rng = as_rng(self.random_state)

        n_adv = adversarial.n_samples
        n_adv_train = max(1, int(round(self.adv_train_fraction * n_adv)))
        adv_indices = rng.permutation(n_adv)
        adv_train = adversarial.subset(adv_indices[:n_adv_train], name="advex_train")
        adv_test = adversarial.subset(adv_indices[n_adv_train:], name="advex_test") \
            if n_adv_train < n_adv else None

        test_malware = test.malware_only()
        n_mal_train = int(round(self.malware_train_fraction * test_malware.n_samples))
        mal_indices = rng.permutation(test_malware.n_samples)
        extra_malware = (test_malware.subset(mal_indices[:n_mal_train], name="malware_extra")
                         if n_mal_train > 0 else None)
        held_out_malware = test_malware.subset(mal_indices[n_mal_train:],
                                               name="malware_heldout") \
            if n_mal_train < test_malware.n_samples else test_malware

        # Re-balance with extra clean samples drawn from the test clean pool.
        train_parts = [train, adv_train]
        if extra_malware is not None:
            train_parts.append(extra_malware)
        added_malicious = adv_train.n_samples + (extra_malware.n_samples
                                                 if extra_malware is not None else 0)
        test_clean = test.clean_only()
        n_clean_extra = min(added_malicious, max(test_clean.n_samples - 1, 1))
        clean_indices = rng.permutation(test_clean.n_samples)
        extra_clean = test_clean.subset(clean_indices[:n_clean_extra], name="clean_extra")
        held_out_clean = test_clean.subset(clean_indices[n_clean_extra:], name="clean_heldout") \
            if n_clean_extra < test_clean.n_samples else test_clean
        train_parts.append(extra_clean)

        augmented_train = deduplicate(
            Dataset.concatenate(train_parts, name="adv_training_set"))

        test_parts = [held_out_clean, held_out_malware]
        if adv_test is not None:
            test_parts.append(adv_test)
        defense_test = Dataset.concatenate(test_parts, name="adv_defense_test")
        self.data = AdversarialTrainingData(
            train=augmented_train,
            test=defense_test,
            n_adversarial_train=adv_train.n_samples,
            n_adversarial_test=adv_test.n_samples if adv_test is not None else 0,
        )
        return self.data

    # ------------------------------------------------------------------ #
    # Defense fitting
    # ------------------------------------------------------------------ #
    def fit(self, train: Dataset, test: Dataset, adversarial: Dataset,
            validation: Optional[Dataset] = None) -> ModelBackedDetector:
        """Build the augmented training set and retrain the detector on it."""
        data = self.build_datasets(train, test, adversarial)
        model = TargetModel.for_scale(self.scale, random_state=self.random_state,
                                      n_features=train.n_features)
        model.fit(data.train, validation,
                  epochs=self.scale.target_epochs,
                  batch_size=self.scale.batch_size,
                  learning_rate=self.scale.learning_rate,
                  random_state=self.random_state)
        self.model = model
        return self._finalize(ModelBackedDetector(model, name=self.name))
