"""Defensive distillation (Section II-C-2).

Two models are involved: a *teacher* trained normally but with a high
softmax temperature ``T`` (the paper uses ``T = 50``), and a *student*
("compressed model") trained — at the same temperature — on the teacher's
soft class probabilities instead of the hard labels.  At inference time the
student predicts at temperature 1, which flattens its logits and (the
argument goes) reduces the gradient signal an attacker can exploit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import ScaleProfile, default_profile
from repro.data.dataset import Dataset
from repro.defenses.base import Defense, ModelBackedDetector
from repro.exceptions import DefenseError
from repro.models.target_model import TargetModel
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import Adam
from repro.nn.training import Trainer
from repro.scenarios.registry import Param, register_defense
from repro.utils.rng import RandomState, spawn_rngs


def _scenario_fitter(cls, context, params, model=None):
    """Distill teacher and student from the context's training corpus.

    The default ``seed_name`` reproduces the Table VI fit for any master
    seed.
    """
    defense = cls(temperature=params["temperature"], scale=context.scale,
                  random_state=context.seeds.seed_for(params["seed_name"]))
    return defense.fit(context.corpus.train, context.corpus.validation)


@register_defense("distillation", aliases=("defensive_distillation",),
                  fitter=_scenario_fitter, params=(
    Param("temperature", "float", 50.0,
          help="softmax temperature T for teacher and student training"),
    Param("seed_name", "str", "table6:distillation",
          help="named seed for teacher/student initialisation and shuffling"),
))
class DefensiveDistillation(Defense):
    """Train a distilled detector at temperature ``T`` (default 50)."""

    def __init__(self, temperature: float = 50.0,
                 scale: Optional[ScaleProfile] = None,
                 random_state: RandomState = 0) -> None:
        super().__init__()
        if temperature <= 0:
            raise DefenseError(f"temperature must be positive, got {temperature}")
        self.temperature = float(temperature)
        self.scale = scale if scale is not None else default_profile()
        self.random_state = random_state
        self.teacher: Optional[TargetModel] = None
        self.student: Optional[TargetModel] = None

    def _train_at_temperature(self, model: TargetModel, features: np.ndarray,
                              targets: np.ndarray, rng) -> None:
        trainer = Trainer(
            model.network,
            optimizer=Adam(learning_rate=self.scale.learning_rate),
            loss=SoftmaxCrossEntropy(temperature=self.temperature),
            batch_size=self.scale.batch_size,
            epochs=self.scale.target_epochs,
            random_state=rng,
        )
        model.history = trainer.fit(features, targets)

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> ModelBackedDetector:
        """Train teacher and student; return the student as the defended detector."""
        teacher_rng, student_rng, shuffle_rng = spawn_rngs(self.random_state, 3)

        teacher = TargetModel.for_scale(self.scale, random_state=teacher_rng,
                                        n_features=train.n_features)
        self._train_at_temperature(teacher, train.features, train.labels, shuffle_rng)
        self.teacher = teacher

        # Soft labels produced by the teacher *at temperature T*.
        soft_labels = teacher.network.predict_proba(train.features,
                                                    temperature=self.temperature)

        student = TargetModel.for_scale(self.scale, random_state=student_rng,
                                        n_features=train.n_features)
        self._train_at_temperature(student, train.features, soft_labels, shuffle_rng)
        # Inference runs at temperature 1 (the standard distillation recipe).
        student.network.temperature = 1.0
        self.student = student
        return self._finalize(ModelBackedDetector(student, name=self.name))
