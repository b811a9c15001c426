"""Dimensionality-reduction defense (Section II-C-4).

Instead of training the classifier on the full 491-dimensional input the
defender projects onto the first ``k`` principal components (the paper picks
``k = 19``) and trains the detector on the reduced representation.  The
attacker's perturbations are thereby restricted to whatever survives the
projection, increasing the distortion needed to cross the boundary.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.config import ScaleProfile, default_profile
from repro.data.dataset import Dataset
from repro.defenses.base import DefendedDetector, Defense
from repro.defenses.pca import PCA
from repro.exceptions import DefenseError
from repro.models.target_model import TargetModel
from repro.scenarios.registry import Param, register_defense
from repro.utils.rng import RandomState
from repro.utils.validation import check_matrix

#: The number of principal components the paper selects.
PAPER_K = 19


class ReducedInputDetector(DefendedDetector):
    """A detector that projects inputs with PCA before classifying."""

    def __init__(self, pca: PCA, model: TargetModel, name: str = "dim_reduction") -> None:
        super().__init__(name)
        self.pca = pca
        self.model = model

    def project(self, features: np.ndarray) -> np.ndarray:
        """Project raw features onto the defended subspace."""
        return self.pca.transform(check_matrix(features, name="features"))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.model.predict(self.project(features))

    def malware_confidence(self, features: np.ndarray) -> np.ndarray:
        return self.model.malware_confidence(self.project(features))


def _scenario_fitter(cls, context, params, model=None):
    """Fit PCA(k) + reduced detector from the context's training corpus.

    ``n_components`` is clipped to the corpus feature count (small scale
    profiles can carry fewer than the paper's 491 features).  The default
    ``seed_name`` reproduces the Table VI fit for any master seed.
    """
    n_components = min(params["n_components"], context.corpus.train.n_features)
    defense = cls(n_components=n_components, scale=context.scale,
                  random_state=context.seeds.seed_for(params["seed_name"]))
    return defense.fit(context.corpus.train, context.corpus.validation)


@register_defense("dim_reduction", aliases=("pca",),
                  fitter=_scenario_fitter, params=(
    Param("n_components", "int", PAPER_K,
          help="number of principal components kept (paper: k = 19)"),
    Param("seed_name", "str", "table6:dimreduct",
          help="named seed for the reduced detector's retraining"),
))
class DimensionalityReductionDefense(Defense):
    """Fit PCA(k) on the training data and retrain the detector on the projection."""

    name = "dim_reduction"

    def __init__(self, n_components: int = PAPER_K,
                 scale: Optional[ScaleProfile] = None,
                 hidden_sizes: Optional[Sequence[int]] = None,
                 random_state: RandomState = 0) -> None:
        super().__init__()
        if n_components < 1:
            raise DefenseError(f"n_components must be >= 1, got {n_components}")
        self.n_components = int(n_components)
        self.scale = scale if scale is not None else default_profile()
        self.hidden_sizes = list(hidden_sizes) if hidden_sizes is not None else None
        self.random_state = random_state
        self.pca: Optional[PCA] = None
        self.model: Optional[TargetModel] = None

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> ReducedInputDetector:
        """Fit the projection and train the reduced-input detector."""
        pca = PCA(n_components=self.n_components).fit(train.features)
        reduced_train = train.with_features(pca.transform(train.features),
                                            name=f"{train.name}_pca{self.n_components}")
        reduced_val = (validation.with_features(pca.transform(validation.features))
                       if validation is not None else None)

        if self.hidden_sizes is not None:
            sizes = [self.n_components, *self.hidden_sizes, 2]
        else:
            sizes = [self.n_components,
                     max(8, self.scale.scaled_hidden(256)),
                     max(4, self.scale.scaled_hidden(64)),
                     2]
        model = TargetModel(layer_sizes=sizes, random_state=self.random_state,
                            name=f"target_pca{self.n_components}")
        model.fit(reduced_train, reduced_val,
                  epochs=self.scale.target_epochs,
                  batch_size=self.scale.batch_size,
                  learning_rate=self.scale.learning_rate,
                  random_state=self.random_state)
        self.pca = pca
        self.model = model
        return self._finalize(ReducedInputDetector(pca, model, name=self.name))
