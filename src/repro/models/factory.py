"""Convenience constructors and trainers for the paper's models.

These functions encode the experimental setup of Sections II-B and III:
the defender trains the target DNN on the (synthetic) Table I training set;
the grey-box attacker trains a Table IV substitute on *their own* data with
the same 491 features (experiment 1) or with binary features (experiment 2).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import N_FEATURES, ScaleProfile, default_profile
from repro.data.dataset import Dataset
from repro.data.generator import CorpusBundle, CorpusGenerator
from repro.features.pipeline import FeaturePipeline
from repro.features.transformation import BinaryTransformer
from repro.models.substitute_model import SubstituteModel
from repro.models.target_model import TargetModel
from repro.utils.rng import RandomState


def build_target_network(scale: Optional[ScaleProfile] = None,
                         random_state: RandomState = None,
                         n_features: int = N_FEATURES) -> TargetModel:
    """Instantiate an untrained target model sized for ``scale``."""
    scale = scale if scale is not None else default_profile()
    return TargetModel.for_scale(scale, random_state=random_state, n_features=n_features)


def build_substitute_network(scale: Optional[ScaleProfile] = None,
                             random_state: RandomState = None,
                             n_features: int = N_FEATURES,
                             name: str = "substitute_dnn") -> SubstituteModel:
    """Instantiate an untrained Table IV substitute sized for ``scale``."""
    scale = scale if scale is not None else default_profile()
    return SubstituteModel.for_scale(scale, random_state=random_state,
                                     n_features=n_features, name=name)


def train_target_model(bundle: CorpusBundle, scale: Optional[ScaleProfile] = None,
                       random_state: RandomState = 0) -> TargetModel:
    """Train the deployed target DNN on the corpus training split."""
    scale = scale if scale is not None else default_profile()
    model = build_target_network(scale, random_state=random_state,
                                 n_features=bundle.train.n_features)
    model.fit(bundle.train, bundle.validation,
              epochs=scale.target_epochs, batch_size=scale.batch_size,
              learning_rate=scale.learning_rate, random_state=random_state)
    return model


def train_substitute_model(attacker_data: Dataset, validation: Optional[Dataset] = None,
                           scale: Optional[ScaleProfile] = None,
                           random_state: RandomState = 1,
                           name: str = "substitute_dnn") -> SubstituteModel:
    """Train the Table IV substitute on the attacker's own featurised data.

    The paper trains with Adam, learning rate ``1e-3`` and batch size 256
    for 1000 epochs; the scale profile supplies equivalent (smaller) values
    for the synthetic corpus.
    """
    scale = scale if scale is not None else default_profile()
    model = build_substitute_network(scale, random_state=random_state,
                                     n_features=attacker_data.n_features, name=name)
    model.fit(attacker_data, validation,
              epochs=scale.substitute_epochs, batch_size=scale.batch_size,
              learning_rate=scale.learning_rate, random_state=random_state)
    return model


def train_binary_substitute_model(generator: CorpusGenerator,
                                  n_clean: int, n_malware: int,
                                  scale: Optional[ScaleProfile] = None,
                                  random_state: RandomState = 2) -> Tuple[SubstituteModel, FeaturePipeline]:
    """Train the second grey-box substitute: binary (presence/absence) features.

    This attacker knows the API names but not the target's count
    transformation, so they build their own pipeline with a
    :class:`~repro.features.transformation.BinaryTransformer` and train the
    Table IV architecture on it.  Returns the model together with the
    attacker's pipeline (needed to featurise candidate samples consistently).
    """
    scale = scale if scale is not None else default_profile()
    pipeline = FeaturePipeline(catalog=generator.catalog, transformer=BinaryTransformer())
    attacker_data = generator.generate_attacker_corpus(
        n_clean, n_malware, pipeline=pipeline, name="attacker_binary")
    model = train_substitute_model(attacker_data, scale=scale,
                                   random_state=random_state,
                                   name="substitute_binary_dnn")
    return model, pipeline
