"""Shared, lazily-built experiment state.

Reproducing every table and figure requires the same expensive artifacts —
the Table I corpus, the trained target model, the attacker's substitute
models, and the grey-box adversarial examples used by the defense
experiments.  :class:`ExperimentContext` builds each of them exactly once
(on first use) so the full experiment suite and the benchmark harness do not
retrain models per figure.

With an :class:`~repro.utils.artifact_cache.ArtifactCache` attached, the
artifacts additionally persist *across processes*: a warm run loads the
corpus, its feature pipeline and the trained models from disk instead of
regenerating and retraining them.  Cache keys cover the scale profile, the
master seed, the compute dtype and (for adversarial sets) the attack
operating point, so any change to those builds a fresh artifact; code
changes that alter artifact semantics are handled by bumping
:data:`~repro.utils.artifact_cache.CACHE_SCHEMA_VERSION` (see that module's
invalidation rules).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.config import CLASS_MALWARE, ScaleProfile, default_profile
from repro.data.dataset import Dataset
from repro.data.generator import CorpusBundle, CorpusGenerator
from repro.exceptions import ConfigurationError
from repro.features.pipeline import FeaturePipeline
from repro.models.factory import (
    train_binary_substitute_model,
    train_substitute_model,
    train_target_model,
)
from repro.models.substitute_model import SubstituteModel
from repro.models.target_model import TargetModel
from repro.models.base import DetectorModel
from repro.nn.engine import compute_dtype, resolve_dtype, use_dtype
from repro.nn.training import TrainingHistory
from repro.utils.artifact_cache import ArtifactCache
from repro.utils.rng import SeedSequence


class ExperimentContext:
    """Lazily builds and caches everything the experiments share.

    Parameters
    ----------
    scale:
        A :class:`~repro.config.ScaleProfile` (defaults to the
        ``REPRO_SCALE`` environment selection).  A profile *name* is
        rejected here; resolve it with :func:`~repro.config.get_profile`.
    seed:
        Master seed; every derived component gets a named child seed.
    cache:
        Optional :class:`~repro.utils.artifact_cache.ArtifactCache` (or a
        cache-root path) that persists the corpus, feature pipeline,
        trained models and adversarial sets across processes.  ``None`` (the
        default) keeps the in-process lazy behaviour only.
    dtype:
        Optional compute dtype (``"float32"``/``"float64"``) for every
        artifact this context builds.  ``None`` (the default) follows the
        process-wide engine dtype (``REPRO_DTYPE``).  When set, artifact
        builds run under :func:`~repro.nn.engine.use_dtype`, so the trained
        networks carry the dtype with them without mutating global engine
        state.
    """

    def __init__(self, scale: Optional[ScaleProfile] = None, seed: int = 0,
                 cache: Optional[Union[ArtifactCache, str, Path]] = None,
                 dtype=None) -> None:
        if scale is not None and not isinstance(scale, ScaleProfile):
            hint = (f"; resolve a profile name with get_profile({scale!r})"
                    if isinstance(scale, str) else "")
            raise ConfigurationError(
                f"scale must be a ScaleProfile, got {type(scale).__name__} "
                f"{scale!r}{hint}")
        self.scale = scale if scale is not None else default_profile()
        self.seed = seed
        self.dtype = resolve_dtype(dtype) if dtype is not None else None
        if cache is not None and not isinstance(cache, ArtifactCache):
            cache = ArtifactCache(cache)
        self.cache = cache
        self.seeds = SeedSequence(master_seed=seed)
        self._generator: Optional[CorpusGenerator] = None
        self._corpus: Optional[CorpusBundle] = None
        self._pipeline: Optional[FeaturePipeline] = None
        self._target: Optional[TargetModel] = None
        self._substitute: Optional[SubstituteModel] = None
        self._binary_substitute: Optional[SubstituteModel] = None
        self._binary_pipeline: Optional[FeaturePipeline] = None
        self._attack_malware: Optional[Dataset] = None
        self._greybox_adversarial: Dict[tuple, Dataset] = {}

    # ------------------------------------------------------------------ #
    # Artifact-cache plumbing
    # ------------------------------------------------------------------ #
    def effective_dtype(self):
        """The dtype artifacts are built under (context override or engine)."""
        return self.dtype if self.dtype is not None else compute_dtype()

    def _dtype_scope(self):
        """Context manager activating this context's dtype override (if any)."""
        return use_dtype(self.dtype) if self.dtype is not None else nullcontext()

    def _cache_key(self, kind: str, **extra) -> str:
        """Cache key covering scale, seed, compute dtype and ``extra``."""
        return self.cache.key_for(kind, scale=asdict(self.scale), seed=self.seed,
                                  dtype=str(self.effective_dtype()), **extra)

    def _cached(self, kind: str, build, save, load, **extra):
        """Build through the artifact cache when one is attached."""
        with self._dtype_scope():
            if self.cache is None:
                return build()
            return self.cache.load_or_build(kind, self._cache_key(kind, **extra),
                                            build, save, load)

    @staticmethod
    def _save_model(model: DetectorModel, path: Path) -> None:
        """Persist a trained detector plus its training history."""
        model.save(path / "network")
        if model.history is not None:
            (path / "history.json").write_text(
                json.dumps(model.history.as_dict()), encoding="utf-8")

    @staticmethod
    def _restore_history(model: DetectorModel, path: Path) -> DetectorModel:
        history_file = path / "history.json"
        if history_file.exists():
            data = json.loads(history_file.read_text(encoding="utf-8"))
            model.history = TrainingHistory(**data)
        return model

    @staticmethod
    def _save_corpus(bundle: CorpusBundle, path: Path) -> None:
        bundle.train.save(path / "train")
        bundle.validation.save(path / "validation")
        bundle.test.save(path / "test")
        bundle.pipeline.save(path / "pipeline")

    @staticmethod
    def _load_corpus(path: Path) -> CorpusBundle:
        return CorpusBundle(
            train=Dataset.load(path / "train"),
            validation=Dataset.load(path / "validation"),
            test=Dataset.load(path / "test"),
            pipeline=FeaturePipeline.load(path / "pipeline"),
        )

    # ------------------------------------------------------------------ #
    # Corpus and models
    # ------------------------------------------------------------------ #
    @property
    def generator(self) -> CorpusGenerator:
        """The corpus generator (shared so family/OS mixtures are consistent)."""
        if self._generator is None:
            self._generator = CorpusGenerator(scale=self.scale,
                                              seed=self.seeds.seed_for("corpus"))
        return self._generator

    @property
    def corpus(self) -> CorpusBundle:
        """The Table I corpus bundle (train/validation/test + pipeline)."""
        if self._corpus is None:
            self._corpus = self._cached(
                "corpus",
                build=lambda: self.generator.generate_corpus(),
                save=self._save_corpus,
                load=self._load_corpus,
            )
        return self._corpus

    @property
    def pipeline(self) -> FeaturePipeline:
        """The defender's fitted feature pipeline (the corpus's own).

        Cached as an artifact of its own, so serving a warm-cached model
        loads the pipeline without the corpus.
        """
        if self._pipeline is None:
            self._pipeline = self._cached(
                "pipeline",
                build=lambda: self.corpus.pipeline,
                save=FeaturePipeline.save,
                load=FeaturePipeline.load,
            )
        return self._pipeline

    @property
    def target_model(self) -> TargetModel:
        """The deployed 4-layer target DNN, trained on the corpus."""
        if self._target is None:
            self._target = self._cached(
                "target",
                build=lambda: train_target_model(
                    self.corpus, scale=self.scale,
                    random_state=self.seeds.seed_for("target")),
                save=self._save_model,
                load=lambda path: self._restore_history(
                    TargetModel.load(path / "network", name="target_dnn"), path),
            )
        return self._target

    def _build_substitute(self) -> SubstituteModel:
        attacker_data = self.generator.generate_attacker_corpus(
            n_clean=self.scale.train_clean,
            n_malware=self.scale.train_malware,
            pipeline=self.pipeline,
            name="attacker_counts")
        return train_substitute_model(
            attacker_data, scale=self.scale,
            random_state=self.seeds.seed_for("substitute"))

    @property
    def substitute_model(self) -> SubstituteModel:
        """The Table IV substitute trained on the attacker's own data (491 features)."""
        if self._substitute is None:
            self._substitute = self._cached(
                "substitute",
                build=self._build_substitute,
                save=self._save_model,
                load=lambda path: self._restore_history(
                    SubstituteModel.load(path / "network", name="substitute_dnn"),
                    path),
            )
        return self._substitute

    def _build_binary_substitute(self) -> SubstituteModel:
        model, self._binary_pipeline = train_binary_substitute_model(
            self.generator,
            n_clean=self.scale.train_clean,
            n_malware=self.scale.train_malware,
            scale=self.scale,
            random_state=self.seeds.seed_for("binary_substitute"))
        return model

    def _save_binary_substitute(self, model: SubstituteModel, path: Path) -> None:
        self._save_model(model, path)
        self._binary_pipeline.save(path / "pipeline")

    def _load_binary_substitute(self, path: Path) -> SubstituteModel:
        self._binary_pipeline = FeaturePipeline.load(path / "pipeline")
        return self._restore_history(
            SubstituteModel.load(path / "network", name="substitute_binary_dnn"), path)

    @property
    def binary_substitute(self) -> SubstituteModel:
        """The binary-feature substitute of the second grey-box experiment."""
        if self._binary_substitute is None:
            self._binary_substitute = self._cached(
                "binary_substitute",
                build=self._build_binary_substitute,
                save=self._save_binary_substitute,
                load=self._load_binary_substitute,
            )
        return self._binary_substitute

    @property
    def binary_pipeline(self) -> FeaturePipeline:
        """The binary-feature pipeline owned by the binary substitute's attacker."""
        if self._binary_pipeline is None:
            _ = self.binary_substitute
        return self._binary_pipeline

    # ------------------------------------------------------------------ #
    # Attack inputs
    # ------------------------------------------------------------------ #
    @property
    def attack_malware(self) -> Dataset:
        """The malware samples used to craft adversarial examples.

        The paper uses all 28,874 test malware samples; scale profiles cap
        this at ``attack_samples`` for tractability.
        """
        if self._attack_malware is None:
            malware = self.corpus.test.malware_only()
            n = min(self.scale.attack_samples, malware.n_samples)
            self._attack_malware = malware.sample(
                n, random_state=self.seeds.seed_for("attack_malware"),
                name="attack_malware", stratify=False)
        return self._attack_malware

    def greybox_adversarial(self, theta: float = 0.1, gamma: float = 0.02) -> Dataset:
        """Adversarial examples crafted on the substitute at (θ, γ).

        These are the examples the defense experiments consume (the paper
        uses the grey-box set crafted at θ=0.1, γ=0.02).  Results are cached
        per operating point.
        """
        key = (round(float(theta), 6), round(float(gamma), 6))
        if key not in self._greybox_adversarial:
            def build() -> Dataset:
                constraints = PerturbationConstraints(theta=theta, gamma=gamma)
                # Full-budget crafting (no early stop): stopping as soon as
                # the substitute is fooled produces minimal perturbations
                # that do not transfer to the target model.
                attack = JsmaAttack(self.substitute_model.network,
                                    constraints=constraints, early_stop=False)
                result = attack.run(self.attack_malware.features)
                return Dataset(
                    features=result.adversarial,
                    labels=np.full(result.n_samples, CLASS_MALWARE, dtype=np.int64),
                    name=f"advex_theta{theta}_gamma{gamma}",
                )

            self._greybox_adversarial[key] = self._cached(
                "greybox_adversarial",
                build=build,
                save=lambda dataset, path: dataset.save(path / "dataset"),
                load=lambda path: Dataset.load(path / "dataset"),
                theta=key[0], gamma=key[1],
            )
        return self._greybox_adversarial[key]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Summary of what has been built so far (for logs and debugging)."""
        return {
            "scale": self.scale.name,
            "seed": self.seed,
            "dtype": str(self.effective_dtype()),
            "cache_root": str(self.cache.root) if self.cache is not None else None,
            "corpus_built": self._corpus is not None,
            "target_trained": self._target is not None,
            "substitute_trained": self._substitute is not None,
            "binary_substitute_trained": self._binary_substitute is not None,
            "cached_adversarial_sets": sorted(self._greybox_adversarial),
        }
