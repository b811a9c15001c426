"""Named, versioned ``model + pipeline`` bundles for the scoring service.

A deployed detector is more than a network: it is the network *plus* the
feature pipeline it was trained behind, at a specific scale/seed/dtype.
:class:`ModelRegistry` owns that pairing.  Each registered name maps to a
builder that produces the bundle from an
:class:`~repro.experiments.context.ExperimentContext`; the registry stamps
the result with a deterministic *version* (a content hash of name, scale
profile, seed and compute dtype) and — when an
:class:`~repro.utils.artifact_cache.ArtifactCache` is attached — persists
the bundle so later processes warm-start the service without retraining.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.config import ScaleProfile
from repro.exceptions import ServingError
from repro.experiments.context import ExperimentContext
from repro.features.pipeline import FeaturePipeline
from repro.models.base import DetectorModel
from repro.models.substitute_model import SubstituteModel
from repro.models.target_model import TargetModel
from repro.nn.engine import compute_dtype
from repro.scenarios.registry import DEFENSES, build_endpoint, ensure_registries
from repro.scenarios.spec import ScenarioSpec
from repro.utils.artifact_cache import CACHE_SCHEMA_VERSION, ArtifactCache

#: Cache kind under which serving bundles are stored.
BUNDLE_KIND = "serving"

_BUNDLE_INFO = "bundle.json"

_MODEL_CLASSES = {
    "TargetModel": TargetModel,
    "SubstituteModel": SubstituteModel,
    "DetectorModel": DetectorModel,
}

#: A builder turns shared experiment state into a (model, fitted pipeline) pair.
ModelBuilder = Callable[[ExperimentContext], Tuple[DetectorModel, FeaturePipeline]]

#: The bundle builder behind each scenario crafting surface (the ``target``
#: and ``substitute`` entries are also the registry's default bundles).
MODEL_BUILDERS: Dict[str, ModelBuilder] = {
    "target": lambda ctx: (ctx.target_model, ctx.pipeline),
    "substitute": lambda ctx: (ctx.substitute_model, ctx.pipeline),
    "binary_substitute": lambda ctx: (ctx.binary_substitute, ctx.binary_pipeline),
}


def bundle_version(name: str, scale: ScaleProfile, seed: int, dtype: str) -> str:
    """Deterministic 16-hex-digit version for a named bundle.

    The version covers everything that determines the trained bundle: the
    registered name, the full scale profile, the master seed and the compute
    dtype (plus the cache schema, so format bumps orphan old versions).
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "name": str(name),
        "scale": {str(k): v for k, v in sorted(asdict(scale).items())},
        "seed": int(seed),
        "dtype": str(dtype),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class ServableModel:
    """A ready-to-serve bundle: detector + pipeline + provenance."""

    name: str
    version: str
    model: DetectorModel
    pipeline: FeaturePipeline
    scale: ScaleProfile
    seed: int
    dtype: str

    @property
    def n_features(self) -> int:
        """Input dimensionality the bundle scores."""
        return self.pipeline.n_features

    def describe(self) -> Dict[str, object]:
        """Provenance summary (rendered by the ``serve`` CLI)."""
        return {
            "name": self.name,
            "version": self.version,
            "scale": self.scale.name,
            "seed": self.seed,
            "dtype": self.dtype,
            "n_features": self.n_features,
            "model_class": type(self.model).__name__,
        }


class ModelRegistry:
    """Registry of named model builders with cache-backed warm starts.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.utils.artifact_cache.ArtifactCache` (or cache
        root path).  When attached, resolved bundles persist under the
        ``serving`` kind keyed by their version, and later :meth:`get` calls
        load them from disk instead of rebuilding the experiment artifacts.

    The ``target`` (deployed detector + defender pipeline) and
    ``substitute`` (the attacker's Table IV model behind the same pipeline)
    builders are registered out of the box.
    """

    def __init__(self, cache: Optional[Union[ArtifactCache, str, Path]] = None) -> None:
        if cache is not None and not isinstance(cache, ArtifactCache):
            cache = ArtifactCache(cache)
        self.cache = cache
        self._builders: Dict[str, ModelBuilder] = {}
        self._scenarios: Dict[str, ScenarioSpec] = {}
        self._loaded: Dict[str, ServableModel] = {}
        self.cold_builds = 0
        self.register("target", MODEL_BUILDERS["target"])
        self.register("substitute", MODEL_BUILDERS["substitute"])

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, builder: ModelBuilder) -> None:
        """Register (or replace) a named bundle builder."""
        if not name or not isinstance(name, str):
            raise ServingError(f"model name must be a non-empty string, got {name!r}")
        self._builders[name] = builder

    def register_scenario(self, name: str,
                          spec: Union[ScenarioSpec, Dict]) -> None:
        """Register a scenario-built defended bundle under ``name``.

        The bundle's model follows ``spec.model`` (``target`` /
        ``substitute`` / ``binary_substitute``) and its endpoint defense —
        resolved through the DefenseRegistry with ``spec.defense_params`` —
        is available from :meth:`detector_for`, so a
        :class:`~repro.serving.service.ScoringService` can serve any cell of
        the attack x defense grid by name::

            registry.register_scenario("squeezed", ScenarioSpec(
                defense="feature_squeezing", scale="small"))
            servable = registry.get("squeezed", context=context)
            service = ScoringService(
                servable, detector=registry.detector_for("squeezed", context))
        """
        if not isinstance(spec, ScenarioSpec):
            spec = ScenarioSpec.from_dict(spec)
        ensure_registries()
        # Fail at registration time on unknown defenses or bad parameters,
        # not at first request.  (spec.model is already constrained to
        # MODEL_KINDS by ScenarioSpec itself.)
        defense_entry = DEFENSES.get(spec.defense)
        defense_entry.resolve_params(spec.defense_params)
        if spec.model == "binary_substitute" and defense_entry.entry_id != "none":
            # Mirrors run_scenario's rejection: defenses calibrate against
            # the count feature space, which a binary-feature bundle cannot
            # score consistently.
            raise ServingError(
                f"scenario bundle {name!r}: binary_substitute bundles cannot "
                f"carry a defense endpoint; use defense='none'")
        self._scenarios[name] = spec
        self.register(name, MODEL_BUILDERS[spec.model])

    def scenario_for(self, name: str) -> Optional[ScenarioSpec]:
        """The spec behind a scenario bundle (None for plain bundles)."""
        return self._scenarios.get(name)

    def detector_for(self, name: str, context: ExperimentContext):
        """The fitted defense endpoint of a scenario bundle.

        Returns ``None`` for plain bundles and for scenarios without a
        defense, so callers can pass the result straight to
        ``ScoringService(..., detector=...)``.  Wrap-style defenses guard
        the bundle's *own* model (a substitute-bundle squeezing endpoint is
        calibrated over the substitute network, not the target's).  A
        binary-substitute bundle never carries a defense
        (:meth:`register_scenario` rejects one).
        """
        spec = self._scenarios.get(name)
        if spec is None:
            return None
        model = context.substitute_model if spec.model == "substitute" else None
        return build_endpoint(spec.defense, context, spec.defense_params,
                              model=model)

    def available(self) -> List[str]:
        """Sorted names of the registered builders."""
        return sorted(self._builders)

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def get(self, name: str = "target", context: Optional[ExperimentContext] = None,
            scale: Optional[ScaleProfile] = None, seed: int = 0,
            dtype=None) -> ServableModel:
        """Resolve a named bundle, warm-starting from the cache when possible.

        Either pass an existing ``context`` (its scale/seed/dtype pin the
        version) or let the registry build one from ``scale``/``seed``/
        ``dtype`` — sharing the registry's cache, so the context's own
        corpus/model artifacts also persist.
        """
        if name not in self._builders:
            raise ServingError(
                f"unknown model {name!r}; registered models: {self.available()}")
        if context is None:
            context = ExperimentContext(scale=scale, seed=seed, cache=self.cache,
                                        dtype=dtype)
        dtype_str = str(context.dtype if context.dtype is not None else compute_dtype())
        version = bundle_version(name, context.scale, context.seed, dtype_str)
        if version in self._loaded:
            return self._loaded[version]

        def build() -> ServableModel:
            self.cold_builds += 1
            model, pipeline = self._builders[name](context)
            if not pipeline.is_fitted:
                raise ServingError(
                    f"builder for {name!r} returned an unfitted feature pipeline")
            return ServableModel(name=name, version=version, model=model,
                                 pipeline=pipeline, scale=context.scale,
                                 seed=context.seed, dtype=dtype_str)

        if self.cache is None:
            servable = build()
        else:
            servable = self.cache.load_or_build(
                BUNDLE_KIND, version, build, self._save_bundle, self._load_bundle)
        self._loaded[version] = servable
        return servable

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @staticmethod
    def _save_bundle(servable: ServableModel, path: Path) -> None:
        servable.model.save(path / "model")
        servable.pipeline.save(path / "pipeline")
        info = {
            "name": servable.name,
            "version": servable.version,
            "scale": asdict(servable.scale),
            "seed": servable.seed,
            "dtype": servable.dtype,
            "model_class": type(servable.model).__name__,
            "model_name": servable.model.name,
        }
        (path / _BUNDLE_INFO).write_text(json.dumps(info, indent=2, sort_keys=True),
                                         encoding="utf-8")

    @staticmethod
    def _load_bundle(path: Path) -> ServableModel:
        info = json.loads((path / _BUNDLE_INFO).read_text(encoding="utf-8"))
        model_cls = _MODEL_CLASSES.get(info.get("model_class", ""), DetectorModel)
        model = model_cls.load(path / "model", name=info["model_name"])
        return ServableModel(
            name=info["name"],
            version=info["version"],
            model=model,
            pipeline=FeaturePipeline.load(path / "pipeline"),
            scale=ScaleProfile(**info["scale"]),
            seed=int(info["seed"]),
            dtype=str(info["dtype"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ModelRegistry(models={self.available()}, "
                f"cache={None if self.cache is None else str(self.cache.root)!r})")
