"""Named, versioned ``model + pipeline`` bundles for the scoring service.

A deployed detector is more than a network: it is the network *plus* the
feature pipeline it was trained behind, at a specific scale/seed/dtype.
:class:`ModelRegistry` resolves a name to that pairing on an
:class:`~repro.experiments.context.ExperimentContext`, which builds, caches
and persists both halves, and stamps the result with a deterministic
*version* (a content hash of name, scale profile, seed and compute dtype).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.config import ScaleProfile
from repro.exceptions import ServingError
from repro.experiments.context import ExperimentContext
from repro.features.pipeline import FeaturePipeline
from repro.models.base import DetectorModel
from repro.utils.artifact_cache import CACHE_SCHEMA_VERSION, ArtifactCache

#: The servable bundles: the deployed detector, and the attacker's Table IV
#: substitute behind the same defender pipeline.
MODEL_BUILDERS: Dict[str, Callable[[ExperimentContext],
                                   Tuple[DetectorModel, FeaturePipeline]]] = {
    "target": lambda ctx: (ctx.target_model, ctx.pipeline),
    "substitute": lambda ctx: (ctx.substitute_model, ctx.pipeline),
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
    """Resolves the bundle names of :data:`MODEL_BUILDERS` on a context.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.utils.artifact_cache.ArtifactCache` (or cache
        root path) for the default context :meth:`get` builds when it is
        given none.  A passed context serves from its own cache.
    """

    def __init__(self, cache: Optional[Union[ArtifactCache, str, Path]] = None) -> None:
        if cache is not None and not isinstance(cache, ArtifactCache):
            cache = ArtifactCache(cache)
        self.cache = cache

    def get(self, name: str = "target",
            context: Optional[ExperimentContext] = None) -> ServableModel:
        """The named bundle over ``context``'s own model and pipeline.

        The context memoises and persists both halves, so repeated calls
        share one model and pipeline, and a fresh context over a warm cache
        loads them without regenerating the corpus.
        """
        builder = MODEL_BUILDERS.get(name)
        if builder is None:
            raise ServingError(f"unknown model {name!r}; registered models: "
                               f"{sorted(MODEL_BUILDERS)}")
        if context is None:
            context = ExperimentContext(cache=self.cache)
        model, pipeline = builder(context)
        dtype = str(context.effective_dtype())
        return ServableModel(
            name=name,
            version=bundle_version(name, context.scale, context.seed, dtype),
            model=model, pipeline=pipeline, scale=context.scale,
            seed=context.seed, dtype=dtype)
