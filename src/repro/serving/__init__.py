"""repro.serving — the batched malware-scoring service layer.

Turns the defender stack (`pipeline → target DNN`, optionally wrapped by a
Table VI defense) into a reusable online scoring service:

* :mod:`repro.serving.registry` — named, versioned ``model + pipeline``
  bundles resolved on an
  :class:`~repro.experiments.context.ExperimentContext`, which warm-starts
  both halves from its artifact cache;
* :mod:`repro.serving.batcher` — fixed-size / fixed-latency micro-batching
  of incoming requests;
* :mod:`repro.serving.service` — the :class:`ScoringService` facade
  producing structured :class:`Verdict` objects from one fused
  ``predict_proba`` call per batch;
* :mod:`repro.serving.loadgen` — deterministic mixed
  clean/malware/adversarial traffic for load tests;
* :mod:`repro.serving.stats` — throughput reports with latency quantiles,
  built from the verdicts of an interval.

Quickstart::

    from repro import ExperimentContext
    from repro.serving import ModelRegistry, ScoringService, LoadGenerator

    context = ExperimentContext(cache="~/.cache/repro-dsn2019")
    servable = ModelRegistry().get("target", context=context)
    service = ScoringService(servable)
    verdict = service.score(some_api_log)
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.loadgen import TRAFFIC_KINDS, LoadGenerator, TrafficMix, replay
from repro.serving.registry import ModelRegistry, ServableModel, bundle_version
from repro.serving.service import ScoringRequest, ScoringService, Verdict
from repro.serving.stats import ThroughputReport, percentile

__all__ = [
    # registry
    "ModelRegistry", "ServableModel", "bundle_version",
    # batching + service
    "MicroBatcher", "ScoringService", "ScoringRequest", "Verdict",
    # load generation
    "LoadGenerator", "TrafficMix", "TRAFFIC_KINDS", "replay",
    # statistics
    "ThroughputReport", "percentile",
]
