#!/usr/bin/env python3
"""Serving quickstart: expose the trained detector as a scoring service.

Walks the `repro.serving` layer end to end at the ``tiny`` scale (override
with ``REPRO_SCALE=small|medium|paper``):

1. resolve the ``target`` model + pipeline bundle through the
   :class:`~repro.serving.registry.ModelRegistry` (the context warm-starts
   both from its artifact cache when ``REPRO_QUICKSTART_CACHE=<dir>`` is
   set),
2. score a single API log and print the structured verdict,
3. replay a mixed clean/malware/adversarial stream through the
   micro-batched service and report throughput + latency quantiles,
4. stand up a *defended* endpoint (feature squeezing) over the same bundle
   and compare its verdicts on the adversarial slice.

Run:  python examples/serving_quickstart.py
"""

from __future__ import annotations

import os
import time

from repro import ExperimentContext
from repro.defenses import FeatureSqueezingDefense
from repro.serving import (
    LoadGenerator,
    ModelRegistry,
    ScoringService,
    ThroughputReport,
    TrafficMix,
    replay,
)


def main() -> None:
    cache_dir = os.environ.get("REPRO_QUICKSTART_CACHE")
    context = ExperimentContext(cache=cache_dir)
    print(f"== scale {context.scale.name}, seed {context.seed}, "
          f"cache {'on' if cache_dir else 'off'}")

    # 1. Resolve the served bundle (trains on a cold cache, loads on warm).
    servable = ModelRegistry().get("target", context=context)
    print(f"== serving bundle: {servable.describe()}")

    # 2. Score one log through the full log → features → verdict path.
    service = ScoringService(servable, max_batch_size=32)
    generator = LoadGenerator(context, mix=TrafficMix(0.4, 0.4, 0.2), seed=7)
    requests = generator.generate(64)
    first_log = next(r for r in requests if r.request_id.startswith("malware"))
    verdict = service.score(first_log)
    print(f"== single verdict: {verdict.as_dict()}")

    # 3. Replay the stream through the micro-batcher; the report reads the
    #    latencies the replay's verdicts carry.
    start = time.perf_counter()
    verdicts = replay(service, requests)
    elapsed = time.perf_counter() - start
    report = ThroughputReport.from_verdicts(verdicts, elapsed)
    print(f"== {service.n_batches} fused batches; {report.render()}")

    # 4. A defended endpoint over the same bundle.
    squeezed = FeatureSqueezingDefense().fit(servable.model.network,
                                             context.corpus.validation)
    defended = ScoringService(servable, detector=squeezed)
    adversarial = [r for r in requests if r.request_id.startswith("adv")]
    bare_hits = sum(v.is_malware for v in verdicts
                    if v.request_id.startswith("adv"))
    defended_hits = sum(v.is_malware for v in defended.score_many(adversarial))
    print(f"== adversarial slice ({len(adversarial)} requests): "
          f"undefended flags {bare_hits}, "
          f"feature-squeezing endpoint flags {defended_hits}")


if __name__ == "__main__":
    main()
