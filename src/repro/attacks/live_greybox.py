"""The live grey-box experiment: edit the malware *source*, re-scan it.

Section III-B (third experiment): the authors took a malware source file,
used the substitute model to pick an API call, had a researcher add that
single call to the source one to eight times, rebuilt the sample and ran the
real DNN engine on it.  The engine's malware confidence fell from 98.43%
(original) to 88.88% (one added call) to 0% (eight added calls).

:class:`LiveGreyBoxAttack` reproduces that end-to-end loop on the synthetic
substrate: *source* mutation → sandbox execution → log → feature pipeline →
target-engine confidence, with the API chosen by JSMA saliency on the
attacker's substitute model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.apilog.sandbox import Sandbox
from repro.apilog.source_sample import SourceSample
from repro.attacks.constraints import PerturbationConstraints
from repro.config import CLASS_MALWARE
from repro.exceptions import AttackError
from repro.features.pipeline import FeaturePipeline
from repro.nn.network import NeuralNetwork
from repro.scenarios.registry import Param, register_attack
from repro.utils.rng import RandomState, as_rng
from repro.utils.topk import top_k_indices


@dataclass
class LiveGreyBoxTrace:
    """Confidence trajectory as the chosen API call is added repeatedly."""

    sample_id: str
    injected_api: str
    repetitions: List[int]
    confidences: List[float]
    detected: List[bool]
    original_confidence: float

    @property
    def evasion_repetitions(self) -> Optional[int]:
        """Smallest number of added calls that evades the engine (None if never)."""
        for reps, flagged in zip(self.repetitions, self.detected):
            if not flagged:
                return reps
        return None

    @property
    def final_confidence(self) -> float:
        """Engine confidence after the last injection step."""
        return self.confidences[-1] if self.confidences else self.original_confidence

    def rows(self) -> List[Dict[str, float]]:
        """Tabular view: one row per injection count."""
        rows = [{"added_calls": 0, "confidence": self.original_confidence,
                 "detected": self.original_confidence >= 0.5}]
        for reps, conf, det in zip(self.repetitions, self.confidences, self.detected):
            rows.append({"added_calls": reps, "confidence": conf, "detected": det})
        return rows


def _scenario_factory(cls, network, constraints, params, context):
    """Assemble the live attack from the context's target/substitute/pipeline.

    Live scenarios attack *source samples*, not feature matrices, so the
    engine passes ``network``/``constraints`` as ``None`` and this factory
    pulls both models (and the deployed pipeline) from the context.
    """
    return cls(context.target_model.network, context.substitute_model.network,
               context.pipeline, sandbox_os=params["sandbox_os"],
               random_state=context.seeds.seed_for(params["seed_name"]))


@register_attack("live_greybox", kind="live", factory=_scenario_factory, params=(
    Param("max_repetitions", "int", 8,
          help="how many times the chosen API call is added to the source"),
    Param("sample_index", "int", None, optional=True,
          help="index into the generated source samples (None picks the "
               "sample whose engine confidence is closest to the paper's)"),
    Param("n_sources", "int", 16,
          help="number of candidate malware source samples to generate"),
    Param("sandbox_os", "str", "win7",
          help="OS the sample is (re-)detonated on"),
    Param("seed_name", "str", "live_greybox",
          help="named seed for the attack's tie-breaking randomness"),
    Param("sources_rng_name", "str", "live_greybox:sources",
          help="named seed for candidate source-sample generation"),
))
class LiveGreyBoxAttack:
    """Source-level evasion driven by the substitute's saliency map.

    Parameters
    ----------
    target:
        The deployed detector network (the "DNN engine").
    substitute:
        The attacker's substitute network used to choose the API to inject.
    pipeline:
        The deployed feature pipeline (log → features).  In the grey-box
        setting the attacker knows the feature *names*; the defender's
        pipeline is only used to score candidates against the engine, which
        is exactly what "submit the rebuilt sample to the engine" does.
    sandbox_os:
        OS the sample is (re-)detonated on.
    """

    def __init__(self, target: NeuralNetwork, substitute: NeuralNetwork,
                 pipeline: FeaturePipeline, sandbox_os: str = "win7",
                 constraints: Optional[PerturbationConstraints] = None,
                 random_state: RandomState = 0) -> None:
        self.target = target
        self.substitute = substitute
        self.pipeline = pipeline
        self.sandbox_os = sandbox_os
        self.constraints = constraints if constraints is not None else PerturbationConstraints()
        self._rng = as_rng(random_state)

    # ------------------------------------------------------------------ #
    # Scoring helpers
    # ------------------------------------------------------------------ #
    def _detonate(self, sample: SourceSample, seed: int) -> np.ndarray:
        """Run the sample through the sandbox + pipeline, return one feature row."""
        sandbox = Sandbox(os_version=self.sandbox_os,
                          random_state=seed, record_args=False)
        counts = sandbox.execute_counts(sample)
        return self.pipeline.transform([counts])

    def engine_confidence(self, sample: SourceSample, seed: int = 1234) -> float:
        """The target engine's malware confidence for ``sample``."""
        features = self._detonate(sample, seed)
        return float(self.target.malware_score(features)[0])

    def choose_api(self, sample: SourceSample, seed: int = 1234,
                   candidates: int = 10) -> str:
        """Pick the API call to inject using the substitute's saliency map.

        Features are ranked by the *per-added-call* effect: the saliency of
        the feature divided by its count-normalisation scale (adding one call
        to an API with a small training maximum moves its feature much more
        than one call to a ubiquitous API).  Only APIs the sample does not
        already use are considered, so the injected call actually changes the
        corresponding feature.
        """
        features = self._detonate(sample, seed)
        jacobian = self.substitute.class_gradients(features)
        # Gradient towards the clean class minus the malware class: how much
        # increasing each feature helps the sample look clean.
        clean_pull = jacobian[0, 0, :] - jacobian[0, 1, :]
        transformer = self.pipeline.transformer
        scales = getattr(transformer, "scales", None)
        per_call_effect = clean_pull / scales if scales is not None else clean_pull
        ranked = top_k_indices(per_call_effect, max(candidates, 1))
        catalog = self.pipeline.catalog
        for index in ranked:
            api = catalog.name_of(int(index))
            if not sample.uses_api(api):
                return api
        return catalog.name_of(int(ranked[0]))

    # ------------------------------------------------------------------ #
    # The experiment itself
    # ------------------------------------------------------------------ #
    def run(self, sample: SourceSample, max_repetitions: int = 8,
            api: Optional[str] = None, seed: int = 1234) -> LiveGreyBoxTrace:
        """Add one API call 1..``max_repetitions`` times and track confidence.

        Raises
        ------
        AttackError
            If the sample is not malware (the experiment only makes sense for
            a detected malicious sample).
        """
        if sample.label != CLASS_MALWARE:
            raise AttackError("the live grey-box experiment operates on a malware sample")
        if max_repetitions < 1:
            raise AttackError(f"max_repetitions must be >= 1, got {max_repetitions}")

        original_confidence = self.engine_confidence(sample, seed=seed)
        injected_api = api if api is not None else self.choose_api(sample, seed=seed)

        repetitions: List[int] = []
        confidences: List[float] = []
        detected: List[bool] = []
        for count in range(1, max_repetitions + 1):
            mutated = sample.add_api_call(injected_api, times=count)
            if not mutated.preserves_functionality_of(sample):
                raise AttackError("source mutation violated the add-only invariant")
            confidence = self.engine_confidence(mutated, seed=seed)
            repetitions.append(count)
            confidences.append(confidence)
            detected.append(confidence >= 0.5)

        return LiveGreyBoxTrace(
            sample_id=sample.sample_id,
            injected_api=injected_api,
            repetitions=repetitions,
            confidences=confidences,
            detected=detected,
            original_confidence=original_confidence,
        )
