"""Figure 1 — generating one adversarial example by adding two API calls."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.config import CLASS_CLEAN
from repro.evaluation.reports import format_table
from repro.experiments import paper_values
from repro.experiments.context import ExperimentContext


@dataclass
class Figure1Result:
    """One malware sample, the APIs JSMA adds, and the before/after verdicts."""

    sample_id: str
    added_apis: List[str]
    added_feature_indices: List[int]
    original_malware_confidence: float
    adversarial_malware_confidence: float
    original_prediction: int
    adversarial_prediction: int
    n_features: int

    @property
    def evaded(self) -> bool:
        """Whether the adversarial example is classified clean."""
        return self.adversarial_prediction == CLASS_CLEAN

    def rows(self) -> List[List[object]]:
        """Summary rows for rendering."""
        return [
            ["sample", self.sample_id],
            ["feature vector size", self.n_features],
            ["added API calls", ", ".join(self.added_apis)],
            ["malware confidence (original)", self.original_malware_confidence],
            ["malware confidence (adversarial)", self.adversarial_malware_confidence],
            ["verdict (original)", "malware" if self.original_prediction == 1 else "clean"],
            ["verdict (adversarial)", "malware" if self.adversarial_prediction == 1 else "clean"],
        ]

    def render(self) -> str:
        """ASCII rendering of the Figure 1 narrative."""
        return format_table(["Property", "Value"], self.rows(),
                            title="Figure 1 — adversarial example generation "
                                  f"(paper adds {paper_values.FIGURE_1['added_api_calls']} API calls)")


def run(context: ExperimentContext, n_added_features: int = 2) -> Figure1Result:
    """Craft one adversarial example by adding ``n_added_features`` API calls."""
    target = context.target_model
    malware = context.attack_malware
    catalog = context.generator.catalog

    # Attack every malware sample with the tiny two-feature budget and
    # illustrate with one that actually flips (preferring the most confidently
    # detected one), exactly like the paper's Figure 1 narrative.  If none
    # flips at this budget, fall back to the most confidently detected sample.
    gamma = n_added_features / malware.n_features
    constraints = PerturbationConstraints(theta=0.1, gamma=gamma)
    attack = JsmaAttack(target.network, constraints=constraints, early_stop=False)
    batch_result = attack.run(malware.features)

    confidences = target.malware_confidence(malware.features)
    evaded = np.flatnonzero(target.predict(batch_result.adversarial) == CLASS_CLEAN)
    if evaded.size:
        index = int(evaded[np.argmax(confidences[evaded])])
    else:
        index = int(np.argmax(confidences))
    original = malware.features[index:index + 1]
    result = attack.run(original)

    changed = np.flatnonzero(np.abs(result.adversarial[0] - original[0]) > 1e-12)
    sample_id = (malware.sample_ids[index]
                 if malware.sample_ids is not None else f"malware-{index}")
    return Figure1Result(
        sample_id=sample_id,
        added_apis=[catalog.name_of(int(i)) for i in changed],
        added_feature_indices=[int(i) for i in changed],
        original_malware_confidence=float(target.malware_confidence(original)[0]),
        adversarial_malware_confidence=float(target.malware_confidence(result.adversarial)[0]),
        original_prediction=int(target.predict(original)[0]),
        adversarial_prediction=int(target.predict(result.adversarial)[0]),
        n_features=malware.n_features,
    )
