"""Figure 2 — the grey/black-box attack framework in a real-world setting.

The paper proposes (as future work) a black-box framework: the attacker has
no knowledge of the target's training data, features or model, can only
query the deployed detector for decisions, trains a substitute from those
decisions, and relies on transferability.  This experiment runs that full
pipeline on the synthetic substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.attacks.blackbox import BlackBoxAttackReport, BlackBoxFramework
from repro.attacks.constraints import PerturbationConstraints
from repro.data.oracle import LabelOracle
from repro.evaluation.reports import format_table
from repro.experiments.context import ExperimentContext


@dataclass
class Figure2Result:
    """Black-box engagement statistics."""

    report: BlackBoxAttackReport
    baseline_detection_rate: float
    theta: float
    gamma: float

    @property
    def target_detection_rate(self) -> float:
        """Target detection rate on the black-box adversarial examples."""
        return self.report.transfer.target_detection_rate

    @property
    def transfer_rate(self) -> float:
        """Transfer rate of the black-box attack."""
        return self.report.transfer.transfer_rate

    def attack_is_effective(self, margin: float = 0.1) -> bool:
        """Whether the black-box attack lowers detection below the baseline."""
        return self.target_detection_rate < self.baseline_detection_rate - margin

    def rows(self) -> List[List[object]]:
        """Summary rows."""
        return [
            ["seed set size", self.report.seed_set_size],
            ["augmentation rounds", self.report.augmentation_rounds],
            ["oracle queries", self.report.oracle_queries],
            ["substitute/oracle agreement", self.report.substitute_agreement],
            ["baseline target detection", self.baseline_detection_rate],
            ["target detection on advEx", self.target_detection_rate],
            ["transfer rate", self.transfer_rate],
            ["theta / gamma", f"{self.theta} / {self.gamma}"],
        ]

    def render(self) -> str:
        """ASCII rendering."""
        return format_table(["Property", "Value"], self.rows(),
                            title="Figure 2 — black-box attack framework")


def run(context: ExperimentContext, theta: float = 0.1, gamma: float = 0.025,
        seed_samples: Optional[int] = None, augmentation_rounds: int = 2) -> Figure2Result:
    """Run the black-box framework against the deployed target model."""
    target = context.target_model
    malware = context.attack_malware

    seed_samples = seed_samples if seed_samples is not None else max(
        64, context.scale.val_total)
    seed_set = context.corpus.validation
    if seed_set.n_samples > seed_samples:
        seed_set = seed_set.sample(seed_samples,
                                   random_state=context.seeds.seed_for("figure2:seed_set"))

    oracle = LabelOracle(target)
    framework = BlackBoxFramework(
        oracle,
        scale=context.scale,
        augmentation_rounds=augmentation_rounds,
        constraints=PerturbationConstraints(theta=theta, gamma=gamma),
        random_state=context.seeds.seed_for("figure2:framework"),
    )
    report = framework.execute(seed_set.features, malware.features)
    return Figure2Result(
        report=report,
        baseline_detection_rate=target.detection_rate(malware.features),
        theta=theta,
        gamma=gamma,
    )
