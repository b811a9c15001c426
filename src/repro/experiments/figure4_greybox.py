"""Figure 4 — security evaluation curves for the grey-box attacks.

Three experiments from Section III-B:

(a) the attacker knows the exact 491 features: a Table IV substitute is
    trained on the attacker's own data, examples are crafted on it
    (θ = 0.1, γ swept) and replayed on the target;
(b) same, with γ = 0.005 fixed and θ swept;
(c) the attacker only knows the API names: the substitute uses *binary*
    features, so the crafted perturbations transfer much more poorly to the
    count-feature target.

Crafting for transfer uses the full γ budget (``early_stop=False``): stopping
as soon as the substitute is fooled produces minimal perturbations that do
not transfer, whereas the paper's CleverHans configuration perturbs up to the
budget.

Both γ panels run through the trajectory-replay sweep engine
(:mod:`repro.evaluation.sweep`): panel (a) via its scenario, and panel (c)
directly — one instrumented binary-substitute run supplies the substitute
curve, every target-side count-space realisation *and* the operating-point
transfer result, where the seed driver re-crafted from scratch twice per
grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.attacks.jsma import JsmaAttack
from repro.attacks.transfer import TransferResult
from repro.attacks.constraints import PerturbationConstraints
from repro.evaluation.reports import render_security_curve
from repro.evaluation.security_curve import (
    SecurityCurve,
    paper_gamma_grid,
    paper_theta_grid,
)
from repro.evaluation.sweep import replay_gamma_sweep, score_sweep_points
from repro.experiments import paper_values
from repro.experiments.context import ExperimentContext
from repro.scenarios import ScenarioSpec


@dataclass
class Figure4Result:
    """All three grey-box panels plus the paper's headline operating points."""

    gamma_curve: SecurityCurve
    theta_curve: SecurityCurve
    binary_gamma_curve: SecurityCurve
    operating_point: TransferResult
    binary_operating_point: TransferResult
    baseline_detection_rate: float

    @property
    def transfer_rate(self) -> float:
        """Transfer rate at the paper's (θ=0.1, γ=0.005) operating point."""
        return self.operating_point.transfer_rate

    @property
    def binary_transfer_rate(self) -> float:
        """Transfer rate of the binary-feature substitute attack."""
        return self.binary_operating_point.transfer_rate

    def count_attack_transfers_better_than_binary(self) -> bool:
        """The paper's qualitative claim: less feature knowledge ⇒ worse transfer."""
        count_min = self.gamma_curve.minimum_detection_rate("target")
        binary_min = self.binary_gamma_curve.minimum_detection_rate("target")
        return count_min < binary_min

    def render(self) -> str:
        """ASCII rendering of all panels."""
        parts = [
            render_security_curve(self.gamma_curve,
                                  title="Figure 4(a) — grey-box, theta=0.1, gamma sweep"),
            "",
            render_security_curve(self.theta_curve,
                                  title="Figure 4(b) — grey-box, gamma=0.005, theta sweep"),
            "",
            render_security_curve(self.binary_gamma_curve,
                                  title="Figure 4(c) — grey-box, binary-feature substitute"),
            "",
            (f"operating point (theta=0.1, gamma=0.005): reproduced target detection "
             f"{self.operating_point.target_detection_rate:.3f} / transfer "
             f"{self.transfer_rate:.3f}; paper "
             f"{paper_values.GREY_BOX_COUNTS['target_detection_rate']:.3f} / "
             f"{paper_values.GREY_BOX_COUNTS['transfer_rate']:.3f}"),
            (f"binary substitute: reproduced target detection "
             f"{self.binary_operating_point.target_detection_rate:.3f}; paper "
             f"{paper_values.GREY_BOX_BINARY['target_detection_rate']:.3f}"),
        ]
        return "\n".join(parts)


def specs(context: ExperimentContext, n_gamma_points: Optional[int] = None,
          n_theta_points: Optional[int] = None) -> Dict[str, ScenarioSpec]:
    """The count-substitute scenarios Figure 4 consists of (keyed by panel).

    Panel (c) — the binary-feature substitute — needs a bespoke replay step
    (binary perturbations are realised as added API calls in the target's
    count space), so it stays in :func:`run`.
    """
    gamma_grid = tuple(paper_gamma_grid(n_gamma_points
                                        or context.scale.sweep_points_gamma))
    theta_grid = tuple(paper_theta_grid(n_theta_points
                                        or context.scale.sweep_points_theta))
    common = dict(attack="jsma", attack_params={"early_stop": False},
                  model="substitute", scale=context.scale.name,
                  seed=context.seed)
    return {
        "gamma": ScenarioSpec(sweep="gamma", theta=0.1, sweep_values=gamma_grid,
                              label="figure4(a) grey-box gamma sweep", **common),
        "theta": ScenarioSpec(sweep="theta", gamma=0.005, sweep_values=theta_grid,
                              label="figure4(b) grey-box theta sweep", **common),
        "operating_point": ScenarioSpec(
            theta=paper_values.GREY_BOX_COUNTS["theta"],
            gamma=paper_values.GREY_BOX_COUNTS["gamma"],
            label="figure4 operating point (theta=0.1, gamma=0.005)", **common),
    }


def run(context: ExperimentContext, n_gamma_points: Optional[int] = None,
        n_theta_points: Optional[int] = None,
        workers: Optional[int] = None) -> Figure4Result:
    """Run the grey-box sweeps (count substitute and binary substitute).

    ``workers`` > 1 fans the count-substitute scenarios out over a process
    pool; panel (c)'s bespoke binary replay stays in-process either way.
    """
    from repro.parallel.grid import run_spec_reports  # lazy: avoids an import cycle

    target = context.target_model
    substitute = context.substitute_model
    malware = context.attack_malware
    gamma_grid = paper_gamma_grid(n_gamma_points or context.scale.sweep_points_gamma)

    reports = run_spec_reports(specs(context, n_gamma_points, n_theta_points),
                               context=context, workers=workers)
    gamma_curve = reports["gamma"].curve
    theta_curve = reports["theta"].curve
    operating_report = reports["operating_point"]
    operating_point = TransferResult(
        attack_result=operating_report.attack_result,
        substitute_detection_rate=operating_report.detection["substitute"],
        target_detection_rate=operating_report.detection["target"],
        target_detection_rate_original=operating_report.baseline_detection["target"],
    )

    # Panel (c): the binary-feature substitute.  The attacker does not know
    # the target's count transformation, so they craft in their own binary
    # feature space (a perturbed feature means "make this API present", i.e.
    # the natural per-feature magnitude is 1.0).  To realise the attack they
    # add a handful of calls to each selected API; the *target* then sees the
    # count-normalised value of those few calls, which is far smaller than
    # what the substitute was satisfied by — the feature-knowledge gap that
    # makes this attack transfer poorly in the paper.
    binary_substitute = context.binary_substitute
    malware_binary = (malware.features > 0).astype(np.float64)
    scales = context.pipeline.transformer.scales
    calls_per_feature = 1.0

    def binary_attack(constraints: PerturbationConstraints) -> JsmaAttack:
        binary_constraints = constraints.with_strength(theta=1.0)
        return JsmaAttack(binary_substitute.network, constraints=binary_constraints,
                          early_stop=False)

    def replay_on_target(adversarial_binary: np.ndarray) -> np.ndarray:
        changed = (adversarial_binary - malware_binary) > 1e-12
        count_delta = changed * (calls_per_feature / scales[None, :])
        return np.clip(malware.features + count_delta, 0.0, 1.0)

    # One instrumented full-budget run covers the whole panel: each grid
    # point (substitute side), every target-side realisation, and the
    # operating-point transfer result are views over the same trajectory —
    # the seed driver re-crafted from scratch *twice* per grid point.
    binary_models = {"substitute": binary_substitute.network}
    binary_sweep = replay_gamma_sweep(binary_attack, malware_binary,
                                      binary_models, theta=0.1,
                                      gamma_values=gamma_grid)
    binary_curve = binary_sweep.curve
    # Add the target's detection rate at each point by realising the binary
    # perturbations as "add a few API calls" in the target's count space
    # (all points through one stacked target predict).
    target_rates, target_evaded = score_sweep_points(
        {"target": target.network},
        [replay_on_target(adversarial)
         for adversarial in binary_sweep.adversarials])
    for point, rates, evaded in zip(binary_curve.points, target_rates,
                                    target_evaded):
        point.detection_rates["target"] = rates["target"]
        point.evaded_counts["target"] = evaded["target"]

    operating_gamma = 0.025
    if binary_sweep.budget_for(operating_gamma) <= binary_sweep.trajectory.budget:
        operating_crafted = binary_sweep.result_at(operating_gamma)
    else:  # grid subsampled below the paper operating point: craft directly
        operating_crafted = binary_attack(
            PerturbationConstraints(theta=0.1, gamma=operating_gamma)).run(malware_binary)
    from repro.nn.metrics import detection_rate as _detection_rate

    operating_target_rate = _detection_rate(
        target.network.predict(replay_on_target(operating_crafted.adversarial)))
    binary_operating = TransferResult(
        attack_result=operating_crafted,
        substitute_detection_rate=operating_crafted.detection_rate,
        target_detection_rate=operating_target_rate,
        target_detection_rate_original=target.detection_rate(malware.features),
    )

    return Figure4Result(
        gamma_curve=gamma_curve,
        theta_curve=theta_curve,
        binary_gamma_curve=binary_curve,
        operating_point=operating_point,
        binary_operating_point=binary_operating,
        baseline_detection_rate=target.detection_rate(malware.features),
    )
