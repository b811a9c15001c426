"""Figure 3 — security evaluation curves for the white-box attack.

(a) θ = 0.1 with γ swept over [0 : 0.005 : 0.030] (0 to 14 added features);
(b) γ = 0.025 with θ swept over [0 : 0.0125 : 0.15].

The paper additionally notes that randomly adding features does not decrease
the detection rate, so each sweep also carries a random-addition baseline.

The figure is three declarative scenarios (see :func:`specs`) run through
:func:`repro.scenarios.run_scenario`; this module only supplies the specs
and the two-panel rendering.  The γ panels execute through the
trajectory-replay sweep engine (one instrumented JSMA run per curve, see
:mod:`repro.evaluation.sweep`); the random-addition control has no
trajectory and runs per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.evaluation.reports import render_security_curve
from repro.evaluation.security_curve import (
    SecurityCurve,
    paper_gamma_grid,
    paper_theta_grid,
)
from repro.experiments import paper_values
from repro.experiments.context import ExperimentContext
from repro.scenarios import ScenarioSpec


@dataclass
class Figure3Result:
    """Both panels of Figure 3 plus the random baseline curves."""

    gamma_curve: SecurityCurve
    theta_curve: SecurityCurve
    random_gamma_curve: SecurityCurve
    baseline_detection_rate: float
    paper_operating_point: Dict[str, float]

    def operating_point_detection(self) -> float:
        """Detection rate at the paper's operating point (θ=0.1, γ=0.025)."""
        best = None
        for point in self.gamma_curve.points:
            if abs(point.gamma - self.paper_operating_point["gamma"]) < 1e-9:
                best = point.detection_rates["target"]
        if best is None and self.gamma_curve.points:
            best = self.gamma_curve.points[-1].detection_rates["target"]
        return float(best) if best is not None else float("nan")

    def attack_beats_random(self) -> bool:
        """Whether JSMA is strictly more effective than random addition."""
        jsma_min = self.gamma_curve.minimum_detection_rate("target")
        random_min = self.random_gamma_curve.minimum_detection_rate("target")
        return jsma_min < random_min - 0.1

    def render(self) -> str:
        """ASCII rendering of both panels."""
        parts = [
            render_security_curve(self.gamma_curve,
                                  title="Figure 3(a) — white-box, theta=0.1, gamma sweep"),
            "",
            render_security_curve(self.theta_curve,
                                  title="Figure 3(b) — white-box, gamma=0.025, theta sweep"),
            "",
            render_security_curve(self.random_gamma_curve,
                                  title="Figure 3(a) control — random feature addition"),
            "",
            (f"paper operating point detection rate: "
             f"{paper_values.WHITE_BOX['detection_rate']:.3f}; "
             f"reproduced: {self.operating_point_detection():.3f}; "
             f"no-attack baseline: {self.baseline_detection_rate:.3f}"),
        ]
        return "\n".join(parts)


def specs(context: ExperimentContext, n_gamma_points: Optional[int] = None,
          n_theta_points: Optional[int] = None) -> Dict[str, ScenarioSpec]:
    """The three scenarios Figure 3 consists of (keyed by panel)."""
    gamma_grid = tuple(paper_gamma_grid(n_gamma_points
                                        or context.scale.sweep_points_gamma))
    theta_grid = tuple(paper_theta_grid(n_theta_points
                                        or context.scale.sweep_points_theta))
    common = dict(model="target", scale=context.scale.name, seed=context.seed)
    return {
        "gamma": ScenarioSpec(attack="jsma", sweep="gamma", theta=0.1,
                              sweep_values=gamma_grid,
                              label="figure3(a) white-box gamma sweep", **common),
        "theta": ScenarioSpec(attack="jsma", sweep="theta", gamma=0.025,
                              sweep_values=theta_grid,
                              label="figure3(b) white-box theta sweep", **common),
        "random": ScenarioSpec(attack="random_addition",
                               attack_params={"seed_name": "figure3:random"},
                               sweep="gamma", theta=0.1, sweep_values=gamma_grid,
                               label="figure3(a) random-addition control",
                               **common),
    }


def run(context: ExperimentContext, n_gamma_points: Optional[int] = None,
        n_theta_points: Optional[int] = None,
        workers: Optional[int] = None) -> Figure3Result:
    """Run the white-box sweeps against the target model.

    ``workers`` > 1 fans the three panel scenarios out over a process pool
    (see :func:`repro.parallel.run_spec_reports`); the rendering is
    byte-identical either way under float64.
    """
    from repro.parallel.grid import run_spec_reports  # lazy: avoids an import cycle

    reports = run_spec_reports(specs(context, n_gamma_points, n_theta_points),
                               context=context, workers=workers)
    return Figure3Result(
        gamma_curve=reports["gamma"].curve,
        theta_curve=reports["theta"].curve,
        random_gamma_curve=reports["random"].curve,
        baseline_detection_rate=reports["gamma"].baseline_detection["target"],
        paper_operating_point={"theta": paper_values.WHITE_BOX["theta"],
                               "gamma": paper_values.WHITE_BOX["gamma"],
                               "detection_rate": paper_values.WHITE_BOX["detection_rate"]},
    )
