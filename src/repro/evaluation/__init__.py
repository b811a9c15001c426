"""Evaluation metrics and harnesses (Section II-D).

* :mod:`security_curve` — detection rate as a function of attack strength
  (the x/y axes of Figures 3 and 4), including the per-point sweep harness;
* :mod:`sweep` — the trajectory-replay sweep engine: one instrumented
  attack run per γ security curve, operating points materialized by
  slicing the recorded trajectory;
* :mod:`distances` — L2-distance analysis between malware, clean and
  adversarial example populations (Figure 5);
* :mod:`reports` — plain-text table rendering used by the experiment
  drivers and the benchmark harness (Tables I, IV, V, VI).
"""

from repro.evaluation.distances import DistanceReport, l2_distance_report, mean_pairwise_l2, paired_l2
from repro.evaluation.reports import format_table, render_defense_table
from repro.evaluation.robustness import (
    RobustnessReport,
    compare_robustness,
    minimal_evasion_budget,
    robustness_from_trajectory,
)
from repro.evaluation.transfer_matrix import TransferMatrix, transfer_matrix
from repro.evaluation.security_curve import (
    SecurityCurve,
    SecurityCurvePoint,
    gamma_sweep,
    theta_sweep,
)
from repro.evaluation.sweep import (
    ReplaySweep,
    dispatch_gamma_sweep,
    replay_gamma_sweep,
    score_sweep_points,
    supports_replay,
)

__all__ = [
    "SecurityCurve",
    "SecurityCurvePoint",
    "gamma_sweep",
    "theta_sweep",
    "ReplaySweep",
    "dispatch_gamma_sweep",
    "replay_gamma_sweep",
    "score_sweep_points",
    "supports_replay",
    "robustness_from_trajectory",
    "DistanceReport",
    "paired_l2",
    "mean_pairwise_l2",
    "l2_distance_report",
    "format_table",
    "render_defense_table",
    "RobustnessReport",
    "minimal_evasion_budget",
    "compare_robustness",
    "TransferMatrix",
    "transfer_matrix",
]
