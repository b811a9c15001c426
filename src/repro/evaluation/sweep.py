"""Trajectory-replay sweep engine for γ security curves.

A γ-sweep at fixed θ re-runs the same greedy add-only attack with nothing
but the feature budget changed.  JSMA's trajectory is *prefix-identical*
across budgets (see :mod:`repro.attacks.trajectory`), so the per-point
recomputation the seed harness did — one complete attack per grid point —
collapses to:

1. **one** full-budget instrumented run at the largest γ of the grid;
2. each operating point materialized by slicing the recorded trajectory
   prefix (honouring per-budget early-stop semantics: the log already ends
   where a smaller-budget run would have stopped);
3. all points × models scored through **one** stacked ``predict`` per
   model, over only the rows that differ from the full-budget run's final
   matrix (a row whose trajectory fits in a point's budget *is* the final
   row, so it shares the final row's labels and L2 distance).

Under float64 the resulting :class:`~repro.evaluation.security_curve
.SecurityCurve` is byte-identical to the per-point path (``as_rows`` and
the rendered figure text) — the replay-parity tests and
``benchmarks/test_bench_sweep.py`` pin this, and the bench records the
wall-clock win (≈ number-of-grid-points × less attack compute).

θ-sweeps cannot share trajectories (θ changes the step content), but the
stacked-prediction scoring in :func:`score_sweep_points` is shared with the
per-point path, so they get the prediction fusion for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.trajectory import JsmaTrajectory, TrajectoryRecorder
from repro.config import CLASS_CLEAN
from repro.evaluation.security_curve import (
    AttackFactory,
    SecurityCurve,
    SecurityCurvePoint,
)
from repro.exceptions import AttackError
from repro.nn.metrics import detection_rate
from repro.utils.validation import check_matrix

__all__ = [
    "ReplaySweep",
    "dispatch_gamma_sweep",
    "replay_gamma_sweep",
    "score_sweep_points",
    "supports_replay",
]


def supports_replay(attack) -> bool:
    """Whether ``attack`` records budget-sliceable trajectories."""
    return bool(getattr(attack, "supports_trajectory", False))


def _point_scores(labels: Dict[str, np.ndarray]
                  ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """One point's detection rates and evaded counts, per model.

    ``labels`` maps model name to that model's hard predictions.  Evaded
    counts are read directly off the evasion mask (``prediction == clean``)
    — no float round-tripping through the rate.
    """
    return ({name: detection_rate(point) for name, point in labels.items()},
            {name: int(np.count_nonzero(point == CLASS_CLEAN))
             for name, point in labels.items()})


def score_sweep_points(models: Dict[str, object],
                       adversarials: Sequence[np.ndarray],
                       ) -> Tuple[List[Dict[str, float]], List[Dict[str, int]]]:
    """Detection rates and evaded counts for every (point, model) pair.

    One stacked ``predict`` per model over all points' adversarial matrices
    replaces ``points × models`` separate calls.

    Returns ``(rates, evaded)``: per point, a ``{model_name: value}`` dict.
    """
    if not adversarials:
        return [], []
    boundaries = np.cumsum([adversarial.shape[0]
                            for adversarial in adversarials])[:-1]
    stacked = np.vstack(adversarials)
    labels = {name: np.split(model.predict(stacked), boundaries)
              for name, model in models.items()}
    scores = [_point_scores({name: per_point[index]
                             for name, per_point in labels.items()})
              for index in range(len(adversarials))]
    return [rates for rates, _ in scores], [evaded for _, evaded in scores]


@dataclass
class ReplaySweep:
    """One instrumented run plus everything the γ grid derives from it.

    ``curve`` is the security curve consumers plot; the rest exposes the
    shared substrate so drivers can derive *more* views (per-point
    :class:`AttackResult`\\ s, target-side replays, robustness
    distributions) without another attack run.
    """

    curve: SecurityCurve
    trajectory: JsmaTrajectory
    attack: Attack
    original: np.ndarray
    full_result: AttackResult
    budgets: List[int]
    adversarials: List[np.ndarray]
    n_features: int

    def budget_for(self, gamma: float) -> int:
        """The feature budget an operating point at ``gamma`` maps to."""
        return self.attack.constraints.with_strength(
            gamma=float(gamma)).max_features(self.n_features)

    def adversarial_at(self, gamma: float) -> np.ndarray:
        """The adversarial matrix of the operating point at ``gamma``."""
        return self.trajectory.materialize(self.original, self.budget_for(gamma))

    def result_at(self, gamma: float) -> AttackResult:
        """A full :class:`AttackResult` for one γ, materialized by replay.

        Byte-identical (under float64) to ``attack_factory(constraints)
        .run(features)`` at that operating point: the adversarial matrix is
        the sliced trajectory, the original predictions are shared from the
        instrumented run, and only the adversarial matrix is re-predicted.
        """
        budget = self.budget_for(gamma)
        adversarial = self.trajectory.materialize(self.original, budget)
        changed = np.abs(adversarial - self.original) > 1e-12
        return AttackResult(
            original=self.original,
            adversarial=adversarial,
            original_predictions=self.full_result.original_predictions,
            adversarial_predictions=self.attack.network.predict(adversarial),
            perturbed_features=changed.sum(axis=1).astype(np.int64),
            constraints=self.attack.constraints.with_strength(gamma=float(gamma)),
            attack_name=self.attack.name,
            iterations=self.trajectory.perturbation_counts(budget),
        )


def replay_gamma_sweep(attack_factory: AttackFactory,
                       malware_features: np.ndarray,
                       models: Dict[str, object], theta: float,
                       gamma_values: Sequence[float],
                       n_features: Optional[int] = None,
                       attack: Optional[Attack] = None) -> ReplaySweep:
    """γ-sweep via one instrumented run (the replay engine's full view).

    Parameters mirror :func:`repro.evaluation.security_curve.gamma_sweep`;
    ``attack`` optionally supplies an already-built full-budget attack (the
    probe the strategy switch constructed) so the factory is not invoked
    twice.  Raises :class:`AttackError` when the attack does not record
    trajectories — callers wanting a transparent fallback should check
    :func:`supports_replay` first.
    """
    malware_features = check_matrix(malware_features, name="malware_features")
    n_features = n_features if n_features is not None else malware_features.shape[1]
    if not models:
        raise AttackError("at least one model must be evaluated")
    gamma_values = [float(gamma) for gamma in gamma_values]
    if not gamma_values:
        raise AttackError("gamma_values must contain at least one point")

    full_constraints = PerturbationConstraints(theta=float(theta),
                                               gamma=max(gamma_values))
    if attack is None:
        attack = attack_factory(full_constraints)
    if not supports_replay(attack):
        raise AttackError(
            f"attack {getattr(attack, 'name', attack)!r} does not record "
            f"trajectories; use strategy='per_point'")

    recorder = TrajectoryRecorder()
    full_result = attack.run(malware_features, recorder=recorder)
    trajectory = recorder.trajectory
    original = full_result.original

    # max_features only depends on γ, but go through the attack's own
    # constraints so factories that override θ (e.g. the binary grey-box
    # substitute crafting at θ=1.0) keep consistent semantics.
    budgets = [attack.constraints.with_strength(gamma=gamma)
               .max_features(n_features) for gamma in gamma_values]
    adversarials = trajectory.materialize_grid(original, budgets)
    # A row whose whole trajectory fits in a point's budget is byte-identical
    # to that row of the instrumented run's final matrix, so it shares the
    # final row's labels (for the crafting model, the ones _package already
    # computed) and L2 distance.  Only the other rows of each point are
    # scored, through one stacked predict per model.
    final = full_result.adversarial
    counts = trajectory.perturbation_counts()
    fresh = [np.flatnonzero(counts > budget) for budget in budgets]
    fresh_matrix = np.vstack([adversarial[rows]
                              for adversarial, rows in zip(adversarials, fresh)])
    boundaries = np.cumsum([rows.size for rows in fresh])[:-1]
    labels: List[Dict[str, np.ndarray]] = [{} for _ in budgets]
    for name, model in models.items():
        settled = (full_result.adversarial_predictions
                   if model is getattr(attack, "network", None)
                   else model.predict(final))
        scored = (np.split(model.predict(fresh_matrix), boundaries)
                  if fresh_matrix.shape[0]  # detectors reject empty input
                  else [settled[rows] for rows in fresh])
        for point, rows, rows_scored in zip(labels, fresh, scored):
            point[name] = settled.copy()
            point[name][rows] = rows_scored
    final_l2 = np.linalg.norm(final - original, axis=1)

    curve = SecurityCurve(swept_parameter="gamma", fixed_value=float(theta),
                          attack_name=attack.name)
    for gamma, budget, adversarial, rows, point in zip(
            gamma_values, budgets, adversarials, fresh, labels):
        l2 = final_l2.copy()
        l2[rows] = np.linalg.norm(adversarial[rows] - original[rows], axis=1)
        point_rates, point_evaded = _point_scores(point)
        curve.points.append(SecurityCurvePoint(
            theta=float(theta),
            gamma=float(gamma),
            n_perturbed_features=budget,
            detection_rates=point_rates,
            mean_l2_distance=float(np.mean(l2)),
            evaded_counts=point_evaded,
            swept_parameter="gamma",
        ))
    return ReplaySweep(curve=curve, trajectory=trajectory, attack=attack,
                       original=original, full_result=full_result,
                       budgets=budgets, adversarials=adversarials,
                       n_features=n_features)


def dispatch_gamma_sweep(attack_factory: AttackFactory,
                         malware_features: np.ndarray,
                         models: Dict[str, object], theta: float,
                         gamma_values: Sequence[float],
                         strategy: str = "replay",
                         ) -> Tuple[SecurityCurve, Optional[ReplaySweep]]:
    """Run a γ-sweep under ``strategy``; the one replay/per-point decision.

    Returns ``(curve, replay)`` where ``replay`` is the
    :class:`ReplaySweep` when the replay engine ran (strategy ``"replay"``
    and the attack records trajectories) and ``None`` when the per-point
    path did.  Both :func:`repro.evaluation.security_curve.gamma_sweep`
    and the scenario runner route through here so the probe construction
    and fallback rules cannot diverge.
    """
    from repro.evaluation.security_curve import SWEEP_STRATEGIES, _sweep

    if strategy not in SWEEP_STRATEGIES:
        raise AttackError(
            f"strategy must be one of {SWEEP_STRATEGIES}, got {strategy!r}")
    gamma_values = [float(gamma) for gamma in gamma_values]
    if strategy == "replay" and gamma_values:
        probe = attack_factory(PerturbationConstraints(theta=float(theta),
                                                       gamma=max(gamma_values)))
        if supports_replay(probe):
            replay = replay_gamma_sweep(attack_factory, malware_features,
                                        models, theta=theta,
                                        gamma_values=gamma_values,
                                        attack=probe)
            return replay.curve, replay
    curve = _sweep(attack_factory, malware_features, models,
                   theta_values=[float(theta)] * len(gamma_values),
                   gamma_values=gamma_values,
                   swept_parameter="gamma", fixed_value=float(theta))
    return curve, None

