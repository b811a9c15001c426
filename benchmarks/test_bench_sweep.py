"""Bench: trajectory-replay γ-sweeps vs the per-point seed path.

The paper's central artifact — the Figure 3/4 security curves — used to cost
one complete JSMA run per grid point.  The replay engine
(:mod:`repro.evaluation.sweep`) runs the attack once at the largest γ with a
trajectory recorder and slices the log per operating point, scoring all
points × models through one stacked predict per model.

Measured here, on the paper γ grid (7 points):

* replay vs the *seed-equivalent* per-point sweep (attack per point,
  separate predicts per point × model, float-round-tripped evaded counts) —
  the configuration PR 5 replaced — gated at ≥ 3× for the white-box curve;
* replay vs the current fused per-point fallback (``strategy="per_point"``),
  recorded for both the white-box and the grey-box transfer settings;
* parity: the replayed curve must be byte-identical to the per-point curves
  (``as_rows`` and rendered text) — ``parity_mismatches == 0`` is asserted
  unconditionally, independent of any timing.

Numbers land in ``BENCH_sweep.json`` at the repository root.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import BenchJson, abba_best, save_rendering, timed

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.evaluation.reports import render_security_curve
from repro.evaluation.security_curve import (
    PAPER_GAMMA_GRID,
    PAPER_THETA_GRID,
    SecurityCurve,
    SecurityCurvePoint,
    gamma_sweep,
    theta_sweep,
)
from repro.nn.metrics import detection_rate

BENCH = BenchJson("sweep")


def best_of(func, repeats: int = 3):
    """Best wall time over ``repeats`` single calls (plus the last result)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _seed_equivalent_gamma_sweep(attack_factory, malware_features, models,
                                 theta, gamma_values) -> SecurityCurve:
    """The pre-replay sweep loop, verbatim: attack + predicts per point."""
    n_features = malware_features.shape[1]
    curve = SecurityCurve(swept_parameter="gamma", fixed_value=theta)
    for gamma in gamma_values:
        constraints = PerturbationConstraints(theta=float(theta), gamma=float(gamma))
        attack = attack_factory(constraints)
        curve.attack_name = attack.name
        result = attack.run(malware_features)
        rates = {name: detection_rate(model.predict(result.adversarial))
                 for name, model in models.items()}
        evaded = {name: int(round((1.0 - rate) * result.n_samples))
                  for name, rate in rates.items()}
        curve.points.append(SecurityCurvePoint(
            theta=float(theta), gamma=float(gamma),
            n_perturbed_features=constraints.max_features(n_features),
            detection_rates=rates,
            mean_l2_distance=result.mean_l2_distance,
            evaded_counts=evaded,
            swept_parameter="gamma",
        ))
    return curve


def _parity_mismatches(replayed: SecurityCurve, reference: SecurityCurve) -> int:
    """Number of differing operating points (rows compared field-by-field)."""
    mismatches = sum(got != want for got, want in zip(replayed.as_rows(),
                                                      reference.as_rows()))
    mismatches += abs(len(replayed.points) - len(reference.points))
    if render_security_curve(replayed) != render_security_curve(reference):
        mismatches = max(mismatches, 1)
    return mismatches


@pytest.fixture(scope="module")
def sweep_inputs(bench_context):
    """Trained models + attack malware shared by every sweep bench."""
    return (bench_context.target_model.network,
            bench_context.substitute_model.network,
            bench_context.attack_malware.features)


def test_bench_gamma_replay_whitebox(sweep_inputs, results_dir):
    """Figure 3(a) configuration: replay >= 3x the seed per-point path."""
    target, _, malware = sweep_inputs
    models = {"target": target}
    grid = list(PAPER_GAMMA_GRID)

    def factory(constraints):
        return JsmaAttack(target, constraints=constraints)

    # The >= 3x gate below is a hard CI assert: take the best of six runs
    # per side, timed in ABBA blocks, so scheduler noise and drift cannot
    # fake a regression.
    (replay_s, replayed), (seed_s, seed_curve) = abba_best(
        timed(lambda: gamma_sweep(factory, malware, models, theta=0.1,
                                  gamma_values=grid, strategy="replay")),
        timed(lambda: _seed_equivalent_gamma_sweep(
            factory, malware, models, theta=0.1, gamma_values=grid)))
    fused_s, fused_curve = best_of(lambda: gamma_sweep(
        factory, malware, models, theta=0.1, gamma_values=grid,
        strategy="per_point"))

    mismatches = max(_parity_mismatches(replayed, seed_curve),
                     _parity_mismatches(replayed, fused_curve))
    speedup_vs_seed = seed_s / replay_s
    speedup_vs_fused = fused_s / replay_s
    BENCH.record("gamma_sweep_whitebox", replay_s=replay_s, seed_per_point_s=seed_s,
                 fused_per_point_s=fused_s, speedup_vs_seed=speedup_vs_seed,
                 speedup_vs_fused=speedup_vs_fused, grid_points=len(grid),
                 n_samples=malware.shape[0], parity_mismatches=mismatches)
    save_rendering(results_dir, "sweep_gamma_whitebox",
                   render_security_curve(
                       replayed, title="white-box gamma sweep (replayed)"))
    print(f"\ngamma replay (white-box): {replay_s * 1e3:.1f} ms vs seed "
          f"per-point {seed_s * 1e3:.1f} ms ({speedup_vs_seed:.2f}x), fused "
          f"per-point {fused_s * 1e3:.1f} ms ({speedup_vs_fused:.2f}x)")

    # Parity gates first, unconditionally: a fast wrong curve is worthless.
    assert mismatches == 0
    assert speedup_vs_seed >= 3.0


def test_bench_gamma_replay_greybox_transfer(sweep_inputs):
    """Figure 4(a) configuration: full-budget crafting, two scored models."""
    target, substitute, malware = sweep_inputs
    models = {"substitute": substitute, "target": target}
    grid = list(PAPER_GAMMA_GRID)

    def factory(constraints):
        return JsmaAttack(substitute, constraints=constraints, early_stop=False)

    replay_s, replayed = best_of(lambda: gamma_sweep(
        factory, malware, models, theta=0.1, gamma_values=grid,
        strategy="replay"))
    seed_s, seed_curve = best_of(lambda: _seed_equivalent_gamma_sweep(
        factory, malware, models, theta=0.1, gamma_values=grid))

    mismatches = _parity_mismatches(replayed, seed_curve)
    speedup = seed_s / replay_s
    BENCH.record("gamma_sweep_greybox_transfer", replay_s=replay_s,
                 seed_per_point_s=seed_s, speedup_vs_seed=speedup,
                 grid_points=len(grid), n_samples=malware.shape[0],
                 parity_mismatches=mismatches)
    print(f"\ngamma replay (grey-box transfer): {replay_s * 1e3:.1f} ms vs "
          f"seed per-point {seed_s * 1e3:.1f} ms ({speedup:.2f}x)")

    assert mismatches == 0
    # Full-budget crafting reduces the attack-compute ratio to the grid's
    # sum-of-budgets over max-budget (~3.4x here); the shared stacked-scoring
    # cost dilutes it further, so the gate sits below the white-box one.
    assert speedup >= 1.8


def test_bench_theta_sweep_fused_scoring(sweep_inputs):
    """θ-sweeps keep per-point crafting but share the fused scoring path."""
    target, _, malware = sweep_inputs
    models = {"target": target}
    thetas = list(PAPER_THETA_GRID)

    def factory(constraints):
        return JsmaAttack(target, constraints=constraints)

    fused_s, fused = best_of(lambda: theta_sweep(
        factory, malware, models, gamma=0.025, theta_values=thetas), repeats=2)

    def seed_theta_sweep():
        curve = SecurityCurve(swept_parameter="theta", fixed_value=0.025)
        for theta in thetas:
            constraints = PerturbationConstraints(theta=float(theta), gamma=0.025)
            attack = factory(constraints)
            curve.attack_name = attack.name
            result = attack.run(malware)
            rates = {name: detection_rate(model.predict(result.adversarial))
                     for name, model in models.items()}
            curve.points.append(SecurityCurvePoint(
                theta=float(theta), gamma=0.025,
                n_perturbed_features=constraints.max_features(malware.shape[1]),
                detection_rates=rates,
                mean_l2_distance=result.mean_l2_distance,
                evaded_counts={name: int(round((1.0 - rate) * result.n_samples))
                               for name, rate in rates.items()},
                swept_parameter="theta"))
        return curve

    seed_s, seed_curve = best_of(seed_theta_sweep, repeats=2)
    mismatches = _parity_mismatches(fused, seed_curve)
    BENCH.record("theta_sweep_fused", fused_s=fused_s, seed_per_point_s=seed_s,
                 speedup_vs_seed=seed_s / fused_s, grid_points=len(thetas),
                 n_samples=malware.shape[0], parity_mismatches=mismatches)
    print(f"\ntheta sweep: fused {fused_s * 1e3:.1f} ms vs seed "
          f"{seed_s * 1e3:.1f} ms ({seed_s / fused_s:.2f}x)")

    # θ changes step content, so there is no replay here — only the scoring
    # fusion.  Parity is the hard requirement; the timing is recorded.
    assert mismatches == 0


def test_bench_replayed_views_need_no_attack(sweep_inputs):
    """Deriving more operating points off a ReplaySweep costs ~no compute."""
    from repro.evaluation.sweep import replay_gamma_sweep

    target, _, malware = sweep_inputs

    def factory(constraints):
        return JsmaAttack(target, constraints=constraints, early_stop=False)

    sweep = replay_gamma_sweep(factory, malware, {"target": target},
                               theta=0.1, gamma_values=list(PAPER_GAMMA_GRID))
    attack_s, _ = best_of(lambda: factory(
        PerturbationConstraints(theta=0.1, gamma=0.02)).run(malware))
    view_s, view = best_of(lambda: sweep.result_at(0.02))
    direct = factory(PerturbationConstraints(theta=0.1, gamma=0.02)).run(malware)
    assert np.array_equal(view.adversarial, direct.adversarial)
    speedup = attack_s / view_s
    BENCH.record("replayed_operating_point", view_s=view_s, fresh_attack_s=attack_s,
                 speedup=speedup)
    print(f"\noperating-point view: {view_s * 1e3:.2f} ms vs fresh attack "
          f"{attack_s * 1e3:.1f} ms ({speedup:.1f}x)")
    assert speedup >= 3.0
