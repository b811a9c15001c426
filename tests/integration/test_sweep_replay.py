"""Replay-parity: the trajectory-replay sweep engine vs the per-point path.

The contract (ISSUE 5): under float64 a γ security curve produced by one
instrumented full-budget run + trajectory slicing is **byte-identical**
(``SecurityCurve.as_rows`` and the rendered figure text) to the seed
behaviour of re-running the attack at every operating point — including
``features_per_step > 1``, ``early_stop=False`` (the transfer setting) and
the binary grey-box variant.  Under float32 the two paths agree within 1%.
"""

import numpy as np
import pytest

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.attacks.random_noise import RandomAdditionAttack
from repro.evaluation.reports import render_security_curve
from repro.evaluation.robustness import minimal_evasion_budget
from repro.evaluation.security_curve import gamma_sweep, theta_sweep
from repro.evaluation.sweep import (
    replay_gamma_sweep,
    supports_replay,
)
from repro.exceptions import AttackError
from repro.nn.engine import use_dtype
from repro.scenarios import ScenarioSpec, run_scenario

GRID = (0.0, 0.005, 0.015, 0.03)


def _assert_curves_byte_identical(replayed, per_point):
    assert replayed.as_rows() == per_point.as_rows()
    assert render_security_curve(replayed) == render_security_curve(per_point)
    for got, want in zip(replayed.points, per_point.points):
        assert got.evaded_counts == want.evaded_counts
        assert got.n_perturbed_features == want.n_perturbed_features


class TestGammaReplayParity:
    def test_whitebox_early_stop(self, tiny_context, tiny_malware):
        network = tiny_context.target_model.network
        models = {"target": network}

        def factory(constraints):
            return JsmaAttack(network, constraints=constraints)

        replayed = gamma_sweep(factory, tiny_malware.features, models,
                               theta=0.1, gamma_values=GRID, strategy="replay")
        per_point = gamma_sweep(factory, tiny_malware.features, models,
                                theta=0.1, gamma_values=GRID,
                                strategy="per_point")
        _assert_curves_byte_identical(replayed, per_point)

    def test_greybox_full_budget_two_models(self, tiny_context, tiny_malware):
        """early_stop=False (the transfer setting), scored on both models."""
        substitute = tiny_context.substitute_model.network
        models = {"substitute": substitute,
                  "target": tiny_context.target_model.network}

        def factory(constraints):
            return JsmaAttack(substitute, constraints=constraints,
                              early_stop=False)

        replayed = gamma_sweep(factory, tiny_malware.features, models,
                               theta=0.1, gamma_values=GRID, strategy="replay")
        per_point = gamma_sweep(factory, tiny_malware.features, models,
                                theta=0.1, gamma_values=GRID,
                                strategy="per_point")
        _assert_curves_byte_identical(replayed, per_point)

    def test_features_per_step_greater_than_one(self, tiny_context, tiny_malware):
        network = tiny_context.target_model.network
        models = {"target": network}

        def factory(constraints):
            return JsmaAttack(network, constraints=constraints,
                              features_per_step=3)

        replayed = gamma_sweep(factory, tiny_malware.features, models,
                               theta=0.1, gamma_values=GRID, strategy="replay")
        per_point = gamma_sweep(factory, tiny_malware.features, models,
                                theta=0.1, gamma_values=GRID,
                                strategy="per_point")
        _assert_curves_byte_identical(replayed, per_point)

    def test_binary_greybox_variant(self, tiny_context, tiny_malware):
        """The Figure 4(c) configuration: binary features, θ overridden to 1."""
        binary = tiny_context.binary_substitute.network
        malware_binary = (tiny_malware.features > 0).astype(np.float64)
        models = {"substitute": binary}

        def factory(constraints):
            return JsmaAttack(binary,
                              constraints=constraints.with_strength(theta=1.0),
                              early_stop=False)

        replayed = gamma_sweep(factory, malware_binary, models,
                               theta=0.1, gamma_values=GRID, strategy="replay")
        per_point = gamma_sweep(factory, malware_binary, models,
                                theta=0.1, gamma_values=GRID,
                                strategy="per_point")
        _assert_curves_byte_identical(replayed, per_point)

    def test_unsorted_grid_and_gamma_zero(self, tiny_context, tiny_malware):
        """The instrumented run is pinned to the *largest* γ, not the last."""
        network = tiny_context.target_model.network
        models = {"target": network}

        def factory(constraints):
            return JsmaAttack(network, constraints=constraints)

        grid = (0.02, 0.0, 0.03, 0.005)
        replayed = gamma_sweep(factory, tiny_malware.features, models,
                               theta=0.1, gamma_values=grid, strategy="replay")
        per_point = gamma_sweep(factory, tiny_malware.features, models,
                                theta=0.1, gamma_values=grid,
                                strategy="per_point")
        _assert_curves_byte_identical(replayed, per_point)

    def test_random_addition_falls_back_to_per_point(self, tiny_context,
                                                     tiny_malware):
        network = tiny_context.target_model.network
        models = {"target": network}

        def factory(constraints):
            return RandomAdditionAttack(network, constraints=constraints,
                                        random_state=7)

        assert not supports_replay(factory(PerturbationConstraints()))
        default = gamma_sweep(factory, tiny_malware.features, models,
                              theta=0.1, gamma_values=GRID)
        per_point = gamma_sweep(factory, tiny_malware.features, models,
                                theta=0.1, gamma_values=GRID,
                                strategy="per_point")
        _assert_curves_byte_identical(default, per_point)

    def test_explicit_replay_of_trajectoryless_attack_raises(self, tiny_context,
                                                             tiny_malware):
        network = tiny_context.target_model.network

        def factory(constraints):
            return RandomAdditionAttack(network, constraints=constraints,
                                        random_state=7)

        with pytest.raises(AttackError):
            replay_gamma_sweep(factory, tiny_malware.features,
                               {"target": network}, theta=0.1,
                               gamma_values=GRID)

    def test_unknown_strategy_rejected(self, tiny_context, tiny_malware):
        network = tiny_context.target_model.network
        with pytest.raises(AttackError):
            gamma_sweep(lambda c: JsmaAttack(network, constraints=c),
                        tiny_malware.features, {"target": network},
                        theta=0.1, gamma_values=GRID, strategy="fused")

    def test_float32_agreement_within_one_percent(self, tiny_scale, tiny_corpus):
        """float32 engines: replay and per-point rates agree within 1%."""
        with use_dtype("float32"):
            from repro.models.factory import train_target_model

            model32 = train_target_model(tiny_corpus, scale=tiny_scale,
                                         random_state=5)
        network = model32.network
        malware = tiny_corpus.test.malware_only().features[:30]
        models = {"target": network}

        def factory(constraints):
            return JsmaAttack(network, constraints=constraints)

        replayed = gamma_sweep(factory, malware, models, theta=0.1,
                               gamma_values=GRID, strategy="replay")
        per_point = gamma_sweep(factory, malware, models, theta=0.1,
                                gamma_values=GRID, strategy="per_point")
        for got, want in zip(replayed.detection_rates("target"),
                             per_point.detection_rates("target")):
            assert got == pytest.approx(want, abs=0.01)


class TestReplaySweepViews:
    def test_result_at_matches_fresh_run(self, tiny_context, tiny_malware):
        network = tiny_context.target_model.network

        def factory(constraints):
            return JsmaAttack(network, constraints=constraints,
                              early_stop=False)

        sweep = replay_gamma_sweep(factory, tiny_malware.features,
                                   {"target": network}, theta=0.1,
                                   gamma_values=GRID)
        for gamma in (0.005, 0.015, 0.03):
            direct = factory(PerturbationConstraints(theta=0.1, gamma=gamma)
                             ).run(tiny_malware.features)
            view = sweep.result_at(gamma)
            np.testing.assert_array_equal(view.adversarial, direct.adversarial)
            np.testing.assert_array_equal(view.adversarial_predictions,
                                          direct.adversarial_predictions)
            np.testing.assert_array_equal(view.perturbed_features,
                                          direct.perturbed_features)
            np.testing.assert_array_equal(view.iterations, direct.iterations)
            assert view.constraints.gamma == pytest.approx(gamma)

    def test_result_beyond_recorded_budget_raises(self, tiny_context,
                                                  tiny_malware):
        network = tiny_context.target_model.network
        sweep = replay_gamma_sweep(
            lambda c: JsmaAttack(network, constraints=c),
            tiny_malware.features, {"target": network}, theta=0.1,
            gamma_values=(0.0, 0.01))
        with pytest.raises(AttackError):
            sweep.result_at(0.5)


class TestScenarioSweepStrategy:
    def test_report_payloads_identical_across_strategies(self, tiny_context):
        base = ScenarioSpec(attack="jsma", model="target", sweep="gamma",
                            theta=0.1, sweep_values=GRID, scale="tiny",
                            seed=123)
        replayed = run_scenario(base, context=tiny_context)
        per_point = run_scenario(base.with_overrides(sweep_strategy="per_point"),
                                 context=tiny_context)
        a = replayed.to_dict(include_timing=False)
        b = per_point.to_dict(include_timing=False)
        a.pop("spec")
        b.pop("spec")
        assert a == b

    def test_shared_robustness_view_matches_direct_run(self, tiny_context):
        """sweep + robustness_budget: one instrumented run serves both."""
        spec = ScenarioSpec(attack="jsma", model="target", sweep="gamma",
                            theta=0.1, sweep_values=GRID,
                            robustness_budget=9, scale="tiny", seed=123)
        report = run_scenario(spec, context=tiny_context)
        direct = minimal_evasion_budget(
            tiny_context.target_model.network,
            tiny_context.attack_malware.features, theta=0.1, max_features=9)
        np.testing.assert_array_equal(report.robustness.minimal_features,
                                      direct.minimal_features)
        assert report.robustness.max_features == direct.max_features

    def test_greybox_sweep_robustness_falls_back(self, tiny_context):
        """early_stop=False trajectories cannot serve the robustness view."""
        spec = ScenarioSpec(attack="jsma", model="substitute", sweep="gamma",
                            attack_params={"early_stop": False}, theta=0.1,
                            sweep_values=GRID, robustness_budget=5,
                            scale="tiny", seed=123)
        report = run_scenario(spec, context=tiny_context)
        direct = minimal_evasion_budget(
            tiny_context.substitute_model.network,
            tiny_context.attack_malware.features, theta=0.1, max_features=5)
        np.testing.assert_array_equal(report.robustness.minimal_features,
                                      direct.minimal_features)


class TestThetaSweepFusion:
    def test_theta_sweep_unchanged_semantics(self, tiny_context, tiny_malware):
        """Fused scoring: the θ-sweep still matches a hand-rolled loop."""
        network = tiny_context.target_model.network
        thetas = (0.0, 0.05, 0.1)
        curve = theta_sweep(
            lambda c: JsmaAttack(network, constraints=c),
            tiny_malware.features, {"target": network},
            gamma=0.02, theta_values=thetas)
        from repro.nn.metrics import detection_rate

        for point, theta in zip(curve.points, thetas):
            constraints = PerturbationConstraints(theta=theta, gamma=0.02)
            result = JsmaAttack(network, constraints=constraints).run(
                tiny_malware.features)
            assert point.detection_rates["target"] == pytest.approx(
                detection_rate(network.predict(result.adversarial)))
            assert point.evaded_counts["target"] == int(
                np.count_nonzero(network.predict(result.adversarial) == 0))
            assert point.mean_l2_distance == result.mean_l2_distance
