"""Tests for the add-only JSMA attack (the paper's core attack)."""

import numpy as np
import pytest
from jsma_reference import TRAJECTORY_FIELDS, assert_same_bytes, reference_run

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.attacks.trajectory import TrajectoryRecorder
from repro.exceptions import AttackError
from repro.nn.engine import use_dtype
from repro.nn.network import NeuralNetwork


@pytest.fixture(scope="module")
def whitebox_attack_inputs(request):
    # Session fixtures are function-agnostic; resolve them via request.
    target = request.getfixturevalue("tiny_target")
    malware = request.getfixturevalue("tiny_malware")
    return target, malware


class TestJsmaMechanics:
    def test_result_shapes(self, tiny_target, tiny_malware):
        attack = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=0.01))
        result = attack.run(tiny_malware.features)
        assert result.adversarial.shape == result.original.shape
        assert result.perturbed_features.shape == (tiny_malware.n_samples,)

    def test_respects_constraints(self, tiny_target, tiny_malware):
        constraints = PerturbationConstraints(theta=0.1, gamma=0.02)
        attack = JsmaAttack(tiny_target.network, constraints)
        result = attack.run(tiny_malware.features)
        assert constraints.is_feasible(result.adversarial, result.original)

    def test_add_only_never_decreases_features(self, tiny_target, tiny_malware):
        attack = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=0.03))
        result = attack.run(tiny_malware.features)
        assert np.all(result.adversarial >= result.original - 1e-12)

    def test_feature_budget_respected(self, tiny_target, tiny_malware):
        constraints = PerturbationConstraints(theta=0.1, gamma=0.01)
        budget = constraints.max_features(tiny_malware.n_features)
        result = JsmaAttack(tiny_target.network, constraints).run(tiny_malware.features)
        assert result.perturbed_features.max() <= budget

    def test_zero_gamma_is_identity(self, tiny_target, tiny_malware):
        attack = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=0.0))
        result = attack.run(tiny_malware.features)
        np.testing.assert_array_equal(result.adversarial, result.original)

    def test_zero_theta_is_identity(self, tiny_target, tiny_malware):
        attack = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.0, gamma=0.025))
        result = attack.run(tiny_malware.features)
        np.testing.assert_array_equal(result.adversarial, result.original)

    def test_features_stay_in_unit_box(self, tiny_target, tiny_malware):
        attack = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.5, gamma=0.05))
        result = attack.run(tiny_malware.features)
        assert result.adversarial.min() >= 0.0
        assert result.adversarial.max() <= 1.0

    def test_attack_is_deterministic(self, tiny_target, tiny_malware):
        constraints = PerturbationConstraints(theta=0.1, gamma=0.02)
        a = JsmaAttack(tiny_target.network, constraints).run(tiny_malware.features)
        b = JsmaAttack(tiny_target.network, constraints).run(tiny_malware.features)
        np.testing.assert_array_equal(a.adversarial, b.adversarial)

    def test_invalid_target_class_rejected(self, tiny_target):
        with pytest.raises(AttackError):
            JsmaAttack(tiny_target.network, target_class=3)


class TestJsmaEffectiveness:
    def test_detection_rate_drops_at_paper_operating_point(self, tiny_target, tiny_malware):
        baseline = tiny_target.detection_rate(tiny_malware.features)
        attack = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=0.025))
        result = attack.run(tiny_malware.features)
        assert result.detection_rate < baseline - 0.3

    def test_stronger_attack_is_at_least_as_effective(self, tiny_target, tiny_malware):
        weak = JsmaAttack(tiny_target.network,
                          PerturbationConstraints(theta=0.1, gamma=0.005))
        strong = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=0.03))
        weak_rate = weak.run(tiny_malware.features).detection_rate
        strong_rate = strong.run(tiny_malware.features).detection_rate
        assert strong_rate <= weak_rate + 0.05

    def test_early_stop_touches_no_more_features_than_full_budget(self, tiny_target, tiny_malware):
        constraints = PerturbationConstraints(theta=0.1, gamma=0.03)
        stopped = JsmaAttack(tiny_target.network, constraints, early_stop=True)
        full = JsmaAttack(tiny_target.network, constraints, early_stop=False)
        assert (stopped.run(tiny_malware.features).mean_perturbed_features
                <= full.run(tiny_malware.features).mean_perturbed_features + 1e-9)

    def test_simplified_gradient_variant_also_attacks(self, tiny_target, tiny_malware):
        attack = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=0.025),
                            use_saliency_map=False)
        result = attack.run(tiny_malware.features)
        baseline = tiny_target.detection_rate(tiny_malware.features)
        assert result.detection_rate < baseline

    def test_feature_mask_restricts_choices(self, tiny_target, tiny_malware):
        mask = np.zeros(tiny_malware.n_features, dtype=bool)
        mask[:50] = True
        constraints = PerturbationConstraints(theta=0.1, gamma=0.02, feature_mask=mask)
        result = JsmaAttack(tiny_target.network, constraints).run(tiny_malware.features)
        changed = np.abs(result.adversarial - result.original) > 1e-12
        assert not changed[:, 50:].any()


class TestFeaturesPerStep:
    def test_invalid_features_per_step_rejected(self, tiny_target):
        with pytest.raises(AttackError):
            JsmaAttack(tiny_target.network, features_per_step=0)

    def test_budget_respected_with_multi_feature_steps(self, tiny_target, tiny_malware):
        constraints = PerturbationConstraints(theta=0.1, gamma=0.03)
        budget = constraints.max_features(tiny_malware.n_features)
        attack = JsmaAttack(tiny_target.network, constraints,
                            early_stop=False, features_per_step=4)
        result = attack.run(tiny_malware.features)
        assert result.perturbed_features.max() <= budget
        assert constraints.is_feasible(result.adversarial, result.original)

    def test_multi_feature_steps_still_attack(self, tiny_target, tiny_malware):
        baseline = tiny_target.detection_rate(tiny_malware.features)
        attack = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=0.025),
                            features_per_step=3)
        result = attack.run(tiny_malware.features)
        assert result.detection_rate < baseline - 0.2

    def test_single_feature_step_is_default(self, tiny_target):
        assert JsmaAttack(tiny_target.network).features_per_step == 1

    def test_full_budget_spent_without_early_stop(self, tiny_target, tiny_malware):
        constraints = PerturbationConstraints(theta=0.1, gamma=0.02)
        budget = constraints.max_features(tiny_malware.n_features)
        one = JsmaAttack(tiny_target.network, constraints, early_stop=False)
        many = JsmaAttack(tiny_target.network, constraints, early_stop=False,
                          features_per_step=budget)
        assert (one.run(tiny_malware.features).mean_perturbed_features
                == pytest.approx(many.run(tiny_malware.features).mean_perturbed_features,
                                 abs=1.0))


class TestSelectFeatures:
    def test_select_features_shape(self, tiny_target, tiny_malware):
        attack = JsmaAttack(tiny_target.network)
        selected = attack.select_features(tiny_malware.features[:5], top_k=3)
        assert selected.shape == (5, 3)

    def test_selected_features_are_valid_indices(self, tiny_target, tiny_malware):
        attack = JsmaAttack(tiny_target.network)
        selected = attack.select_features(tiny_malware.features[:5], top_k=2)
        assert selected.min() >= 0
        assert selected.max() < tiny_malware.n_features

    def test_top1_matches_first_perturbed_feature(self, tiny_target, tiny_malware):
        constraints = PerturbationConstraints(theta=0.1, gamma=1.0 / tiny_malware.n_features)
        attack = JsmaAttack(tiny_target.network, constraints, early_stop=False)
        row = tiny_malware.features[:1]
        selected = attack.select_features(row, top_k=1)[0, 0]
        result = attack.run(row)
        changed = np.flatnonzero(np.abs(result.adversarial[0] - result.original[0]) > 1e-12)
        assert selected in changed

    def test_invalid_top_k_rejected(self, tiny_target, tiny_malware):
        with pytest.raises(AttackError):
            JsmaAttack(tiny_target.network).select_features(tiny_malware.features[:1], top_k=0)

    def test_saturated_features_never_selected(self, tiny_target, tiny_malware):
        # A feature already at clip_max cannot be increased under the
        # add-only model, so selection must skip it even when its gradient
        # is the most salient one.
        attack = JsmaAttack(tiny_target.network)
        row = tiny_malware.features[:4].copy()
        baseline = attack.select_features(row, top_k=1)
        row[np.arange(4), baseline[:, 0]] = attack.constraints.clip_max
        reselected = attack.select_features(row, top_k=1)
        for sample in range(4):
            assert reselected[sample, 0] != baseline[sample, 0]

    def test_selection_consistent_with_attack_under_saturation(self, tiny_target,
                                                               tiny_malware):
        constraints = PerturbationConstraints(theta=0.1,
                                              gamma=1.0 / tiny_malware.n_features)
        attack = JsmaAttack(tiny_target.network, constraints, early_stop=False)
        row = tiny_malware.features[:1].copy()
        first = attack.select_features(row, top_k=1)[0, 0]
        row[0, first] = constraints.clip_max  # saturate the previous choice
        selected = attack.select_features(row, top_k=1)[0, 0]
        result = attack.run(row)
        changed = np.flatnonzero(np.abs(result.adversarial[0] - result.original[0]) > 1e-12)
        assert selected in changed
        assert first not in changed


class TestAttackResult:
    def test_summary_contains_operating_point(self, tiny_target, tiny_malware):
        constraints = PerturbationConstraints(theta=0.1, gamma=0.01)
        result = JsmaAttack(tiny_target.network, constraints).run(tiny_malware.features)
        summary = result.summary()
        assert summary["theta"] == pytest.approx(0.1)
        assert summary["gamma"] == pytest.approx(0.01)
        assert 0.0 <= summary["detection_rate"] <= 1.0

    def test_evasion_and_detection_are_complementary(self, tiny_target, tiny_malware):
        result = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=0.02)).run(
            tiny_malware.features)
        assert result.evasion_rate + result.detection_rate == pytest.approx(1.0)

    def test_l2_distances_nonzero_when_perturbed(self, tiny_target, tiny_malware):
        result = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=0.02)).run(
            tiny_malware.features)
        perturbed = result.perturbed_features > 0
        assert np.all(result.l2_distances[perturbed] > 0)

    def test_transfer_rate_to_other_model(self, tiny_target, tiny_substitute, tiny_malware):
        result = JsmaAttack(tiny_substitute.network,
                            PerturbationConstraints(theta=0.1, gamma=0.02),
                            early_stop=False).run(tiny_malware.features)
        transfer = result.transfer_rate_to(tiny_target.network)
        detection = result.detection_rate_under(tiny_target.network)
        assert transfer == pytest.approx(1.0 - detection)


class TestPrimedOriginalPredictions:
    """Attack._package reuse of precomputed original predictions."""

    def test_primed_predictions_skip_the_original_predict(self, tiny_target,
                                                          tiny_malware):
        attack = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=0.01))
        features = tiny_malware.features
        primed = tiny_target.network.predict(features)

        calls = []
        real_predict = tiny_target.network.predict
        tiny_target.network.predict = lambda x: (calls.append(x.shape[0]),
                                                 real_predict(x))[1]
        try:
            attack.prime_original_predictions(features, primed)
            result = attack.run(features)
        finally:
            tiny_target.network.predict = real_predict
        # The early-stop loop reads probabilities from the Jacobian pass and
        # the originals are primed, so only the adversarial matrix and the
        # baseline computed above go through predict() — exactly one call.
        assert len(calls) == 1
        np.testing.assert_array_equal(result.original_predictions, primed)

    def test_primed_predictions_match_unprimed_run(self, tiny_target, tiny_malware):
        constraints = PerturbationConstraints(theta=0.1, gamma=0.02)
        plain = JsmaAttack(tiny_target.network, constraints).run(tiny_malware.features)
        primed_attack = JsmaAttack(tiny_target.network, constraints)
        primed_attack.prime_original_predictions(
            tiny_malware.features,
            tiny_target.network.predict(tiny_malware.features))
        primed = primed_attack.run(tiny_malware.features)
        np.testing.assert_array_equal(plain.original_predictions,
                                      primed.original_predictions)
        np.testing.assert_array_equal(plain.adversarial, primed.adversarial)

    def test_unmatched_matrix_falls_back_to_fresh_predict(self, tiny_target,
                                                          tiny_malware):
        attack = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=0.01))
        other = tiny_malware.features[:4]
        attack.prime_original_predictions(other,
                                          tiny_target.network.predict(other))
        result = attack.run(tiny_malware.features)
        np.testing.assert_array_equal(
            result.original_predictions,
            tiny_target.network.predict(tiny_malware.features))

    def test_mismatched_prime_rejected(self, tiny_target, tiny_malware):
        attack = JsmaAttack(tiny_target.network)
        with pytest.raises(AttackError):
            attack.prime_original_predictions(tiny_malware.features,
                                              np.zeros(3, dtype=np.int64))


#: Cells at or above the box maximum are blocked, but the network still
#: reads them: on the networks below they push the malware logit so far
#: ahead that every gradient lies below ``sqrt(finfo.tiny)``.
SATURATING_ROW = np.array([[0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1]], dtype=np.float64)


def scaled_mlp(dtype: str, scale: float) -> NeuralNetwork:
    """``mlp([12, 8, 2], random_state=3)`` with its logits scaled by ``scale``."""
    with use_dtype(dtype):
        network = NeuralNetwork.mlp([12, 8, 2], random_state=3)
    network.layers[-1].weight.value *= scale
    return network


def assert_matches_reference(attack, features):
    """Run ``attack`` and the reference step; both must agree byte for byte."""
    recorder, reference_recorder = TrajectoryRecorder(), TrajectoryRecorder()
    result = attack.run(features, recorder=recorder)
    adversarial, iterations = reference_run(attack, features, reference_recorder)
    assert_same_bytes(result.adversarial, adversarial)
    assert_same_bytes(result.iterations, iterations)
    for name in TRAJECTORY_FIELDS:
        assert_same_bytes(getattr(recorder.trajectory, name),
                          getattr(reference_recorder.trajectory, name))
    return result


class TestRawGradientPick:
    """The binary pick by argmax on the raw gradient row, at its edges."""

    @pytest.mark.parametrize("dtype,scale,level,theta", [
        ("float64", 200.0, 1.0, 0.1),   # logit gap ~392
        ("float32", 15.0, 2.0, 0.3),    # the same row, doubled: gap ~29
    ])
    def test_underflowing_squares_take_the_reference_pick(self, dtype, scale,
                                                          level, theta):
        network = scaled_mlp(dtype, scale)
        features = level * SATURATING_ROW
        # Every positive gradient squares to a subnormal in the network's
        # dtype, where t * t can tie for distinct t.
        row = network.class_gradients(features, class_index=0)
        assert row.dtype == np.dtype(dtype)
        assert 0.0 < row.max() < np.sqrt(np.finfo(row.dtype).tiny)
        if row.dtype == np.float32:
            # Above float64's bound: a guard with float64 limits passes it.
            assert row.max() > np.sqrt(np.finfo(np.float64).tiny)
        attack = JsmaAttack(network, PerturbationConstraints(theta=theta,
                                                             gamma=0.5))
        result = assert_matches_reference(attack, features)
        assert result.iterations[0] > 1

    @pytest.mark.parametrize("nan_blocked", [False, True],
                             ids=["nan-free", "nan-blocked"])
    def test_nan_gradient_column_takes_the_reference_pick(self, nan_blocked):
        network = NeuralNetwork.mlp([12, 8, 2], random_state=3)
        # Hidden unit 5 reads NaN and ReLU zeroes it, so the logits stay
        # finite while column 4 of every input gradient is 0 * NaN = NaN.
        network.layers[0].weight.value[4, 5] = np.nan
        rng = np.random.default_rng(3)
        features = rng.random((6, 12))
        features[features < 0.5] = 0.0
        mask = np.ones(12, dtype=bool)
        mask[4] = not nan_blocked
        row = network.class_gradients(features, class_index=0)
        assert np.isnan(row[:, 4]).all() and np.isfinite(np.delete(row, 4, 1)).all()
        attack = JsmaAttack(network, PerturbationConstraints(
            theta=0.2, gamma=0.5, feature_mask=mask), early_stop=False)
        assert_matches_reference(attack, features)

    @pytest.mark.parametrize("how", ["mask", "saturated"])
    def test_positive_gradients_only_on_blocked_cells_end_infeasible(self, how):
        # One Dense layer: dF_0/dx = p0 * p1 * (W[:, 0] - W[:, 1]), so the
        # target row is positive on columns 0 and 1 and negative on 2 and 3
        # for every input.
        network = NeuralNetwork.mlp([4, 2], random_state=0)
        network.layers[0].weight.value[...] = [[1.0, 0.0], [1.0, 0.0],
                                               [0.0, 1.0], [0.0, 1.0]]
        network.layers[0].bias.value[...] = [0.0, 3.0]
        if how == "mask":
            features = np.array([[0.0, 0.2, 0.5, 0.0]])
            mask = np.array([False, False, True, True])
        else:
            features = np.array([[1.0, 1.0, 0.5, 0.0]])
            mask = None
        attack = JsmaAttack(network, PerturbationConstraints(
            theta=0.1, gamma=1.0, feature_mask=mask))
        assert network.predict(features)[0] == 1
        # A salient row whose salient cells are all blocked has no feasible
        # feature: it must not fall back to the raw (negative) gradient.
        result = assert_matches_reference(attack, features)
        assert result.iterations.tolist() == [0]
        assert_same_bytes(result.adversarial, features)
