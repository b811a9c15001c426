"""Tests for trajectory recording, slicing and the top-k selection helpers."""

import numpy as np
import pytest

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.attacks.trajectory import TrajectoryRecorder
from repro.exceptions import AttackError
from repro.utils.topk import kth_largest, top_k_indices


class TestTopKIndices:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(17, 40))
        for k in (1, 3, 40, 64):
            expected = np.argsort(-scores, axis=1, kind="stable")[:, :min(k, 40)]
            np.testing.assert_array_equal(top_k_indices(scores, k), expected)

    def test_ties_break_towards_lower_index(self):
        scores = np.array([[1.0, 5.0, 5.0, 0.0, 5.0]])
        np.testing.assert_array_equal(top_k_indices(scores, 3), [[1, 2, 4]])

    def test_tie_group_straddling_the_k_boundary(self):
        # Three tied maxima but k=1: the stable contract picks the lowest
        # index, not whichever one a partition happens to leave in front.
        scores = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0]])
        np.testing.assert_array_equal(top_k_indices(scores, 1), [[5]])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [[5, 6]])
        np.testing.assert_array_equal(top_k_indices(scores, 4), [[5, 6, 7, 0]])

    def test_heavily_tied_scores_match_stable_argsort(self):
        rng = np.random.default_rng(3)
        scores = rng.integers(-2, 3, size=(50, 12)).astype(np.float64)
        scores[rng.random(scores.shape) < 0.2] = -np.inf
        for k in range(1, 12):
            expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(top_k_indices(scores, k), expected)

    def test_handles_neg_inf(self):
        scores = np.array([[-np.inf, 2.0, -np.inf, 1.0]])
        np.testing.assert_array_equal(top_k_indices(scores, 3), [[1, 3, 0]])

    def test_one_dimensional_input(self):
        np.testing.assert_array_equal(top_k_indices(np.array([3.0, 9.0, 5.0]), 2),
                                      [1, 2])

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros((2, 3)), 0)

    def test_kth_largest_matches_sort(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(9, 23))
        for k in (1, 5, 23):
            np.testing.assert_array_equal(kth_largest(values, k),
                                          np.sort(values, axis=1)[:, -k])

    def test_kth_largest_validates_k(self):
        with pytest.raises(ValueError):
            kth_largest(np.zeros((2, 3)), 4)


def _toy_trajectory():
    """Two samples: s0 perturbs cols 3, 1, 4; s1 perturbs cols 0, 2."""
    recorder = TrajectoryRecorder()
    recorder.begin(theta=0.5, budget=3, n_samples=2, n_features=5,
                   early_stop=True, features_per_step=1)
    recorder.record_step(0, [0, 1], [3, 0], [0.0, 0.2], [0.5, 0.7])
    recorder.record_evasions([1])
    recorder.record_step(1, [0, 1], [1, 2], [0.1, 0.0], [0.6, 0.5])
    recorder.record_step(2, [0], [4], [0.4], [0.9])
    return recorder.trajectory


class TestTrajectoryRecorder:
    def test_single_use(self):
        recorder = TrajectoryRecorder()
        recorder.begin(theta=0.1, budget=1, n_samples=1, n_features=2,
                       early_stop=True, features_per_step=1)
        with pytest.raises(AttackError):
            recorder.begin(theta=0.1, budget=1, n_samples=1, n_features=2,
                           early_stop=True, features_per_step=1)

    def test_record_before_begin_rejected(self):
        recorder = TrajectoryRecorder()
        with pytest.raises(AttackError):
            recorder.record_step(0, [0], [0], [0.0], [0.1])
        with pytest.raises(AttackError):
            recorder.record_evasions([0])
        with pytest.raises(AttackError):
            _ = recorder.trajectory

    def test_empty_run_yields_empty_trajectory(self):
        recorder = TrajectoryRecorder()
        recorder.begin(theta=0.1, budget=0, n_samples=3, n_features=4,
                       early_stop=True, features_per_step=1)
        trajectory = recorder.trajectory
        assert trajectory.n_events == 0
        np.testing.assert_array_equal(trajectory.first_evaded_at, [-1, -1, -1])
        original = np.zeros((3, 4))
        np.testing.assert_array_equal(trajectory.materialize(original, 0), original)

    def test_first_evasion_counts_prior_perturbations(self):
        trajectory = _toy_trajectory()
        # Sample 1 was observed evading after its first perturbation; sample 0
        # never evaded inside the loop.
        np.testing.assert_array_equal(trajectory.first_evaded_at, [-1, 1])

    def test_repeated_evasion_keeps_first_observation(self):
        recorder = TrajectoryRecorder()
        recorder.begin(theta=0.5, budget=3, n_samples=1, n_features=4,
                       early_stop=False, features_per_step=1)
        recorder.record_step(0, [0], [0], [0.0], [0.5])
        recorder.record_evasions([0])
        recorder.record_step(1, [0], [1], [0.0], [0.5])
        recorder.record_evasions([0])
        np.testing.assert_array_equal(recorder.trajectory.first_evaded_at, [1])


class TestJsmaTrajectory:
    def test_sequence_positions_per_sample(self):
        trajectory = _toy_trajectory()
        np.testing.assert_array_equal(trajectory.sequence_positions(),
                                      [0, 0, 1, 1, 2])

    def test_perturbation_counts(self):
        trajectory = _toy_trajectory()
        np.testing.assert_array_equal(trajectory.perturbation_counts(), [3, 2])
        np.testing.assert_array_equal(trajectory.perturbation_counts(1), [1, 1])
        np.testing.assert_array_equal(trajectory.perturbation_counts(0), [0, 0])

    def test_materialize_slices_per_sample_prefixes(self):
        trajectory = _toy_trajectory()
        original = np.array([[0.0, 0.1, 0.0, 0.0, 0.4],
                             [0.2, 0.0, 0.0, 0.0, 0.0]])
        at_1 = trajectory.materialize(original, 1)
        np.testing.assert_array_equal(at_1, [[0.0, 0.1, 0.0, 0.5, 0.4],
                                             [0.7, 0.0, 0.0, 0.0, 0.0]])
        at_2 = trajectory.materialize(original, 2)
        np.testing.assert_array_equal(at_2, [[0.0, 0.6, 0.0, 0.5, 0.4],
                                             [0.7, 0.0, 0.5, 0.0, 0.0]])
        at_3 = trajectory.materialize(original, 3)
        assert at_3[0, 4] == 0.9

    def test_materialize_validates_budget_and_shape(self):
        trajectory = _toy_trajectory()
        original = np.zeros((2, 5))
        with pytest.raises(AttackError):
            trajectory.materialize(original, 4)
        with pytest.raises(AttackError):
            trajectory.materialize(original, -1)
        with pytest.raises(AttackError):
            trajectory.materialize(np.zeros((3, 5)), 1)

    def test_materialize_grid(self):
        trajectory = _toy_trajectory()
        original = np.zeros((2, 5))
        grid = trajectory.materialize_grid(original, [0, 2])
        assert len(grid) == 2
        np.testing.assert_array_equal(grid[0], original)


class TestInstrumentedJsmaRun:
    """The recorder hook on JsmaAttack.run, against real attack runs."""

    def _attack(self, network, gamma, **kwargs):
        constraints = PerturbationConstraints(theta=0.1, gamma=gamma)
        return JsmaAttack(network, constraints=constraints, **kwargs)

    def test_recording_does_not_change_the_result(self, tiny_context, tiny_malware):
        network = tiny_context.target_model.network
        plain = self._attack(network, 0.02).run(tiny_malware.features)
        recorder = TrajectoryRecorder()
        recorded = self._attack(network, 0.02).run(tiny_malware.features,
                                                   recorder=recorder)
        np.testing.assert_array_equal(plain.adversarial, recorded.adversarial)
        np.testing.assert_array_equal(plain.iterations, recorded.iterations)

    def test_full_budget_materialization_matches_run(self, tiny_context, tiny_malware):
        network = tiny_context.target_model.network
        recorder = TrajectoryRecorder()
        result = self._attack(network, 0.03).run(tiny_malware.features,
                                                 recorder=recorder)
        trajectory = recorder.trajectory
        rebuilt = trajectory.materialize(result.original, trajectory.budget)
        np.testing.assert_array_equal(rebuilt, result.adversarial)

    def test_prefix_property_against_fresh_runs(self, tiny_context, tiny_malware):
        """Slicing the full-budget log reproduces every smaller-budget run."""
        network = tiny_context.target_model.network
        n_features = tiny_malware.features.shape[1]
        recorder = TrajectoryRecorder()
        self._attack(network, 15 / n_features).run(tiny_malware.features,
                                                   recorder=recorder)
        trajectory = recorder.trajectory
        for budget in (0, 1, 4, 9):
            direct = self._attack(network, budget / n_features).run(
                tiny_malware.features)
            sliced = trajectory.materialize(direct.original, budget)
            np.testing.assert_array_equal(sliced, direct.adversarial)

    def test_prefix_property_with_features_per_step(self, tiny_context, tiny_malware):
        network = tiny_context.target_model.network
        n_features = tiny_malware.features.shape[1]
        recorder = TrajectoryRecorder()
        self._attack(network, 14 / n_features, features_per_step=4,
                     early_stop=False).run(tiny_malware.features,
                                           recorder=recorder)
        trajectory = recorder.trajectory
        assert trajectory.features_per_step == 4
        for budget in (3, 7, 10):
            direct = self._attack(network, budget / n_features,
                                  features_per_step=4, early_stop=False).run(
                tiny_malware.features)
            sliced = trajectory.materialize(direct.original, budget)
            np.testing.assert_array_equal(sliced, direct.adversarial)

    def test_recorded_counts_match_iterations(self, tiny_context, tiny_malware):
        network = tiny_context.target_model.network
        recorder = TrajectoryRecorder()
        result = self._attack(network, 0.03).run(tiny_malware.features,
                                                 recorder=recorder)
        np.testing.assert_array_equal(recorder.trajectory.perturbation_counts(),
                                      result.iterations)

    def test_evasion_flags_recorded_without_early_stop(self, tiny_context,
                                                       tiny_malware):
        """early_stop=False still records first-evasion observations."""
        network = tiny_context.target_model.network
        recorder = TrajectoryRecorder()
        result = self._attack(network, 0.03, early_stop=False).run(
            tiny_malware.features, recorder=recorder)
        first = recorder.trajectory.first_evaded_at
        assert first.shape == (result.n_samples,)
        # At full budget most tiny-scale samples evade; the flags must mark
        # at least those that the final predictions say evaded mid-run.
        assert np.any(first >= 0)
        assert first.max() <= recorder.trajectory.budget
