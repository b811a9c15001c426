"""Property-based tests for attack invariants on the tiny trained models.

These use hypothesis to vary the attack operating point and assert the
threat-model invariants the paper's attacks must respect regardless of
strength: add-only perturbations, box constraints, and feature budgets.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.fgsm import FgsmAttack
from repro.attacks.jsma import JsmaAttack
from repro.attacks.random_noise import RandomAdditionAttack

operating_points = st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.05))

common_settings = settings(max_examples=15, deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestJsmaInvariants:
    @given(point=operating_points)
    @common_settings
    def test_feasibility_at_any_operating_point(self, tiny_target, tiny_malware, point):
        theta, gamma = point
        constraints = PerturbationConstraints(theta=theta, gamma=gamma)
        result = JsmaAttack(tiny_target.network, constraints).run(tiny_malware.features[:16])
        assert constraints.is_feasible(result.adversarial, result.original)

    @given(point=operating_points)
    @common_settings
    def test_perturbation_count_never_exceeds_budget(self, tiny_target, tiny_malware, point):
        theta, gamma = point
        constraints = PerturbationConstraints(theta=theta, gamma=gamma)
        result = JsmaAttack(tiny_target.network, constraints).run(tiny_malware.features[:16])
        assert result.perturbed_features.max() <= constraints.max_features(
            tiny_malware.n_features)

    @given(point=operating_points)
    @common_settings
    def test_labels_of_original_rows_unchanged_by_attack_object(self, tiny_target,
                                                                tiny_malware, point):
        theta, gamma = point
        original = tiny_malware.features[:16].copy()
        JsmaAttack(tiny_target.network,
                   PerturbationConstraints(theta=theta, gamma=gamma)).run(original)
        np.testing.assert_array_equal(original, tiny_malware.features[:16])


class TestOtherAttackInvariants:
    @given(point=operating_points, seed=st.integers(0, 2**31 - 1))
    @common_settings
    def test_random_addition_feasible(self, tiny_target, tiny_malware, point, seed):
        theta, gamma = point
        constraints = PerturbationConstraints(theta=theta, gamma=gamma)
        result = RandomAdditionAttack(tiny_target.network, constraints,
                                      random_state=seed).run(tiny_malware.features[:16])
        assert constraints.is_feasible(result.adversarial, result.original)

    @given(point=operating_points)
    @common_settings
    def test_fgsm_feasible(self, tiny_target, tiny_malware, point):
        theta, gamma = point
        constraints = PerturbationConstraints(theta=theta, gamma=gamma)
        result = FgsmAttack(tiny_target.network, constraints).run(tiny_malware.features[:16])
        assert constraints.is_feasible(result.adversarial, result.original)

    @given(gamma=st.floats(0.0, 0.05))
    @common_settings
    def test_stronger_budget_never_raises_jsma_detection_much(self, tiny_target,
                                                              tiny_malware, gamma):
        weak = JsmaAttack(tiny_target.network,
                          PerturbationConstraints(theta=0.1, gamma=gamma))
        strong = JsmaAttack(tiny_target.network,
                            PerturbationConstraints(theta=0.1, gamma=min(gamma * 2, 1.0)))
        weak_rate = weak.run(tiny_malware.features[:24]).detection_rate
        strong_rate = strong.run(tiny_malware.features[:24]).detection_rate
        assert strong_rate <= weak_rate + 0.101
