"""Tests for the four paper defenses and the ensemble."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.defenses.adversarial_training import AdversarialTrainingDefense, deduplicate
from repro.defenses.base import ModelBackedDetector
from repro.defenses.dim_reduction import DimensionalityReductionDefense, ReducedInputDetector
from repro.defenses.distillation import DefensiveDistillation
from repro.defenses.ensemble import EnsembleDefense, EnsembleDetector
from repro.defenses.feature_squeezing import (
    FeatureSqueezingDefense,
    binary_squeeze,
    bit_depth_squeeze,
    small_count_squeeze,
)
from repro.exceptions import DefenseError


@pytest.fixture(scope="module")
def adversarial_examples(request):
    """Grey-box adversarial examples at the paper's defense operating point."""
    context = request.getfixturevalue("tiny_context")
    return context.greybox_adversarial(theta=0.1, gamma=0.02)


class TestDeduplicate:
    def test_removes_exact_duplicates(self):
        features = np.vstack([np.zeros((2, 4)), np.ones((3, 4))])
        labels = np.array([0, 0, 1, 1, 1])
        dataset = Dataset(features=features, labels=labels)
        assert deduplicate(dataset).n_samples == 2

    def test_keeps_distinct_rows(self):
        dataset = Dataset(features=np.arange(12).reshape(4, 3) / 12.0,
                          labels=np.array([0, 0, 1, 1]))
        assert deduplicate(dataset).n_samples == 4


class TestAdversarialTraining:
    def test_table5_datasets_include_adversarial_examples(self, tiny_context,
                                                          adversarial_examples):
        defense = AdversarialTrainingDefense(scale=tiny_context.scale, random_state=0)
        data = defense.build_datasets(tiny_context.corpus.train,
                                      tiny_context.corpus.test, adversarial_examples)
        assert data.n_adversarial_train > 0
        assert data.train.n_samples > tiny_context.corpus.train.n_samples
        assert len(data.table5_rows()) == 2

    def test_rejects_mislabelled_adversarial_set(self, tiny_context, adversarial_examples):
        defense = AdversarialTrainingDefense(scale=tiny_context.scale)
        wrong = Dataset(features=adversarial_examples.features,
                        labels=np.zeros(adversarial_examples.n_samples, dtype=int))
        with pytest.raises(DefenseError):
            defense.build_datasets(tiny_context.corpus.train,
                                   tiny_context.corpus.test, wrong)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(DefenseError):
            AdversarialTrainingDefense(adv_train_fraction=0.0)
        with pytest.raises(DefenseError):
            AdversarialTrainingDefense(malware_train_fraction=1.0)

    def test_retrained_detector_recovers_adversarial_detection(self, tiny_context,
                                                               adversarial_examples):
        target = tiny_context.target_model
        undefended_rate = target.detection_rate(adversarial_examples.features)
        defense = AdversarialTrainingDefense(scale=tiny_context.scale, random_state=0)
        detector = defense.fit(tiny_context.corpus.train, tiny_context.corpus.test,
                               adversarial_examples,
                               validation=tiny_context.corpus.validation)
        defended_rate = detector.detection_rate(adversarial_examples.features)
        assert defended_rate > undefended_rate + 0.3

    def test_retrained_detector_keeps_clean_accuracy(self, tiny_context,
                                                     adversarial_examples):
        defense = AdversarialTrainingDefense(scale=tiny_context.scale, random_state=0)
        detector = defense.fit(tiny_context.corpus.train, tiny_context.corpus.test,
                               adversarial_examples)
        clean_report = detector.report(tiny_context.corpus.test.clean_only())
        assert clean_report.tnr > 0.8


class TestDefensiveDistillation:
    def test_invalid_temperature_rejected(self):
        with pytest.raises(DefenseError):
            DefensiveDistillation(temperature=0.0)

    def test_produces_teacher_and_student(self, tiny_context):
        defense = DefensiveDistillation(temperature=50.0, scale=tiny_context.scale,
                                        random_state=0)
        detector = defense.fit(tiny_context.corpus.train, tiny_context.corpus.validation)
        assert defense.teacher is not None
        assert defense.student is not None
        assert detector is defense.detector

    def test_student_predicts_at_temperature_one(self, tiny_context):
        defense = DefensiveDistillation(temperature=50.0, scale=tiny_context.scale,
                                        random_state=0)
        defense.fit(tiny_context.corpus.train)
        assert defense.student.network.temperature == 1.0

    def test_student_still_classifies_reasonably(self, tiny_context):
        defense = DefensiveDistillation(temperature=50.0, scale=tiny_context.scale,
                                        random_state=0)
        detector = defense.fit(tiny_context.corpus.train)
        report = detector.report(tiny_context.corpus.validation)
        assert report.accuracy > 0.7


class TestFeatureSqueezers:
    def test_bit_depth_squeeze_quantises(self):
        squeezed = bit_depth_squeeze(np.array([[0.0, 0.49, 1.0]]), bits=1)
        np.testing.assert_allclose(squeezed, [[0.0, 0.0, 1.0]])

    def test_bit_depth_rejects_invalid_bits(self):
        with pytest.raises(DefenseError):
            bit_depth_squeeze(np.zeros((1, 2)), bits=0)

    def test_binary_squeeze(self):
        np.testing.assert_allclose(binary_squeeze(np.array([[0.0, 0.2]]), threshold=0.1),
                                   [[0.0, 1.0]])

    def test_small_count_squeeze_removes_small_values(self):
        squeezed = small_count_squeeze(np.array([[0.05, 0.5]]), threshold=0.12)
        np.testing.assert_allclose(squeezed, [[0.0, 0.5]])

    def test_small_count_squeeze_does_not_modify_input(self):
        original = np.array([[0.05, 0.5]])
        small_count_squeeze(original)
        np.testing.assert_allclose(original, [[0.05, 0.5]])


class TestFeatureSqueezingDefense:
    def test_threshold_calibrated_on_legitimate_data(self, tiny_context):
        defense = FeatureSqueezingDefense(false_positive_budget=0.05)
        detector = defense.fit(tiny_context.target_model.network,
                               tiny_context.corpus.validation)
        assert detector.threshold == defense.threshold_
        assert detector.threshold >= 0.0

    def test_false_positive_budget_respected_on_calibration_data(self, tiny_context):
        defense = FeatureSqueezingDefense(false_positive_budget=0.1)
        detector = defense.fit(tiny_context.target_model.network,
                               tiny_context.corpus.validation)
        flagged = detector.is_adversarial(tiny_context.corpus.validation.features)
        assert flagged.mean() <= 0.1 + 1e-9

    def test_detector_flags_more_adversarial_than_clean(self, tiny_context,
                                                        adversarial_examples):
        defense = FeatureSqueezingDefense()
        detector = defense.fit(tiny_context.target_model.network,
                               tiny_context.corpus.validation)
        adv_rate = detector.is_adversarial(adversarial_examples.features).mean()
        clean_rate = detector.is_adversarial(
            tiny_context.corpus.test.clean_only().features).mean()
        assert adv_rate >= clean_rate

    def test_prediction_combines_model_and_detector(self, tiny_context,
                                                    adversarial_examples):
        defense = FeatureSqueezingDefense()
        detector = defense.fit(tiny_context.target_model.network,
                               tiny_context.corpus.validation)
        squeezing_detection = detector.detection_rate(adversarial_examples.features)
        plain_detection = tiny_context.target_model.detection_rate(
            adversarial_examples.features)
        assert squeezing_detection >= plain_detection


class TestDimensionalityReduction:
    def test_invalid_components_rejected(self):
        with pytest.raises(DefenseError):
            DimensionalityReductionDefense(n_components=0)

    def test_detector_projects_before_classifying(self, tiny_context):
        defense = DimensionalityReductionDefense(n_components=10,
                                                 scale=tiny_context.scale,
                                                 random_state=0)
        detector = defense.fit(tiny_context.corpus.train, tiny_context.corpus.validation)
        assert isinstance(detector, ReducedInputDetector)
        projected = detector.project(tiny_context.corpus.test.features[:5])
        assert projected.shape == (5, 10)

    def test_reduced_detector_classifies_reasonably(self, tiny_context):
        defense = DimensionalityReductionDefense(n_components=10,
                                                 scale=tiny_context.scale,
                                                 random_state=0)
        detector = defense.fit(tiny_context.corpus.train)
        report = detector.report(tiny_context.corpus.validation)
        assert report.accuracy > 0.7

    def test_reduced_detector_improves_adversarial_detection(self, tiny_context,
                                                             adversarial_examples):
        defense = DimensionalityReductionDefense(n_components=10,
                                                 scale=tiny_context.scale,
                                                 random_state=0)
        detector = defense.fit(tiny_context.corpus.train)
        plain = tiny_context.target_model.detection_rate(adversarial_examples.features)
        reduced = detector.detection_rate(adversarial_examples.features)
        assert reduced > plain


class TestEnsemble:
    def test_requires_members(self):
        with pytest.raises(DefenseError):
            EnsembleDetector([])

    def test_unknown_voting_rejected(self, tiny_context):
        member = ModelBackedDetector(tiny_context.target_model, name="m")
        with pytest.raises(DefenseError):
            EnsembleDetector([member], voting="veto")

    def test_single_member_average_matches_member(self, tiny_context, tiny_malware):
        member = ModelBackedDetector(tiny_context.target_model, name="m")
        ensemble = EnsembleDefense(voting="average").fit([member])
        np.testing.assert_array_equal(ensemble.predict(tiny_malware.features),
                                      member.predict(tiny_malware.features))

    def test_any_voting_is_at_least_as_aggressive(self, tiny_context, tiny_malware,
                                                  adversarial_examples):
        target_member = ModelBackedDetector(tiny_context.target_model, name="target")
        defense = DimensionalityReductionDefense(n_components=10,
                                                 scale=tiny_context.scale,
                                                 random_state=0)
        reduced_member = defense.fit(tiny_context.corpus.train)
        any_vote = EnsembleDetector([target_member, reduced_member], voting="any")
        rate_any = any_vote.detection_rate(adversarial_examples.features)
        rate_each = max(target_member.detection_rate(adversarial_examples.features),
                        reduced_member.detection_rate(adversarial_examples.features))
        assert rate_any >= rate_each - 1e-9

    def test_confidence_in_unit_interval(self, tiny_context, tiny_malware):
        member = ModelBackedDetector(tiny_context.target_model, name="m")
        ensemble = EnsembleDetector([member, member], voting="average")
        confidence = ensemble.malware_confidence(tiny_malware.features)
        assert confidence.min() >= 0.0
        assert confidence.max() <= 1.0


class TestFusedDecide:
    """decide() must equal (malware_confidence, predict) in fewer forwards."""

    @pytest.fixture()
    def squeezed(self, tiny_context):
        return FeatureSqueezingDefense().fit(tiny_context.target_model.network,
                                             tiny_context.corpus.validation)

    def test_squeezed_decide_matches_separate_surfaces(self, squeezed,
                                                       tiny_malware):
        features = tiny_malware.features
        confidences, labels = squeezed.decide(features)
        np.testing.assert_allclose(confidences,
                                   squeezed.malware_confidence(features),
                                   atol=1e-12)
        np.testing.assert_array_equal(labels, squeezed.predict(features))

    def test_squeezed_decide_halves_network_forwards(self, squeezed,
                                                     tiny_malware,
                                                     monkeypatch):
        calls = {"n": 0}
        original = type(squeezed.network).predict_proba

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(type(squeezed.network), "predict_proba", counting)
        squeezed.decide(tiny_malware.features)
        fused = calls["n"]
        calls["n"] = 0
        squeezed.malware_confidence(tiny_malware.features)
        squeezed.predict(tiny_malware.features)
        assert fused == 2          # one original + one squeezed forward
        assert calls["n"] > fused  # the separate surfaces recompute

    @pytest.mark.parametrize("voting", ["average", "any", "majority"])
    def test_ensemble_decide_matches_separate_surfaces(self, tiny_context,
                                                       tiny_malware, squeezed,
                                                       voting):
        members = [ModelBackedDetector(tiny_context.target_model, name="m"),
                   squeezed]
        ensemble = EnsembleDetector(members, voting=voting)
        features = tiny_malware.features
        confidences, labels = ensemble.decide(features)
        np.testing.assert_allclose(confidences,
                                   ensemble.malware_confidence(features),
                                   atol=1e-12)
        np.testing.assert_array_equal(labels, ensemble.predict(features))

    def test_model_backed_decide_matches_separate_surfaces(self, tiny_context,
                                                           tiny_malware):
        member = ModelBackedDetector(tiny_context.target_model, name="m")
        confidences, labels = member.decide(tiny_malware.features)
        np.testing.assert_allclose(confidences,
                                   member.malware_confidence(tiny_malware.features),
                                   atol=1e-12)
        np.testing.assert_array_equal(labels, member.predict(tiny_malware.features))
