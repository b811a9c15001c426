"""End-to-end integration tests: raw source samples → logs → features →
models → attacks → defenses, on the tiny scale profile."""

import numpy as np

from repro.apilog.sandbox import Sandbox
from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.attacks.random_noise import RandomAdditionAttack
from repro.attacks.transfer import TransferAttack
from repro.config import CLASS_MALWARE
from repro.defenses.adversarial_training import AdversarialTrainingDefense
from repro.defenses.dim_reduction import DimensionalityReductionDefense
from repro.data.dataset import Dataset


class TestFullPipelineFromSource:
    def test_source_to_prediction_path(self, tiny_context):
        """A source sample can be detonated, featurised and scored end to end."""
        sample = tiny_context.generator.generate_source_samples(
            1, label=CLASS_MALWARE, source="train", rng_name="integration:source")[0]
        sandbox = Sandbox(os_version="win10", random_state=0, record_args=True)
        log = sandbox.execute(sample).log
        features = tiny_context.pipeline.transform([log])
        assert features.shape == (1, 491)
        prediction = tiny_context.target_model.predict(features)
        assert prediction[0] in (0, 1)

    def test_log_text_round_trip_preserves_features(self, tiny_context):
        from repro.apilog.log_format import ApiLog

        sample = tiny_context.generator.generate_source_samples(
            1, label=CLASS_MALWARE, source="train", rng_name="integration:roundtrip")[0]
        log = Sandbox(os_version="win7", random_state=1, record_args=True).execute(sample).log
        direct = tiny_context.pipeline.transform([log])
        reparsed = ApiLog.from_text(log.to_text())
        via_text = tiny_context.pipeline.transform([reparsed])
        np.testing.assert_allclose(direct, via_text)


class TestWhiteBoxEndToEnd:
    def test_whitebox_attack_story(self, tiny_context):
        """The Figure 3 story: JSMA collapses detection, random noise does not."""
        target = tiny_context.target_model
        malware = tiny_context.attack_malware
        baseline = target.detection_rate(malware.features)
        constraints = PerturbationConstraints(theta=0.1, gamma=0.03)
        jsma_rate = JsmaAttack(target.network, constraints).run(
            malware.features).detection_rate
        random_rate = RandomAdditionAttack(target.network, constraints,
                                           random_state=0).run(
            malware.features).detection_rate
        assert jsma_rate < baseline - 0.3
        assert random_rate > baseline - 0.15
        assert jsma_rate < random_rate


class TestGreyBoxEndToEnd:
    def test_transferability_story(self, tiny_context):
        """The Figure 4 story: substitute-crafted examples transfer to the target."""
        target = tiny_context.target_model
        substitute = tiny_context.substitute_model
        malware = tiny_context.attack_malware
        attack = JsmaAttack(substitute.network,
                            PerturbationConstraints(theta=0.1, gamma=0.03),
                            early_stop=False)
        outcome = TransferAttack(attack, target.network).run(malware.features)
        assert outcome.substitute_detection_rate < outcome.target_detection_rate_original
        assert outcome.target_detection_rate < outcome.target_detection_rate_original
        assert 0.0 < outcome.transfer_rate <= 1.0


class TestDefenseEndToEnd:
    def test_adversarial_training_beats_no_defense(self, tiny_context):
        """The Table VI story for the adversarial-training row."""
        advex = tiny_context.greybox_adversarial(theta=0.1, gamma=0.02)
        target = tiny_context.target_model
        defense = AdversarialTrainingDefense(scale=tiny_context.scale, random_state=1)
        detector = defense.fit(tiny_context.corpus.train, tiny_context.corpus.test, advex)
        assert (detector.detection_rate(advex.features)
                > target.detection_rate(advex.features))
        clean = tiny_context.corpus.test.clean_only()
        assert detector.report(clean).tnr > 0.8

    def test_dim_reduction_improves_adversarial_detection(self, tiny_context):
        advex = tiny_context.greybox_adversarial(theta=0.1, gamma=0.02)
        defense = DimensionalityReductionDefense(n_components=10,
                                                 scale=tiny_context.scale,
                                                 random_state=1)
        detector = defense.fit(tiny_context.corpus.train)
        assert (detector.detection_rate(advex.features)
                >= tiny_context.target_model.detection_rate(advex.features))

    def test_defended_and_undefended_models_share_interface(self, tiny_context):
        advex = tiny_context.greybox_adversarial(theta=0.1, gamma=0.02)
        dataset = Dataset(features=advex.features,
                          labels=np.full(advex.n_samples, CLASS_MALWARE, dtype=np.int64))
        defense = DimensionalityReductionDefense(n_components=8,
                                                 scale=tiny_context.scale,
                                                 random_state=0)
        detector = defense.fit(tiny_context.corpus.train)
        report = detector.report(dataset)
        assert 0.0 <= report.tpr <= 1.0


class TestPersistenceAcrossComponents:
    def test_saved_artifacts_reproduce_predictions(self, tmp_path, tiny_context):
        """Pipeline + model persisted to disk give identical verdicts after reload."""
        from repro.features.pipeline import FeaturePipeline
        from repro.models.base import DetectorModel

        target = tiny_context.target_model
        pipeline = tiny_context.pipeline
        features = tiny_context.corpus.test.features[:20]

        pipeline.save(tmp_path / "pipeline")
        target.save(tmp_path / "target")

        restored_pipeline = FeaturePipeline.load(tmp_path / "pipeline")
        restored_target = DetectorModel.load(tmp_path / "target")

        sample_counts = {"writefile": 4, "winexec": 1, "waitmessage": 2}
        np.testing.assert_allclose(restored_pipeline.transform([sample_counts]),
                                   pipeline.transform([sample_counts]))
        np.testing.assert_array_equal(restored_target.predict(features),
                                      target.predict(features))
