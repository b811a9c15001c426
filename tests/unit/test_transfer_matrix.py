"""Tests for the cross-model transferability matrix."""

import pytest

from repro.attacks.constraints import PerturbationConstraints
from repro.evaluation.transfer_matrix import transfer_matrix
from repro.exceptions import AttackError


@pytest.fixture(scope="module")
def matrix(request):
    context = request.getfixturevalue("tiny_context")
    models = {"target": context.target_model.network,
              "substitute": context.substitute_model.network}
    return transfer_matrix(models, context.attack_malware.features,
                           constraints=PerturbationConstraints(theta=0.1, gamma=0.025))


class TestTransferMatrixComputation:
    def test_matrix_covers_all_pairs(self, matrix):
        assert set(matrix.model_names) == {"target", "substitute"}
        for source in matrix.model_names:
            for victim in matrix.model_names:
                assert 0.0 <= matrix.rate(source, victim) <= 1.0

    def test_diagonal_is_whitebox_and_attacks_work(self, matrix):
        for name in matrix.model_names:
            assert matrix.whitebox_rate(name) < matrix.baseline_detection[name]

    def test_transfer_complements_detection(self, matrix):
        assert matrix.transfer_rate("substitute", "target") == pytest.approx(
            1.0 - matrix.rate("substitute", "target"))

    def test_transferred_attack_is_no_stronger_than_whitebox(self, matrix):
        # crafting against the victim itself is at least as strong as a
        # transferred attack (up to small noise)
        assert matrix.transfer_is_weaker_than_whitebox("substitute", "target", slack=0.1)

    def test_rows_and_render(self, matrix):
        rows = matrix.rows()
        assert len(rows) == 2
        rendered = matrix.render()
        assert "Transferability matrix" in rendered
        assert "no-attack baseline" in rendered

    def test_baselines_match_models(self, matrix, tiny_context):
        expected = tiny_context.target_model.detection_rate(
            tiny_context.attack_malware.features)
        assert matrix.baseline_detection["target"] == pytest.approx(expected)


class TestValidation:
    def test_empty_models_rejected(self, tiny_malware):
        with pytest.raises(AttackError):
            transfer_matrix({}, tiny_malware.features)

    def test_single_model_matrix(self, tiny_context, tiny_malware):
        matrix = transfer_matrix({"target": tiny_context.target_model.network},
                                 tiny_malware.features,
                                 constraints=PerturbationConstraints(theta=0.1, gamma=0.01))
        assert matrix.model_names == ["target"]
        assert matrix.whitebox_rate("target") <= matrix.baseline_detection["target"]
