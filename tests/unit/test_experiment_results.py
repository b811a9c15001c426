"""Unit tests for experiment result objects and the paper reference values."""

import pytest

from repro.experiments import paper_values
from repro.experiments.figure5_l2 import Figure5Result
from repro.experiments.live_greybox import LiveGreyBoxResult
from repro.attacks.live_greybox import LiveGreyBoxTrace
from repro.evaluation.distances import DistanceReport
from repro.experiments.table1_dataset import Table1Result
from repro.experiments.table3_features import Table3Result
from repro.apilog.api_catalog import TABLE_III_EXCERPT


class TestPaperValues:
    def test_table1_totals_are_consistent(self):
        for split in paper_values.TABLE_I.values():
            assert split["clean"] + split["malware"] == split["total"]

    def test_whitebox_operating_point(self):
        assert paper_values.WHITE_BOX["theta"] == pytest.approx(0.1)
        assert paper_values.WHITE_BOX["gamma"] == pytest.approx(0.025)
        assert paper_values.WHITE_BOX["detection_rate"] == pytest.approx(0.099)

    def test_greybox_transfer_complements_detection(self):
        greybox = paper_values.GREY_BOX_COUNTS
        assert greybox["target_detection_rate"] + greybox["transfer_rate"] == pytest.approx(1.0)
        binary = paper_values.GREY_BOX_BINARY
        assert binary["target_detection_rate"] + binary["transfer_rate"] == pytest.approx(1.0)

    def test_table4_matches_substitute_architecture(self):
        from repro.models.substitute_model import SUBSTITUTE_LAYER_SIZES
        assert tuple(paper_values.TABLE_IV["layers"]) == SUBSTITUTE_LAYER_SIZES

    def test_table6_rates_are_probabilities(self):
        for row in paper_values.TABLE_VI.values():
            for value in row.values():
                assert 0.0 <= value <= 1.0

    def test_defense_params(self):
        assert paper_values.DEFENSE_PARAMS["distillation_temperature"] == 50.0
        assert paper_values.DEFENSE_PARAMS["pca_components"] == 19


class TestTable1Result:
    def _result(self, malware_fraction=0.5):
        measured = {
            "train": {"total": 100, "clean": 50, "malware": 50},
            "validation": {"total": 20, "clean": 10, "malware": 10},
            "test": {"total": 50, "clean": int(50 * (1 - malware_fraction)),
                     "malware": int(50 * malware_fraction)},
        }
        return Table1Result(scale_name="unit", measured=measured,
                            paper=paper_values.TABLE_I)

    def test_balance_check_accepts_similar_ratios(self):
        assert self._result(malware_fraction=0.64).class_balance_preserved()

    def test_balance_check_rejects_wildly_different_ratios(self):
        assert not self._result(malware_fraction=0.1).class_balance_preserved()

    def test_render_contains_every_split(self):
        rendered = self._result().render()
        for split in ("train", "validation", "test"):
            assert split in rendered


class TestTable3Result:
    def test_matches_paper_detects_mismatch(self):
        good = Table3Result(n_features=491,
                            excerpt=list(enumerate(TABLE_III_EXCERPT, start=475)),
                            paper_excerpt=TABLE_III_EXCERPT)
        assert good.matches_paper()
        bad = Table3Result(n_features=491,
                           excerpt=[(475, "somethingelse")] + list(
                               enumerate(TABLE_III_EXCERPT[1:], start=476)),
                           paper_excerpt=TABLE_III_EXCERPT)
        assert not bad.matches_paper()


class TestFigure5Result:
    def _report(self, mal_adv, mal_clean, clean_adv, theta=0.1, gamma=0.01):
        return DistanceReport(theta=theta, gamma=gamma,
                              malware_to_adversarial=mal_adv,
                              malware_to_clean=mal_clean,
                              clean_to_adversarial=clean_adv)

    def test_ordering_holds_everywhere(self):
        result = Figure5Result(
            gamma_reports=[self._report(0.1, 0.5, 0.6),
                           self._report(0.2, 0.5, 0.7, gamma=0.02)],
            theta_reports=[self._report(0.1, 0.5, 0.6, theta=0.05)])
        assert result.ordering_holds_everywhere()
        assert result.distances_grow_with_strength()

    def test_ordering_violation_detected(self):
        result = Figure5Result(
            gamma_reports=[self._report(0.9, 0.5, 0.6)],
            theta_reports=[])
        assert not result.ordering_holds_everywhere()

    def test_zero_strength_points_are_skipped(self):
        result = Figure5Result(
            gamma_reports=[self._report(0.0, 0.5, 0.4, gamma=0.0)],
            theta_reports=[])
        assert result.ordering_holds_everywhere(skip_zero_strength=True)

    def test_rows_and_render(self):
        result = Figure5Result(gamma_reports=[self._report(0.1, 0.5, 0.6)],
                               theta_reports=[])
        assert len(result.rows()) == 1
        assert "L2(mal, adv)" in result.render()


class TestLiveGreyBoxResult:
    def test_confidence_decrease_check(self):
        trace = LiveGreyBoxTrace(sample_id="s", injected_api="waitmessage",
                                 repetitions=[1, 2], confidences=[0.8, 0.4],
                                 detected=[True, False], original_confidence=0.98)
        result = LiveGreyBoxResult(trace=trace, paper_original_confidence=0.9843,
                                   paper_confidence_after_1=0.8888,
                                   paper_confidence_after_8=0.0)
        assert result.confidence_decreases()
        assert len(result.rows()) == 3
        assert "waitmessage" in result.render()

    def test_no_decrease_detected(self):
        trace = LiveGreyBoxTrace(sample_id="s", injected_api="a",
                                 repetitions=[1], confidences=[0.99],
                                 detected=[True], original_confidence=0.9)
        result = LiveGreyBoxResult(trace=trace, paper_original_confidence=0.98,
                                   paper_confidence_after_1=0.88,
                                   paper_confidence_after_8=0.0)
        assert not result.confidence_decreases()
