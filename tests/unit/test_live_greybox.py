"""Tests for the live grey-box source-modification attack."""

import pytest

from repro.attacks.live_greybox import LiveGreyBoxAttack, LiveGreyBoxTrace
from repro.config import CLASS_MALWARE
from repro.exceptions import AttackError


@pytest.fixture(scope="module")
def live_attack(request):
    context = request.getfixturevalue("tiny_context")
    return LiveGreyBoxAttack(
        context.target_model.network,
        context.substitute_model.network,
        context.pipeline,
        random_state=1,
    )


@pytest.fixture(scope="module")
def malware_source(request):
    context = request.getfixturevalue("tiny_context")
    return context.generator.generate_source_samples(
        4, label=CLASS_MALWARE, source="train", rng_name="unit:live")[0]


class TestLiveGreyBoxAttack:
    def test_engine_confidence_in_unit_interval(self, live_attack, malware_source):
        confidence = live_attack.engine_confidence(malware_source)
        assert 0.0 <= confidence <= 1.0

    def test_choose_api_returns_catalog_name(self, live_attack, malware_source, tiny_context):
        api = live_attack.choose_api(malware_source)
        assert tiny_context.pipeline.catalog.monitored(api)

    def test_chosen_api_is_not_already_used(self, live_attack, malware_source):
        api = live_attack.choose_api(malware_source)
        assert not malware_source.uses_api(api)

    def test_run_produces_full_trace(self, live_attack, malware_source):
        trace = live_attack.run(malware_source, max_repetitions=4)
        assert trace.repetitions == [1, 2, 3, 4]
        assert len(trace.confidences) == 4
        assert len(trace.detected) == 4

    def test_trace_rows_start_with_original(self, live_attack, malware_source):
        trace = live_attack.run(malware_source, max_repetitions=3)
        rows = trace.rows()
        assert rows[0]["added_calls"] == 0
        assert rows[0]["confidence"] == pytest.approx(trace.original_confidence)
        assert len(rows) == 4

    def test_more_injections_do_not_increase_confidence_much(self, live_attack,
                                                             malware_source):
        trace = live_attack.run(malware_source, max_repetitions=6)
        assert trace.confidences[-1] <= trace.original_confidence + 0.05

    def test_mutation_preserves_source_functionality(self, live_attack, malware_source):
        api = live_attack.choose_api(malware_source)
        mutated = malware_source.add_api_call(api, times=5)
        assert mutated.preserves_functionality_of(malware_source)

    def test_rejects_clean_sample(self, live_attack, tiny_context):
        clean = tiny_context.generator.generate_source_samples(
            1, label=0, source="train", rng_name="unit:live_clean")[0]
        with pytest.raises(AttackError):
            live_attack.run(clean)

    def test_rejects_invalid_repetitions(self, live_attack, malware_source):
        with pytest.raises(AttackError):
            live_attack.run(malware_source, max_repetitions=0)

    def test_explicit_api_override(self, live_attack, malware_source):
        trace = live_attack.run(malware_source, max_repetitions=2, api="waitmessage")
        assert trace.injected_api == "waitmessage"


class TestLiveGreyBoxTrace:
    def test_evasion_repetitions_none_when_always_detected(self):
        trace = LiveGreyBoxTrace(sample_id="s", injected_api="a",
                                 repetitions=[1, 2], confidences=[0.9, 0.8],
                                 detected=[True, True], original_confidence=0.95)
        assert trace.evasion_repetitions is None

    def test_evasion_repetitions_first_undetected(self):
        trace = LiveGreyBoxTrace(sample_id="s", injected_api="a",
                                 repetitions=[1, 2, 3], confidences=[0.9, 0.4, 0.2],
                                 detected=[True, False, False], original_confidence=0.95)
        assert trace.evasion_repetitions == 2

    def test_final_confidence_defaults_to_original(self):
        trace = LiveGreyBoxTrace(sample_id="s", injected_api="a", repetitions=[],
                                 confidences=[], detected=[], original_confidence=0.7)
        assert trace.final_confidence == 0.7
