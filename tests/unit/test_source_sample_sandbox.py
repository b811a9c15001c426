"""Tests for SourceSample mutation and the simulated sandbox."""

import pytest

from repro.apilog.behavior_profiles import default_profile_library
from repro.apilog.log_format import parse_line
from repro.apilog.sandbox import SUPPORTED_OS_VERSIONS, Sandbox
from repro.apilog.source_sample import SourceSample
from repro.config import CLASS_MALWARE
from repro.exceptions import ConfigurationError, SandboxError


@pytest.fixture()
def malware_sample():
    profile = default_profile_library().by_name("malware_trojan_injector")
    return SourceSample.from_profile(profile, "unit-mal-001", random_state=3)


@pytest.fixture()
def clean_sample():
    profile = default_profile_library().by_name("clean_gui_utility")
    return SourceSample.from_profile(profile, "unit-clean-001", random_state=4)


class TestSourceSample:
    def test_from_profile_sets_label_and_family(self, malware_sample):
        assert malware_sample.label == CLASS_MALWARE
        assert malware_sample.family == "malware_trojan_injector"

    def test_from_profile_is_seeded(self):
        profile = default_profile_library().by_name("malware_ransomware")
        a = SourceSample.from_profile(profile, "x", random_state=9)
        b = SourceSample.from_profile(profile, "x", random_state=9)
        assert a.api_calls == b.api_calls

    def test_sample_is_never_empty(self):
        profile = default_profile_library().by_name("clean_console_tool")
        for seed in range(10):
            sample = SourceSample.from_profile(profile, f"s{seed}", random_state=seed)
            assert sample.total_calls() > 0

    def test_api_names_are_lowercased(self):
        sample = SourceSample(sample_id="s", label=1, family="f",
                              api_calls={"WriteFile": 3})
        assert sample.api_calls == {"writefile": 3}

    def test_zero_counts_are_dropped(self):
        sample = SourceSample(sample_id="s", label=0, family="f",
                              api_calls={"writefile": 0, "readfile": 2})
        assert "writefile" not in sample.api_calls

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceSample(sample_id="s", label=0, family="f", api_calls={"writefile": -1})

    def test_invalid_label_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceSample(sample_id="s", label=2, family="f")


class TestSourceMutation:
    def test_add_api_call_returns_new_object(self, malware_sample):
        mutated = malware_sample.add_api_call("destroyicon", times=2)
        assert mutated is not malware_sample
        assert malware_sample.injected_calls == {}
        assert mutated.injected_calls == {"destroyicon": 2}

    def test_add_api_call_accumulates(self, malware_sample):
        mutated = malware_sample.add_api_call("destroyicon").add_api_call("destroyicon", 3)
        assert mutated.injected_calls["destroyicon"] == 4

    def test_add_api_calls_mapping(self, malware_sample):
        mutated = malware_sample.add_api_calls({"destroyicon": 1, "waitmessage": 2})
        assert mutated.injected_calls == {"destroyicon": 1, "waitmessage": 2}

    def test_mutation_preserves_functionality(self, malware_sample):
        mutated = malware_sample.add_api_call("destroyicon", 5)
        assert mutated.preserves_functionality_of(malware_sample)

    def test_removed_behaviour_detected(self, malware_sample):
        api, count = next(iter(malware_sample.api_calls.items()))
        reduced = dict(malware_sample.api_calls)
        del reduced[api]
        stripped = SourceSample(sample_id="s", label=1, family="f", api_calls=reduced)
        assert not stripped.preserves_functionality_of(malware_sample)

    def test_combined_calls_merges_injections(self, malware_sample):
        mutated = malware_sample.add_api_call("destroyicon", 2)
        combined = mutated.combined_calls()
        assert combined["destroyicon"] == 2
        for api, count in malware_sample.api_calls.items():
            assert combined[api] >= count

    def test_uses_api_covers_injections(self, malware_sample):
        assert not malware_sample.uses_api("destroyicon")
        assert malware_sample.add_api_call("destroyicon").uses_api("destroyicon")

    def test_invalid_times_rejected(self, malware_sample):
        with pytest.raises(ConfigurationError):
            malware_sample.add_api_call("destroyicon", times=0)

    def test_describe_mentions_family(self, malware_sample):
        assert "malware_trojan_injector" in malware_sample.describe()


class TestSandbox:
    def test_rejects_unknown_os(self):
        with pytest.raises(SandboxError):
            Sandbox(os_version="win95")

    @pytest.mark.parametrize("os_version", SUPPORTED_OS_VERSIONS)
    def test_execute_produces_nonempty_log(self, os_version, malware_sample):
        run = Sandbox(os_version=os_version, random_state=0).execute(malware_sample)
        assert run.total_calls > 0
        assert run.os_version == os_version

    def test_log_lines_parse_back(self, malware_sample):
        text = Sandbox(os_version="win7", random_state=0,
                       record_args=True).execute_to_text(malware_sample)
        lines = text.splitlines()
        assert lines
        for line in lines[:50]:
            parse_line(line)

    def test_log_contains_sample_apis(self, malware_sample):
        run = Sandbox(os_version="win7", random_state=0).execute(malware_sample)
        logged = set(run.log.api_counts())
        sample_apis = set(malware_sample.api_calls)
        assert len(logged & sample_apis) >= len(sample_apis) * 0.8

    def test_log_contains_os_preamble(self, clean_sample):
        run = Sandbox(os_version="win7", random_state=0).execute(clean_sample)
        assert "getstartupinfow" in run.log.api_counts()

    def test_injected_api_appears_in_log(self, malware_sample):
        mutated = malware_sample.add_api_call("destroyicon", 4)
        counts = Sandbox(os_version="win7", random_state=1).execute_counts(mutated)
        assert counts.get("destroyicon", 0) >= 4

    def test_execute_counts_matches_log_distribution(self, malware_sample):
        # The fast path and the full log path must produce counts with the
        # same support (the same APIs), since they share the sampling logic.
        sandbox = Sandbox(os_version="win10", random_state=2)
        fast = sandbox.execute_counts(malware_sample)
        log_counts = Sandbox(os_version="win10", random_state=2).execute(malware_sample).log.api_counts()
        shared = set(fast) & set(log_counts)
        assert len(shared) >= 0.7 * min(len(fast), len(log_counts))

    def test_label_propagates_to_log(self, malware_sample):
        run = Sandbox(os_version="win8", random_state=0).execute(malware_sample)
        assert run.log.label == CLASS_MALWARE

    def test_execution_is_seeded(self, malware_sample):
        a = Sandbox(os_version="win7", random_state=7).execute_counts(malware_sample)
        b = Sandbox(os_version="win7", random_state=7).execute_counts(malware_sample)
        assert a == b
