"""Tests for repro.config (scale profiles)."""

import pytest

from repro.config import (
    CLASS_CLEAN,
    CLASS_MALWARE,
    N_FEATURES,
    PAPER_PROFILE,
    PROFILES,
    SMALL_PROFILE,
    TINY_PROFILE,
    default_profile,
    get_profile,
)
from repro.exceptions import ConfigurationError


class TestConstants:
    def test_feature_dimension_matches_paper(self):
        assert N_FEATURES == 491

    def test_class_labels(self):
        assert CLASS_CLEAN == 0
        assert CLASS_MALWARE == 1


class TestPaperProfile:
    def test_table1_training_sizes(self):
        assert PAPER_PROFILE.train_clean == 28594
        assert PAPER_PROFILE.train_malware == 28576
        assert PAPER_PROFILE.train_total == 57170

    def test_table1_validation_sizes(self):
        assert PAPER_PROFILE.val_clean == 280
        assert PAPER_PROFILE.val_malware == 298
        assert PAPER_PROFILE.val_total == 578

    def test_table1_test_sizes(self):
        assert PAPER_PROFILE.test_clean == 16154
        assert PAPER_PROFILE.test_malware == 28874
        assert PAPER_PROFILE.test_total == 45028

    def test_paper_attack_samples_cover_all_test_malware(self):
        assert PAPER_PROFILE.attack_samples == PAPER_PROFILE.test_malware

    def test_paper_hidden_scale_is_identity(self):
        assert PAPER_PROFILE.scaled_hidden(1200) == 1200


class TestScaleProfiles:
    def test_all_registered_profiles_have_unique_names(self):
        assert len(PROFILES) == len({p.name for p in PROFILES.values()})

    @pytest.mark.parametrize("name", ["paper", "medium", "small", "tiny"])
    def test_get_profile_returns_named_profile(self, name):
        assert get_profile(name).name == name

    def test_get_profile_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            get_profile("gigantic")

    def test_profiles_shrink_monotonically(self):
        order = ["paper", "medium", "small", "tiny"]
        totals = [get_profile(name).train_total for name in order]
        assert totals == sorted(totals, reverse=True)

    def test_scaled_hidden_has_floor(self):
        assert TINY_PROFILE.scaled_hidden(8) >= 4

    def test_with_overrides_changes_only_requested_fields(self):
        modified = SMALL_PROFILE.with_overrides(attack_samples=5)
        assert modified.attack_samples == 5
        assert modified.train_clean == SMALL_PROFILE.train_clean
        assert SMALL_PROFILE.attack_samples != 5


class TestProfileValidation:
    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            SMALL_PROFILE.with_overrides(train_clean=0)

    def test_non_positive_learning_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            SMALL_PROFILE.with_overrides(learning_rate=0.0)

    def test_non_positive_hidden_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            SMALL_PROFILE.with_overrides(hidden_scale=-1.0)


class TestDefaultProfile:
    def test_default_profile_without_env_is_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert default_profile().name == "small"

    def test_default_profile_respects_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert default_profile().name == "tiny"

    def test_default_profile_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ConfigurationError):
            default_profile()
