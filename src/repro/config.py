"""Experiment-scale configuration.

The paper's corpora (Table I: 57,170 training / 578 validation / 45,028 test
samples, a target DNN trained on millions of samples) are far larger than
what a test-suite should rebuild on every run.  :class:`ScaleProfile`
captures every size knob in one place so that *the same experiment code*
runs at:

* ``paper``  — the exact Table I sizes and sweep grids from the paper,
* ``medium`` — ~10% of paper scale, for benchmark runs on a laptop,
* ``small``  — the default for the benchmark harness in CI,
* ``tiny``   — the default for unit/integration tests.

The class-balance and distribution-shift structure is preserved at every
scale; EXPERIMENTS.md records which profile produced which reported number.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict

from repro.exceptions import ConfigurationError

#: Number of API-call features used by the detector (paper, Section II-A).
N_FEATURES = 491

#: Class label conventions used throughout the paper and this library.
CLASS_CLEAN = 0
CLASS_MALWARE = 1
CLASS_NAMES = {CLASS_CLEAN: "clean", CLASS_MALWARE: "malware"}

_ENV_SCALE_VAR = "REPRO_SCALE"


@dataclass(frozen=True)
class ScaleProfile:
    """All size knobs for one reproduction scale.

    Attributes
    ----------
    name:
        Profile identifier (``paper``, ``medium``, ``small``, ``tiny``).
    train_clean / train_malware:
        Number of clean / malware samples in the training set (Table I).
    val_clean / val_malware:
        Validation split sizes (Table I).
    test_clean / test_malware:
        Test split sizes (Table I; drawn from the shifted "VirusTotal-like"
        source distribution).
    target_epochs / substitute_epochs:
        Training epochs for the target and substitute models.  The paper
        trains the substitute for 1000 epochs; the synthetic corpus is far
        easier, so profiles use smaller values that reach the same operating
        point (TNR ~0.96, TPR ~0.88 for the target).
    batch_size / learning_rate:
        Optimiser settings (paper: batch 256, lr 1e-3, Adam).
    attack_samples:
        Number of malware samples used to craft adversarial examples in the
        security-curve experiments (paper: all 28,874 test malware).
    sweep_points:
        Number of grid points in the gamma/theta sweeps of Figures 3-5.
        The paper grids have 7 (gamma) and 13 (theta) points.
    hidden_scale:
        Multiplier applied to the hidden-layer widths of the target and
        substitute networks.  1.0 reproduces Table IV exactly
        (491-1200-1500-1300-2); smaller profiles shrink the hidden layers to
        keep unit tests fast while preserving the depth.
    """

    name: str
    train_clean: int
    train_malware: int
    val_clean: int
    val_malware: int
    test_clean: int
    test_malware: int
    target_epochs: int
    substitute_epochs: int
    batch_size: int
    learning_rate: float
    attack_samples: int
    sweep_points_gamma: int
    sweep_points_theta: int
    hidden_scale: float

    def __post_init__(self) -> None:
        for attr in ("train_clean", "train_malware", "val_clean", "val_malware",
                     "test_clean", "test_malware", "target_epochs",
                     "substitute_epochs", "batch_size", "attack_samples",
                     "sweep_points_gamma", "sweep_points_theta"):
            if getattr(self, attr) < 1:
                raise ConfigurationError(f"{attr} must be >= 1, got {getattr(self, attr)}")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.hidden_scale <= 0:
            raise ConfigurationError("hidden_scale must be positive")

    @property
    def train_total(self) -> int:
        """Total number of training samples."""
        return self.train_clean + self.train_malware

    @property
    def val_total(self) -> int:
        """Total number of validation samples."""
        return self.val_clean + self.val_malware

    @property
    def test_total(self) -> int:
        """Total number of test samples."""
        return self.test_clean + self.test_malware

    def scaled_hidden(self, width: int) -> int:
        """Scale a paper hidden-layer ``width`` by :attr:`hidden_scale`."""
        return max(4, int(round(width * self.hidden_scale)))

    def with_overrides(self, **kwargs) -> "ScaleProfile":
        """Return a copy of this profile with selected fields replaced."""
        return replace(self, **kwargs)


#: Table I sizes, exactly as reported in the paper.
PAPER_PROFILE = ScaleProfile(
    name="paper",
    train_clean=28594, train_malware=28576,
    val_clean=280, val_malware=298,
    test_clean=16154, test_malware=28874,
    target_epochs=30, substitute_epochs=60,
    batch_size=256, learning_rate=1e-3,
    attack_samples=28874,
    sweep_points_gamma=7, sweep_points_theta=13,
    hidden_scale=1.0,
)

MEDIUM_PROFILE = ScaleProfile(
    name="medium",
    train_clean=2860, train_malware=2858,
    val_clean=140, val_malware=150,
    test_clean=1616, test_malware=2888,
    target_epochs=20, substitute_epochs=30,
    batch_size=128, learning_rate=1e-3,
    attack_samples=600,
    sweep_points_gamma=7, sweep_points_theta=13,
    hidden_scale=0.25,
)

SMALL_PROFILE = ScaleProfile(
    name="small",
    train_clean=700, train_malware=700,
    val_clean=60, val_malware=60,
    test_clean=400, test_malware=700,
    target_epochs=15, substitute_epochs=20,
    batch_size=64, learning_rate=2e-3,
    attack_samples=200,
    sweep_points_gamma=7, sweep_points_theta=7,
    hidden_scale=0.08,
)

TINY_PROFILE = ScaleProfile(
    name="tiny",
    train_clean=120, train_malware=120,
    val_clean=20, val_malware=20,
    test_clean=60, test_malware=100,
    target_epochs=8, substitute_epochs=10,
    batch_size=32, learning_rate=5e-3,
    attack_samples=40,
    sweep_points_gamma=4, sweep_points_theta=4,
    hidden_scale=0.03,
)

PROFILES: Dict[str, ScaleProfile] = {
    profile.name: profile
    for profile in (PAPER_PROFILE, MEDIUM_PROFILE, SMALL_PROFILE, TINY_PROFILE)
}


def get_profile(name: str) -> ScaleProfile:
    """Return the named scale profile.

    Raises
    ------
    ConfigurationError
        If ``name`` is not one of ``paper``, ``medium``, ``small``, ``tiny``.
    """
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale profile {name!r}; expected one of {sorted(PROFILES)}"
        ) from None


def default_profile() -> ScaleProfile:
    """Return the profile selected by the ``REPRO_SCALE`` environment variable.

    Falls back to ``small`` when the variable is unset, which is the scale
    used by the benchmark harness in CI.
    """
    return get_profile(os.environ.get(_ENV_SCALE_VAR, "small"))
