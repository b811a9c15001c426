"""Shared fixtures.

Expensive artifacts (the tiny corpus and the tiny trained models) are built
once per test session and shared; tests that need to mutate a model make
their own copy via ``network.clone()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TINY_PROFILE
from repro.experiments.context import ExperimentContext
from repro.nn.network import NeuralNetwork


@pytest.fixture(scope="session")
def tiny_scale():
    """The tiny scale profile used throughout the test suite."""
    return TINY_PROFILE


@pytest.fixture(scope="session")
def tiny_context(tiny_scale):
    """A shared experiment context at tiny scale (lazy artifacts)."""
    return ExperimentContext(scale=tiny_scale, seed=123)


@pytest.fixture(scope="session")
def tiny_corpus(tiny_context):
    """The tiny Table I corpus bundle."""
    return tiny_context.corpus


@pytest.fixture(scope="session")
def tiny_target(tiny_context):
    """A trained tiny target model."""
    return tiny_context.target_model


@pytest.fixture(scope="session")
def tiny_substitute(tiny_context):
    """A trained tiny substitute model."""
    return tiny_context.substitute_model


@pytest.fixture(scope="session")
def tiny_malware(tiny_context):
    """Malware feature rows used as attack inputs."""
    return tiny_context.attack_malware


@pytest.fixture()
def small_mlp():
    """A small untrained MLP over 12 features (fast unit-test workhorse)."""
    return NeuralNetwork.mlp([12, 16, 8, 2], random_state=0, name="unit_mlp")


@pytest.fixture()
def toy_classification():
    """A tiny linearly-separable 12-feature binary problem."""
    rng = np.random.default_rng(42)
    n = 160
    half = n // 2
    clean = rng.normal(0.2, 0.08, size=(half, 12))
    malware = rng.normal(0.2, 0.08, size=(half, 12))
    malware[:, :4] += 0.45
    x = np.clip(np.vstack([clean, malware]), 0.0, 1.0)
    y = np.array([0] * half + [1] * half, dtype=np.int64)
    order = rng.permutation(n)
    return x[order], y[order]
