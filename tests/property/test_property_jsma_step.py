"""Differential test: the JSMA loop against the reference step.

``JsmaAttack._run`` asks a binary network for its target-class gradient row
alone, keeps the active rows, their inputs and their blocked cells as a
compacted working set, and (saliency map, one feature per step) picks each
row's feature by argmax on the raw row, guarded by ``sqrt(finfo.tiny)`` and
a finite square.  ``jsma_reference.reference_run`` is the loop all of that
replaced: full Jacobian, ``_feature_scores``, and a ``saturated | touched``
mask rebuilt every step.  Over small random MLPs in both engine dtypes and
every loop option, adversarials, iteration counts and recorded trajectories
must be byte-identical.

The last layer's weights are scaled by up to 500.  That saturates the
softmax, so the gradients fall into the range where squares underflow to
subnormals (below 2^-511 in float64, 2^-63 in float32) and the guard has to
send rows to the reference scoring.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from jsma_reference import TRAJECTORY_FIELDS, assert_same_bytes, reference_run

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.attacks.trajectory import TrajectoryRecorder
from repro.nn.engine import use_dtype
from repro.nn.network import NeuralNetwork


@st.composite
def jsma_cases(draw):
    n_features = draw(st.integers(4, 24))
    hidden = draw(st.lists(st.integers(2, 16), min_size=1, max_size=2))
    n_classes = draw(st.sampled_from((2, 2, 3)))
    seed = draw(st.integers(0, 2**31 - 1))
    with use_dtype(draw(st.sampled_from(("float64", "float32")))):
        network = NeuralNetwork.mlp(
            [n_features] + hidden + [n_classes],
            activation=draw(st.sampled_from(("relu", "leaky_relu", "tanh", "sigmoid"))),
            temperature=draw(st.sampled_from((1.0, 1.0, 50.0))), random_state=seed)
    network.layers[-1].weight.value *= draw(st.one_of(
        st.just(1.0), st.floats(1.0, 500.0)))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        # Inputs no unit reads: exact-zero gradient columns.
        network.layers[0].weight.value[rng.random(n_features) < 0.3] = 0.0
    n_rows = draw(st.integers(1, 12))
    features = rng.random((n_rows, n_features))
    features[features < 0.5] = 0.0
    features[features > 0.9] = 1.0          # saturated cells are never picked
    # Empty rows: through ReLU they have an all-zero gradient, so no feature
    # is salient and the scores fall back to the raw gradient.
    features[rng.random(n_rows) < 0.25] = 0.0
    mask = None
    if draw(st.booleans()):
        mask = rng.random(n_features) < 0.7
        mask[rng.integers(n_features)] = True
    constraints = PerturbationConstraints(
        theta=draw(st.sampled_from((0.0, 0.05, 0.1, 0.3, 1.0))),
        gamma=draw(st.floats(0.0, 0.6)), feature_mask=mask)
    attack = JsmaAttack(network, constraints,
                        target_class=draw(st.integers(0, 1)),
                        use_saliency_map=draw(st.booleans()),
                        early_stop=draw(st.booleans()),
                        features_per_step=draw(st.sampled_from((1, 1, 2, 3, 5))))
    return attack, features, draw(st.booleans())


@given(case=jsma_cases())
@settings(max_examples=150, deadline=None)
def test_jsma_matches_reference_step(case):
    attack, features, record = case
    recorder = TrajectoryRecorder() if record else None
    result = attack.run(features, recorder=recorder)
    reference_recorder = TrajectoryRecorder() if record else None
    adversarial, iterations = reference_run(attack, features, reference_recorder)
    assert_same_bytes(result.adversarial, adversarial)
    assert_same_bytes(result.iterations, iterations)
    if record:
        got, want = recorder.trajectory, reference_recorder.trajectory
        for name in TRAJECTORY_FIELDS:
            assert_same_bytes(getattr(got, name), getattr(want, name))


@given(seed=st.integers(0, 2**31 - 1), n_rows=st.integers(1, 9),
       target_class=st.integers(0, 1), use_saliency_map=st.booleans())
@settings(max_examples=60, deadline=None)
def test_binary_scores_equal_full_jacobian_scores(seed, n_rows, target_class,
                                                  use_saliency_map):
    with use_dtype("float64"):
        network = NeuralNetwork.mlp([10, 8, 2], random_state=seed)
    features = np.random.default_rng(seed).random((n_rows, 10))
    attack = JsmaAttack(network, target_class=target_class,
                        use_saliency_map=use_saliency_map)
    jacobian = network.class_gradients(features)
    assert_same_bytes(attack._binary_scores(jacobian[:, target_class, :]),
                      attack._feature_scores(jacobian))
