"""Differential test: the JSMA loop against a reference step kept here.

``JsmaAttack._run`` scores a binary network from the target row of its
Jacobian alone and keeps one growing ``blocked`` mask.  The reference below
is the loop that path replaced: it scores the full Jacobian with
``_feature_scores`` and rebuilds the ``saturated | touched`` mask every
step.  Over small random MLPs and every loop option, adversarials,
iteration counts and recorded trajectories must be byte-identical.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.attacks.trajectory import TrajectoryRecorder
from repro.nn.engine import use_dtype
from repro.nn.network import NeuralNetwork
from repro.utils.topk import top_k_indices


def reference_run(attack, original, recorder=None):
    """The JSMA loop with a full-Jacobian step: (adversarial, iterations)."""
    network, constraints = attack.network, attack.constraints
    adversarial = original.copy()
    n_samples, n_features = original.shape
    budget = constraints.max_features(n_features)
    modifiable = constraints.modifiable_mask(n_features)
    iterations = np.zeros(n_samples, dtype=np.int64)
    per_step = attack.features_per_step
    if recorder is not None:
        recorder.begin(theta=constraints.theta, budget=budget,
                       n_samples=n_samples, n_features=n_features,
                       early_stop=attack.early_stop, features_per_step=per_step)
    if budget == 0 or constraints.theta == 0.0:
        return adversarial, iterations
    touched = np.zeros((n_samples, n_features), dtype=bool)
    active = np.ones(n_samples, dtype=bool)
    for step in range(-(-budget // per_step)):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        jacobian, probs = network.class_gradients(adversarial[idx], return_probs=True)
        evaded = np.argmax(probs, axis=1) == attack.target_class
        if recorder is not None and evaded.any():
            recorder.record_evasions(idx[evaded])
        if attack.early_stop and evaded.any():
            active[idx[evaded]] = False
            if evaded.all():
                continue
            idx, jacobian = idx[~evaded], jacobian[~evaded]
        scores = attack._feature_scores(jacobian)
        saturated = adversarial[idx] >= constraints.clip_max - 1e-12
        infeasible = (~modifiable)[None, :] | saturated | touched[idx]
        scores = np.where(infeasible, -np.inf, scores)
        if per_step == 1:
            best = np.argmax(scores, axis=1)
            progressed = np.isfinite(scores[np.arange(idx.size), best])
            rows, cols = idx[progressed], best[progressed]
        else:
            k_row = np.minimum(per_step, budget - touched[idx].sum(axis=1))
            k_max = int(max(k_row.max(), 1))
            order = top_k_indices(scores, k_max)
            valid = (np.isfinite(np.take_along_axis(scores, order, axis=1))
                     & (np.arange(k_max)[None, :] < k_row[:, None]))
            flat_row, flat_col = np.nonzero(valid)
            rows, cols = idx[flat_row], order[flat_row, flat_col]
            progressed = valid.any(axis=1)
        if not progressed.any():
            break
        old_values = adversarial[rows, cols]
        adversarial[rows, cols] = np.minimum(old_values + constraints.theta,
                                             constraints.clip_max)
        touched[rows, cols] = True
        np.add.at(iterations, rows, 1)
        if recorder is not None:
            recorder.record_step(step, rows, cols, old_values, adversarial[rows, cols])
        active[idx[~progressed]] = False
    return constraints.project(adversarial, original), iterations


TRAJECTORY_FIELDS = ("steps", "rows", "cols", "old_values", "new_values",
                     "first_evaded_at")


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def jsma_cases(draw):
    n_features = draw(st.integers(4, 24))
    hidden = draw(st.lists(st.integers(2, 16), min_size=1, max_size=2))
    n_classes = draw(st.sampled_from((2, 2, 3)))
    seed = draw(st.integers(0, 2**31 - 1))
    with use_dtype("float64"):
        network = NeuralNetwork.mlp(
            [n_features] + hidden + [n_classes],
            activation=draw(st.sampled_from(("relu", "leaky_relu", "tanh", "sigmoid"))),
            temperature=draw(st.sampled_from((1.0, 1.0, 50.0))), random_state=seed)
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
