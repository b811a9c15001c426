"""The reference JSMA step that ``JsmaAttack._run`` must reproduce bit for bit.

``reference_run`` is the crafting loop as it was before the attack learnt
to score from one gradient row, pick by argmax on the raw row and keep a
compacted working set: every step gathers the active rows, computes the
full Jacobian, scores it with ``JsmaAttack._feature_scores`` and rebuilds
the ``saturated | touched`` mask.  The property and unit tests compare the
attack's adversarials, iteration counts and trajectories against it.
"""

import numpy as np

from repro.utils.topk import top_k_indices

TRAJECTORY_FIELDS = ("steps", "rows", "cols", "old_values", "new_values",
                     "first_evaded_at")


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


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
