"""The Jacobian-based Saliency Map Attack (JSMA), add-only variant.

This is the attack the paper uses for every experiment (Section II-B-1).
Following Papernot et al. (2016) and the paper's adaptation to API-count
features:

1. compute the Jacobian of the softmax output with respect to the input
   (Equation 1 of the paper);
2. build the saliency map for moving the sample towards the *clean* class
   (class 0): a feature is salient when increasing it increases the clean
   probability and decreases the malware probability;
3. perturb the most salient modifiable feature by ``theta`` (adding API
   calls only — existing features are never reduced);
4. repeat until the crafting model classifies the sample as clean or the
   ``gamma`` feature budget is exhausted.

The implementation is batched over a compacted working set: each step runs
one forward and one input-only backward over the samples still being
perturbed (still detected, with budget and a feasible feature left).  Their
rows and blocked-cell masks are kept compact and gathered again only on a
step where samples leave.

A binary network is asked for its target-class gradient row alone.  With
the saliency map and one feature per step, each sample's pick is the argmax
of that raw row over its unblocked cells.  The saliency score of a positive
cell is ``t * t``, and on positive floats squaring is strictly increasing
while the square is normal and finite; both argmaxes break ties toward the
lower index, so the picks are the saliency map's exactly.  A row whose best
value lies outside that range (below ``sqrt(finfo(dtype).tiny)``, or with an
infinite square) or that holds a NaN is rescored the reference way.
Adversarials, iteration counts and trajectories are byte-identical to the
full-Jacobian step, which ``tests/jsma_reference.py`` keeps as the oracle.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.trajectory import TrajectoryRecorder
from repro.config import CLASS_CLEAN, CLASS_MALWARE
from repro.exceptions import AttackError
from repro.nn.network import NeuralNetwork
from repro.obs.instrument import current as current_instrumentation
from repro.scenarios.registry import Param, register_attack
from repro.utils.topk import top_k_indices
from repro.utils.validation import check_matrix


def _count_run(obs, n_samples: int, steps: int, flipped: int,
               evaded: int) -> None:
    """Account one crafting run in the ``jsma.*`` counters."""
    obs.count("jsma.samples", n_samples)
    obs.count("jsma.steps", steps)
    obs.count("jsma.features_flipped", flipped)
    obs.count("jsma.evasions", evaded)


@register_attack("jsma", params=(
    Param("target_class", "int", CLASS_CLEAN, choices=(0, 1),
          help="class the adversarial example should be assigned to"),
    Param("use_saliency_map", "bool", True,
          help="rank features by the two-class saliency map (False: raw "
               "target-class gradient)"),
    Param("early_stop", "bool", True,
          help="stop perturbing a sample once the crafting model is fooled "
               "(False spends the full budget — the transfer setting)"),
    Param("features_per_step", "int", 1,
          help="top-saliency features perturbed per Jacobian evaluation"),
))
class JsmaAttack(Attack):
    """Add-only JSMA targeting the clean class.

    Parameters
    ----------
    network:
        The crafting model (white-box: the target itself; grey-box: the
        attacker's substitute).
    constraints:
        The θ/γ budget and threat-model constraints.
    target_class:
        Class the adversarial example should be assigned to (0 = clean).
    use_saliency_map:
        When True (default) features are ranked by the full two-class
        saliency map; when False they are ranked by the raw positive gradient
        of the target class, which is the simplification described in the
        paper ("a perturbation of X with maximal positive gradient into the
        target class 0 is chosen").  Both satisfy the same constraints.
    early_stop:
        Stop perturbing a sample as soon as the crafting model classifies it
        as the target class.  Disabling this always spends the full budget,
        which is useful when studying transferability.  The early-stop
        prediction is read from the same forward pass that produces the
        Jacobian — no extra ``predict`` pass per iteration.
    features_per_step:
        Number of top-saliency features perturbed per Jacobian evaluation
        (default 1, the classic JSMA).  Larger values trade attack precision
        for fewer forward/backward passes: a budget of ``k`` features is
        spent in ``ceil(k / features_per_step)`` steps, which is how the
        budget sweeps keep large-γ operating points tractable.
    """

    name = "jsma"

    #: The greedy add-only loop is budget-oblivious at fixed θ, so a
    #: recorded run can be sliced to any smaller γ (see
    #: :mod:`repro.attacks.trajectory` and :mod:`repro.evaluation.sweep`).
    supports_trajectory = True

    def __init__(self, network: NeuralNetwork,
                 constraints: Optional[PerturbationConstraints] = None,
                 target_class: int = CLASS_CLEAN,
                 use_saliency_map: bool = True,
                 early_stop: bool = True,
                 features_per_step: int = 1) -> None:
        super().__init__(network, constraints)
        if target_class not in (0, 1):
            raise AttackError(f"target_class must be 0 or 1, got {target_class}")
        if features_per_step < 1:
            raise AttackError(
                f"features_per_step must be >= 1, got {features_per_step}")
        self.target_class = int(target_class)
        self.use_saliency_map = bool(use_saliency_map)
        self.early_stop = bool(early_stop)
        self.features_per_step = int(features_per_step)

    # ------------------------------------------------------------------ #
    # Saliency computation
    # ------------------------------------------------------------------ #
    def _feature_scores(self, jacobian: np.ndarray) -> np.ndarray:
        """Score every feature of every sample for a single perturbation step.

        ``jacobian`` has shape ``(n, n_classes, d)``.  Higher scores mean
        "adding to this feature moves the sample towards the target class
        more".  Infeasible features are later masked to ``-inf``.
        """
        target_grad = jacobian[:, self.target_class, :]
        other_grad = jacobian.sum(axis=1) - target_grad
        if not self.use_saliency_map:
            return target_grad
        # Papernot-style saliency for increase-only perturbations:
        # salient iff dF_target/dx_j > 0 and sum_{i != target} dF_i/dx_j < 0.
        salient = (target_grad > 0) & (other_grad < 0)
        scores = np.where(salient, target_grad * np.abs(other_grad), -np.inf)
        # Fallback: when no feature is strictly salient for a sample, fall
        # back to the raw target-class gradient so the attack can still make
        # progress (matches CleverHans behaviour of relaxing the map).
        no_salient = ~salient.any(axis=1)
        if np.any(no_salient):
            scores[no_salient] = target_grad[no_salient]
        return scores

    def _binary_scores(self, target_grad: np.ndarray) -> np.ndarray:
        """:meth:`_feature_scores` of a binary network, from its target row.

        ``target_grad`` is the ``(n, d)`` target-class row of the Jacobian.
        The two rows of a binary Jacobian are exact negations (see
        :meth:`NeuralNetwork.class_gradients`), so the other-class gradient
        is exactly ``-target_grad``: a feature is salient iff its target
        gradient is positive, and its score ``t * |-t|`` is ``t * t``.  For
        a finite Jacobian the result is bitwise what :meth:`_feature_scores`
        returns, without building the other row or the salient conjunction.
        It scores the configurations :meth:`_salient_picks` does not cover,
        and the rows it sends back.
        """
        if not self.use_saliency_map:
            return target_grad
        salient = target_grad > 0
        scores = np.where(salient, target_grad * target_grad, -np.inf)
        no_salient = ~salient.any(axis=1)
        if np.any(no_salient):
            scores[no_salient] = target_grad[no_salient]
        return scores

    def _salient_picks(self, target_grad: np.ndarray,
                       blocked: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's best unblocked feature: ``(cols, feasible)``.

        The one-feature-per-step pick of the binary saliency map (the column
        :meth:`_binary_scores` ranks first), read off the raw target row.
        ``target_grad`` is this step's own ``(n, d)`` row and is
        overwritten: blocked cells become ``-inf``.

        The reference scores are ``where(t > 0, t * t, -inf)`` (the raw row
        ``t`` itself when no cell of the row is positive), with blocked
        cells at ``-inf``.  On positive floats ``x -> fl(x * x)`` is
        strictly increasing while the square is a normal, finite number,
        and both argmaxes break ties toward the lower index.  So when a
        row's best unblocked value ``b`` is positive, ``b >=
        sqrt(finfo.tiny)`` and ``b * b`` is finite, ``argmax(t)`` is the
        reference pick.  The bound is a power of two in both engine dtypes
        (2^-511, 2^-63), so the test is exact; below it adjacent floats can
        square to the same number, and above the overflow threshold every
        square is ``inf``.  Rows outside the bound, and rows holding a NaN,
        are rescored with :meth:`_binary_scores` from the values this step
        already has.
        """
        row_max = target_grad.max(axis=1)
        # max() propagates NaN; such a row's "is any cell positive" is not
        # known from row_max, so it is rescored from its raw values, which
        # the masking below would overwrite.
        nan_rows = np.flatnonzero(np.isnan(row_max))
        if nan_rows.size:
            nan_cols, nan_feasible = self._rescore(target_grad[nan_rows],
                                                   blocked[nan_rows])
        np.copyto(target_grad, -np.inf, where=blocked)
        cols = np.argmax(target_grad, axis=1)
        best = target_grad[np.arange(cols.size), cols]
        # A row with a positive cell anywhere is scored by the saliency map
        # and needs a positive unblocked cell; the others fall back to the
        # raw gradient, where any finite unblocked value will do.
        feasible = np.where(row_max > 0, best > 0, np.isfinite(best))
        tiny_root = np.sqrt(np.finfo(target_grad.dtype).tiny)
        with np.errstate(over="ignore"):
            exact = (best >= tiny_root) & np.isfinite(best * best)
        redo = np.flatnonzero((best > 0) & ~exact)
        if redo.size:
            # Positive and unblocked, so these rows score by the saliency
            # map, which the masked values reproduce.
            cols[redo], feasible[redo] = self._rescore(target_grad[redo],
                                                       blocked[redo])
        if nan_rows.size:
            cols[nan_rows], feasible[nan_rows] = nan_cols, nan_feasible
        return cols, feasible

    def _rescore(self, target_grad: np.ndarray,
                 blocked: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The reference pick for a few rows: ``(cols, feasible)``."""
        scores = self._binary_scores(target_grad)
        scores[blocked] = -np.inf
        cols = np.argmax(scores, axis=1)
        return cols, np.isfinite(scores[np.arange(cols.size), cols])

    # ------------------------------------------------------------------ #
    # Attack loop
    # ------------------------------------------------------------------ #
    def run(self, features: np.ndarray,
            recorder: Optional[TrajectoryRecorder] = None) -> AttackResult:
        """Craft adversarial examples; optionally record the trajectory.

        ``recorder`` (a fresh :class:`~repro.attacks.trajectory
        .TrajectoryRecorder`) captures the sparse perturbation log and
        per-step evasion flags at negligible overhead — everything it stores
        is already computed by the loop.  The γ-sweep replay engine slices
        that log instead of re-running the attack per operating point.

        When an ambient :class:`~repro.obs.Instrumentation` is active
        (see :func:`repro.obs.instrumented`), the whole crafting loop runs
        inside an ``attack.jsma`` span and the ``jsma.samples`` /
        ``jsma.steps`` / ``jsma.features_flipped`` / ``jsma.evasions``
        counters account for its work (a run with ``theta == 0`` or no
        budget counts its samples and nothing else); the perturbation math
        is identical either way.
        """
        obs = current_instrumentation()
        if obs is None:
            return self._run(features, recorder, None)
        shape = getattr(features, "shape", None)
        with obs.span("attack.jsma",
                      n_samples=int(shape[0]) if shape else 0):
            return self._run(features, recorder, obs)

    def _run(self, features: np.ndarray,
             recorder: Optional[TrajectoryRecorder],
             obs) -> AttackResult:
        """The crafting loop over a compacted working set.

        ``idx`` lists the samples still being perturbed; ``work`` and
        ``blocked`` hold their current rows and blocked-cell masks in that
        order, so each step feeds ``work`` to the network without a gather.
        Every pick is written to both ``work`` and ``adversarial``, and the
        three arrays are gathered again only on a step where samples leave:
        they evaded (early stop) or have no feasible feature left.

        A binary network yields only its target-class row per step
        (``class_gradients(..., class_index=target_class)``).  With the
        saliency map and one feature per step, :meth:`_salient_picks` picks
        from that raw row; the other configurations score with
        :meth:`_binary_scores` / :meth:`_feature_scores` as before.
        """
        original = check_matrix(features, name="features",
                                n_features=self.network.input_dim)
        adversarial = original.copy()
        n_samples, n_features = original.shape
        constraints = self.constraints
        budget = constraints.max_features(n_features)
        modifiable = constraints.modifiable_mask(n_features)
        iterations = np.zeros(n_samples, dtype=np.int64)

        if recorder is not None:
            recorder.begin(theta=constraints.theta, budget=budget,
                           n_samples=n_samples, n_features=n_features,
                           early_stop=self.early_stop,
                           features_per_step=self.features_per_step)

        if budget == 0 or constraints.theta == 0.0:
            if obs is not None:
                _count_run(obs, n_samples, steps=0, flipped=0, evaded=0)
            return self._package(original, adversarial, iterations)

        # Cells no step may pick: outside the mask, saturated at the box
        # maximum, or (per the budget semantics) already perturbed.  Only a
        # perturbed cell changes value, so the mask starts from the original
        # and gains exactly the cells each step perturbs.
        blocked = ((~modifiable)[None, :]
                   | (original >= constraints.clip_max - 1e-12))
        idx = np.arange(n_samples)
        work = original.copy()
        binary = self.network.n_classes == 2
        class_index = self.target_class if binary else None
        per_step = self.features_per_step
        raw_pick = binary and self.use_saliency_map and per_step == 1
        n_steps = budget if per_step == 1 else -(-budget // per_step)
        steps_run = 0
        ever_evaded = (np.zeros(n_samples, dtype=bool)
                       if obs is not None else None)

        for step in range(n_steps):
            if idx.size == 0:
                break
            # One forward + one input-only backward per step (one per class
            # for multi-class networks); the forward probabilities double as
            # the early-stop prediction for the current iterate, so no second
            # predict pass is needed.
            grads, probs = self.network.class_gradients(
                work, return_probs=True, class_index=class_index)
            steps_run = step + 1
            if self.early_stop or recorder is not None or obs is not None:
                evaded = np.argmax(probs, axis=1) == self.target_class
                if recorder is not None and np.any(evaded):
                    recorder.record_evasions(idx[evaded])
                if ever_evaded is not None:
                    ever_evaded[idx[evaded]] = True

            if raw_pick:
                cols, progressed = self._salient_picks(grads, blocked)
            else:
                scores = (self._binary_scores(grads) if binary
                          else self._feature_scores(grads))
                # In place: scores is this step's own array (or this step's
                # fresh gradient row when the raw gradient ranks features).
                scores[blocked] = -np.inf
                if per_step == 1:
                    cols = np.argmax(scores, axis=1)
                    progressed = np.isfinite(scores[np.arange(idx.size), cols])
                else:
                    # Top-k selection capped by each sample's remaining
                    # budget (argpartition-based: O(d) per row, no full
                    # sort); an evaded row has none.
                    k_row = np.minimum(per_step, budget - iterations[idx])
                    if self.early_stop:
                        k_row[evaded] = 0
                    k_max = int(max(k_row.max(), 1))
                    order = top_k_indices(scores, k_max)
                    top_scores = np.take_along_axis(scores, order, axis=1)
                    valid = np.isfinite(top_scores) & (np.arange(k_max)[None, :]
                                                       < k_row[:, None])
                    at, flat_col = np.nonzero(valid)
                    cols = order[at, flat_col]
                    progressed = valid.any(axis=1)
            if self.early_stop:
                # Evaded rows were scored with the rest (a row's pick reads
                # its own row only); they make no progress and leave with
                # the rows that have no feasible feature, in one gather.
                progressed &= ~evaded
            if per_step == 1:
                at = np.flatnonzero(progressed)
                cols = cols[at]
            if at.size == 0:
                break

            rows = idx[at]
            old_values = work[at, cols]
            new_values = np.minimum(old_values + constraints.theta,
                                    constraints.clip_max)
            work[at, cols] = new_values
            adversarial[rows, cols] = new_values
            blocked[at, cols] = True
            np.add.at(iterations, rows, 1)
            if recorder is not None:
                recorder.record_step(step, rows, cols, old_values, new_values)

            if not np.all(progressed):
                idx, work, blocked = (idx[progressed], work[progressed],
                                      blocked[progressed])

        if obs is not None:
            _count_run(obs, n_samples, steps=steps_run,
                       flipped=int(iterations.sum()),
                       evaded=int(ever_evaded.sum()))

        # Safety: the loop construction already satisfies the constraints,
        # but project anyway so the invariant holds even under future edits.
        adversarial = constraints.project(adversarial, original)
        return self._package(original, adversarial, iterations)

    # ------------------------------------------------------------------ #
    # Introspection helpers used by Figure 1 and the live experiment
    # ------------------------------------------------------------------ #
    def select_features(self, features: np.ndarray, top_k: int = 2) -> np.ndarray:
        """Return the indices of the ``top_k`` most salient features per sample.

        This exposes the feature-selection half of JSMA without applying the
        perturbation; Figure 1 ("adding two API calls") and the live grey-box
        attack use it to decide *which* API calls to add to the source.
        """
        matrix = check_matrix(features, name="features",
                              n_features=self.network.input_dim)
        if top_k < 1:
            raise AttackError(f"top_k must be >= 1, got {top_k}")
        jacobian = self.network.class_gradients(matrix)
        scores = self._feature_scores(jacobian)
        modifiable = self.constraints.modifiable_mask(matrix.shape[1])
        # A feature already at the box maximum cannot be increased, so it is
        # never a valid selection — mask it exactly as the attack loop does.
        saturated = matrix >= self.constraints.clip_max - 1e-12
        infeasible = (~modifiable)[None, :] | saturated
        scores = np.where(infeasible, -np.inf, scores)
        return top_k_indices(scores, top_k)
