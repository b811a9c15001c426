"""The scenario engine: resolve a :class:`ScenarioSpec` and run it.

``run_scenario(spec, context=None)`` is the one call behind which the whole
attack x defense grid lives:

1. the attack and defense ids are resolved against the registries and their
   parameters validated against the per-entry schemas;
2. artifacts (corpus, trained models, cached adversarial sets) come from an
   :class:`~repro.experiments.context.ExperimentContext`, so scenarios share
   the same lazy/per-process/artifact-cache reuse — and the same dtype
   scoping — as the experiment drivers;
3. the result is a typed :class:`ScenarioReport` unifying the fragments the
   drivers used to juggle by hand: the raw
   :class:`~repro.attacks.base.AttackResult`, the
   :class:`~repro.evaluation.security_curve.SecurityCurve` for sweeps, the
   :class:`~repro.evaluation.robustness.RobustnessReport` distribution, the
   Table VI defense cells and the live-attack trace, with ``summary()`` /
   ``to_json()`` / ``render()`` renderers.

The figure/table drivers, the CLI's ``run-scenario`` and the serving
registry are all thin clients of this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.attacks.base import AttackResult
from repro.attacks.constraints import PerturbationConstraints
from repro.config import CLASS_CLEAN, CLASS_MALWARE, get_profile
from repro.evaluation.reports import format_table, render_security_curve
from repro.evaluation.robustness import (
    RobustnessReport,
    minimal_evasion_budget,
    robustness_from_trajectory,
)
from repro.evaluation.security_curve import (
    SecurityCurve,
    paper_gamma_grid,
    paper_theta_grid,
    theta_sweep,
)
from repro.evaluation.sweep import ReplaySweep, dispatch_gamma_sweep
from repro.exceptions import ConfigurationError
from repro.nn.metrics import detection_rate
from repro.scenarios.registry import (
    ATTACKS,
    DEFENSES,
    build_defense,
    ensure_registries,
)
from repro.scenarios.spec import ScenarioSpec

__all__ = ["ScenarioReport", "run_scenario"]

# Registration is decorator-driven; make sure every attack/defense module
# has been imported before the first resolution.
ensure_registries()


@dataclass
class ScenarioReport:
    """Everything one scenario run produced, in one typed container.

    Exactly one of the three payload shapes is populated, depending on the
    spec: ``curve`` for sweeps, ``attack_result`` + ``defense_eval`` for
    operating-point runs, ``live_trace`` for live source-modification runs.
    ``robustness`` rides along when the spec asked for it.
    """

    spec: ScenarioSpec
    scale: str
    seed: int
    dtype: str
    attack_name: str
    defense_name: str
    detector_name: Optional[str]
    elapsed_s: float
    attack_result: Optional[AttackResult] = None
    curve: Optional[SecurityCurve] = None
    robustness: Optional[RobustnessReport] = None
    live_trace: Optional[object] = None
    #: Detection rate per evaluation surface on the *adversarial* examples.
    detection: Dict[str, float] = field(default_factory=dict)
    #: Detection rate per evaluation surface on the *unmodified* malware.
    baseline_detection: Dict[str, float] = field(default_factory=dict)
    #: Table VI cells: dataset -> {"tpr": ..., "tnr": ...}.
    defense_eval: Optional[Dict[str, Dict[str, float]]] = None

    # -------------------------------------------------------------- #
    # Accessors
    # -------------------------------------------------------------- #
    @property
    def transfer_rate(self) -> Optional[float]:
        """1 - target detection rate on adversarial examples (grey-box runs)."""
        if self.spec.model == "target" or "target" not in self.detection:
            return None
        return 1.0 - self.detection["target"]

    def summary(self, include_timing: bool = True) -> Dict[str, object]:
        """Flat numeric summary (the fields experiment tables aggregate).

        ``include_timing=False`` drops the wall-clock field — the *only*
        non-deterministic one — leaving the canonical payload the parallel
        grid compares byte-for-byte against serial execution.
        """
        summary: Dict[str, object] = {
            "attack": self.attack_name,
            "defense": self.defense_name,
            "model": self.spec.model,
            "scale": self.scale,
            "seed": self.seed,
            "dtype": self.dtype,
            "theta": self.spec.theta,
            "gamma": self.spec.gamma,
        }
        if include_timing:
            summary["elapsed_s"] = self.elapsed_s
        if self.attack_result is not None:
            summary.update(self.attack_result.summary())
        for name, rate in self.detection.items():
            summary[f"detection_rate[{name}]"] = rate
        for name, rate in self.baseline_detection.items():
            summary[f"baseline_detection_rate[{name}]"] = rate
        if self.transfer_rate is not None:
            summary["transfer_rate"] = self.transfer_rate
        if self.curve is not None:
            for name in self.curve.model_names():
                summary[f"minimum_detection_rate[{name}]"] = \
                    self.curve.minimum_detection_rate(name)
        if self.robustness is not None:
            for key, value in self.robustness.summary().items():
                summary[f"robustness[{key}]"] = value
        if self.defense_eval is not None:
            for dataset, rates in self.defense_eval.items():
                for metric, value in rates.items():
                    if not (isinstance(value, float) and np.isnan(value)):
                        summary[f"{dataset}_{metric}"] = value
        if self.live_trace is not None:
            summary["original_confidence"] = self.live_trace.original_confidence
            summary["final_confidence"] = self.live_trace.final_confidence
        return summary

    def to_dict(self, include_timing: bool = True) -> Dict[str, object]:
        """JSON-able report (raw feature matrices are deliberately excluded).

        ``nan`` cells (e.g. the TPR of a clean-only dataset) become ``None``
        so the payload is strict RFC-8259 JSON, not Python's ``NaN`` dialect.
        ``include_timing=False`` omits ``elapsed_s``, making the document a
        deterministic function of (spec, scale, seed, dtype) under float64 —
        the form serial-vs-parallel byte-parity is asserted on.
        """
        payload: Dict[str, object] = {
            "spec": self.spec.to_dict(),
            "scale": self.scale,
            "seed": self.seed,
            "dtype": self.dtype,
            "attack": self.attack_name,
            "defense": self.defense_name,
            "detector": self.detector_name,
            "detection": dict(self.detection),
            "baseline_detection": dict(self.baseline_detection),
        }
        if include_timing:
            payload["elapsed_s"] = round(self.elapsed_s, 6)
        if self.attack_result is not None:
            payload["attack_summary"] = self.attack_result.summary()
        if self.transfer_rate is not None:
            payload["transfer_rate"] = self.transfer_rate
        if self.curve is not None:
            payload["curve"] = {
                "swept_parameter": self.curve.swept_parameter,
                "fixed_value": self.curve.fixed_value,
                "attack_name": self.curve.attack_name,
                "points": self.curve.as_rows(),
            }
        if self.robustness is not None:
            payload["robustness"] = self.robustness.summary()
        if self.defense_eval is not None:
            payload["defense_eval"] = self.defense_eval
        if self.live_trace is not None:
            payload["live_trace"] = {
                "sample_id": self.live_trace.sample_id,
                "injected_api": self.live_trace.injected_api,
                "original_confidence": self.live_trace.original_confidence,
                "final_confidence": self.live_trace.final_confidence,
                "rows": self.live_trace.rows(),
            }
        return _without_nans(payload)

    def to_json(self, indent: Optional[int] = 2,
                include_timing: bool = True) -> str:
        """The report as a JSON document (see :meth:`to_dict`)."""
        import json

        return json.dumps(self.to_dict(include_timing=include_timing),
                          indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human-readable rendering (what ``repro run-scenario`` prints)."""
        lines = [
            f"scenario: {self.spec.describe()}",
            f"context: scale={self.scale} seed={self.seed} dtype={self.dtype} "
            f"elapsed={self.elapsed_s:.2f}s",
        ]
        if self.live_trace is not None:
            rows = [[row["added_calls"], row["confidence"], row["detected"]]
                    for row in self.live_trace.rows()]
            lines.append(format_table(
                ["added calls", "engine confidence", "detected"], rows,
                title=f"live attack — injected {self.live_trace.injected_api!r} "
                      f"into {self.live_trace.sample_id}"))
            return "\n".join(lines)
        if self.curve is not None:
            lines.append(render_security_curve(
                self.curve,
                title=f"security curve — {self.attack_name}, "
                      f"{self.curve.swept_parameter} sweep"))
            baseline = ", ".join(f"{name}={rate:.3f}"
                                 for name, rate in sorted(self.baseline_detection.items()))
            lines.append(f"no-attack baseline detection: {baseline}")
            return "\n".join(lines)
        if self.attack_result is not None:
            summary = self.attack_result.summary()
            lines.append(
                f"attack: evasion {summary['evasion_rate']:.3f} on the crafting "
                f"model, mean L2 {summary['mean_l2_distance']:.3f}, "
                f"mean perturbed features {summary['mean_perturbed_features']:.1f}")
            for name in sorted(self.detection):
                lines.append(
                    f"  detection[{name}]: {self.detection[name]:.3f} "
                    f"(baseline {self.baseline_detection.get(name, float('nan')):.3f})")
            if self.transfer_rate is not None:
                lines.append(f"  transfer rate onto target: {self.transfer_rate:.3f}")
        if self.defense_eval is not None:
            rows = []
            for dataset, rates in self.defense_eval.items():
                rows.append([dataset, rates.get("tpr", float("nan")),
                             rates.get("tnr", float("nan"))])
            lines.append(format_table(
                ["Dataset", "TPR", "TNR"], rows,
                title=f"defense evaluation — {self.detector_name or self.defense_name}"))
        if self.robustness is not None:
            rob = self.robustness.summary()
            lines.append(
                f"robustness: {rob['evadable_fraction']:.3f} evadable within "
                f"{self.robustness.max_features} features "
                f"(median budget {rob['median_budget']:.1f}, "
                f"{rob['evadable_with_1_feature']:.3f} with one feature)")
        return "\n".join(lines)


# ------------------------------------------------------------------ #
# Engine internals
# ------------------------------------------------------------------ #
def _without_nans(value):
    """Recursively replace float NaNs with None (strict-JSON payloads)."""
    if isinstance(value, dict):
        return {key: _without_nans(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_without_nans(item) for item in value]
    if isinstance(value, float) and np.isnan(value):
        return None
    return value


def _crafting_network(context, model_kind: str):
    if model_kind == "target":
        return context.target_model.network
    if model_kind == "substitute":
        return context.substitute_model.network
    if model_kind == "binary_substitute":
        return context.binary_substitute.network
    raise ConfigurationError(f"unknown crafting surface {model_kind!r}")


def _canonical_greybox(spec: ScenarioSpec, entry, params: Mapping[str, object]) -> bool:
    """Whether the crafted set is exactly the cached grey-box JSMA artifact.

    ``ExperimentContext.greybox_adversarial`` persists full-budget JSMA sets
    crafted on the substitute (the configuration every defense experiment
    consumes); when the spec asks for precisely that configuration the engine
    reuses the cached artifact instead of re-crafting.
    """
    return (entry.entry_id == "jsma"
            and spec.model == "substitute"
            and params.get("early_stop") is False
            and params.get("target_class") == CLASS_CLEAN
            and params.get("use_saliency_map") is True
            and params.get("features_per_step") == 1)


def _craft(spec: ScenarioSpec, context, entry, attack, params, inputs) -> AttackResult:
    if _canonical_greybox(spec, entry, params):
        advex = context.greybox_adversarial(theta=spec.theta, gamma=spec.gamma)
        return attack._package(inputs, advex.features)
    return attack.run(inputs)


def _robustness_for(spec: ScenarioSpec, network, inputs,
                    replayed) -> "RobustnessReport":
    """The minimal-evasion-budget distribution for one scenario.

    When the scenario's γ-sweep already ran the replay engine with a
    configuration matching :func:`minimal_evasion_budget`'s canonical attack
    (same network, early-stop single-feature saliency JSMA at the same θ,
    trajectory covering the requested budget), the distribution is a free
    view over that trajectory; otherwise one instrumented run is made.
    """
    from repro.attacks.jsma import JsmaAttack

    budget = spec.robustness_budget
    if replayed is not None:
        attack = replayed.attack
        trajectory = replayed.trajectory
        shareable = (isinstance(attack, JsmaAttack)
                     and attack.network is network
                     and attack.early_stop
                     and attack.use_saliency_map
                     and attack.features_per_step == 1
                     and attack.target_class == CLASS_CLEAN
                     and attack.constraints.feature_mask is None
                     and trajectory.theta == float(spec.theta)
                     and trajectory.budget >= min(budget,
                                                  trajectory.n_features))
        if shareable:
            return robustness_from_trajectory(trajectory, replayed.full_result,
                                              max_features=budget,
                                              theta=spec.theta)
    return minimal_evasion_budget(network, inputs, theta=spec.theta,
                                  max_features=budget)


def _defense_cells(context, detector, adversarial: np.ndarray) -> Dict[str, Dict[str, float]]:
    """The Table VI cells: TNR on clean, TPR on malware and adversarial sets."""
    clean_test = context.corpus.test.clean_only()
    malware_test = context.corpus.test.malware_only()
    return {
        "clean_test": {"tpr": float("nan"), "tnr": detector.report(clean_test).tnr},
        "malware_test": {"tpr": detector.report(malware_test).tpr, "tnr": float("nan")},
        "advex_test": {"tpr": detector.detection_rate(adversarial), "tnr": float("nan")},
    }


def _run_live(spec: ScenarioSpec, context, entry, params, started: float
              ) -> ScenarioReport:
    """Live source-modification flow (Section III-B third experiment)."""
    from repro.experiments import paper_values

    attack = entry.factory(entry.cls, None, None, params, context)
    sources = context.generator.generate_source_samples(
        params["n_sources"], label=CLASS_MALWARE, source="test",
        rng_name=params["sources_rng_name"])
    sample_index = params["sample_index"]
    if sample_index is None:
        # Mirror the paper: start from a sample the engine detects with high
        # (but not saturated) confidence — the paper's sample sat at 98.43%.
        reference = paper_values.LIVE_GREY_BOX["original_confidence"]
        scored = [(abs(attack.engine_confidence(sample) - reference), index)
                  for index, sample in enumerate(sources)]
        scored.sort()
        sample_index = scored[0][1]
    trace = attack.run(sources[sample_index],
                       max_repetitions=params["max_repetitions"])
    return ScenarioReport(
        spec=spec,
        scale=context.scale.name,
        seed=context.seed,
        dtype=str(context.effective_dtype()),
        attack_name=entry.entry_id,
        defense_name="none",
        detector_name=None,
        elapsed_s=time.perf_counter() - started,
        live_trace=trace,
    )


def run_scenario(spec: ScenarioSpec, context=None) -> ScenarioReport:
    """Run one declarative scenario and return its typed report.

    Parameters
    ----------
    spec:
        The scenario to run.  Attack/defense ids and parameters are resolved
        against the registries (unknown ids or parameters raise
        :class:`~repro.exceptions.ConfigurationError` before anything is
        built).
    context:
        Optional shared :class:`~repro.experiments.context.ExperimentContext`.
        When given, its scale/seed/dtype/cache govern the run (the spec's
        ``scale``/``seed``/``dtype`` fields are informational); when omitted
        a fresh context is built from the spec.
    """
    if isinstance(spec, Mapping):
        spec = ScenarioSpec.from_dict(spec)
    attack_entry = ATTACKS.get(spec.attack)
    defense_entry = DEFENSES.get(spec.defense)
    attack_params = attack_entry.resolve_params(spec.attack_params)
    defense_entry.resolve_params(spec.defense_params)  # fail fast on typos

    if context is None:
        from repro.experiments.context import ExperimentContext

        scale = get_profile(spec.scale) if spec.scale is not None else None
        context = ExperimentContext(scale=scale, seed=spec.seed, dtype=spec.dtype)

    started = time.perf_counter()
    if attack_entry.kind == "live":
        if defense_entry.entry_id != "none":
            raise ConfigurationError(
                "live scenarios replay source samples against the undefended "
                "engine; use defense='none'")
        if spec.sweep is not None or spec.robustness_budget is not None:
            raise ConfigurationError(
                "live scenarios attack one source sample; sweep and "
                "robustness_budget do not apply (vary attack_params "
                "max_repetitions instead)")
        return _run_live(spec, context, attack_entry, attack_params, started)
    if spec.model == "binary_substitute" and defense_entry.entry_id != "none":
        raise ConfigurationError(
            "defenses score the target's count feature space, which cannot "
            "evaluate binary-substitute matrices directly; use defense='none' "
            "and realise the perturbations as added API calls (see the "
            "figure4 driver's panel (c))")

    # The detector is needed for the Table VI cells of every operating-point
    # run and as an extra sweep surface when a defense is active; binary
    # crafting spaces have no detector surface at all.
    needs_detector = (spec.model != "binary_substitute"
                      and (spec.sweep is None or defense_entry.entry_id != "none"))
    detector = (build_defense(spec.defense, context, spec.defense_params)
                if needs_detector else None)
    network = _crafting_network(context, spec.model)
    inputs = context.attack_malware.features
    if spec.model == "binary_substitute":
        inputs = (inputs > 0).astype(np.float64)

    # Evaluation surfaces: the crafting model, the deployed target for
    # grey-box transfer, and the defended detector when a defense is active.
    # (The binary substitute crafts in its own feature space, so the target
    # cannot score those matrices directly — drivers realise them first.)
    models: Dict[str, object] = {spec.model: network}
    if spec.model == "substitute":
        models["target"] = context.target_model.network
    if defense_entry.entry_id != "none" and spec.model != "binary_substitute":
        models[f"defended[{defense_entry.entry_id}]"] = detector

    # The no-attack predictions double as the sweep/operating-point baseline
    # and as the primed original predictions every crafted attack reuses
    # (sweep points and grid workers stop re-predicting identical matrices).
    original_predictions = {name: model.predict(inputs)
                            for name, model in models.items()}
    baseline = {name: detection_rate(predictions)
                for name, predictions in original_predictions.items()}

    def attack_factory(constraints: PerturbationConstraints):
        attack = attack_entry.factory(attack_entry.cls, network, constraints,
                                      attack_params, context)
        if hasattr(attack, "prime_original_predictions"):
            attack.prime_original_predictions(inputs,
                                              original_predictions[spec.model])
        return attack

    curve: Optional[SecurityCurve] = None
    attack_result: Optional[AttackResult] = None
    detection: Dict[str, float] = {}
    defense_eval: Optional[Dict[str, Dict[str, float]]] = None
    replayed: Optional[ReplaySweep] = None

    if spec.sweep is not None:
        if spec.sweep_values is not None:
            grid = list(spec.sweep_values)
        elif spec.sweep == "gamma":
            grid = paper_gamma_grid(context.scale.sweep_points_gamma)
        else:
            grid = paper_theta_grid(context.scale.sweep_points_theta)
        if spec.sweep == "gamma":
            # Keep the replay object (when the engine ran): the robustness
            # distribution below may be another view over its trajectory.
            curve, replayed = dispatch_gamma_sweep(
                attack_factory, inputs, models, theta=spec.theta,
                gamma_values=grid, strategy=spec.sweep_strategy or "replay")
        else:
            curve = theta_sweep(attack_factory, inputs, models,
                                gamma=spec.gamma, theta_values=grid)
    else:
        constraints = PerturbationConstraints(theta=spec.theta, gamma=spec.gamma)
        attack = attack_factory(constraints)
        attack_result = _craft(spec, context, attack_entry, attack,
                               attack_params, inputs)
        detection = {name: detection_rate(model.predict(attack_result.adversarial))
                     for name, model in models.items()}
        if detector is not None:
            defense_eval = _defense_cells(context, detector,
                                          attack_result.adversarial)

    robustness: Optional[RobustnessReport] = None
    if spec.robustness_budget is not None:
        robustness = _robustness_for(spec, network, inputs, replayed)

    return ScenarioReport(
        spec=spec,
        scale=context.scale.name,
        seed=context.seed,
        dtype=str(context.effective_dtype()),
        attack_name=attack_entry.entry_id,
        defense_name=defense_entry.entry_id,
        detector_name=getattr(detector, "name", None),
        elapsed_s=time.perf_counter() - started,
        attack_result=attack_result,
        curve=curve,
        robustness=robustness,
        detection=detection,
        baseline_detection=baseline,
        defense_eval=defense_eval,
    )
