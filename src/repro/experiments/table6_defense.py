"""Table VI — defense testing results.

Five rows are reproduced: No Defense, Adversarial Training, Defensive
Distillation (T = 50), Feature Squeezing and Dimensionality Reduction
(k = 19).  Each is evaluated on three test sets — the clean test split, the
malware test split and the grey-box adversarial examples (crafted at
θ = 0.1, γ = 0.02 on the substitute) — reporting TNR on the clean set and
TPR on the malware / adversarial sets, exactly the cells Table VI fills in
(the remaining cells are ``nan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments import paper_values
from repro.experiments.context import ExperimentContext
from repro.scenarios import ScenarioSpec


@dataclass
class Table6Result:
    """Measured defense rates next to the paper's Table VI."""

    scale_name: str
    results: Dict[str, Dict[str, Dict[str, float]]]
    paper: Dict[str, Dict[str, float]]
    include_ensemble: bool = False

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    def rate(self, defense: str, dataset: str, metric: str) -> float:
        """Look up one measured cell (e.g. ``rate("adv_training", "advex", "tpr")``)."""
        return self.results[defense][dataset][metric]

    def adversarial_training_recovers_detection(self, margin: float = 0.2) -> bool:
        """Paper claim: adversarial training raises advEx TPR far above no-defense."""
        return (self.rate("adversarial_training", "advex_test", "tpr")
                > self.rate("no_defense", "advex_test", "tpr") + margin)

    def adversarial_training_preserves_clean(self, tolerance: float = 0.05) -> bool:
        """Paper claim: adversarial training does not hurt the clean TNR."""
        return (self.rate("adversarial_training", "clean_test", "tnr")
                >= self.rate("no_defense", "clean_test", "tnr") - tolerance)

    def dim_reduction_costs_clean_accuracy(self) -> bool:
        """Paper claim: the PCA defense trades clean TNR for adversarial TPR."""
        return (self.rate("dim_reduction", "clean_test", "tnr")
                < self.rate("no_defense", "clean_test", "tnr"))

    def rows(self) -> List[List[object]]:
        """Flat rows: defense, dataset, measured TPR/TNR, paper TPR/TNR."""
        paper_lookup = {
            ("no_defense", "clean_test"): ("", self.paper["no_defense"]["clean_tnr"]),
            ("no_defense", "malware_test"): (self.paper["no_defense"]["malware_tpr"], ""),
            ("no_defense", "advex_test"): (self.paper["no_defense"]["advex_tpr"], ""),
            ("adversarial_training", "clean_test"): ("", self.paper["adversarial_training"]["clean_tnr"]),
            ("adversarial_training", "malware_test"): (self.paper["adversarial_training"]["malware_tpr"], ""),
            ("adversarial_training", "advex_test"): (self.paper["adversarial_training"]["advex_tpr"], ""),
            ("distillation", "clean_test"): ("", self.paper["distillation"]["clean_tnr"]),
            ("distillation", "malware_test"): (self.paper["distillation"]["malware_tpr"], ""),
            ("distillation", "advex_test"): (self.paper["distillation"]["advex_tpr"], ""),
            ("feature_squeezing", "clean_test"): ("", self.paper["feature_squeezing"]["clean_tnr"]),
            ("feature_squeezing", "malware_test"): (self.paper["feature_squeezing"]["malware_tpr"], ""),
            ("feature_squeezing", "advex_test"): (self.paper["feature_squeezing"]["advex_tpr"], ""),
            ("dim_reduction", "clean_test"): ("", self.paper["dim_reduction"]["clean_tnr"]),
            ("dim_reduction", "malware_test"): (self.paper["dim_reduction"]["malware_tpr"], ""),
            ("dim_reduction", "advex_test"): (self.paper["dim_reduction"]["advex_tpr"], ""),
        }
        rows = []
        for defense_name, per_dataset in self.results.items():
            for dataset_name, rates in per_dataset.items():
                paper_tpr, paper_tnr = paper_lookup.get((defense_name, dataset_name), ("", ""))
                rows.append([defense_name, dataset_name,
                             rates.get("tpr", float("nan")),
                             rates.get("tnr", float("nan")),
                             paper_tpr, paper_tnr])
        return rows

    def render(self) -> str:
        """ASCII rendering in the Table VI layout (with paper columns)."""
        from repro.evaluation.reports import format_table

        headers = ["Defense", "Dataset", "TPR", "TNR", "Paper TPR", "Paper TNR"]
        return format_table(headers, self.rows(),
                            title=f"Table VI — defense testing results "
                                  f"(scale={self.scale_name})")


def specs(context: ExperimentContext, include_ensemble: bool = False,
          distillation_temperature: Optional[float] = None,
          pca_components: Optional[int] = None) -> Dict[str, ScenarioSpec]:
    """One scenario per Table VI row (keyed by the table's row name).

    Every row is the same grey-box attack — full-budget JSMA crafted on the
    substitute at the paper's (θ=0.1, γ=0.02) operating point — against a
    different registered defense; the engine's ``defense_eval`` cells are
    exactly the TNR/TPR entries Table VI fills in.
    """
    distillation_params: Dict[str, object] = {}
    if distillation_temperature is not None:
        distillation_params["temperature"] = distillation_temperature
    dim_reduction_params: Dict[str, object] = {}
    if pca_components is not None:
        dim_reduction_params["n_components"] = pca_components

    common = dict(
        attack="jsma", attack_params={"early_stop": False}, model="substitute",
        theta=paper_values.DEFENSE_PARAMS["adv_training_theta"],
        gamma=paper_values.DEFENSE_PARAMS["adv_training_gamma"],
        scale=context.scale.name, seed=context.seed)
    rows = {
        "no_defense": ScenarioSpec(defense="none", **common),
        "adversarial_training": ScenarioSpec(defense="adversarial_training",
                                             **common),
        "distillation": ScenarioSpec(defense="distillation",
                                     defense_params=distillation_params, **common),
        "feature_squeezing": ScenarioSpec(defense="feature_squeezing", **common),
        "dim_reduction": ScenarioSpec(defense="dim_reduction",
                                      defense_params=dim_reduction_params,
                                      **common),
    }
    if include_ensemble:
        # The combination the paper's discussion proposes.  Members resolve
        # through the registry's per-context memo, so the fits above are
        # reused rather than retrained.
        rows["ensemble_advtrain_dimreduct"] = ScenarioSpec(
            defense="ensemble",
            defense_params={"voting": "average",
                            "members": ({"defense": "adversarial_training"},
                                        {"defense": "dim_reduction",
                                         "params": dim_reduction_params})},
            **common)
    return rows


def run(context: ExperimentContext, include_ensemble: bool = False,
        distillation_temperature: Optional[float] = None,
        pca_components: Optional[int] = None,
        workers: Optional[int] = None) -> Table6Result:
    """Fit every defense and evaluate the Table VI grid.

    ``workers`` > 1 fans the per-row scenarios (one defense fit each) out
    over a process pool — the defense fits are the expensive, embarrassingly
    parallel part of this table.
    """
    from repro.parallel.grid import run_spec_reports  # lazy: avoids an import cycle

    spec_map = specs(context, include_ensemble, distillation_temperature,
                     pca_components)
    results = {row_name: report.defense_eval
               for row_name, report in run_spec_reports(
                   spec_map, context=context, workers=workers).items()}

    return Table6Result(scale_name=context.scale.name, results=results,
                        paper=paper_values.TABLE_VI, include_ensemble=include_ensemble)
