"""Table IV — the substitute model's architecture and training setup."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.evaluation.reports import format_table
from repro.experiments import paper_values
from repro.experiments.context import ExperimentContext
from repro.models.substitute_model import SUBSTITUTE_LAYER_SIZES


@dataclass
class Table4Result:
    """Measured substitute architecture next to Table IV."""

    scale_name: str
    measured_layers: List[int]
    paper_layers: List[int]
    training_samples: int
    epochs: int
    batch_size: int
    learning_rate: float
    final_train_accuracy: float

    def depth_matches(self) -> bool:
        """Whether the substitute keeps the paper's 5-layer depth."""
        return len(self.measured_layers) == len(self.paper_layers)

    def rows(self) -> List[List[object]]:
        """One row per Table IV line."""
        rows: List[List[object]] = [
            ["training data", self.training_samples, paper_values.TABLE_IV["training_samples"]],
        ]
        for index, paper_width in enumerate(self.paper_layers):
            measured = (self.measured_layers[index]
                        if index < len(self.measured_layers) else "-")
            rows.append([f"layer {index + 1}", measured, paper_width])
        rows.append(["epochs", self.epochs, paper_values.TABLE_IV["epochs"]])
        rows.append(["batch size", self.batch_size, paper_values.TABLE_IV["batch_size"]])
        rows.append(["learning rate", self.learning_rate, paper_values.TABLE_IV["learning_rate"]])
        rows.append(["train accuracy", self.final_train_accuracy, "-"])
        return rows

    def render(self) -> str:
        """ASCII rendering of the comparison."""
        return format_table(["Property", "Reproduction", "Paper"], self.rows(),
                            title=f"Table IV — substitute model (scale={self.scale_name})")


def run(context: ExperimentContext) -> Table4Result:
    """Train (or reuse) the substitute and report its architecture."""
    substitute = context.substitute_model
    history = substitute.history
    return Table4Result(
        scale_name=context.scale.name,
        measured_layers=substitute.network.layer_sizes,
        paper_layers=list(SUBSTITUTE_LAYER_SIZES),
        training_samples=context.scale.train_total,
        epochs=context.scale.substitute_epochs,
        batch_size=context.scale.batch_size,
        learning_rate=context.scale.learning_rate,
        final_train_accuracy=(history.train_accuracy[-1]
                              if history is not None and history.train_accuracy else float("nan")),
    )
