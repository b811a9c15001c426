"""Label oracle: the attacker-facing view of the deployed detector.

In the black-box framework of Figure 2 the attacker can only *query* the
target system and observe its decisions (and, optionally, how often they are
allowed to query it).  :class:`LabelOracle` wraps a trained model (plus its
feature pipeline when the attacker submits raw samples) behind exactly that
interface, counting queries so experiments can report query budgets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import AttackError
from repro.nn.network import NeuralNetwork
from repro.utils.validation import check_matrix


class LabelOracle:
    """Query-only access to a deployed detector.

    Parameters
    ----------
    model:
        The deployed (target) model.
    query_budget:
        Optional maximum number of samples the attacker may query; exceeding
        it raises :class:`~repro.exceptions.AttackError`, which black-box
        experiments surface as "attack failed under budget".
    return_scores:
        When True the oracle also exposes the malware-probability score
        (a *grey-ish* oracle some deployed engines leak); label-only is the
        strict black-box setting.
    """

    def __init__(self, model, query_budget: Optional[int] = None,
                 return_scores: bool = False) -> None:
        if query_budget is not None and query_budget < 1:
            raise AttackError(f"query_budget must be >= 1, got {query_budget}")
        self.model = model
        # Accept either a bare NeuralNetwork or a DetectorModel wrapper.
        self.network: NeuralNetwork = getattr(model, "network", model)
        self.query_budget = query_budget
        self.return_scores = bool(return_scores)
        self.queries_used = 0

    @property
    def queries_remaining(self) -> Optional[int]:
        """Remaining query budget (None when unlimited)."""
        if self.query_budget is None:
            return None
        return max(self.query_budget - self.queries_used, 0)

    def _charge(self, n: int) -> None:
        if self.query_budget is not None and self.queries_used + n > self.query_budget:
            raise AttackError(
                f"query budget exhausted: {self.queries_used} used, "
                f"{n} requested, budget {self.query_budget}"
            )
        self.queries_used += n

    def labels(self, features: np.ndarray) -> np.ndarray:
        """Return the detector's hard decisions for ``features``."""
        features = check_matrix(features, name="features")
        self._charge(features.shape[0])
        return self.network.predict(features)

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Return malware-probability scores (only if the oracle leaks them)."""
        if not self.return_scores:
            raise AttackError("this oracle is label-only; scores are not exposed")
        features = check_matrix(features, name="features")
        self._charge(features.shape[0])
        return self.network.malware_score(features)

    def reset(self) -> None:
        """Reset the query counter (new engagement)."""
        self.queries_used = 0
