"""L2-distance analysis across the malware / clean / adversarial populations.

Figure 5 of the paper compares three distances as the attack strength grows:

1. malware ↔ its adversarial examples (a *paired* distance),
2. malware ↔ clean samples (a population distance),
3. clean ↔ adversarial examples (a population distance),

and observes that (1) < (2) < (3): adversarial examples sit in a blind spot
far from the clean population rather than on the decision boundary — the
insight that motivates the defenses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.exceptions import ShapeError
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_matrix


def paired_l2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise L2 distances between two aligned matrices."""
    a = check_matrix(a, name="a")
    b = check_matrix(b, name="b", n_features=a.shape[1])
    if a.shape[0] != b.shape[0]:
        raise ShapeError("paired_l2 requires matrices with the same number of rows")
    return np.linalg.norm(a - b, axis=1)


def mean_pairwise_l2(a: np.ndarray, b: np.ndarray, max_pairs: int = 200_000,
                     random_state: RandomState = 0) -> float:
    """Mean L2 distance over (sub-sampled) cross pairs of two populations.

    The full cross-product can be large at paper scale, so at most
    ``max_pairs`` random pairs are evaluated; the estimate is unbiased.
    """
    a = check_matrix(a, name="a")
    b = check_matrix(b, name="b", n_features=a.shape[1])
    n_pairs = a.shape[0] * b.shape[0]
    rng = as_rng(random_state)
    if n_pairs <= max_pairs:
        # Exact computation via the expanded norm identity.
        a_sq = np.sum(a ** 2, axis=1)[:, None]
        b_sq = np.sum(b ** 2, axis=1)[None, :]
        sq = np.maximum(a_sq + b_sq - 2.0 * (a @ b.T), 0.0)
        return float(np.sqrt(sq).mean())
    rows = rng.integers(0, a.shape[0], size=max_pairs)
    cols = rng.integers(0, b.shape[0], size=max_pairs)
    return float(np.linalg.norm(a[rows] - b[cols], axis=1).mean())


@dataclass
class DistanceReport:
    """The three Figure 5 distances at one attack-strength point."""

    theta: float
    gamma: float
    malware_to_adversarial: float
    malware_to_clean: float
    clean_to_adversarial: float

    def ordering_holds(self) -> bool:
        """Whether the paper's ordering (1) <= (2) <= (3) holds at this point."""
        return (self.malware_to_adversarial <= self.malware_to_clean
                <= self.clean_to_adversarial)

    def as_dict(self) -> Dict[str, float]:
        """Dictionary view for table rendering."""
        return {
            "theta": self.theta,
            "gamma": self.gamma,
            "malware_to_adversarial": self.malware_to_adversarial,
            "malware_to_clean": self.malware_to_clean,
            "clean_to_adversarial": self.clean_to_adversarial,
        }


def l2_distance_report(malware: np.ndarray, adversarial: np.ndarray,
                       clean: np.ndarray, theta: float, gamma: float,
                       max_pairs: int = 200_000,
                       random_state: RandomState = 0) -> DistanceReport:
    """Compute the Figure 5 distances for one attack-strength point."""
    return DistanceReport(
        theta=float(theta),
        gamma=float(gamma),
        malware_to_adversarial=float(paired_l2(malware, adversarial).mean()),
        malware_to_clean=mean_pairwise_l2(malware, clean, max_pairs=max_pairs,
                                          random_state=random_state),
        clean_to_adversarial=mean_pairwise_l2(clean, adversarial, max_pairs=max_pairs,
                                              random_state=random_state),
    )
