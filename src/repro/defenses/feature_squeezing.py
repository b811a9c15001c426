"""Feature squeezing (Section II-C-3).

Feature squeezing detects adversarial inputs by comparing the model's
prediction on the original input with its prediction on a *squeezed* copy
(one with unnecessary degrees of freedom removed).  The paper uses the L1
distance between the two prediction vectors: if it exceeds a threshold the
input is declared adversarial.

For 491-dimensional count features in ``[0, 1]`` the natural squeezers are

* **bit-depth reduction** — quantise each feature to ``2^bits`` levels,
* **presence binarisation** — collapse each feature to 0/1,

both of which leave legitimate samples' predictions almost unchanged while
disrupting the finely-tuned JSMA perturbations.

For the Table VI comparison the squeezing detector is folded into the final
decision: a sample is flagged *malware* when the model says malware **or**
the squeezing detector says adversarial (an adversarial input is by
definition something malicious trying to evade).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.config import CLASS_MALWARE
from repro.data.dataset import Dataset
from repro.defenses.base import DefendedDetector, Defense
from repro.exceptions import DefenseError
from repro.nn.network import NeuralNetwork
from repro.scenarios.registry import Param, register_defense
from repro.utils.validation import check_fraction, check_matrix


def bit_depth_squeeze(features: np.ndarray, bits: int = 3) -> np.ndarray:
    """Quantise features in [0, 1] to ``2^bits`` levels."""
    if bits < 1:
        raise DefenseError(f"bits must be >= 1, got {bits}")
    levels = 2 ** bits - 1
    return np.round(np.asarray(features, dtype=np.float64) * levels) / levels


def binary_squeeze(features: np.ndarray, threshold: float = 0.05) -> np.ndarray:
    """Collapse features to presence/absence at ``threshold``."""
    return (np.asarray(features, dtype=np.float64) > threshold).astype(np.float64)


def small_count_squeeze(features: np.ndarray, threshold: float = 0.12) -> np.ndarray:
    """Zero out features below ``threshold`` (squeeze out incidental API calls).

    For count-normalised API features the "unnecessary degrees of freedom"
    are APIs that appear only a handful of times: legitimate behaviour is
    dominated by the APIs a program calls heavily, while the JSMA attack
    relies on *adding a small number of calls* to previously-unused APIs.
    Removing those low-count entries restores the classifier's original view
    of an adversarial example while barely affecting legitimate samples,
    which is exactly the asymmetry the detector thresholds on.
    """
    squeezed = np.asarray(features, dtype=np.float64).copy()
    squeezed[squeezed < threshold] = 0.0
    return squeezed


#: Named squeezers resolvable from scenario specs and the CLI.
SQUEEZERS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "small_count": small_count_squeeze,
    "bit_depth": bit_depth_squeeze,
    "binary": binary_squeeze,
}


class SqueezedDetector(DefendedDetector):
    """Model + squeezing detector with a calibrated L1 threshold."""

    def __init__(self, network: NeuralNetwork,
                 squeezer: Callable[[np.ndarray], np.ndarray],
                 threshold: float, name: str = "feature_squeezing") -> None:
        super().__init__(name)
        self.network = network
        self.squeezer = squeezer
        self.threshold = float(threshold)

    def squeeze(self, features: np.ndarray) -> np.ndarray:
        """Apply the squeezer to a feature matrix."""
        return self.squeezer(check_matrix(features, name="features"))

    def l1_scores(self, features: np.ndarray) -> np.ndarray:
        """L1 distance between predictions on original and squeezed inputs."""
        features = check_matrix(features, name="features")
        original = self.network.predict_proba(features)
        squeezed = self.network.predict_proba(self.squeezer(features))
        return np.abs(original - squeezed).sum(axis=1)

    def is_adversarial(self, features: np.ndarray) -> np.ndarray:
        """Boolean mask of inputs flagged adversarial by the detector."""
        return self.l1_scores(features) > self.threshold

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = check_matrix(features, name="features")
        base = self.network.predict(features)
        flagged = self.is_adversarial(features)
        return np.where(flagged, CLASS_MALWARE, base)

    def malware_confidence(self, features: np.ndarray) -> np.ndarray:
        features = check_matrix(features, name="features")
        base = self.network.malware_score(features)
        return np.where(self.is_adversarial(features), 1.0, base)

    def decide(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Confidences and labels from one original + one squeezed forward.

        ``predict`` + ``malware_confidence`` would run six network forwards
        per batch (each recomputes the L1 scores from scratch); sharing the
        two probability matrices yields identical results in two.
        """
        features = check_matrix(features, name="features")
        original = self.network.predict_proba(features)
        squeezed = self.network.predict_proba(self.squeezer(features))
        flagged = np.abs(original - squeezed).sum(axis=1) > self.threshold
        confidences = np.where(flagged, 1.0, original[:, CLASS_MALWARE])
        labels = np.where(flagged, CLASS_MALWARE, np.argmax(original, axis=1))
        return confidences, labels


def _scenario_fitter(cls, context, params, model=None):
    """Calibrate the squeezing detector on the defender's validation split.

    ``model`` (when given, e.g. by ``repro serve --defense squeeze``)
    overrides which network is being guarded; the threshold is always
    calibrated on the context's legitimate validation data.
    """
    network = model.network if model is not None else context.target_model.network
    defense = cls(squeezer=SQUEEZERS[params["squeezer"]],
                  false_positive_budget=params["false_positive_budget"])
    return defense.fit(network, context.corpus.validation)


@register_defense("feature_squeezing", aliases=("squeeze",),
                  fitter=_scenario_fitter, params=(
    Param("squeezer", "str", "small_count", choices=("small_count", "bit_depth", "binary"),
          help="squeezing function compared against the raw forward pass"),
    Param("false_positive_budget", "float", 0.05,
          help="fraction of legitimate samples allowed to be flagged"),
))
class FeatureSqueezingDefense(Defense):
    """Calibrate a squeezing detector on legitimate data.

    Parameters
    ----------
    squeezer:
        The squeezing function (defaults to :func:`small_count_squeeze`,
        which removes low-count API entries; :func:`bit_depth_squeeze` and
        :func:`binary_squeeze` are available for ablations).
    false_positive_budget:
        The threshold is set to the ``(1 - budget)`` quantile of the L1
        scores observed on legitimate calibration data, i.e. at most this
        fraction of legitimate samples will be flagged adversarial.
    """

    name = "feature_squeezing"

    def __init__(self, squeezer: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 false_positive_budget: float = 0.05) -> None:
        super().__init__()
        check_fraction(false_positive_budget, "false_positive_budget")
        self.squeezer = squeezer if squeezer is not None else small_count_squeeze
        self.false_positive_budget = float(false_positive_budget)
        self.threshold_: Optional[float] = None

    def calibrate_threshold(self, network: NeuralNetwork,
                            calibration: Dataset) -> float:
        """Compute the L1 threshold from legitimate calibration data."""
        probe = SqueezedDetector(network, self.squeezer, threshold=np.inf, name="probe")
        scores = probe.l1_scores(calibration.features)
        quantile = 1.0 - self.false_positive_budget
        self.threshold_ = float(np.quantile(scores, quantile))
        return self.threshold_

    def fit(self, network: NeuralNetwork, calibration: Dataset) -> SqueezedDetector:
        """Calibrate on legitimate data and return the squeezing detector.

        ``calibration`` should contain legitimate (non-adversarial) samples —
        the paper's validation split is the natural choice.
        """
        threshold = self.calibrate_threshold(network, calibration)
        return self._finalize(SqueezedDetector(network, self.squeezer, threshold,
                                               name=self.name))
