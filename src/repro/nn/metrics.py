"""Classification metrics used for attack and defense evaluation.

The paper reports the confusion-matrix rates (TPR, TNR, FPR, FNR — Table VI)
and "detection rate" (the fraction of malware / adversarial samples that the
detector still flags as malware — the y-axis of every security-evaluation
curve).  ROC/AUC helpers are included for the feature-squeezing threshold
ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.config import CLASS_MALWARE
from repro.exceptions import ShapeError
from repro.utils.validation import check_labels


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct predictions."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ShapeError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ShapeError("cannot compute accuracy of empty arrays")
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray,
                     n_classes: int = 2) -> np.ndarray:
    """Confusion matrix ``C[i, j]`` = count of true class ``i`` predicted ``j``."""
    y_true = check_labels(y_true, name="y_true", n_classes=n_classes)
    y_pred = check_labels(y_pred, n_samples=y_true.shape[0], name="y_pred",
                          n_classes=n_classes)
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def rates_from_confusion(matrix: np.ndarray,
                         positive_class: int = CLASS_MALWARE) -> Dict[str, float]:
    """TPR / TNR / FPR / FNR for a binary confusion matrix.

    ``positive_class`` is the malware class throughout the paper.  Rates
    whose denominator is zero are reported as ``nan`` — exactly how Table VI
    reports e.g. TPR on a clean-only test set.
    """
    matrix = np.asarray(matrix)
    if matrix.shape != (2, 2):
        raise ShapeError(f"expected a 2x2 confusion matrix, got shape {matrix.shape}")
    negative_class = 1 - positive_class
    tp = matrix[positive_class, positive_class]
    fn = matrix[positive_class, negative_class]
    tn = matrix[negative_class, negative_class]
    fp = matrix[negative_class, positive_class]
    positives = tp + fn
    negatives = tn + fp

    def _safe(num: float, den: float) -> float:
        return float(num / den) if den > 0 else float("nan")

    return {
        "tpr": _safe(tp, positives),
        "fnr": _safe(fn, positives),
        "tnr": _safe(tn, negatives),
        "fpr": _safe(fp, negatives),
    }


def detection_rate(y_pred: np.ndarray, positive_class: int = CLASS_MALWARE) -> float:
    """Fraction of samples predicted as malware.

    Applied to a malware-only (or adversarial-example-only) batch this is the
    paper's "detection rate": the quantity tracked by every security
    evaluation curve in Figures 3 and 4.
    """
    y_pred = np.asarray(y_pred)
    if y_pred.size == 0:
        raise ShapeError("cannot compute detection rate of an empty prediction array")
    return float(np.mean(y_pred == positive_class))


def roc_curve(y_true: np.ndarray, scores: np.ndarray,
              positive_class: int = CLASS_MALWARE) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute (fpr, tpr, thresholds) by sweeping a decision threshold."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise ShapeError(f"shape mismatch: {y_true.shape} vs {scores.shape}")
    positives = y_true == positive_class
    n_pos = positives.sum()
    n_neg = (~positives).sum()
    if n_pos == 0 or n_neg == 0:
        raise ShapeError("roc_curve requires at least one positive and one negative sample")
    order = np.argsort(-scores, kind="stable")
    sorted_pos = positives[order]
    tps = np.cumsum(sorted_pos)
    fps = np.cumsum(~sorted_pos)
    thresholds = scores[order]
    # Keep only the last occurrence of each distinct threshold.
    distinct = np.r_[np.diff(thresholds) != 0, True]
    tpr = np.r_[0.0, tps[distinct] / n_pos]
    fpr = np.r_[0.0, fps[distinct] / n_neg]
    thresholds = np.r_[np.inf, thresholds[distinct]]
    return fpr, tpr, thresholds


def roc_auc(y_true: np.ndarray, scores: np.ndarray,
            positive_class: int = CLASS_MALWARE) -> float:
    """Area under the ROC curve via the trapezoidal rule."""
    fpr, tpr, _ = roc_curve(y_true, scores, positive_class=positive_class)
    integrate = getattr(np, "trapezoid", None) or np.trapz
    return float(integrate(tpr, fpr))


@dataclass(frozen=True)
class ClassificationReport:
    """All the rates Table VI reports for one (defense, test-set) pair."""

    n_samples: int
    accuracy: float
    tpr: float
    tnr: float
    fpr: float
    fnr: float

    @classmethod
    def from_predictions(cls, y_true: np.ndarray, y_pred: np.ndarray,
                         positive_class: int = CLASS_MALWARE) -> "ClassificationReport":
        """Build a report from true/predicted labels."""
        matrix = confusion_matrix(y_true, y_pred)
        rates = rates_from_confusion(matrix, positive_class=positive_class)
        return cls(
            n_samples=int(np.asarray(y_true).shape[0]),
            accuracy=accuracy(np.asarray(y_true), np.asarray(y_pred)),
            tpr=rates["tpr"],
            tnr=rates["tnr"],
            fpr=rates["fpr"],
            fnr=rates["fnr"],
        )

    def as_dict(self) -> Dict[str, float]:
        """Dictionary view (useful for table rendering)."""
        return {
            "n_samples": self.n_samples,
            "accuracy": self.accuracy,
            "tpr": self.tpr,
            "tnr": self.tnr,
            "fpr": self.fpr,
            "fnr": self.fnr,
        }
