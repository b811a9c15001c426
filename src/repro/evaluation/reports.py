"""Plain-text table rendering for experiment outputs.

The experiment drivers and the benchmark harness print the same rows the
paper's tables report; these helpers keep that formatting in one place.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence

import numpy as np


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) or isinstance(value, np.floating):
        if math.isnan(value):
            return "nan"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an ASCII table with aligned columns."""
    str_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_defense_table(results: Mapping[str, Mapping[str, Mapping[str, float]]],
                         title: str = "Defense testing results (Table VI)") -> str:
    """Render the Table VI structure.

    ``results`` maps ``defense name -> test set name -> {"tpr": ..., "tnr": ...}``.
    Rates that do not apply to a test set (e.g. TPR on a clean-only set) are
    expected to be ``nan``, exactly as the paper prints them.
    """
    headers = ["Defense", "Dataset", "TPR", "TNR"]
    rows: List[List[object]] = []
    for defense_name, per_dataset in results.items():
        for dataset_name, rates in per_dataset.items():
            rows.append([defense_name, dataset_name,
                         rates.get("tpr", float("nan")),
                         rates.get("tnr", float("nan"))])
    return format_table(headers, rows, title=title)


def render_security_curve(curve, title: Optional[str] = None) -> str:
    """Render a :class:`~repro.evaluation.security_curve.SecurityCurve` as text."""
    model_names = curve.model_names()
    headers = [curve.swept_parameter, "features"] + \
              [f"detection[{name}]" for name in model_names] + ["mean_l2"]
    rows = []
    for point in curve.points:
        row: List[object] = [point.strength, point.n_perturbed_features]
        row.extend(point.detection_rates[name] for name in model_names)
        row.append(point.mean_l2_distance)
        rows.append(row)
    return format_table(headers, rows, title=title)
