"""ROC curves, one-vs-rest AUC, and the macro average.

The curve is built by sweeping a threshold over the distinct score values in
descending order. Tied scores collapse into a single ROC point, which makes
the trapezoidal area identical to the Mann-Whitney statistic with midrank
(0.5) credit for positive-negative ties.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateClassError, MetricUndefinedError, write_text

logger = logging.getLogger(__name__)


def roc_curve(scores, labels) -> np.ndarray:
    """Return the ROC polyline as a ``(points, 2)`` array of (FPR, TPR)
    rows from (0, 0) to (1, 1).

    ``labels`` must be binary (0/1) and contain at least one positive and
    one negative, otherwise a DegenerateClassError naming the single class
    present is raised.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.ndim != 1 or y.ndim != 1 or len(s) != len(y):
        raise ContractError(
            f"scores and labels must be 1-d and same length, got {len(s)} and {len(y)}"
        )
    if len(s) == 0:
        raise ContractError("scores must be non-empty")
    if not np.isin(y, (0, 1)).all():
        raise ContractError("labels must be binary 0/1")

    n_pos = int((y == 1).sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        present = int(y[0])
        raise DegenerateClassError(f"labels contain only class {present}; ROC is undefined")

    # Stable sort descending by score, then collapse tie groups: one point
    # after each distinct threshold.
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    tp = np.cumsum(y_sorted == 1)
    fp = np.cumsum(y_sorted == 0)
    last_of_group = np.append(s_sorted[1:] != s_sorted[:-1], True)
    curve = np.zeros((int(last_of_group.sum()) + 1, 2))
    curve[1:, 0] = fp[last_of_group] / n_neg
    curve[1:, 1] = tp[last_of_group] / n_pos
    return curve


def _area(curve: np.ndarray) -> float:
    return float(np.trapezoid(curve[:, 1], curve[:, 0]))


def auc(scores, labels) -> float:
    """Trapezoidal area under the ROC curve of binary ``labels``."""
    return _area(roc_curve(scores, labels))


@dataclass
class RocReport:
    """Per-class one-vs-rest AUCs and their macro average.

    ``per_class_auc`` is indexed by class; a class skipped for lacking
    positives or negatives holds NaN. ``roc_points`` maps each evaluated
    class to its ``roc_curve`` array.
    """

    per_class_auc: list[float]
    macro_auc: float
    roc_points: dict[int, np.ndarray]

    def write_roc_csv(self, class_index: int, path) -> None:
        """Write the class's ROC points as a two-column fpr,tpr CSV."""
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["fpr", "tpr"])
        writer.writerows(map(repr, row) for row in self.roc_points[class_index].tolist())
        write_text(path, text.getvalue(), "ROC curve")


def macro_auroc(prob_vectors, labels, num_classes: int, *, warn: bool = True) -> RocReport:
    """One-vs-rest AUC per class, averaged with equal class weight.

    ``prob_vectors`` is a ``(samples, num_classes)`` array-like of
    probability rows. Classes without both a positive and a negative
    example are skipped, with a warning unless ``warn`` is false, and
    excluded from the macro mean; if every class is degenerate the metric
    is undefined.
    """
    rows = np.asarray(prob_vectors, dtype=float)
    y = np.asarray(labels)
    if rows.ndim != 2 or rows.shape[1] != num_classes:
        raise ContractError(
            f"expected probability rows of width {num_classes}, got shape {rows.shape}"
        )
    if len(rows) != len(y):
        raise ContractError(
            f"{len(rows)} probability rows but {len(y)} labels"
        )
    if len(y) and (y.min() < 0 or y.max() >= num_classes):
        raise ContractError(f"labels must lie in [0, {num_classes})")

    per_class: list[float] = []
    points: dict[int, np.ndarray] = {}
    for c in range(num_classes):
        binary = (y == c).astype(int)
        try:
            points[c] = roc_curve(rows[:, c], binary)
        except DegenerateClassError:
            if warn:
                logger.warning("class %d has no positives or no negatives; skipped", c)
            per_class.append(float("nan"))
            continue
        per_class.append(_area(points[c]))

    evaluated = [a for a in per_class if not math.isnan(a)]
    if not evaluated:
        raise MetricUndefinedError(
            "every class is degenerate; macro AUROC is undefined"
        )
    return RocReport(
        per_class_auc=per_class,
        macro_auc=float(np.mean(evaluated)),
        roc_points=points,
    )


def format_percent(value: float) -> str:
    """AUROC as a percentage with two decimals, e.g. 0.8452 -> '84.52'."""
    return f"{100.0 * value:.2f}"
