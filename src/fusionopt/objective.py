"""Fusion objective and evaluation metrics.

The quantity optimizers minimize is the cumulative error on the validation
split: one minus the cumulative accuracy of a candidate weight vector. Two
readings of cumulative accuracy are exposed:

``fused_accuracy``
    Fraction of validation samples whose fused argmax prediction matches
    the label. This is the default everywhere.
``score_mass``
    Mean fused probability assigned to the true class, i.e. the literal
    weighted-sum reading of the accuracy term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError
from .fusion import WeightVector, combine, exact_simplex

POSITIVE_CLASS = 1
OBJECTIVE_VARIANTS = ("fused_accuracy", "score_mass")


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts with respect to one positive class."""

    tp: int
    fp: int
    fn: int
    tn: int
    positive_class: int = POSITIVE_CLASS

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise DataError(f"confusion count {name} must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    accuracy: float
    confusion: ConfusionCounts


def confusion(predictions, labels, positive_class: int = POSITIVE_CLASS) -> ConfusionCounts:
    """Count tp/fp/fn/tn of ``predictions`` against ``labels``.

    Classes other than ``positive_class`` all count as negative, so the
    counts are one-vs-rest for multi-class data.
    """
    if tuple(predictions.sample_ids) != tuple(labels.sample_ids):
        raise DataError("predictions and labels are not aligned on the same sample_ids")
    pred_pos = predictions.predicted == positive_class
    true_pos = labels.labels == positive_class
    return ConfusionCounts(
        tp=int(np.sum(pred_pos & true_pos)),
        fp=int(np.sum(pred_pos & ~true_pos)),
        fn=int(np.sum(~pred_pos & true_pos)),
        tn=int(np.sum(~pred_pos & ~true_pos)),
        positive_class=positive_class,
    )


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0.0 when both vanish."""
    if precision + recall <= 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics(counts: ConfusionCounts) -> MetricsReport:
    """Precision, recall, F1, and accuracy from confusion counts.

    Zero denominators yield 0.0 rather than an error so degenerate fusions
    stay comparable.
    """
    total = counts.total
    if total == 0:
        raise DataError("cannot compute metrics over zero samples")
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    accuracy = (counts.tp + counts.tn) / total
    return MetricsReport(precision, recall, f1_score(precision, recall), accuracy, counts)


def check_variant(variant: str) -> None:
    """Reject an objective variant name outside ``OBJECTIVE_VARIANTS``."""
    if variant not in OBJECTIVE_VARIANTS:
        raise ConfigError(
            f"unknown objective variant '{variant}'; expected one of {', '.join(OBJECTIVE_VARIANTS)}"
        )


class _Scorer:
    """Cumulative accuracy of raw weight vectors on one validation split.

    The data is laid out once, true class first: a copy of the stack of
    shape (M, K, N) whose row 0 holds each sample's true-class score and
    whose rows 1..K-1 hold its rivals in ascending class order, plus a
    (K-1, N) tie table. A call then only fuses and compares.
    :func:`fusion.combine` sums in model order whatever the layout, so the
    fused values are :func:`fusion.fuse`'s bit for bit. Under the argmax
    rule, ties going to the lowest class, a sample is wrong when a rival
    below its label scores at least as much as the true class, or a rival
    above it scores more. The difference of two finite doubles is zero only
    when they are equal and keeps its sign under gradual underflow, so both
    cases read ``rival - true >= tie``, with a tie entry of 0.0 below the
    label and the smallest subnormal above it.
    """

    def __init__(self, dataset, variant: str):
        check_variant(variant)
        if dataset.split != "validation":
            raise DataError(
                f"the objective is defined on the validation split, got '{dataset.split}'"
            )
        y = dataset.y
        rival = np.arange(dataset.num_classes - 1)[:, None]
        order = np.vstack([y, rival + (rival >= y)])
        self._variant = variant
        self._classes = np.ascontiguousarray(
            np.take_along_axis(dataset.stack.transpose(0, 2, 1), order[None], axis=1))
        self._tie = np.where(rival < y, 0.0, np.nextafter(0.0, 1.0))

    def __call__(self, raw) -> float:
        weights = exact_simplex(WeightVector(raw).values)
        fused = combine(weights, self._classes)
        true = fused[0]
        if self._variant == "score_mass":
            return float(np.mean(true))
        margins = fused[1:]
        margins -= true  # in place: ``fused`` is this call's own buffer
        wrong = (margins >= self._tie).any(axis=0)
        return (true.size - int(np.count_nonzero(wrong))) / true.size


def cumulative_accuracy(dataset, weights: WeightVector, variant: str = "fused_accuracy") -> float:
    """Quality of a candidate weight vector on the validation split.

    Weights are normalized here, so any positive scaling of the raw vector
    scores identically under ``fused_accuracy``.
    """
    return _Scorer(dataset, variant)(weights.values)


def cumulative_error(dataset, weights: WeightVector, variant: str = "fused_accuracy") -> float:
    """One minus the cumulative accuracy; the quantity optimizers minimize."""
    return 1.0 - cumulative_accuracy(dataset, weights, variant)


def make_objective(dataset, variant: str = "fused_accuracy") -> Callable[[np.ndarray], float]:
    """Bind a dataset and variant into a raw-vector objective for optimizers."""
    scorer = _Scorer(dataset, variant)

    def objective(raw: np.ndarray) -> float:
        return 1.0 - scorer(raw)

    return objective
