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

import numpy as np

from .errors import ConfigError, DataError
from .fusion import WeightVector, check_weight_count, combine, exact_simplex

POSITIVE_CLASS = 1
OBJECTIVE_VARIANTS = ("fused_accuracy", "score_mass")


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts with respect to ``POSITIVE_CLASS``."""

    tp: int
    fp: int
    fn: int
    tn: int

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


def confusion(predictions, labels) -> ConfusionCounts:
    """Count tp/fp/fn/tn of ``predictions`` against ``labels``.

    Classes other than ``POSITIVE_CLASS`` all count as negative, so the
    counts are one-vs-rest for multi-class data.
    """
    if tuple(predictions.sample_ids) != tuple(labels.sample_ids):
        raise DataError("predictions and labels are not aligned on the same sample_ids")
    pred_pos = predictions.predicted == POSITIVE_CLASS
    true_pos = labels.labels == POSITIVE_CLASS
    return ConfusionCounts(
        tp=int(np.sum(pred_pos & true_pos)),
        fp=int(np.sum(pred_pos & ~true_pos)),
        fn=int(np.sum(~pred_pos & true_pos)),
        tn=int(np.sum(~pred_pos & ~true_pos)),
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


def _screen_width(stack) -> np.float32:
    """The screen's ``delta``: float32 margins beyond +/-delta have the float64 sign.

    Let ``D`` be a sample's exact margin ``sum_m w_m a_m``, a_m = s_mr - s_my,
    for a rival ``r`` over its true class ``y``, ``d`` the screen's float32 sum
    of ``fl32(w_m) * fl32(fl64(a_m))`` and ``e`` the float64 path's. Then
    ``|d - D| + |e - D| <= delta``, so ``d > delta`` gives ``e > 0`` and
    ``d < -delta`` gives ``e < 0``.

    Proof. Let u = 2**-24 and v = 2**-53 be the float32 and float64 unit
    roundoffs, t = 2**-150 and t' = 2**-1075 half their subnormal spacings,
    g_n = nu/(1 - nu) and g'_n the same with v (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, section 3.1: a product of n
    factors (1 + e_i)**(+/-1) with |e_i| <= u is 1 + th_n, |th_n| <= g_n).
    M is the number of models, A the largest |score|, so |a_m| <= 2A, and
    W = sum_m w_m <= 1 + v, since the weights are nonnegative with
    ``math.fsum`` exactly 1. Scores lie in [0, 1], so nothing overflows.

    1. Rounding a real x to float32 gives x(1 + e) + h with |e| <= u and
       |h| <= t, h being the absolute error of underflow. A float difference
       is exact when it underflows, so a table entry is
       a_m(1 + e0)(1 + e1) + h1 with |e0| <= v; times the rounded weight
       w_m(1 + e2) + h2 it is w_m a_m (1 + e0)(1 + e1)(1 + e2) + z_m with
       |z_m| <= (1 + u)(w_m + 2(1 + v)A) t + t**2.
    2. BLAS may add the M products in any order, fuse a product into an
       addition (FMA) or split the sum over threads; alpha 1 and beta 0 are
       exact, and each operation rounds once, to float32 or finer. So a
       product meets at most M roundings, its own or its FMA's and one per
       addition above it, and only the M products or FMAs underflow
       inexactly, by t at most. In any order, as (1 + v)(1 + g_(M+2)) <=
       1 + g_(M+3),
       |d - D| <= 2 g_(M+3) W A + (1 + g_M)[(1 + u)(W + 2(1 + v) M A) t
                  + M t**2 + M t].
    3. The float64 path rounds no input and its products underflow by at
       most t', so |e - D| <= 2 g'_(M+1) W A + 2M(1 + g'_M) t'.
    4. Let n = M + 4 with nu < 1. Then g_n - g_(n-1) >= u, while
       g_(M+3) < 2**24 and M < 2**24 put each of g_(M+3) v, g'_(M+1)(1 + v)
       and (1 + g_M)(1 + u)(1 + v) M t below u/30: the A terms of steps 2
       and 3 sum to at most 2 g_n A. Likewise (1 + u) W + M t < 2 and
       2M(1 + g'_M) t' < t, so the t terms sum to at most
       (1 + g_n)(n - 1) t < 2(1 + g_n)(n - 2) t.

    Hence delta = 2 g_n A + 2(1 + g_n)(n - 2) t; for scores in [0, 1] it is
    about (2M + 8) * 2**-24. This evaluates it in float64, a few operations
    each off by a relative 2**-53 at most, and returns the float32 just
    above the nearest one, which exceeds the float64 value by at least half
    a float32 spacing and so exceeds delta. When nu >= 1, delta is infinite
    and every sample goes to the float64 path.
    """
    u, t = 2.0 ** -24, 2.0 ** -150
    n = stack.shape[0] + 4
    gamma = n * u / (1.0 - n * u) if n * u < 1.0 else np.inf
    largest = float(np.abs(stack).max())
    bound = 2.0 * gamma * (largest + (n - 2) * t) + 2.0 * (n - 2) * t
    return np.nextafter(np.float32(bound), np.float32(np.inf))


class _Scorer:
    """Validation error and accuracy of raw weight vectors on one split.

    A call gives the error, ``1.0 - accuracy(raw)``, which optimizers
    minimize. The variant's method is chosen once, on construction, and
    each variant keeps only the table it reads, read-only; a call writes
    only to its own buffers. :func:`fusion.combine` sums in model order
    whatever the layout, so the fused values are :func:`fusion.fuse`'s bit
    for bit.

    ``score_mass`` fuses each sample's true-class score, of shape (M, 1, N).
    ``fused_accuracy`` keeps a reference to the dataset's read-only
    (M, N, K) stack and its labels, and screens every sample in float32 on
    a margin table of shape (M, (K-1)*N): each rival's score minus the true
    score, rivals in ascending class order, subtracted in float64 and
    rounded to float32. One matrix-vector product of the float32-rounded
    weights with it (a BLAS ``sgemv``) gives every rival's margin, and the
    largest over the rivals is the sample's. Beyond ``+/-delta`` (see
    :func:`_screen_width`, whose bound holds in any summation order) a
    float32 margin has the float64 margin's sign, so a sample above
    ``delta`` has a rival above its true class and is wrong, and one below
    ``-delta`` has its true class above every rival and is right. Only the
    samples in between, near a tie, are fused in float64 and judged by
    :func:`fusion.predict`'s rule, the argmax with ties going to the lowest
    class, so the count is that rule's exactly.
    """

    def __init__(self, dataset, variant: str):
        check_variant(variant)
        if dataset.split != "validation":
            raise DataError(
                f"the objective is defined on the validation split, got '{dataset.split}'"
            )
        y, stack = dataset.y, dataset.stack
        by_class = stack.transpose(0, 2, 1)  # (M, K, N); the tables come out in C order
        true = np.take_along_axis(by_class, y[None, None], axis=1)
        if variant == "score_mass":
            true.setflags(write=False)
            self._true = true
            # Not a bound method: that would be a cycle, freed only when gc runs.
            self._accuracy = _Scorer._score_mass
            return
        self._stack, self._y = stack, y
        rival = np.arange(dataset.num_classes - 1)[:, None]
        margins = np.take_along_axis(by_class, (rival + (rival >= y))[None], axis=1)
        margins -= true
        self._margins = margins.astype(np.float32).reshape(len(margins), -1)
        self._margins.setflags(write=False)
        self._delta = _screen_width(stack)
        self._accuracy = _Scorer._fused_accuracy

    def __call__(self, raw) -> float:
        return 1.0 - self._accuracy(self, raw)

    def accuracy(self, raw) -> float:
        """The variant's accuracy of the raw weight vector ``raw``."""
        return self._accuracy(self, raw)

    def _score_mass(self, raw) -> float:
        return float(np.mean(combine(exact_simplex(raw), self._true)[0]))

    def _fused_accuracy(self, raw) -> float:
        weights = exact_simplex(raw)
        check_weight_count(weights, len(self._margins))
        screen = weights.astype(np.float32) @ self._margins
        n, delta = len(self._y), self._delta
        # The call owns its sgemv result: fold each further rival's margins
        # into the first rival's N entries, which become the samples' margins.
        margin = screen[:n]
        for start in range(n, screen.size, n):
            np.maximum(margin, screen[start:start + n], out=margin)
        flags = np.greater(margin, delta)
        wrong = np.count_nonzero(flags)
        if np.count_nonzero(np.greater_equal(margin, -delta, out=flags)) > wrong:
            # a margin within +/-delta
            near = (np.abs(margin) <= delta).nonzero()[0]
            fused = combine(weights, self._stack[:, near])
            wrong += np.count_nonzero(fused.argmax(axis=1) != self._y[near])
        return (n - wrong) / n


def cumulative_accuracy(dataset, weights: WeightVector, variant: str = "fused_accuracy") -> float:
    """Quality of a candidate weight vector on the validation split.

    Weights are normalized here, so any positive scaling of the raw vector
    scores identically under ``fused_accuracy``.
    """
    return _Scorer(dataset, variant).accuracy(weights.values)


def cumulative_error(dataset, weights: WeightVector, variant: str = "fused_accuracy") -> float:
    """One minus the cumulative accuracy; the quantity optimizers minimize."""
    return _Scorer(dataset, variant)(weights.values)


def make_objective(dataset, variant: str = "fused_accuracy") -> _Scorer:
    """The scorer of ``variant`` on ``dataset``: called on a raw vector, it gives the error."""
    return _Scorer(dataset, variant)
