"""Weighted late fusion of per-model classification scores.

Fused scores are the per-class linear combination of the individual model
scores under a normalized weight vector; predictions take the argmax with
ties broken toward the lowest class index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FusionOptError, InvalidWeightsError

FUSED_ROW_SUM_TOLERANCE = 1e-9


def weight_list(values) -> list:
    """``values`` as a list of Python floats, checked against the one weight rule.

    The rule: a non-empty 1-D vector of finite, nonnegative entries, not all
    zero. :class:`WeightVector` and :func:`exact_simplex` both apply it here.
    The entries are checked as Python floats, which costs less than numpy
    reductions on an M-vector.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidWeightsError("weights must form a non-empty 1-D vector")
    vals = arr.tolist()
    if not all(map(math.isfinite, vals)):
        raise InvalidWeightsError("weights contain non-finite entries")
    if min(vals) < 0.0:
        raise InvalidWeightsError("weights contain negative entries")
    if max(vals) == 0.0:
        raise InvalidWeightsError("weights are all zero")
    return vals


def exact_simplex(values) -> np.ndarray:
    """Rescale weights that pass :func:`weight_list` so their ``math.fsum`` is exactly 1.0.

    Plain division leaves the compensated sum an ulp or two away from one,
    which would make repeated normalization (or a save/load cycle) drift.
    After dividing by the total, the largest coordinate is nudged onto the
    exact residual, which makes this function a bitwise fixed point:
    ``exact_simplex(exact_simplex(x))`` returns ``exact_simplex(x)`` unchanged.
    The loop tries the coordinates from the largest down, ties to the
    lowest index; its first pass settles almost every vector, so the others
    are sorted only when it does not.
    """
    vals = weight_list(values)
    try:
        total = math.fsum(vals)
    except OverflowError:  # finite entries whose sum float64 cannot hold
        raise InvalidWeightsError("cannot normalize vector: its sum overflows float64") from None
    if total == 1.0:
        return np.asarray(vals, dtype=np.float64)
    scaled = [v / total for v in vals]
    order = [scaled.index(max(scaled))]
    for j in order:
        rest = math.fsum(scaled[:j] + scaled[j + 1:])
        nudged = 1.0 - rest
        if nudged >= 0.0:
            scaled[j] = nudged
        if math.fsum(scaled) == 1.0:
            break
        if len(order) == 1:  # the others are unchanged yet, so this is their order
            order += sorted((i for i in range(len(scaled)) if i != j),
                            key=lambda i: (-scaled[i], i))
    return np.asarray(scaled, dtype=np.float64)


def _two_sum(a, b, out, low, scratch):
    """Knuth's two-sum of float64 vectors: ``out = fl(a + b)``, ``low = a + b - out`` exactly."""
    np.add(a, b, out=out)
    np.subtract(out, a, out=scratch)
    np.subtract(a, np.subtract(out, scratch, out=low), out=low)
    low += np.subtract(b, scratch, out=scratch)


def _row_fsums(columns):
    """Each row's ``math.fsum`` over ``columns`` (float64 vectors), and where it is certified.

    Two-sum splits each addition into its rounded sum and its exact error,
    so a row's exact sum is S = s + e_2 + ... + e_K with ``s`` the running
    sum. The errors are added by two-sum as well; where none of those
    additions rounds, E is their exact sum, and fl(s + E) is S correctly
    rounded, ties to even, as ``math.fsum`` returns it. A step that
    overflows leaves the result inf or nan, so a finite result whose errors
    added exactly is certified.
    """
    columns = iter(columns)
    s = np.array(next(columns), dtype=np.float64)
    t, e, low, scratch = (np.empty_like(s) for _ in range(4))
    err, lost = np.zeros_like(s), np.zeros(s.shape, dtype=bool)
    for x in columns:
        _two_sum(s, x, t, e, scratch)
        s, t = t, s
        _two_sum(err, e, t, low, scratch)
        err, t = t, err
        np.logical_or(lost, low, out=lost)
    total = s + err
    return total, ~lost & np.isfinite(total)


def exact_simplex_rows(table: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a float64 (N, K) table, made exact simplex rows in place.

    Each row whose sum is positive, finite and not 1.0 becomes
    ``exact_simplex(row)``, bit for bit; other rows are left as they are.
    Sums come from :func:`_row_fsums`, and ``math.fsum`` where it cannot
    certify one. A row to renormalise takes the first pass of
    ``exact_simplex``'s loop in numpy: divide by the sum, then set the
    largest entry (ties to the lowest index) to 1 minus the certified sum
    of the others. Where that is nonnegative and the certified sum of the
    result is 1.0, the pass ends ``exact_simplex`` too; every other row
    runs ``exact_simplex`` on its original values. The temporaries are
    vectors over the rows, one column at a time.
    """
    k = table.shape[1]
    sums, certified = _row_fsums(table.T)
    for i in np.flatnonzero(~certified).tolist():
        sums[i] = math.fsum(table[i].tolist())
    rows = np.flatnonzero((sums != 1.0) & (sums > 0.0) & np.isfinite(sums))
    total = sums[rows]

    def scaled():
        return (table[rows, c] / total for c in range(k))

    best, largest = np.full(rows.size, -np.inf), np.zeros(rows.size, dtype=np.intp)
    for c, col in enumerate(scaled()):
        above = col > best
        best[above], largest[above] = col[above], c
    rest, done = _row_fsums(np.where(largest == c, 0.0, col) for c, col in enumerate(scaled()))
    top = 1.0 - rest
    check, checked = _row_fsums(np.where(largest == c, top, col) for c, col in enumerate(scaled()))
    done &= checked & (check == 1.0) & (top >= 0.0)
    kept = rows[done]
    for c, col in enumerate(scaled()):
        table[kept, c] = np.where(largest == c, top, col)[done]
    for i in rows[~done].tolist():
        table[i] = exact_simplex(table[i].tolist())
    return sums


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Per-model fusion weights; raw vectors may be unnormalized.

    The values pass the one weight rule, :func:`weight_list`. Optimizers
    screen raw all-zero candidates before scoring them.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(weight_list(self.values), dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def __reduce__(self):
        # A copy loaded from a pickle, as a forked search sends it, is
        # checked and made read-only like the original.
        return WeightVector, (self.values,)


@dataclass(frozen=True, eq=False)
class FusedScores:
    """Samples-by-classes table of fused scores."""

    sample_ids: tuple[str, ...]
    fused: np.ndarray

    def __post_init__(self):
        arr = np.array(self.fused, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise InvalidWeightsError("fused scores must be a 2-D table")
        if len(self.sample_ids) != arr.shape[0]:
            raise InvalidWeightsError(
                f"{len(self.sample_ids)} sample ids for {arr.shape[0]} fused rows"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidWeightsError("fused scores contain non-finite entries")
        sums = arr.sum(axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > FUSED_ROW_SUM_TOLERANCE):
            i = int(np.argmax(off))
            raise InvalidWeightsError(
                f"fused row {i} sums to {float(sums[i])!r}; "
                "convex combinations must stay on the simplex"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "fused", arr)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))


def class_indices(values, error: type[FusionOptError], what: str) -> np.ndarray:
    """``values`` as a fresh int64 array; ``error`` for a value not a whole number in [0, 2**63).

    A number past int64 arrives as uint64, float64 or a Python int in an
    object array, which no float need hold; the cast would wrap it silently.
    """
    arr = np.array(values, copy=True)

    def check_int64(values):
        beyond = np.abs(values) >= 2 ** 63
        if beyond.any():
            first = values[beyond][0]
            if abs(first) == math.inf:
                raise error(f"{what} must be whole class indices, got {float(first)!r}")
            raise error(f"{what} must be class indices int64 can hold, got {int(first)}")

    if arr.dtype.kind == "O":
        check_int64(arr)
    if arr.dtype.kind not in "iub":
        arr = arr.astype(np.float64)
        whole = np.isfinite(arr) & (arr == np.trunc(arr))
        if not whole.all():
            raise error(f"{what} must be whole class indices, got {float(arr[~whole][0])!r}")
    if arr.size and arr.min() < 0:
        raise error(f"{what} must be nonnegative class indices")
    if arr.dtype.kind not in "ib":
        # numpy reads a list that holds an int past int64 as float64, rounding it
        check_int64(arr if isinstance(values, np.ndarray) else np.array(values, dtype=object))
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class Predictions:
    """Predicted class index per sample."""

    sample_ids: tuple[str, ...]
    predicted: np.ndarray

    def __post_init__(self):
        arr = class_indices(self.predicted, InvalidWeightsError, "predictions")
        if arr.ndim != 1 or arr.size != len(self.sample_ids):
            raise InvalidWeightsError("predictions must be one class index per sample")
        arr.setflags(write=False)
        object.__setattr__(self, "predicted", arr)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))


def normalize(raw: WeightVector) -> WeightVector:
    """Rescale weights onto the unit simplex.

    Uses :func:`exact_simplex`, so normalizing an already normalized vector
    returns it bit-identically and the fused argmax is unaffected.
    """
    return WeightVector(exact_simplex(raw.values))


def equal_weights(n_models: int) -> WeightVector:
    """The naive baseline: every model weighted 1/N."""
    if n_models < 1:
        raise InvalidWeightsError("need at least one model for equal weights")
    return WeightVector(np.full(n_models, 1.0 / n_models))


def check_weight_count(weights, n_models: int) -> None:
    """The one weight-count rule: exactly one weight per model."""
    if len(weights) != n_models:
        raise InvalidWeightsError(f"got {len(weights)} weights for {n_models} models")


def combine(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The fusion arithmetic: ``weights[0]*stack[0] + weights[1]*stack[1] + ...``.

    Sums over the leading model axis in model order, whatever the layout of
    the remaining axes, so every caller gets bit-identical fused values.
    """
    check_weight_count(weights, len(stack))
    # One buffer for all products: on large tables a fresh temporary per
    # model costs more than the arithmetic.
    products = weights[:, None, None] * stack
    fused = products[0]
    for table in products[1:]:
        fused += table
    return fused


def fuse(dataset, weights: WeightVector) -> FusedScores:
    """Linear combination of the models' score tables under ``weights``, normalized.

    ``fused[i][k] = sum_n w[n] * scores_n[i][k]`` with ``w`` the
    :func:`exact_simplex` of ``weights``, a bitwise fixed point, so already
    normalized weights are used as they are and a unit weight on one model
    reproduces that model's table bit-identically.
    """
    return FusedScores(dataset.sample_ids, combine(exact_simplex(weights.values), dataset.stack))


def predict(fused_scores: FusedScores) -> Predictions:
    """Argmax decision rule; ties go to the lowest class index."""
    return Predictions(
        fused_scores.sample_ids, np.argmax(fused_scores.fused, axis=1)
    )
