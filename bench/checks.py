"""Correctness checks on the CLI's outputs, recomputed with plain numpy.

Nothing here imports fusionopt. The checks are invariants, not digests of
expected output, so a change that finds other weights still passes:

* every compare report row's weights sum to 1 (within 1e-9 at full
  precision, within the 6-decimal rounding in the CSV);
* each row's ``objective`` is the validation error of its weights, and
  its test metrics those of the same weights on the test split;
* a fused score CSV equals the weighted sum of the inputs within 1e-12.

A sample whose top two fused scores lie within ``TIE_MARGIN`` may be
decided either way by code that rounds differently; each such sample
widens the tolerance on a rate by up to three counts of its base.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

METHODS = ("equal", "pso", "ga", "bf", "powell", "nelder-mead")
REPORT_HEADER = ["method", "precision", "recall", "f1", "accuracy", "objective", "weights"]
POSITIVE_CLASS = 1
FULL_SUM_TOLERANCE = 1e-9
CSV_DIGIT = 5e-7              # half a unit in the report's 6th decimal
FUSED_TOLERANCE = 1e-12
TIE_MARGIN = 1e-12


class CheckFailed(Exception):
    """An output breaks an invariant; the message says which."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def fused_scores(scores: np.ndarray, weights) -> np.ndarray:
    """Weighted sum over models, accumulated in model order."""
    w = np.asarray(weights, dtype=np.float64)
    fused = w[0] * scores[0]
    for m in range(1, len(w)):
        fused = fused + w[m] * scores[m]
    return fused


def decisions(fused: np.ndarray) -> tuple[np.ndarray, int]:
    """Argmax with ties to the lowest class, and the count of near-ties."""
    predicted = np.argmax(fused, axis=1)
    top2 = np.sort(fused, axis=1)[:, -2:]
    return predicted, int(np.sum(top2[:, 1] - top2[:, 0] <= TIE_MARGIN))


def rates(predicted: np.ndarray, labels: np.ndarray) -> dict:
    """Report metrics and the count each one is a share of.

    As in the report, all four are one-vs-rest for ``POSITIVE_CLASS``, so
    with more than two classes ``accuracy`` counts any two non-positive
    classes as agreeing.
    """
    pred_pos = predicted == POSITIVE_CLASS
    true_pos = labels == POSITIVE_CLASS
    tp = int(np.sum(pred_pos & true_pos))
    fp = int(np.sum(pred_pos & ~true_pos))
    fn = int(np.sum(~pred_pos & true_pos))
    tn = int(np.sum(~pred_pos & ~true_pos))
    n = int(labels.size)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return {
        "precision": (precision, tp + fp),
        "recall": (recall, tp + fn),
        "f1": (f1, 2 * tp + fp + fn),
        "accuracy": ((tp + tn) / n, n),
    }


def _near(reported: float, expected: float, base: int, ties: int, what: str) -> None:
    slack = CSV_DIGIT + 1e-12 + (3 * ties / max(base - ties, 1) if ties else 0.0)
    _require(abs(reported - expected) <= slack,
             f"{what}: reported {reported!r}, recomputed {expected!r}")


def check_metrics(row: dict, scores: np.ndarray, labels: np.ndarray, weights,
                  what: str) -> None:
    """Compare a row's test metrics with a recomputation."""
    predicted, ties = decisions(fused_scores(scores, weights))
    for name, (value, base) in rates(predicted, labels).items():
        _near(float(row[name]), value, base, ties, f"{what} {name}")


def parse_report(text: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(bool(rows) and rows[0] == REPORT_HEADER, f"bad report header {rows[:1]!r}")
    return [dict(zip(REPORT_HEADER, row)) for row in rows[1:]]


def check_compare(text: str, reference: dict, validation, test) -> list[dict]:
    """Check a compare report against full-precision reference weights.

    ``reference`` maps each method to the weights and error of the traced
    run of the same command; ``validation``/``test`` are (scores, labels)
    pairs split independently of the program.
    """
    rows = parse_report(text)
    _require([r["method"] for r in rows] == list(METHODS),
             f"methods {[r['method'] for r in rows]} != {list(METHODS)}")
    for row in rows:
        method = row["method"]
        shown = [float(w) for w in row["weights"].split(";")]
        _require(all(w >= 0.0 for w in shown), f"{method}: negative weight {shown}")
        _require(abs(math.fsum(shown) - 1.0) <= len(shown) * CSV_DIGIT + FULL_SUM_TOLERANCE,
                 f"{method}: weights {shown} are off the simplex")
        full = reference[method]["weights"]
        _require(all(w >= 0.0 for w in full) and
                 abs(math.fsum(full) - 1.0) <= FULL_SUM_TOLERANCE,
                 f"{method}: full-precision weights {full} are off the simplex")
        _require(row["weights"] == ";".join(f"{w:.6f}" for w in full),
                 f"{method}: report weights {row['weights']} differ from the run's {full}")
        val_scores, val_labels = validation
        predicted, ties = decisions(fused_scores(val_scores, full))
        _near(float(row["objective"]), float(np.mean(predicted != val_labels)),
              val_labels.size, ties, f"{method} objective")
        check_metrics(row, *test, full, f"{method} test")
    return rows


def check_fused(text: str, sample_ids, scores: np.ndarray, raw_weights) -> None:
    """A fused CSV equals the normalised weighted sum of the inputs."""
    lines = text.splitlines()
    k = scores.shape[2]
    _require(lines[0] == "sample_id," + ",".join(f"class_{c}" for c in range(k)),
             f"bad fused header {lines[0]!r}")
    fields = [line.split(",") for line in lines[1:]]
    _require([f[0] for f in fields] == list(sample_ids),
             "fused rows are not in label order")
    got = np.array([f[1:] for f in fields], dtype=np.float64)
    w = np.asarray(raw_weights, dtype=np.float64)
    expected = fused_scores(scores, w / w.sum())
    worst = float(np.max(np.abs(got - expected)))
    _require(worst <= FUSED_TOLERANCE, f"fused scores off by {worst!r}")


def check_evaluate(text: str, fused: np.ndarray, labels: np.ndarray) -> dict:
    """An evaluate report on one fused file; returns its row."""
    rows = parse_report(text)
    _require(len(rows) == 1, f"expected one report row, found {len(rows)}")
    _require(rows[0]["objective"] == "" and rows[0]["weights"] == "",
             "evaluate rows carry no objective or weights")
    check_metrics(rows[0], fused[None], labels, [1.0], "evaluate")
    return rows[0]
