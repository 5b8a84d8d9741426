"""Byte-level pins on a seeded three-class dataset.

The bundled corpus is binary, so ``tests/test_golden.py`` never reaches the
K > 2 path of the objective. Here a 300-sample, 3-model, 3-class dataset is
built in memory from ``rng.random``/``rng.integers`` alone, and each of the
six methods is run through :func:`optimize` with seed 42. One model's scores
are small integer counts over their row total, so its table is full of exact
ties, and candidates that weight it alone exercise the lowest-class tie rule.
The files ``tests/golden/k3.<method>.json`` hold the ``result_to_json`` text
of each run.
"""

from pathlib import Path

import numpy as np
import pytest

from fusionopt.objective import make_objective
from fusionopt.optimizers import METHODS, OptimizerConfig, optimize, result_to_json
from fusionopt.scoreio import LabelVector, ScoreMatrix, align

GOLDEN = Path(__file__).resolve().parent / "golden"


def k3_dataset(seed=20221, n_samples=300, n_classes=3):
    rng = np.random.default_rng(seed)
    ids = tuple(f"s{i:04d}" for i in range(n_samples))
    labels = rng.integers(0, n_classes, n_samples)
    rows = np.arange(n_samples)
    matrices = []
    for m, boost in enumerate((1.2, 0.7)):
        raw = rng.random((n_samples, n_classes)) + 0.05
        raw[rows, labels] += boost * rng.random(n_samples)
        matrices.append(ScoreMatrix(f"m{m}", ids, raw / raw.sum(axis=1, keepdims=True)))
    # A coarse model: small integer counts, biased toward the label.
    counts = rng.integers(0, 4, (n_samples, n_classes))
    counts[rows, labels] += rng.integers(0, 4, n_samples)
    counts[counts.sum(axis=1) == 0, 0] = 1
    matrices.append(ScoreMatrix("coarse", ids, counts / counts.sum(axis=1, keepdims=True)))
    return align(matrices, LabelVector(ids, labels))


@pytest.mark.parametrize("method", METHODS)
def test_k3_optimize_json_is_byte_identical(method):
    ds = k3_dataset()
    result = optimize(make_objective(ds), ds.num_models, OptimizerConfig(method=method, seed=42))
    assert result_to_json(result) == (GOLDEN / f"k3.{method}.json").read_text(encoding="utf-8")
