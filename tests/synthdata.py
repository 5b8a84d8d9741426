"""Seeded dataset builders shared across the suite."""

from __future__ import annotations

import numpy as np

from fusionopt.fusion import exact_simplex
from fusionopt.objective import _screen_width
from fusionopt.scoreio import FusionDataset, LabelVector, ScoreMatrix, align


def random_dataset(rng, n_models=3, n_samples=50, n_classes=2,
                   split="validation") -> FusionDataset:
    """Arbitrary valid dataset with random simplex rows."""
    ids = tuple(f"s{i:04d}" for i in range(n_samples))
    labels = rng.integers(0, n_classes, n_samples)
    matrices = []
    for m in range(n_models):
        raw = rng.random((n_samples, n_classes)) + 1e-3
        matrices.append(ScoreMatrix(f"m{m}", ids, raw / raw.sum(axis=1, keepdims=True)))
    return align(matrices, LabelVector(ids, labels), split)


def tiered_dataset(seed, n_samples=200,
                   tiers=((0.82, 0.22), (0.68, 0.26), (0.56, 0.32))) -> FusionDataset:
    """Binary dataset with heterogeneous model quality (strong/mediocre/weak).

    Each model's true-class probability is a clipped Gaussian around its
    tier quality, so the models disagree enough for weight choice to matter.
    """
    rng = np.random.default_rng(seed)
    labels = rng.permutation((np.arange(n_samples) % 2).astype(np.int64))
    ids = tuple(f"s{i:04d}" for i in range(n_samples))
    matrices = []
    for m, (mu, sigma) in enumerate(tiers):
        p_true = np.clip(rng.normal(mu, sigma, n_samples), 0.02, 0.98)
        rows = np.empty((n_samples, 2))
        rows[np.arange(n_samples), labels] = p_true
        rows[np.arange(n_samples), 1 - labels] = 1.0 - p_true
        matrices.append(ScoreMatrix(f"m{m}", ids, rows))
    return align(matrices, LabelVector(ids, labels))


def hand_dataset() -> FusionDataset:
    """Four samples, two models: model m1 is right on s1,s2,s3; m2 on s3,s4.

    Labels are (0, 0, 1, 1), so per-model accuracy is 0.75 and 0.5 and the
    fused values are small enough to check by hand.
    """
    ids = ("s1", "s2", "s3", "s4")
    m1 = ScoreMatrix("m1", ids, np.array(
        [[0.8, 0.2], [0.7, 0.3], [0.4, 0.6], [0.9, 0.1]]))
    m2 = ScoreMatrix("m2", ids, np.array(
        [[0.3, 0.7], [0.2, 0.8], [0.1, 0.9], [0.2, 0.8]]))
    labels = LabelVector(ids, np.array([0, 0, 1, 1]))
    return align([m1, m2], labels)


def near_tie_dataset(seed=15, n_samples=1000) -> tuple[FusionDataset, list[np.ndarray]]:
    """Four models, three classes, and weight vectors under which every margin is near a tie.

    Under the first weight vector w each sample's fused margin, its rival's
    score minus its true class's, is a target drawn within about 3 delta of
    zero on a log scale down to delta / 1000, where delta is
    ``objective._screen_width`` for scores up to 1 (no smaller than the
    dataset's own). The other vectors move w by at most 3e-7, about a
    delta's worth of margin, so their margins stay within a few delta. Each sample's third class scores 0.1 at most
    under every model, so the margin is the one to its rival. Models 0-2
    are random; model 3 gets the score gap that puts the margin on target.
    """
    rng = np.random.default_rng(seed)
    n, rows = n_samples, np.arange(n_samples)
    y = rng.integers(0, 3, n)
    rival = (y + rng.integers(1, 3, n)) % 3
    third = 3 - y - rival
    weights = exact_simplex(np.array([0.13, 0.21, 0.29, 0.37]))
    stack = np.empty((4, n, 3))
    stack[:, rows, third] = rng.uniform(0.02, 0.1, (4, n))
    share = rng.uniform(0.2, 0.8, (3, n))
    stack[:3, rows, y] = (1.0 - stack[:3, rows, third]) * share
    stack[:3, rows, rival] = (1.0 - stack[:3, rows, third]) * (1.0 - share)
    delta = float(_screen_width(np.ones((4, 1, 1))))
    target = delta * rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 0.5, n)
    gap = (target - weights[:3] @ (stack[:3, rows, rival] - stack[:3, rows, y])) / weights[3]
    stack[3, rows, rival] = (1.0 - stack[3, rows, third] + gap) / 2.0
    stack[3, rows, y] = (1.0 - stack[3, rows, third] - gap) / 2.0
    ids = tuple(f"s{i:04d}" for i in range(n))
    dataset = align([ScoreMatrix(f"m{m}", ids, stack[m]) for m in range(4)], LabelVector(ids, y))
    moves = [weights + eps * np.array([1.0, -1.0, 1.0, -1.0]) for eps in (1e-7, -2e-7, 3e-7)]
    return dataset, [weights, *moves]
