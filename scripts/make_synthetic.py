"""Regenerate the bundled synthetic score corpus under data/synthetic/.

Three binary classifiers of deliberately heterogeneous quality (one strong,
one mediocre, one weak) score the same samples; a fixed validation/test
split and an experiment manifest round out the corpus. Fully seeded, so
reruns reproduce the committed files byte for byte.

Usage:  python scripts/make_synthetic.py [--out data/synthetic]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from fusionopt.scoreio import LabelVector, ScoreMatrix, write_labels, write_scores

TIERS = (
    ("model_strong", 0.82, 0.22),
    ("model_mid", 0.68, 0.26),
    ("model_weak", 0.56, 0.32),
)
SEED = 7
SAMPLES = 240
VALIDATION = 160  # size of the validation split


def build_matrices(rng: np.random.Generator, labels: np.ndarray, sample_ids):
    """Score tables whose true-class probability is tier-quality plus noise."""
    n = labels.size
    matrices = []
    for model_id, mu, sigma in TIERS:
        p_true = np.clip(rng.normal(mu, sigma, n), 0.02, 0.98)
        rows = np.empty((n, 2))
        rows[np.arange(n), labels] = p_true
        rows[np.arange(n), 1 - labels] = 1.0 - p_true
        matrices.append(ScoreMatrix(model_id, sample_ids, rows))
    return matrices


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data/synthetic", type=Path)
    args = parser.parse_args()

    rng = np.random.default_rng(SEED)
    n = SAMPLES
    labels = rng.permutation((np.arange(n) % 2).astype(np.int64))
    sample_ids = tuple(f"s{i:04d}" for i in range(n))
    matrices = build_matrices(rng, labels, sample_ids)
    validation_ids = sorted(rng.permutation(n)[:VALIDATION].tolist())

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    for matrix in matrices:
        write_scores(matrix, out / f"{matrix.model_id}.csv")
    write_labels(LabelVector(sample_ids, labels), out / "labels.csv")
    (out / "validation_ids.txt").write_text(
        "\n".join(sample_ids[i] for i in validation_ids) + "\n", encoding="utf-8"
    )
    manifest = {
        "models": [
            {"id": model_id, "scores_path": f"{model_id}.csv"}
            for model_id, _, _ in TIERS
        ],
        "labels_path": "labels.csv",
        "validation_ids_path": "validation_ids.txt",
        "method": "bf",
        "params": {},
        "seed": 42,
        "grid_step": 0.05,
        "objective": "fused_accuracy",
        "output": "comparison.csv",
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {n} samples ({VALIDATION} validation) to {out}/")


if __name__ == "__main__":
    main()
