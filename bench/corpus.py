"""Seeded score corpora for the benchmark, written without fusionopt.

The generator extends the bundled corpus's tiered-quality idea to M models
and K classes: model m puts a clipped Gaussian probability around its tier
quality on the true class and spreads the rest of the row over the other
classes with a flat Dirichlet draw. Rows are written with ``repr`` floats
exactly as generated, so many of them sum to 1 only within rounding, as
real classifier exports do. Each model file lists its samples in its own
shuffled order, so alignment has real work to do.

The same (seed, shape) always gives byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Share of the samples listed as the validation split; the rest is test.
VALIDATION_SHARE = 2 / 3


@dataclass(frozen=True)
class Corpus:
    """What the checks need to recompute results independently."""

    sample_ids: tuple[str, ...]
    labels: np.ndarray           # (N,) int, in sample_ids order
    scores: np.ndarray           # (M, N, K), rows in sample_ids order
    validation_ids: tuple[str, ...]
    files: dict                  # role -> Path

    @property
    def shape(self) -> tuple[int, int, int]:
        m, n, k = self.scores.shape
        return n, m, k


def tiers(n_models: int) -> list[tuple[float, float]]:
    """(mean, sd) of the true-class probability, strongest model first."""
    means = np.linspace(0.55, 0.40, n_models)
    sds = np.linspace(0.22, 0.30, n_models)
    return [(float(mu), float(sd)) for mu, sd in zip(means, sds)]


def build(seed: int, n_samples: int, n_models: int, n_classes: int):
    """Labels, score tables, validation ids and per-model row orders."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n_samples) % n_classes).astype(np.int64)
    rows = np.arange(n_samples)
    scores = np.empty((n_models, n_samples, n_classes))
    for m, (mu, sd) in enumerate(tiers(n_models)):
        p_true = np.clip(rng.normal(mu, sd, n_samples), 0.02, 0.98)
        rest = rng.dirichlet(np.ones(n_classes - 1), n_samples) * (1.0 - p_true)[:, None]
        others = (labels[:, None] + 1 + np.arange(n_classes - 1)) % n_classes
        scores[m, rows, labels] = p_true
        scores[m, rows[:, None], others] = rest
    n_val = int(round(n_samples * VALIDATION_SHARE))
    validation = np.sort(rng.permutation(n_samples)[:n_val])
    orders = [rng.permutation(n_samples) for _ in range(n_models)]
    return labels, scores, validation, orders


def _write_lines(path: Path, header: str, lines) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_corpus(out: Path, seed: int, n_samples: int, n_models: int,
                 n_classes: int, search: dict | None = None) -> Corpus:
    """Write score/label CSVs, a validation id list and a manifest to ``out``.

    ``search`` overrides manifest keys such as ``method`` and ``params``.
    """
    out.mkdir(parents=True, exist_ok=True)
    labels, scores, validation, orders = build(seed, n_samples, n_models, n_classes)
    ids = tuple(f"s{i:06d}" for i in range(n_samples))
    header = "sample_id," + ",".join(f"class_{k}" for k in range(n_classes))
    files = {}
    for m in range(n_models):
        path = out / f"model_{m}.csv"
        table = scores[m].tolist()
        _write_lines(path, header, (
            ids[i] + "," + ",".join(map(repr, table[i])) for i in orders[m].tolist()
        ))
        files[f"model_{m}"] = path
    files["labels"] = out / "labels.csv"
    _write_lines(files["labels"], "sample_id,label",
                 (f"{sid},{y}" for sid, y in zip(ids, labels.tolist())))
    validation_ids = tuple(ids[i] for i in validation.tolist())
    files["validation_ids"] = out / "validation_ids.txt"
    files["validation_ids"].write_text("".join(s + "\n" for s in validation_ids),
                                       encoding="utf-8")
    files["manifest"] = out / "manifest.json"
    manifest = {
        "models": [{"id": f"model_{m}", "scores_path": f"model_{m}.csv"}
                   for m in range(n_models)],
        "labels_path": "labels.csv",
        "validation_ids_path": "validation_ids.txt",
        "method": "bf",
        "params": {},
        "seed": seed,
        "grid_step": 0.05,
        "objective": "fused_accuracy",
        "output": "comparison.csv",
        **(search or {}),
    }
    files["manifest"].write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return Corpus(ids, labels, scores, validation_ids, files)


def file_sizes(corpus: Corpus) -> dict:
    return {role: path.stat().st_size for role, path in sorted(corpus.files.items())}
