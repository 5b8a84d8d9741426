"""Byte-level pins on the bundled corpus's deterministic outputs.

The files under ``tests/golden/`` were written by ``fusionopt compare`` and
``fusionopt optimize --method <m> --seed 42`` on ``data/synthetic``; the
result JSON ``compare`` writes per method must equal ``optimize``'s.
``fuse.csv`` and ``evaluate.csv`` were written by ``fusionopt fuse`` with
weights ``3,2,1`` over the three bundled models and ``fusionopt evaluate``
on that fused CSV. Any change to the fusion arithmetic, the tie rule, a
search method, the score CSV writer or the report/JSON formatting shows up
here as a byte difference. ``scripts/make_synthetic.py`` must rewrite the
corpus itself byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionopt
from fusionopt.cli import COMPARISON_ORDER, main

REPO_ROOT = Path(__file__).resolve().parents[1]
BUNDLED = REPO_ROOT / "data" / "synthetic"
BUNDLED_MANIFEST = BUNDLED / "manifest.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_compare_outputs_are_byte_identical(tmp_path):
    out = tmp_path / "compare.csv"
    assert main(["compare", "--manifest", str(BUNDLED_MANIFEST), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "compare.csv").read_bytes()
    for method in COMPARISON_ORDER:
        written = (tmp_path / f"compare.{method}.json").read_bytes()
        assert written == (GOLDEN / f"optimize.{method}.json").read_bytes(), method


@pytest.mark.parametrize("method", COMPARISON_ORDER)
def test_optimize_json_is_byte_identical(tmp_path, method):
    out = tmp_path / f"optimize.{method}.csv"
    argv = ["optimize", "--manifest", str(BUNDLED_MANIFEST), "--method", method,
            "--seed", "42", "--out", str(out)]
    assert main(argv) == 0
    golden = (GOLDEN / f"optimize.{method}.json").read_bytes()
    assert out.with_suffix(".json").read_bytes() == golden


def test_fuse_then_evaluate_is_byte_identical(tmp_path):
    fused = tmp_path / "fuse.csv"
    argv = ["fuse", "--labels", str(BUNDLED / "labels.csv"), "--weights", "3,2,1",
            "--out", str(fused)]
    for model in ("model_strong", "model_mid", "model_weak"):
        argv += ["--scores", str(BUNDLED / f"{model}.csv")]
    assert main(argv) == 0
    assert fused.read_bytes() == (GOLDEN / "fuse.csv").read_bytes()
    report = tmp_path / "evaluate.csv"
    assert main(["evaluate", "--scores", str(fused), "--labels", str(BUNDLED / "labels.csv"),
                 "--out", str(report)]) == 0
    assert report.read_bytes() == (GOLDEN / "evaluate.csv").read_bytes()


def test_make_synthetic_regenerates_the_bundled_corpus(tmp_path):
    src = Path(fusionopt.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "make_synthetic.py"), "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stderr
    names = sorted(path.name for path in BUNDLED.iterdir())
    assert len(names) == 6
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (BUNDLED / name).read_bytes(), name
