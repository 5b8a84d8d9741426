"""Byte-level pins on the bundled corpus's deterministic outputs.

The files under ``tests/golden/`` were written by ``fusionopt compare`` and
``fusionopt optimize --method <m> --seed 42`` on ``data/synthetic``; the
result JSON ``compare`` writes per method must equal ``optimize``'s. Any
change to the fusion arithmetic, the tie rule, a search method or the
report/JSON formatting shows up here as a byte difference.
"""

from pathlib import Path

import pytest

from fusionopt.cli import COMPARISON_ORDER, main

REPO_ROOT = Path(__file__).resolve().parents[1]
BUNDLED_MANIFEST = REPO_ROOT / "data" / "synthetic" / "manifest.json"
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
