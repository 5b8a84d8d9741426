"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _corpus_bytes(out: Path, seed: int) -> dict:
    data = corpus.write_corpus(out, seed, 300, 3, 3)
    return {role: path.read_bytes() for role, path in data.files.items()}


def test_generator_is_byte_deterministic_per_seed(tmp_path):
    first = _corpus_bytes(tmp_path / "a", 5)
    assert first == _corpus_bytes(tmp_path / "b", 5)
    other = _corpus_bytes(tmp_path / "c", 6)
    assert all(first[role] != other[role] for role in first if role.startswith("model_"))


def test_generated_rows_lie_on_the_simplex(tmp_path):
    data = corpus.write_corpus(tmp_path, 1, 200, 4, 3)
    assert data.scores.shape == (4, 200, 3)
    assert np.all(data.scores >= 0.0)
    assert np.allclose(data.scores.sum(axis=2), 1.0, atol=1e-12)
    assert len(data.validation_ids) == 133


def test_metric_names_are_well_formed_and_match_the_manifest():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """One traced and one CLI compare on a small generated corpus."""
    work = tmp_path_factory.mktemp("compare")
    data = corpus.write_corpus(work / "corpus", 42, 300, 3, 3)
    spec = run.make_spec("compare", 42, work, data)
    outcome = child.loop(dict(spec, traced=True, untraced=True, seconds=0,
                              spans=str(work / "spans.jsonl")))
    return spec, data, outcome, work


def test_traced_compare_writes_the_cli_bytes(small):
    _, _, outcome, work = small
    assert [c["rc"] for c in outcome["commands"]] == [0]
    assert (work / "traced-0" / "compare.csv").read_bytes() == (work / "cli-0" / "compare.csv").read_bytes()


def _checker(small):
    _, data, outcome, work = small
    text = (work / "traced-0" / "compare.csv").read_text(encoding="utf-8")
    return run.Checker(data, outcome["results"], text), text


def test_checker_accepts_the_program_output(small):
    checker, text = _checker(small)
    assert checker.verdict("compare", text) is None


def _tampered(text: str, column: str, new_value: str) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    fields = lines[2].rstrip("\n").split(",")
    fields[header.index(column)] = new_value
    lines[2] = ",".join(fields) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("column,value", [
    ("weights", "0.500000;0.600000;0.100000"),
    ("objective", "0.300000"),
])
def test_check_compare_rejects_a_tampered_row(small, column, value):
    checker, text = _checker(small)
    bad = _tampered(text, column, value)
    with pytest.raises(checks.CheckFailed):
        checks.check_compare(bad, checker.reference, checker.validation, checker.test)
    assert checker.verdict("compare", bad) is not None


def test_check_fused_rejects_a_changed_value(tmp_path):
    data = corpus.write_corpus(tmp_path, 3, 50, 2, 3)
    w = np.array([2.0, 1.0])
    fused = checks.fused_scores(data.scores, w / w.sum())
    lines = ["sample_id,class_0,class_1,class_2"] + [
        sid + "," + ",".join(map(repr, row)) for sid, row in zip(data.sample_ids, fused.tolist())]
    checks.check_fused("\n".join(lines) + "\n", data.sample_ids, data.scores, w)
    lines[5] = lines[5].rsplit(",", 1)[0] + ",0.5"
    with pytest.raises(checks.CheckFailed):
        checks.check_fused("\n".join(lines) + "\n", data.sample_ids, data.scores, w)


def test_evaluation_counts_repeat_across_traced_runs(small, tmp_path):
    spec, _, first, work = small
    spans_path = tmp_path / "spans.jsonl"
    second = child.loop(dict(spec, work=str(tmp_path), traced=True, untraced=False,
                             seconds=0, spans=str(spans_path)))

    def evals(path, untraced_s):
        spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        metrics = run.layer_metrics(spans, untraced_s)
        return {m: metrics[f"optimizers.{m}.evals"] for m in checks.METHODS}

    counts = evals(work / "spans.jsonl", first["untraced_s"])
    assert counts == evals(spans_path, first["untraced_s"])
    assert counts["equal"] == 1 and counts["pso"] > 0
    assert first["results"] == second["results"]
