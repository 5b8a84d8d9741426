"""``scripts/same_outputs.py`` names every output that is not byte-identical on both sides."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    return same_outputs


def test_each_seed_fuses_its_corpus_before_evaluating_the_fused_file(monkeypatch):
    found = _script(monkeypatch).cases([1])
    names = list(found)
    assert "evaluate" in names
    assert names.index("fuse-1") < names.index("evaluate-fuse-1")
    fused = found["fuse-1"][found["fuse-1"].index("--out") + 1]
    assert found["evaluate-fuse-1"][found["evaluate-fuse-1"].index("--scores") + 1] == fused


def test_differences_names_changed_missing_and_extra_files(tmp_path, monkeypatch):
    same_outputs = _script(monkeypatch)
    sides = {"before": {"same": b"x", "changed": b"1", "only-before": b""},
             "after": {"same": b"x", "changed": b"2", "sub/only-after": b""}}
    for side, files in sides.items():
        for name, data in files.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_bytes(data)
    assert same_outputs.differences(tmp_path / "before", tmp_path / "after") == [
        "changed", "only-before", "sub/only-after"]
    assert same_outputs.differences(tmp_path / "before", tmp_path / "before") == []


def test_the_budget_corpus_runs_pso_past_the_default_budget(tmp_path, monkeypatch):
    from fusionopt.optimizers import DEFAULT_MAX_EVALUATIONS

    same_outputs = _script(monkeypatch)
    same_outputs.write_budget_corpus(tmp_path / "budget")
    manifest = json.loads((tmp_path / "budget" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["method"] == "pso"
    assert manifest["params"]["swarm_size"] > DEFAULT_MAX_EVALUATIONS
    case = same_outputs.cases([1])["budget-compare"]
    assert case[case.index("--manifest") + 1] == "budget/manifest.json"
