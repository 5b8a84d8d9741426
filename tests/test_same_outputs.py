"""``scripts/same_outputs.py`` names every output that is not byte-identical on both sides."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
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


def test_budget_cases_print_each_stop_reason(tmp_path, monkeypatch):
    same_outputs = _script(monkeypatch)
    shutil.copytree(ROOT / "data" / "synthetic", tmp_path / "synthetic")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", same_outputs.BUDGET_CASES], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    # Every case runs past its budget: 40 rows then a first step, or 10**7 rows.
    assert proc.stdout.count("}\n budget_exhausted\n") == 8


def test_each_prep_case_reads_the_written_samples(tmp_path, monkeypatch):
    from fusionopt.textprep import read_samples

    same_outputs = _script(monkeypatch)
    same_outputs.write_prep_samples(tmp_path)
    samples = read_samples(tmp_path / same_outputs.PREP_INPUT)
    assert {s.language for s in samples} == {"it", "en"}
    assert len({s.label for s in samples}) == 2  # unequal counts, so balance adds samples
    found = same_outputs.cases([1])
    prep = {name: args for name, args in found.items() if "prep" in args}
    assert list(prep) == ["prep-clean", "prep-balance", "prep-augment"]
    outputs = set()
    for args in prep.values():
        command = args[args.index("prep") + 1]
        assert args[args.index(command) + 1] == same_outputs.PREP_INPUT
        outputs.add(args[args.index("--out") + 1])
    assert len(outputs) == 3
