"""Check that this working tree's program writes byte for byte what another commit's writes.

Both sides run the same cases in turn in the same scratch folder, so any
path an output names matches too: first the given commit's ``src/``, from
a ``git archive`` checkout, then this tree's ``src/``. The cases:

- ``compare`` on a copy of ``data/synthetic``, ``optimize --method M
  --seed 42`` there for every method, and ``evaluate`` of its score files;
- ``compare`` on the ``large-compare`` benchmark corpus of each seed;
- ``fuse`` of the ``fuse-roundtrip`` benchmark corpus of each seed under the
  benchmark's weights, then ``evaluate`` of the fused file;
- ``pso`` and ``ga`` cut off by the evaluation budget: 40 initial rows
  under budgets 25, 40 and 41, and 10**7 under budget 100, printing each
  result JSON and any log records;
- ``compare`` on a copy of ``data/synthetic`` whose manifest gives ``pso`` a
  swarm one larger than the default budget, so the command warns that the
  budget cut ``pso`` off.

Every file a case writes must match, and so must its stdout and stderr.

Usage, from the repository root:

    python3 scripts/same_outputs.py --parent HEAD~1 [--seeds 1,5,11]

Exits 0 when every output matches; otherwise names each differing file and
exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import checkout, parse_seeds

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import corpus  # noqa: E402  (bench/corpus.py writes corpora without fusionopt)
from run import FUSE_WEIGHTS, WORKLOADS  # noqa: E402

METHODS = ("equal", "bf", "pso", "ga", "powell", "nelder-mead")
BUDGET_CASES = """
import logging, sys
from fusionopt.objective import make_objective
from fusionopt.optimizers import OptimizerConfig, optimize, result_to_json
from fusionopt.scoreio import load_manifest, load_manifest_splits
logging.basicConfig(stream=sys.stdout, format="%(levelname)s %(name)s: %(message)s")
validation, _ = load_manifest_splits(load_manifest("synthetic/manifest.json"))
objective = make_objective(validation)
for method, param in (("pso", "swarm_size"), ("ga", "population_size")):
    for rows, budget in ((40, 25), (40, 40), (40, 41), (10 ** 7, 100)):
        print(f"{method}: {rows} rows, budget {budget}", flush=True)
        config = OptimizerConfig(method=method, seed=42, max_evaluations=budget,
                                 params={param: rows})
        print(result_to_json(optimize(objective, validation.num_models, config)), flush=True)
"""


def cases(seeds: list[int]) -> dict[str, list[str]]:
    """Case name -> the arguments after ``python``, run in the scratch folder."""
    cli = ["-m", "fusionopt"]
    found = {"compare": [*cli, "compare", "--manifest", "synthetic/manifest.json",
                         "--out", "synthetic/comparison.csv"]}
    for method in METHODS:
        found[f"optimize-{method}"] = [
            *cli, "optimize", "--manifest", "synthetic/manifest.json", "--method", method,
            "--seed", "42", "--out", f"synthetic/optimize-{method}.csv"]
    found["evaluate"] = [*cli, "evaluate", *(f"--scores=synthetic/model_{name}.csv"
                                             for name in ("strong", "mid", "weak")),
                         "--labels", "synthetic/labels.csv", "--out", "synthetic/evaluate.csv"]
    _, (_, n_models, _), _ = WORKLOADS["fuse-roundtrip"]
    for seed in seeds:
        found[f"large-compare-{seed}"] = [*cli, "compare", "--manifest",
                                          f"large-{seed}/manifest.json"]
        fuse = f"fuse-{seed}"
        labels = ["--labels", f"{fuse}/labels.csv"]
        found[fuse] = [*cli, "fuse", *(f"--scores={fuse}/model_{m}.csv"
                                       for m in range(n_models)),
                       *labels, "--weights", FUSE_WEIGHTS, "--out", f"{fuse}/fused.csv"]
        found[f"evaluate-{fuse}"] = [*cli, "evaluate", "--scores", f"{fuse}/fused.csv", *labels,
                                     "--out", f"{fuse}/evaluate.csv"]
    found["budget"] = ["-c", BUDGET_CASES]
    found["budget-compare"] = [*cli, "compare", "--manifest", "budget/manifest.json",
                               "--out", "budget/comparison.csv"]
    return found


def write_budget_corpus(into: Path) -> None:
    """A copy of ``data/synthetic`` at ``into`` whose manifest runs ``pso`` past the budget."""
    shutil.copytree(ROOT / "data" / "synthetic", into)
    manifest = json.loads((into / "manifest.json").read_text(encoding="utf-8"))
    # A swarm one larger than the default budget of 100,000 evaluations.
    manifest.update(method="pso", params={"swarm_size": 100_001, "iterations": 1})
    (into / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def run_side(src: Path, inputs: Path, into: Path, seeds: list[int]) -> None:
    """Run every case on a fresh copy of ``inputs`` with ``src`` importable; keep it at ``into``."""
    run = inputs.parent / "run"
    shutil.copytree(inputs, run)
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, args in cases(seeds).items():
        proc = subprocess.run([sys.executable, *args], cwd=run, env=env, capture_output=True)
        (run / f"{name}.stdout").write_bytes(proc.stdout)
        (run / f"{name}.stderr").write_bytes(proc.stderr + f"exit {proc.returncode}\n".encode())
    run.rename(into)


def differences(a: Path, b: Path) -> list[str]:
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files if not ((a / f).is_file() and (b / f).is_file()
                                                and (a / f).read_bytes() == (b / f).read_bytes()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--seeds", default="1,5,11", help="large-compare corpus seeds")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    _, shape, search = WORKLOADS["large-compare"]
    _, fuse_shape, _ = WORKLOADS["fuse-roundtrip"]
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        inputs = work / "inputs"
        shutil.copytree(ROOT / "data" / "synthetic", inputs / "synthetic")
        write_budget_corpus(inputs / "budget")
        for seed in seeds:
            corpus.write_corpus(inputs / f"large-{seed}", seed, *shape, search=search)
            corpus.write_corpus(inputs / f"fuse-{seed}", seed, *fuse_shape)
        checkout(args.parent, work / "parent")
        run_side(work / "parent" / "src", inputs, work / "before", seeds)
        run_side(ROOT / "src", inputs, work / "after", seeds)
        differ = differences(work / "before", work / "after")
        outputs = [p for p in (work / "after").rglob("*")
                   if p.is_file() and not (inputs / p.relative_to(work / "after")).exists()]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(outputs)} outputs written; {len(differ)} files differ from {args.parent}'s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
