"""Run alternating parent/change pairs of the benchmark and record them as one JSON file.

Each run takes a fresh ``git archive`` checkout of its commit and runs
``bench/run.py`` there with ``--trace 0``; the checkout is deleted after the
run. Seeds are paired in order: the parent runs first for the 1st, 3rd, ...
seed and the change first for the others, and within a seed every workload
runs in the order given. The record is rewritten after every run, so a run
that is cut short keeps the pairs it finished.

The record has the layout of the committed ``BENCH_*.json`` files: what was
run, on which commits and in which order, a summary per workload (pairs,
failed runs per side, each side's q1, median and q3 of every end-to-end
metric, the number of pairs in which the change was lower, and whether the
claim rule holds), and every run with its environment and result line.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seeds 7001-7010 --slug myslug

Workloads, end-to-end metrics and the run length are those in the change's
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def checkout(commit: str, into: Path) -> None:
    """A fresh tree of ``commit`` at ``into``, from ``git archive``."""
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(commit: str, workload: str, seed: int, seconds: int, work: Path) -> dict:
    """One benchmark run in its own checkout: its command, exit code, environment and result."""
    tree = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work)) / "tree"
    command = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    try:
        checkout(commit, tree)
        proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    finally:
        shutil.rmtree(tree.parent, ignore_errors=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    record = {"command": " ".join(command), "exit_code": proc.returncode}
    if proc.returncode == 0 and len(lines) >= 2:
        record["environment"] = json.loads(lines[-2])
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def failed(run: dict) -> bool:
    return run["exit_code"] != 0 or not run.get("result", {}).get("correct", False)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], workloads: list[str], metrics: list[str]) -> dict:
    """Per workload: pairs, failed runs per side, and per metric each side's quartiles and wins.

    ``pairs`` counts every seed run on both sides, and ``failed`` the failed
    runs of those pairs per side. Quartiles are over the pairs whose two runs
    both succeeded. ``change_lower_in_pairs`` counts the pairs whose change
    value is strictly lower, so ties, and pairs with a failed run, count for
    neither side. ``gain_shown`` applies the claim rule for a
    lower-is-better metric: lower in at least nine tenths of all pairs, no
    more failed change runs than parent runs, and the parent's median above
    the change's by more than the parent's q3 - q1.
    """
    summary = {}
    for workload in workloads:
        mine = [run for run in runs if run["workload"] == workload]
        sides = {side: {run["seed"]: run for run in mine if run["side"] == side}
                 for side in ("parent", "change")}
        paired = sorted(sides["parent"].keys() & sides["change"].keys())
        fails = {side: sum(failed(by_seed[seed]) for seed in paired)
                 for side, by_seed in sides.items()}
        seeds = [seed for seed in paired
                 if not (failed(sides["parent"][seed]) or failed(sides["change"][seed]))]
        entry = {"pairs": len(paired), "failed": fails}
        for name in metrics if seeds else ():
            values = {side: [sides[side][s]["result"]["metrics"][name]["value"] for s in seeds]
                      for side in sides}
            entry[name] = {side: quartiles(values[side]) for side in sides}
            wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
            parent, change = entry[name]["parent"], entry[name]["change"]
            entry[name]["change_lower_in_pairs"] = wins
            entry[name]["gain_shown"] = (wins >= 0.9 * len(paired)
                                         and fails["change"] <= fails["parent"]
                                         and parent["median"] - change["median"]
                                         > parent["q3"] - parent["q1"])
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--change", required=True, help="commit of the change side")
    parser.add_argument("--seeds", required=True, help="e.g. 7001-7010 or 7001,7003")
    parser.add_argument("--slug", required=True, help="the record is BENCH_<slug>.json")
    parser.add_argument("--what", default="", help="what the change does, for the record")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    parent, change = (git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
                      for rev in (args.parent, args.change))
    config = json.loads(git("show", f"{change}:BENCHMARK.json"))
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    metrics = [metric["name"] for metric in config["end_to_end"]]
    seeds = parse_seeds(args.seeds)
    out = args.out_dir / f"BENCH_{args.slug}.json"
    record = {
        "what": args.what,
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds} --trace 0",
        "host": f"{os.cpu_count()}-core {platform.system()}, Python "
                f"{platform.python_version()}, wall-clock of the benchmark's own processes",
        "parent": parent,
        "change": change,
        "order": "odd pairs (1st, 3rd, ... seed) run the parent first, even pairs the change "
                 "first; each run uses its own fresh `git archive` checkout; within each seed "
                 f"the workloads run in the order {', '.join(workloads)}",
        "seeds": seeds,
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        for index, seed in enumerate(seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for position, side in enumerate(order, 1):
                    commit = parent if side == "parent" else change
                    run = run_once(commit, workload, seed, seconds, Path(work))
                    record["runs"].append({"workload": workload, "seed": seed, "side": side,
                                           "position_in_pair": position, "commit": commit,
                                           **run})
                    record["summary"] = summarize(record["runs"], workloads, metrics)
                    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
                    total = run.get("result", {}).get("metrics", {}).get("total_s", {})
                    print(f"{workload} seed {seed} {side}: exit {run['exit_code']}, "
                          f"total_s {total.get('value')}", file=sys.stderr, flush=True)
    print(json.dumps(record["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
