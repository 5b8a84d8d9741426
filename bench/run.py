"""fusionopt benchmark: end-to-end metrics, or per-layer metrics from a trace.

Usage (from the repository root):

    python3 bench/run.py --workload {large-compare,fuse-roundtrip}
                         --seed N --seconds S --trace {0,1}

``--trace 0`` repeats the workload's CLI command sequence through
``fusionopt.cli.main`` for S seconds in a fresh process, timing a
fresh-process set-up ``SETUP_REPEATS`` times along the way, and reports
the end-to-end metrics. ``--trace 1`` instead alternates a traced pass (the
same public calls, each wrapped in a span) with an untraced one and reports
the per-layer metrics. Every output is checked against a recomputation in
plain numpy (``checks.py``). The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment. See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import child
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# name -> (kind, corpus shape (N, M, K), manifest overrides)
WORKLOADS = {
    # GA runs a fixed 30 generations so the amount of search work does not
    # depend on how early the seed's data lets it stall.
    "large-compare": ("compare", (12_000, 4, 3),
                      {"method": "ga", "params": {"generations": 30, "stall_window": 30}}),
    "fuse-roundtrip": ("fuse", (30_000, 4, 3), None),
}
FUSE_WEIGHTS = "4,3,2,1"
# The host's speed drifts over stretches of seconds, so set-up is timed
# this many times, spread over the run, and reported as the median.
SETUP_REPEATS = 11
# Every child process is stopped this long after start, so a run ends
# within 180 s even if the program hangs.
RUN_LIMIT_S = 170

END_TO_END = {
    "total_s": "s", "total_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MiB", "val_error_mean": "fraction",
}
METHODS = checks.METHODS
PER_LAYER = {
    "scoreio.load_scores_s": "s", "scoreio.load_labels_s": "s",
    "scoreio.align_s": "s", "scoreio.subset_s": "s",
    "scoreio.rows_parsed": "count", "scoreio.bytes_read": "B",
    "scoreio.score_matrix_s": "s", "scoreio.write_scores_s": "s",
    "scoreio.bytes_written": "B", "scoreio.write_report_s": "s",
    "fusion.fuse_s": "s", "fusion.predict_s": "s",
    "objective.calls": "count", "objective.busy_s": "s", "objective.eval_us": "us",
    "objective.metrics_s": "s",
    **{f"optimizers.{m}.{field}": unit for m in METHODS for field, unit in (
        ("search_s", "s"), ("evals", "count"), ("self_s", "s"),
        ("distinct_ratio", "ratio"), ("zero_shortcuts", "count"))},
    "cli.traced_total_s": "s", "cli.self_s": "s", "cli.tracing_overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, spec: dict, work: Path, name: str, deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter and return what it wrote.

    The child is killed at ``deadline`` (a ``time.monotonic`` value).
    """
    spec_path, out_path = work / f"{name}.spec.json", work / f"{name}.out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(thread_cap())
    # A session of its own, so that a timeout also stops the set-up
    # interpreters the child starts.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, str(spec_path), str(out_path)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"child {mode} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def thread_cap() -> int:
    return len(os.sched_getaffinity(0))


def prepare(workload: str, seed: int, work: Path) -> tuple[dict, corpus.Corpus]:
    """Write the workload's inputs; returns the child spec and the corpus."""
    kind, shape, search = WORKLOADS[workload]
    data = corpus.write_corpus(work / "corpus", seed, *shape, search=search)
    return make_spec(kind, seed, work, data), data


def make_spec(kind: str, seed: int, work: Path, data: corpus.Corpus) -> dict:
    """What ``child.py`` needs to run a ``kind`` workload on ``data``."""
    spec = {"kind": kind, "seed": seed, "work": str(work)}
    if kind == "compare":
        spec["manifest"] = str(data.files["manifest"])
    else:
        spec["scores"] = [str(data.files[f"model_{m}"]) for m in range(data.scores.shape[0])]
        spec["labels"] = str(data.files["labels"])
        spec["weights"] = FUSE_WEIGHTS
    return spec


def split(data: corpus.Corpus):
    """(scores, labels) for the validation and test splits, as the manifest cuts them."""
    position = {sid: i for i, sid in enumerate(data.sample_ids)}
    val = np.array([position[s] for s in data.validation_ids])
    test = np.setdiff1d(np.arange(len(data.sample_ids)), val)
    return ((data.scores[:, val], data.labels[val]),
            (data.scores[:, test], data.labels[test]))


class Checker:
    """Checks each command's output once per distinct content."""

    def __init__(self, data: corpus.Corpus, reference: dict | None, reference_csv: str | None):
        self.data = data
        self.reference = reference
        self.reference_csv = reference_csv
        self.validation, self.test = split(data) if reference is not None else (None, None)
        self.verdicts: dict[tuple[str, str], str | None] = {}
        self.rows: dict[str, list[dict]] = {}

    def verdict(self, kind: str, text: str) -> str | None:
        key = (kind, text)
        if key not in self.verdicts:
            try:
                self.rows[text] = self._check(kind, text)
                self.verdicts[key] = None
            except (checks.CheckFailed, ValueError, KeyError, IndexError) as exc:
                self.verdicts[key] = f"{type(exc).__name__}: {exc}"
        return self.verdicts[key]

    def _check(self, kind: str, text: str) -> list[dict]:
        if kind == "compare":
            if text != self.reference_csv:
                raise checks.CheckFailed("CSV differs from the traced run's CSV")
            return checks.check_compare(text, self.reference, self.validation, self.test)
        if kind == "fuse":
            checks.check_fused(text, self.data.sample_ids, self.data.scores,
                               [float(w) for w in FUSE_WEIGHTS.split(",")])
            return []
        w = np.array([float(x) for x in FUSE_WEIGHTS.split(",")])
        fused = checks.fused_scores(self.data.scores, w / w.sum())
        return [checks.check_evaluate(text, fused, self.data.labels)]


def output_of(argv: list[str]) -> tuple[str, Path]:
    return argv[0], Path(argv[argv.index("--out") + 1])


def check_commands(commands: list[dict], checker: Checker,
                   traced_in: Path | None = None) -> list[str]:
    """One message per failed command.

    A command fails on a nonzero exit, a broken invariant or, when
    ``traced_in`` holds traced passes, output that differs from the traced
    pass of the same iteration.
    """
    failures = []
    for command in commands:
        kind, out = output_of(command["argv"])
        if command["rc"] != 0 or not out.is_file():
            failures.append(f"{kind}: exit code {command['rc']}, output written: {out.is_file()}")
            continue
        problem = checker.verdict(kind, out.read_text(encoding="utf-8"))
        twin = traced_in / f"traced-{command['iteration']}" / out.name if traced_in else None
        if problem is None and twin and twin.read_bytes() != out.read_bytes():
            problem = f"differs from the traced pass's {out.name}"
        if problem:
            failures.append(f"{kind}: {problem}")
    return failures


def val_error_mean(commands: list[dict], checker: Checker) -> float:
    """Mean report objective over the methods; 1 - accuracy for a fused file.

    Read from the last report that passed its checks; 1.0, the worst
    error, if none did.
    """
    for command in reversed(commands):
        kind, out = output_of(command["argv"])
        rows = checker.rows.get(out.read_text(encoding="utf-8")) if out.is_file() else None
        if rows and kind == "compare":
            return statistics.fmean(float(r["objective"]) for r in rows)
        if rows:
            return 1.0 - float(rows[0]["accuracy"])
    return 1.0


def end_to_end(args, work: Path, spec: dict, data: corpus.Corpus, env: dict,
               deadline: float) -> tuple[dict, int, list[str]]:
    reference, reference_csv = None, None
    if spec["kind"] == "compare":
        ref = run_child("loop", dict(spec, traced=True, untraced=False, seconds=0),
                        work, "reference", deadline)
        reference = ref["results"]
        reference_csv = (work / "traced-0" / "compare.csv").read_text(encoding="utf-8")
    timed = run_child("loop", dict(spec, traced=False, untraced=True, seconds=args.seconds,
                                   setups=SETUP_REPEATS), work, "timed", deadline)
    checker = Checker(data, reference, reference_csv)
    failures = check_commands(timed["commands"], checker)
    totals, setups = timed["untraced_s"], timed["setup_s"]
    env.update(total_samples=len(totals), setup_samples=len(setups))
    metrics = {
        # The upper quartile, not the median: the host's speed drifts, and
        # its slow spells, which the upper quartile reads, are the steadier.
        "total_s": statistics.quantiles(totals, n=4, method="inclusive")[2],
        "total_tail_s": statistics.quantiles(totals, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_kib"] / 1024,
        "val_error_mean": val_error_mean(timed["commands"], checker),
    }
    return metrics, len(timed["commands"]), failures


def per_layer(args, work: Path, spec: dict, data: corpus.Corpus, env: dict,
              deadline: float) -> tuple[dict, int, list[str]]:
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    spans_path = results / f"{args.workload}-seed{args.seed}.spans.jsonl"
    out = run_child("loop", dict(spec, traced=True, untraced=True, seconds=args.seconds,
                                 spans=str(spans_path)), work, "traced", deadline)
    reference_csv = None
    if spec["kind"] == "compare":
        reference_csv = (work / "traced-0" / "compare.csv").read_text(encoding="utf-8")
    checker = Checker(data, out["results"] or None, reference_csv)
    failures = check_commands(out["commands"], checker, traced_in=work)
    spans = [json.loads(line) for line in spans_path.read_text(encoding="utf-8").splitlines()]
    metrics = layer_metrics(spans, out["untraced_s"])
    env.update(traced_passes=out["iterations"], spans=len(spans),
               spans_file=str(spans_path.relative_to(ROOT)))
    return metrics, len(out["commands"]), failures


def layer_metrics(spans: list[dict], untraced_s: list[float]) -> dict:
    """Per-layer metrics of each traced pass, then the median over passes."""
    passes: dict[int, list[dict]] = {}
    for span in spans:
        passes.setdefault(span["run"], []).append(span)
    per_pass = [pass_metrics(p) for _, p in sorted(passes.items())]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in PER_LAYER if name != "cli.tracing_overhead_s"}
    metrics["cli.tracing_overhead_s"] = (
        metrics["cli.traced_total_s"] - statistics.median(untraced_s))
    return metrics


def pass_metrics(spans: list[dict]) -> dict:
    """Counts and times of one traced pass.

    Self time is a span minus its children; a search's self time also
    leaves out the time its objective wrapper spent recording spans.
    """
    child_s: dict[int, float] = {}
    child_n: dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] = child_s.get(span["parent"], 0.0) + span["end"] - span["start"]
            child_n[span["parent"]] = child_n.get(span["parent"], 0) + 1

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in named(name))

    calls = [s["end"] - s["start"] for s in named("objective.call")]
    top = [s for s in spans if s["parent"] is None]
    m = {
        "scoreio.load_scores_s": busy("scoreio.load_scores"),
        "scoreio.load_labels_s": busy("scoreio.load_labels"),
        "scoreio.align_s": busy("scoreio.align"),
        "scoreio.subset_s": busy("scoreio.subset"),
        "scoreio.rows_parsed": sum(s["attrs"].get("rows", 0) for s in spans),
        "scoreio.bytes_read": sum(s["attrs"].get("bytes", 0) for s in spans),
        "scoreio.score_matrix_s": busy("scoreio.score_matrix"),
        "scoreio.write_scores_s": busy("scoreio.write_scores"),
        "scoreio.bytes_written": sum(s["attrs"].get("written", 0) for s in spans),
        "scoreio.write_report_s": busy("scoreio.write_report"),
        "fusion.fuse_s": busy("fusion.fuse"),
        "fusion.predict_s": busy("fusion.predict"),
        "objective.calls": len(calls),
        "objective.busy_s": sum(calls),
        "objective.eval_us": statistics.median(calls) * 1e6 if calls else 0.0,
        "objective.metrics_s": busy("objective.metrics"),
        "cli.traced_total_s": sum(s["end"] - s["start"] for s in top),
        "cli.self_s": sum(s["end"] - s["start"] - child_s.get(s["id"], 0.0) for s in top),
    }
    for method in METHODS:
        search = named(f"optimizers.{method}.search")
        duration = sum(s["end"] - s["start"] for s in search)
        evals = sum(s["attrs"]["evals"] for s in search)
        n_calls = sum(child_n.get(s["id"], 0) for s in search)
        distinct = sum(s["attrs"]["distinct"] for s in search)
        m.update({
            f"optimizers.{method}.search_s": duration,
            f"optimizers.{method}.evals": evals,
            f"optimizers.{method}.self_s": duration - sum(
                child_s.get(s["id"], 0.0) + s["attrs"]["tracing_s"] for s in search),
            f"optimizers.{method}.distinct_ratio": distinct / n_calls if n_calls else 0.0,
            f"optimizers.{method}.zero_shortcuts": evals - n_calls,
        })
    return m


def environment(args, data: corpus.Corpus, spec: dict) -> dict:
    n, m, k = data.shape
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "thread_cap": thread_cap(),
        "python": platform.python_version(), "numpy": np.__version__,
        "corpus": {"samples": n, "models": m, "classes": k,
                   "validation": len(data.validation_ids)},
        "input_bytes": corpus.file_sizes(data),
        "commands": [argv[0] for argv in child.untraced_commands(spec, "cli-0")],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fusionopt" / "__init__.py").is_file():
        print(f"error: no fusionopt source tree at {ROOT}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        spec, data = prepare(args.workload, args.seed, work)
        env = environment(args, data, spec)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failures = measure(args, work, spec, data, env, deadline)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    env["failed_frac"] = len(failures) / attempted
    for problem in failures[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
