"""The measured process: set-up timing, the untraced CLI loop, traced passes.

Usage:  python bench/child.py {setup|loop} SPEC.json OUT.json

The harness (``run.py``) starts this file in a fresh interpreter with the
repository's ``src`` on ``PYTHONPATH`` and reads ``OUT.json`` afterwards.
Only the standard library is imported at module level, so ``setup`` can
time ``import fusionopt`` itself.

``loop`` repeats one iteration for ``seconds``: it runs at least one, and
starts another only while one more of the last one's length still fits.
It can also time ``setup`` in fresh interpreters between its iterations.
An iteration is a traced pass, an untraced pass through
``fusionopt.cli.main``, or both, as the spec asks. A traced pass calls the
package's public functions in the order the CLI command does and records a
span around each call; the spans stay in memory until the loop ends.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans (id, parent, name, start, end, run id, attrs) kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.run_id, attrs))

    def record(self, name: str, start: float, end: float) -> None:
        """A span that has already ended, as a child of the open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._next_id, parent, name, start, end, self.run_id, {}))
        self._next_id += 1

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start", "end", "run", "attrs")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _counted(tracer: Tracer, objective, seen: set, cost: list):
    """The objective with a span per call.

    ``seen`` collects the distinct raw candidates. ``cost[0]`` adds up the
    time spent recording the span and the candidate, so that the harness
    can take it out of the search's self time.
    """
    def call(raw):
        start = time.perf_counter()
        value = objective(raw)
        end = time.perf_counter()
        tracer.record("objective.call", start, end)
        seen.add(tuple(raw.tolist()))
        cost[0] += time.perf_counter() - end
        return value
    return call


def _load_scores(t: Tracer, path, **kwargs):
    from fusionopt.scoreio import load_scores
    with t.span("scoreio.load_scores", bytes=Path(path).stat().st_size) as attrs:
        matrix = load_scores(path, **kwargs)
        attrs["rows"] = matrix.num_samples
    return matrix


def _load_labels(t: Tracer, path):
    from fusionopt.scoreio import load_labels
    with t.span("scoreio.load_labels", bytes=Path(path).stat().st_size) as attrs:
        labels = load_labels(path)
        attrs["rows"] = len(labels)
    return labels


def _write(t: Tracer, name: str, fn, payload, out: Path) -> None:
    with t.span(name) as attrs:
        fn(payload, out)
        attrs["written"] = out.stat().st_size


def traced_compare(t: Tracer, manifest_path: str, seed: int, out: Path) -> dict:
    """``cmd_compare`` and the ``load_manifest_splits`` it calls, span by span."""
    from fusionopt.cli import COMPARISON_ORDER
    from fusionopt.fusion import fuse, predict
    from fusionopt.objective import confusion, make_objective, metrics
    from fusionopt.optimizers import OptimizerConfig, optimize
    from fusionopt.scoreio import (
        ReportRow, align, load_manifest, read_id_list, subset, write_report,
    )

    results = {}
    with t.span("cli.compare"):
        with t.span("scoreio.load_manifest", bytes=Path(manifest_path).stat().st_size):
            manifest = load_manifest(manifest_path)
        matrices = [_load_scores(t, path, model_id=mid) for mid, path in manifest.models]
        labels = _load_labels(t, manifest.labels_path)
        full = t.call("scoreio.align", align, matrices, labels, split="validation")
        if manifest.validation_ids_path is None:
            validation = full
            test = t.call("scoreio.subset", subset, full, full.sample_ids, "test")
        else:
            id_path = manifest.validation_ids_path
            with t.span("scoreio.read_id_list", bytes=id_path.stat().st_size):
                val_ids = read_id_list(id_path)
            validation = t.call("scoreio.subset", subset, full, val_ids, "validation")
            val_set = set(val_ids)
            rest = tuple(s for s in full.sample_ids if s not in val_set)
            test = t.call("scoreio.subset", subset, full, rest if rest else val_ids, "test")
        rows = []
        for method in COMPARISON_ORDER:
            params = manifest.params if method == manifest.method else {}
            config = OptimizerConfig(
                method=method, seed=seed, grid_step=manifest.grid_step, params=params
            )
            seen: set = set()
            cost = [0.0]
            objective = _counted(t, make_objective(validation, manifest.objective), seen, cost)
            with t.span(f"optimizers.{method}.search") as attrs:
                result = optimize(objective, validation.num_models, config)
                attrs.update(evals=result.evaluations, distinct=len(seen), tracing_s=cost[0])
            fused = t.call("fusion.fuse", fuse, test, result.best_weights)
            predictions = t.call("fusion.predict", predict, fused)
            with t.span("objective.metrics"):
                report = metrics(confusion(predictions, test.labels))
            rows.append(ReportRow.from_metrics(
                method, report, objective=result.best_error,
                weights=result.best_weights.values,
            ))
            results[method] = {
                "weights": [float(w) for w in result.best_weights.values],
                "error": float(result.best_error),
                "evaluations": int(result.evaluations),
            }
        _write(t, "scoreio.write_report", write_report, rows, out)
    return results


def traced_fuse(t: Tracer, scores: list, labels_path: str, raw_weights: str,
                out: Path) -> None:
    """``cmd_fuse``, span by span."""
    import numpy as np
    from fusionopt.fusion import WeightVector, fuse, normalize
    from fusionopt.scoreio import ScoreMatrix, align, write_scores

    with t.span("cli.fuse"):
        labels = _load_labels(t, labels_path)
        matrices = [_load_scores(t, path) for path in scores]
        dataset = t.call("scoreio.align", align, matrices, labels)
        weights = normalize(WeightVector(np.array([float(w) for w in raw_weights.split(",")])))
        fused = t.call("fusion.fuse", fuse, dataset, weights)
        matrix = t.call("scoreio.score_matrix", ScoreMatrix,
                        "fused", fused.sample_ids, fused.fused)
        _write(t, "scoreio.write_scores", write_scores, matrix, out)


def traced_evaluate(t: Tracer, scores: list, labels_path: str, out: Path) -> None:
    """``cmd_evaluate``, span by span."""
    from fusionopt.fusion import equal_weights, fuse, predict
    from fusionopt.objective import confusion, metrics
    from fusionopt.scoreio import ReportRow, align, write_report

    with t.span("cli.evaluate"):
        labels = _load_labels(t, labels_path)
        rows = []
        for path in scores:
            matrix = _load_scores(t, path)
            dataset = t.call("scoreio.align", align, [matrix], labels)
            fused = t.call("fusion.fuse", fuse, dataset, equal_weights(1))
            predictions = t.call("fusion.predict", predict, fused)
            with t.span("objective.metrics"):
                report = metrics(confusion(predictions, dataset.labels))
            rows.append(ReportRow.from_metrics(matrix.model_id, report))
        _write(t, "scoreio.write_report", write_report, rows, out)


def _traced_pass(t: Tracer, spec: dict, tag: str) -> dict:
    """One traced pass of the workload; returns the compare results, if any."""
    out = Path(spec["work"]) / tag
    out.mkdir(exist_ok=True)
    if spec["kind"] == "compare":
        return traced_compare(t, spec["manifest"], spec["seed"], out / "compare.csv")
    traced_fuse(t, spec["scores"], spec["labels"], spec["weights"], out / "fused.csv")
    traced_evaluate(t, [str(out / "fused.csv")], spec["labels"], out / "evaluate.csv")
    return {}


def untraced_commands(spec: dict, tag: str) -> list[list[str]]:
    """The workload's CLI command sequence, writing its outputs under ``tag``.

    Output names match the traced pass's, because ``evaluate`` reports a
    score file under its file name.
    """
    out = Path(spec["work"]) / tag
    if spec["kind"] == "compare":
        return [["compare", "--manifest", spec["manifest"], "--seed", str(spec["seed"]),
                 "--out", str(out / "compare.csv")]]
    fused = str(out / "fused.csv")
    scores = [arg for path in spec["scores"] for arg in ("--scores", path)]
    return [
        ["fuse", *scores, "--labels", spec["labels"], "--weights", spec["weights"],
         "--out", fused],
        ["evaluate", "--scores", fused, "--labels", spec["labels"],
         "--out", str(out / "evaluate.csv")],
    ]


def setup(spec: dict) -> dict:
    """Fresh-process set-up: ``import fusionopt`` plus loading the inputs."""
    start = time.perf_counter()
    import fusionopt
    if spec["kind"] == "compare":
        fusionopt.load_manifest_splits(fusionopt.load_manifest(spec["manifest"]))
    else:
        matrices = [fusionopt.load_scores(path) for path in spec["scores"]]
        fusionopt.align(matrices, fusionopt.load_labels(spec["labels"]))
    return {"setup_s": time.perf_counter() - start}


def fresh_setup(spec: dict, k: int) -> float:
    """``setup`` timed in a new interpreter, while this process waits."""
    work = Path(spec["work"])
    spec_path, out_path = work / "setup.spec.json", work / f"setup-{k}.out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, __file__, "setup", str(spec_path), str(out_path)],
                   stdout=subprocess.DEVNULL, check=True)
    return json.loads(out_path.read_text(encoding="utf-8"))["setup_s"]


def loop(spec: dict) -> dict:
    """Iterations for ``seconds``, cut into one slice per set-up sample.

    With ``setups`` = S > 0, a fresh-process set-up is timed before each
    of S slices, so that set-up and iteration times are both sampled
    across the whole run. Slice k runs at least one iteration and ends
    once the iterations so far have used about (k + 1) / S of
    ``seconds``; set-up time is not counted.
    """
    from fusionopt.cli import main

    tracer = Tracer()
    traced_s, untraced_s, setup_s, commands, results = [], [], [], [], {}
    slices = max(spec.get("setups", 0), 1)
    i, last, spent = 0, 0.0, 0.0
    for k in range(slices):
        if spec.get("setups"):
            setup_s.append(fresh_setup(spec, k))
        due, first = spec["seconds"] * (k + 1) / slices, i
        while i == first or spent + last < due:
            began = time.perf_counter()
            if spec["traced"]:
                tracer.run_id = i
                start = time.perf_counter()
                results = _traced_pass(tracer, spec, f"traced-{i}")
                traced_s.append(time.perf_counter() - start)
            if spec["untraced"]:
                start = time.perf_counter()
                for argv in untraced_commands(spec, f"cli-{i}"):
                    commands.append({"iteration": i, "argv": argv, "rc": main(argv)})
                untraced_s.append(time.perf_counter() - start)
            last = time.perf_counter() - began
            spent += last
            i += 1
    if spec.get("spans"):
        tracer.write(Path(spec["spans"]))
    return {
        "iterations": i,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "setup_s": setup_s,
        "commands": commands,
        "results": results,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    mode, spec_path, out_path = sys.argv[1:4]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    outcome = setup(spec) if mode == "setup" else loop(spec)
    Path(out_path).write_text(json.dumps(outcome), encoding="utf-8")
