"""Batch experiment runner.

Commands
--------
evaluate   per-model metrics for one or more score files
fuse       combine score files under explicit weights, write fused CSV
optimize   run one configured weight search from a manifest
compare    run the six-method comparison from a manifest; beside its report
           ``<out>.csv`` it writes each method's result as ``<out>.<method>.json``
prep       clean / balance / augment a JSONL sample file

Exit codes: 0 success, 1 domain error (validation or optimizer failure),
2 I/O or usage error, or a search process that died without a result.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
import pickle
import signal
import sys
import threading
import traceback
from contextlib import contextmanager, suppress
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import FusionOptError, UsageError
from .fusion import WeightVector, equal_weights, fuse, predict
from .objective import OBJECTIVE_VARIANTS, check_variant, confusion, make_objective, metrics
from .optimizers import METHODS, OptimizerConfig, optimize, write_result_json
from .scoreio import (
    REPORT_HEADER,
    ReportRow,
    ScoreMatrix,
    _number,
    align,
    load_labels,
    load_manifest,
    load_manifest_splits,
    load_scores,
    write_report,
    write_scores,
)
from .textprep import (
    augment_backtranslate,
    clean_text,
    identity_translator,
    read_samples,
    upsample,
    write_samples,
)

COMPARISON_ORDER = METHODS


def _run(manifest, methods, seed, grid_step, variant, out, json_path) -> int:
    """Choose each method's weights on validation, score them on test, write the outputs.

    Every search setting is checked here, under the seed and grid step left
    after command-line overrides, before any score file is read. The objective
    is built once, and nothing is written until every method has succeeded.
    ``json_path(method)`` names a method's result JSON, which must not be
    the report's path ``out``.

    With more than one method, on Linux with more than one usable CPU and
    numpy on OpenBLAS, each search runs in a forked process of its own, on
    one OpenBLAS thread (:func:`_searches`); otherwise each runs here in
    turn. Either way the outcomes are taken in ``methods`` order, so output,
    errors and log records come out as from a serial run.
    Forking cannot change a bit: each search has its own evaluation tracker,
    draws only from its own counter-based ``rng_stream(seed, site)``, and
    reads the objective's tables without writing them. A child inherits the
    objective through the fork, so no table is pickled; it holds its search's
    memory itself, beside the parent's; on a 1,000,000-sample corpus the
    two together stayed below the parent's own peak from reading the files.
    """
    check_variant(variant)
    for method in methods:
        if json_path(method) == out:
            raise UsageError(f"report path '{out}' is also the result JSON of method '{method}'")
    own = OptimizerConfig(method=manifest.method, seed=seed, grid_step=grid_step,
                          params=manifest.params)
    configs = [own if method == own.method else
               OptimizerConfig(method=method, seed=seed, grid_step=grid_step)
               for method in methods]
    validation, test = load_manifest_splits(manifest)
    objective = make_objective(validation, variant)
    results, rows = [], []
    with _searches(objective, validation.num_models, configs) as outcomes:
        for config, outcome in zip(configs, outcomes):
            try:
                result = outcome()
            except FusionOptError as exc:
                raise type(exc)(f"method '{config.method}': {exc}") from exc
            report = metrics(confusion(predict(fuse(test, result.best_weights)), test.labels))
            row = ReportRow.from_metrics(config.method, report, objective=result.best_error,
                                         weights=result.best_weights.values)
            _print_row(row)
            results.append(result)
            rows.append(row)
    for result in results:
        write_result_json(result, json_path(result.method))
    write_report(rows, out)
    return 0


def _openblas_threads() -> list:
    """``(get, set)`` of ``openblas_*_num_threads`` for each OpenBLAS loaded here (Linux only).

    Forked searches share the CPUs with each other. OpenBLAS splits a large
    ``sgemv`` over its threads, and its idle threads spin, so searches that
    each keep a thread pool wait on one another: a 100,000-sample compare on
    two CPUs took three to six times as long as serial. So searches fork
    only where OpenBLAS can be set to one thread.
    """
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    controls = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:  # a mapping that is not a loadable library
            continue
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", ""), ("scipy_", "64_")):
            name = f"{prefix}openblas_{{}}_num_threads{suffix}"
            if hasattr(library, name.format("set")):
                controls.append((getattr(library, name.format("get")),
                                 getattr(library, name.format("set"))))
                break
    return controls


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


@contextmanager
def _searches(objective, n_models, configs):
    """One call per config that returns its search's ``OptResult`` or raises its error.

    In-process, a call runs the search. Forked, every search starts at once,
    one child each, and a call waits for its child, replays the ``fusionopt``
    log records the search emitted, then returns or raises as the search did.
    A search whose process cannot be started (a process or descriptor limit)
    runs in-process instead. On leaving, also through SIGTERM, any child
    still running is killed, and every child is reaped. Forking leaves this
    process's OpenBLAS on one thread.
    """
    searches = [partial(optimize, objective, n_models, config) for config in configs]
    # On one CPU the searches would only take turns, at a cost: a forked
    # large-compare pass took about a quarter longer than a serial one.
    # SIGTERM's handler can be set only from the main thread.
    forks = (len(configs) > 1 and sys.platform == "linux" and len(os.sched_getaffinity(0)) > 1
             and threading.current_thread() is threading.main_thread())
    blas = _openblas_threads() if forks else []
    if not blas:
        yield searches
        return
    # A buffer a child copied would be written twice if it were ever flushed.
    sys.stdout.flush()
    sys.stderr.flush()
    children: dict[int, int] = {}  # pid -> read end of its pipe
    # The children inherit one OpenBLAS thread from here. Set in a child, or
    # set back here afterwards, the count would start a thread pool whose
    # idle thread spins for about a tenth of a second; so it is set once,
    # and this process keeps one thread.
    for get_threads, set_threads in blas:
        if get_threads() != 1:
            set_threads(1)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        calls = []
        for search, config in zip(searches, configs):
            try:
                calls.append(_fork(search, config.method, children))
            except OSError:
                calls.extend(searches[len(calls):])
                break
        yield calls
    finally:
        for pid, fd in children.items():
            # A signal may have left a child reaped but still listed; its
            # pid may since belong to another process.
            with suppress(ChildProcessError):
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            os.close(fd)
        signal.signal(signal.SIGTERM, previous)


class _Records(logging.Handler):
    """Keeps each record, its message merged with its args so that it pickles."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


class _SearchTraceback(Exception):
    """The traceback of an error raised in a search process, set as its cause."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _fork(search, method, children):
    """Start ``search`` in a child; return the call that collects its outcome."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            handler = _Records()
            package = logging.getLogger("fusionopt")
            package.handlers, package.propagate = [handler], False
            try:
                outcome = search(), None, None
            except BaseException as exc:  # the parent raises it
                outcome = None, _portable(exc), traceback.format_exc()
            with open(write_fd, "wb") as fh:
                pickle.dump((*outcome, handler.records), fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    children[pid] = read_fd

    def collect():
        with open(read_fd, "rb", closefd=False) as fh:
            data = fh.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        os.close(children.pop(pid))
        if code or not data:
            ended = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(
                f"method '{method}': search process {ended} before it sent a result")
        result, error, trace, records = pickle.loads(data)
        for record in records:
            logging.getLogger(record.name).handle(record)
        if error is not None:
            raise error from _SearchTraceback(trace)
        # Pickling drops numpy's read-only flag.
        result.best_weights.values.setflags(write=False)
        return result

    return collect


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if a pickled copy of it loads, else a RuntimeError that names it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"search raised {exc!r}, which cannot be pickled")
    return exc


def _print_row(row: ReportRow) -> None:
    method, *cells = row.cells()
    print(f"{method}: " + " ".join(
        f"{name}={cell}" for name, cell in zip(REPORT_HEADER[1:], cells) if cell
    ))


def cmd_evaluate(args) -> int:
    labels = load_labels(args.labels)
    rows = []
    for scores_path in args.scores:
        matrix = load_scores(scores_path)
        dataset = align([matrix], labels)
        predictions = predict(fuse(dataset, equal_weights(1)))
        report = metrics(confusion(predictions, dataset.labels))
        rows.append(ReportRow.from_metrics(matrix.model_id, report))
    for row in rows:
        _print_row(row)
    if args.out:
        write_report(rows, args.out)
    return 0


def _parse_weights(text: str) -> WeightVector:
    try:
        values = [_number(part, float) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"could not parse --weights value {text!r}") from None
    return WeightVector(np.array(values))


def cmd_fuse(args) -> int:
    labels = load_labels(args.labels)
    matrices = [load_scores(p) for p in args.scores]
    dataset = align(matrices, labels)
    fused = fuse(dataset, _parse_weights(args.weights))
    write_scores(ScoreMatrix("fused", fused.sample_ids, fused.fused), args.out)
    print(f"wrote fused scores for {dataset.num_samples} samples to {args.out}")
    return 0


def cmd_optimize(args) -> int:
    manifest = load_manifest(args.manifest)
    method = args.method or manifest.method
    seed = args.seed if args.seed is not None else manifest.seed
    grid_step = args.grid_step if args.grid_step is not None else manifest.grid_step
    variant = args.objective or manifest.objective
    out = Path(args.out) if args.out else manifest.output
    return _run(manifest, [method], seed, grid_step, variant, out,
                lambda _: out.with_suffix(".json"))


def cmd_compare(args) -> int:
    manifest = load_manifest(args.manifest)
    seed = args.seed if args.seed is not None else manifest.seed
    out = Path(args.out) if args.out else manifest.output
    return _run(manifest, COMPARISON_ORDER, seed, manifest.grid_step, manifest.objective,
                out, lambda method: out.with_name(f"{out.stem}.{method}.json"))


def cmd_prep(args) -> int:
    samples = read_samples(args.input)
    if args.prep_command == "clean":
        out = [replace(s, text=clean_text(s.text)) for s in samples]
    elif args.prep_command == "balance":
        out = upsample(samples, args.seed)
    else:  # augment
        out = augment_backtranslate(
            samples, identity_translator, args.source_lang, args.target_lang
        )
    write_samples(out, args.out)
    print(f"wrote {len(out)} samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionopt",
        description="Late-fusion score combination and weight search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="per-model metrics for score files")
    p_eval.add_argument("--scores", action="append", required=True,
                        help="score CSV (repeat for several models)")
    p_eval.add_argument("--labels", required=True)
    p_eval.add_argument("--out", help="optional report CSV path")
    p_eval.set_defaults(func=cmd_evaluate)

    p_fuse = sub.add_parser("fuse", help="fuse score files under explicit weights")
    p_fuse.add_argument("--scores", action="append", required=True)
    p_fuse.add_argument("--labels", required=True)
    p_fuse.add_argument("--weights", required=True, help="comma-separated raw weights")
    p_fuse.add_argument("--out", required=True)
    p_fuse.set_defaults(func=cmd_fuse)

    p_opt = sub.add_parser("optimize", help="run one weight search from a manifest")
    p_opt.add_argument("--manifest", required=True)
    p_opt.add_argument("--method", help="override the manifest method")
    p_opt.add_argument("--seed", type=int, help="override the manifest seed")
    p_opt.add_argument("--grid-step", type=float, dest="grid_step")
    p_opt.add_argument("--objective", choices=OBJECTIVE_VARIANTS)
    p_opt.add_argument("--out", help="override the manifest output path")
    p_opt.set_defaults(func=cmd_optimize)

    p_cmp = sub.add_parser("compare", help="run the six-method comparison")
    p_cmp.add_argument("--manifest", required=True)
    p_cmp.add_argument("--seed", type=int, help="override the manifest seed")
    p_cmp.add_argument("--out", help="override the manifest output path")
    p_cmp.set_defaults(func=cmd_compare)

    p_prep = sub.add_parser("prep", help="text preprocessing on JSONL samples")
    prep_sub = p_prep.add_subparsers(dest="prep_command", required=True)
    for name, description in (
        ("clean", "clean every text"),
        ("balance", "upsample minority classes"),
        ("augment", "append translated source-language samples"),
    ):
        p = prep_sub.add_parser(name, help=description)
        p.add_argument("input", help="input JSONL path")
        p.add_argument("--out", required=True, help="output JSONL path")
        if name == "balance":
            p.add_argument("--seed", type=int, required=True)
        if name == "augment":
            p.add_argument("--source-lang", default="it", dest="source_lang")
            p.add_argument("--target-lang", default="en", dest="target_lang")
        p.set_defaults(func=cmd_prep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FusionOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
