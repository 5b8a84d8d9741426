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
2 I/O or usage error, out of memory, or a search, reader or formatter
process that died without a result. Out of memory prints one ``error:``
line that names the stage, such as reading a score file or allocating the
(M, N, K) stack, whether it ran out here or in a forked reader.

Work is forked through :mod:`fusionopt._fork`, on Linux with more than one
usable CPU and from the main thread only: ``compare``'s searches (where
OpenBLAS can be set to one thread), the score-file readers of every command
that reads score files, and the formatters of every CSV of more than
``scoreio._WRITE_ROWS`` rows. Outputs, messages and exit codes are the same
with and without forking.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from ._fork import forked, usable_cpus
from .errors import FusionOptError, UsageError
from .fusion import WeightVector, check_weight_count, equal_weights, fuse, predict
from .objective import OBJECTIVE_VARIANTS, check_variant, confusion, make_objective, metrics
from .optimizers import METHODS, OptimizerConfig, check_search, optimize, write_result_json
from .scoreio import (
    REPORT_HEADER,
    ReportRow,
    ScoreMatrix,
    _number,
    load_aligned,
    load_each,
    load_manifest,
    load_manifest_splits,
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

logger = logging.getLogger(__name__)


def _check_outputs(outputs, inputs) -> None:
    """A usage error if an output path names an input file; paths are compared resolved."""
    sources = {Path(path).resolve(): path for path in inputs if path is not None}
    for out in outputs:
        source = sources.get(Path(out).resolve())
        if source is not None:
            raise UsageError(f"output path '{out}' would overwrite the input '{source}'")


def _run(manifest_path, manifest, methods, seed, grid_step, variant, out, json_path) -> int:
    """Choose each method's weights on validation, score them on test, write the outputs.

    Every search setting is checked here, under the seed and grid step left
    after command-line overrides, before any score file is read. The objective
    is built once, and nothing is written until every method has succeeded.
    ``json_path(method)`` names a method's result JSON, which must not be
    the report's path ``out``; neither may name the manifest at
    ``manifest_path`` or a file it lists.

    With more than one method, on Linux with more than one usable CPU and
    numpy on OpenBLAS, the first search runs here and each other in a forked
    process of its own, all on one OpenBLAS thread (:func:`_searches`);
    otherwise each runs here in turn. Either way a search's outcome is its
    result or its error, taken in ``methods`` order, so output, errors and
    the warning for a search the budget cut off come out as from a serial run.
    Forking cannot change a bit: each search has its own evaluation tracker,
    draws only from its own counter-based ``rng_stream(seed, site)``, and
    reads the objective's tables without writing them. A child inherits the
    objective through the fork, so no table is pickled; it holds its search's
    memory itself, beside the parent's; on a 1,000,000-sample corpus the
    two together stayed below the parent's own peak from reading the files.
    """
    check_variant(variant)
    for method in methods:
        if Path(json_path(method)).resolve() == Path(out).resolve():
            raise UsageError(f"report path '{out}' is also the result JSON of method '{method}'")
    _check_outputs([out, *map(json_path, methods)],
                   [manifest_path, *(path for _, path in manifest.models), manifest.labels_path,
                    manifest.validation_ids_path])
    own = OptimizerConfig(method=manifest.method, seed=seed, grid_step=grid_step,
                          params=manifest.params)
    configs = [own if method == own.method else
               OptimizerConfig(method=method, seed=seed, grid_step=grid_step)
               for method in methods]
    for config in (own, *configs):
        check_search(config, len(manifest.models))
    validation, test = load_manifest_splits(manifest)
    objective = make_objective(validation, variant)
    results, rows = [], []
    with _searches(objective, validation.num_models, configs) as outcomes:
        for config, outcome in zip(configs, outcomes):
            try:
                result = outcome()
            except FusionOptError as exc:
                raise type(exc)(f"method '{config.method}': {exc}") from exc
            if result.stop_reason == "budget_exhausted":
                logger.warning("method '%s' stopped at max_evaluations=%d before its search "
                               "finished", config.method, config.max_evaluations)
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


def _searches(objective, n_models, configs):
    """A context of one call per config that returns its search's ``OptResult`` or raises.

    With more than one search, more than one usable CPU and OpenBLAS that
    can be set to one thread, every search but the first starts at once in
    a forked child of its own, and the first runs here (:func:`_fork.forked`);
    otherwise a call runs its search here. Forking leaves this process's
    OpenBLAS on one thread.
    """
    searches = [partial(optimize, objective, n_models, config) for config in configs]
    # On one CPU the searches would only take turns, at a cost: a forked
    # large-compare pass took about a quarter longer than a serial one.
    blas = _openblas_threads() if len(searches) > 1 and usable_cpus() > 1 else []
    # The children inherit one OpenBLAS thread from here. Set in a child, or
    # set back here afterwards, the count would start a thread pool whose
    # idle thread spins for about a tenth of a second; so it is set once,
    # and this process keeps one thread.
    for get_threads, set_threads in blas:
        if get_threads() != 1:
            set_threads(1)
    names = [f"method '{config.method}': search" for config in configs]
    return forked(searches, names, len(searches) if blas else 1)


def _print_row(row: ReportRow) -> None:
    method, *cells = row.cells()
    print(f"{method}: " + " ".join(
        f"{name}={cell}" for name, cell in zip(REPORT_HEADER[1:], cells) if cell
    ))


def cmd_evaluate(args) -> int:
    if args.out:
        _check_outputs([args.out], [*args.scores, args.labels])
    rows = []
    with load_each(args.scores, args.labels) as datasets:
        for dataset in datasets:
            report = metrics(confusion(predict(fuse(dataset, equal_weights(1))), dataset.labels))
            rows.append(ReportRow.from_metrics(dataset.model_ids[0], report))
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
    _check_outputs([args.out], [*args.scores, args.labels])
    weights = _parse_weights(args.weights)
    check_weight_count(weights, len(args.scores))
    dataset = load_aligned([(None, path) for path in args.scores], args.labels)
    fused = fuse(dataset, weights)
    # Rounding can lift a score a few ulps past 1.0; such a value is its
    # row's one maximum, so clipping it keeps every argmax.
    scores = np.minimum(fused.fused, 1.0)
    write_scores(ScoreMatrix("fused", fused.sample_ids, scores), args.out)
    print(f"wrote fused scores for {dataset.num_samples} samples to {args.out}")
    return 0


def cmd_optimize(args) -> int:
    manifest = load_manifest(args.manifest)
    method = args.method or manifest.method
    seed = args.seed if args.seed is not None else manifest.seed
    grid_step = args.grid_step if args.grid_step is not None else manifest.grid_step
    variant = args.objective or manifest.objective
    out = Path(args.out) if args.out else manifest.output
    return _run(args.manifest, manifest, [method], seed, grid_step, variant, out,
                lambda _: out.with_suffix(".json"))


def cmd_compare(args) -> int:
    manifest = load_manifest(args.manifest)
    seed = args.seed if args.seed is not None else manifest.seed
    out = Path(args.out) if args.out else manifest.output
    return _run(args.manifest, manifest, COMPARISON_ORDER, seed, manifest.grid_step,
                manifest.objective, out, lambda method: out.with_name(f"{out.stem}.{method}.json"))


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
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
