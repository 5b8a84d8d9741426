"""Print the OpenBLAS kernel this process runs on, then run one workload.

``python tests/blas_probe.py compare <args>`` prints the kernel's name on a
line of its own, then runs ``python -m fusionopt compare <args>``.
``python tests/blas_probe.py searches`` prints the kernel's name, then one
JSON object: ``k3`` holds the result text of each of the six searches of
``test_golden_k3.py``, and ``near_ties`` one entry per weight vector of
``synthdata.near_tie_dataset``: the scorer's accuracy, a float64-only
reference's and the raw float32 screen ``w32 @ margins`` as hex.

Run it with ``src`` and ``tests`` on ``PYTHONPATH``, and pick the kernel
with ``OPENBLAS_CORETYPE``.
"""

from __future__ import annotations

import ctypes
import json
import runpy
import sys

import numpy as np


def openblas_text(name: str) -> str | None:
    """``openblas_get_<name>()`` ("corename", "config") of numpy's OpenBLAS; None without one.

    The library is the first one found by ``cli._openblas_functions``, the
    lookup ``compare`` uses to set OpenBLAS to one thread.
    """
    from fusionopt.cli import _openblas_functions

    for (function,) in _openblas_functions(f"get_{name}"):
        function.argtypes, function.restype = [], ctypes.c_char_p
        return function().decode()
    return None


def searches() -> dict:
    from fusionopt.fusion import combine, exact_simplex
    from fusionopt.objective import make_objective
    from fusionopt.optimizers import METHODS, OptimizerConfig, optimize, result_to_json
    from synthdata import near_tie_dataset
    from test_golden_k3 import k3_dataset

    k3 = k3_dataset()
    objective = make_objective(k3)
    results = {method: result_to_json(optimize(objective, k3.num_models,
                                               OptimizerConfig(method=method, seed=42)))
               for method in METHODS}
    dataset, weight_vectors = near_tie_dataset()
    scorer, n = make_objective(dataset), len(dataset.y)
    near_ties = []
    for raw in weight_vectors:
        weights = exact_simplex(raw)
        wrong = np.count_nonzero(combine(weights, dataset.stack).argmax(axis=1) != dataset.y)
        near_ties.append({
            "accuracy": scorer.accuracy(raw),
            "reference": (n - wrong) / n,
            "screen": (weights.astype(np.float32) @ scorer._margins).tobytes().hex(),
        })
    return {"k3": results, "near_ties": near_ties}


if __name__ == "__main__":
    workload, *args = sys.argv[1:]
    print(openblas_text("corename"), flush=True)
    if workload == "compare":
        sys.argv = ["fusionopt", "compare", *args]
        runpy.run_module("fusionopt", run_name="__main__", alter_sys=True)
    else:
        print(json.dumps(searches()))
