"""Shared optimizer contract: configuration, result type, evaluation tracking.

Every search method runs over raw vectors in the unit box [0, 1]^M with
normalization happening inside the objective. Raw all-zero candidates are
assigned the worst error 1.0 without being evaluated. Equal errors are
broken toward the lexicographically smallest candidate so parallel and
serial evaluation orders (and reruns) agree bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from ..errors import ConfigError, UsageError
from ..fusion import WeightVector, normalize

DEFAULT_MAX_EVALUATIONS = 100_000
DEFAULT_GRID_STEP = 0.05


def _at_least(low: int):
    return lambda v, p: v >= low, f"be at least {low}"


_POSITIVE = (lambda v, p: v > 0.0, "be positive")
_NONNEGATIVE = (lambda v, p: v >= 0.0, "be nonnegative")
_PROBABILITY = (lambda v, p: 0.0 <= v <= 1.0, "lie in [0, 1]")
_OPEN_UNIT = (lambda v, p: 0.0 < v < 1.0, "lie in (0, 1)")

# Every search parameter, declared once: method -> name -> (default, bound
# check, bound text). An int default makes the parameter an integer; a check
# sees the value and the merged parameters. PSO takes canonical
# constriction-style settings; the methods come with no published
# hyperparameters for this task.
SEARCH_PARAMS: dict[str, dict[str, tuple]] = {
    "equal": {},
    "pso": {
        "swarm_size": (30, *_at_least(2)),
        "iterations": (100, *_at_least(1)),
        "inertia": (0.729, lambda v, p: 0.0 <= v < 1.0, "lie in [0, 1)"),
        "cognitive": (1.49445, *_NONNEGATIVE),
        "social": (1.49445, *_NONNEGATIVE),
        "velocity_clamp": (0.5, *_POSITIVE),
    },
    "ga": {
        "population_size": (50, *_at_least(4)),
        "generations": (100, *_at_least(1)),
        "tournament_size": (3, lambda v, p: 1 <= v <= p["population_size"],
                            "lie in [1, population_size]"),
        "crossover_prob": (0.9, *_PROBABILITY),
        "mutation_prob": (0.1, *_PROBABILITY),
        "mutation_sigma": (0.1, *_POSITIVE),
        "elitism": (2, lambda v, p: 0 <= v < p["population_size"],
                    "lie in [0, population_size)"),
        "stall_window": (20, *_at_least(1)),
    },
    "bf": {},
    "powell": {
        "restarts": (5, *_at_least(1)),
        "line_tolerance": (1e-6, *_POSITIVE),
        "outer_tolerance": (1e-8, *_POSITIVE),
        "max_outer_iterations": (100, *_at_least(1)),
    },
    "nelder-mead": {
        "reflection": (1.0, *_POSITIVE),
        "expansion": (2.0, lambda v, p: v > 1.0, "exceed 1"),
        "contraction": (0.5, *_OPEN_UNIT),
        "shrink": (0.5, *_OPEN_UNIT),
        "initial_offset": (0.1, *_OPEN_UNIT),
        "spread_tolerance": (1e-6, *_POSITIVE),
        "max_iterations": (200, *_at_least(1)),
    },
}
METHODS = tuple(SEARCH_PARAMS)
STOCHASTIC_METHODS = frozenset({"pso", "ga", "powell"})


def rng_stream(seed: int, *site: int) -> np.random.Generator:
    """Counter-based generator for a named draw site.

    Each (seed, site) pair yields an independent stream, so the draw order
    inside one site can never be perturbed by how other sites are consumed.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=site))
    )


def check_seed(seed) -> None:
    """The one seed rule: a seed is an unsigned 64-bit integer."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must be an unsigned 64-bit integer")


def _as_param(value, name: str, default) -> int | float:
    """Convert one parameter override to the type of its default, naming it on failure."""
    integer = isinstance(default, int)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or integer and isinstance(value, float) and not value.is_integer()):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"parameter '{name}' must be {kind}, got {value!r}")
    if not (integer or math.isfinite(value)):
        raise ConfigError(f"parameter '{name}' must be finite, got {value!r}")
    return type(default)(value)


@dataclass(frozen=True)
class OptimizerConfig:
    """Method name plus everything needed to rerun a search bit-identically."""

    method: str
    seed: int | None = None
    max_evaluations: int = DEFAULT_MAX_EVALUATIONS
    grid_step: float = DEFAULT_GRID_STEP
    params: Mapping[str, float] = field(default_factory=dict)
    _resolved: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method '{self.method}'; expected one of {', '.join(METHODS)}"
            )
        if self.seed is not None:
            check_seed(self.seed)
        if self.method in STOCHASTIC_METHODS and self.seed is None:
            raise UsageError(
                f"method '{self.method}' is stochastic and requires an explicit seed"
            )
        if (isinstance(self.max_evaluations, bool) or not isinstance(self.max_evaluations, int)
                or self.max_evaluations < 1):
            raise ConfigError("max_evaluations must be a positive integer")
        if (isinstance(self.grid_step, bool) or not isinstance(self.grid_step, (int, float))
                or not 0.0 < self.grid_step <= 1.0):
            raise ConfigError(f"grid_step must lie in (0, 1], got {self.grid_step!r}")
        if self.method == "bf":
            inverse = 1.0 / self.grid_step  # inf for the smallest subnormals
            if not math.isfinite(inverse) or abs(round(inverse) * self.grid_step - 1.0) > 1e-9:
                raise ConfigError(
                    f"method '{self.method}': grid_step {self.grid_step!r} must divide 1 "
                    "into a whole number of steps"
                )
        if not isinstance(self.params, Mapping):
            raise ConfigError(f"params must map parameter names to values, got {self.params!r}")
        table = SEARCH_PARAMS[self.method]
        unknown = sorted(set(self.params) - set(table))
        if unknown:
            raise ConfigError(
                f"method '{self.method}' does not accept parameter(s): {', '.join(unknown)}"
            )
        merged = {name: default for name, (default, _, _) in table.items()}
        for key, value in self.params.items():
            merged[key] = _as_param(value, key, merged[key])
        for name, (_, check, bound) in table.items():
            if not check(merged[name], merged):
                raise ConfigError(f"method '{self.method}': {name} must {bound}")
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "_resolved", merged)

    def resolved(self) -> dict[str, float]:
        """Defaults overlaid with this config's overrides."""
        return dict(self._resolved)

    def grid_steps(self) -> int:
        return round(1.0 / self.grid_step)


@dataclass(frozen=True, eq=False)
class OptResult:
    """Outcome of one search: best weights, best error, and the search trace.

    ``trace`` holds (evaluation index, best-so-far error) pairs recorded at
    every improvement, so the error column is non-increasing by construction.
    ``stop_reason`` is ``"budget_exhausted"`` when the evaluation budget cut
    the search off, and ``None`` when the method's own rule stopped it.
    """

    method: str
    seed: int | None
    best_weights: WeightVector
    best_error: float
    evaluations: int
    trace: tuple[tuple[int, float], ...]
    stop_reason: str | None = None


def result_to_json(result: OptResult) -> str:
    return json.dumps({
        "method": result.method,
        "seed": result.seed,
        "best_error": float(result.best_error),
        "best_weights": [float(w) for w in result.best_weights.values],
        "evaluations": int(result.evaluations),
        "trace": [[int(i), float(e)] for i, e in result.trace],
    }, indent=2) + "\n"


def write_result_json(result: OptResult, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(result_to_json(result), encoding="utf-8")


def rank_key(error: float, candidate) -> tuple:
    """The tie rule: lower error first, then the lexicographically smaller raw candidate."""
    return (error, tuple(candidate))


def better(error: float, candidate, best_error: float, best) -> bool:
    """Whether ``candidate`` ranks before ``best`` under :func:`rank_key`.

    Errors are compared first, so the tuples are built only on a tie.
    """
    if error != best_error:
        return error < best_error
    return rank_key(error, candidate) < rank_key(best_error, best)


class BudgetExhausted(Exception):
    """Internal control flow: the evaluation budget is used up."""


class EvaluationTracker:
    """Counts evaluations and keeps the lexicographic best-so-far candidate.

    All candidate assessments flow through :meth:`evaluate`, including the
    all-zero shortcut, so the budget bound and the improvement trace hold
    uniformly across methods. A candidate already scored in this search is
    answered from a memo without calling the objective, yet still counts as
    one evaluation; a search that never repeats one passes ``memo=False``.
    """

    def __init__(self, objective: Callable[[np.ndarray], float], max_evaluations: int,
                 memo: bool = True):
        self._objective = objective
        self.max_evaluations = max_evaluations
        self.evaluations = 0
        self.best_error: float | None = None
        self.best_raw: np.ndarray | None = None
        self.trace: list[tuple[int, float]] = []
        self._memo: dict[bytes, float] | None = {} if memo else None

    def evaluate(self, candidate) -> float:
        if self.evaluations >= self.max_evaluations:
            raise BudgetExhausted
        self.evaluations += 1
        raw = np.asarray(candidate, dtype=np.float64)
        # ``(raw > 0.0).any()`` on Python floats, NaN and -0.0 included,
        # without numpy's per-call overhead on an M-vector.
        if not any(map((0.0).__lt__, raw.tolist())):
            return 1.0  # worst by fiat; never evaluated, never the best
        if self._memo is None:
            error = float(self._objective(raw))
        else:
            key = raw.tobytes()
            error = self._memo.get(key)
            if error is not None:
                return error  # seen before, so it cannot move the best
            error = self._memo[key] = float(self._objective(raw))
        if self.best_error is None or error < self.best_error:
            self.best_error = error
            self.best_raw = raw.copy()
            self.trace.append((self.evaluations, error))
        elif better(error, raw, self.best_error, self.best_raw):
            self.best_raw = raw.copy()  # a tie moves the vector, not the trace
        return error

    def result(self, method: str, seed: int | None, stop_reason: str | None = None) -> OptResult:
        if self.best_raw is None:
            raise ConfigError(
                f"method '{method}' finished without evaluating any feasible candidate"
            )
        return OptResult(
            method=method,
            seed=seed,
            best_weights=normalize(WeightVector(self.best_raw)),
            best_error=self.best_error,
            evaluations=self.evaluations,
            trace=tuple(self.trace),
            stop_reason=stop_reason,
        )


def uniform_rows(tracker: EvaluationTracker, rng: np.random.Generator, count: int,
                 n_models: int) -> tuple[np.ndarray, list[float]]:
    """``count`` rows of ``rng.uniform`` and their errors, each row evaluated as it is drawn.

    So the tracker's budget stops a draw larger than it; k seeded rows are
    the first k of a larger draw.
    """
    rows, errors = [], []
    for _ in range(count):
        rows.append(rng.uniform(size=n_models))
        errors.append(tracker.evaluate(rows[-1]))
    return np.array(rows), errors
