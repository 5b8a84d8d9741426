"""Derivative-free weight-search methods behind one contract.

Every method searches raw vectors in [0, 1]^M, scores candidates through a
shared tracker (budget, all-zero rule, lexicographic tie-break, improvement
trace), and returns an :class:`OptResult` whose weights are normalized.
Identical configurations, seed included, reproduce results bit-identically.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..fusion import equal_weights
from . import brute_force as _brute_force
from . import genetic as _genetic
from . import nelder_mead as _nelder_mead
from . import powell as _powell
from . import pso as _pso
from .common import (
    DEFAULT_GRID_STEP,
    DEFAULT_MAX_EVALUATIONS,
    METHODS,
    STOCHASTIC_METHODS,
    BudgetExhausted,
    EvaluationTracker,
    OptimizerConfig,
    OptResult,
    result_to_json,
    rng_stream,
    simplex_grid_size,
    write_result_json,
)

__all__ = [
    "METHODS", "STOCHASTIC_METHODS", "DEFAULT_GRID_STEP", "DEFAULT_MAX_EVALUATIONS",
    "OptimizerConfig", "OptResult", "optimize", "check_search", "brute_force",
    "result_to_json", "write_result_json",
    "rng_stream", "simplex_grid_size", "EvaluationTracker", "BudgetExhausted",
]


def check_search(config: OptimizerConfig, n_models: int) -> None:
    """What a search needs beyond its config: a model, and a bf grid within the budget."""
    if n_models < 1:
        raise ConfigError("need at least one model to optimize over")
    if config.method == "bf":
        # Counted exactly, before the search: the grid, plus equal weights if off it.
        steps = config.grid_steps()
        count = simplex_grid_size(steps, n_models) + bool(steps % n_models)
        if count > config.max_evaluations:
            raise ConfigError(
                f"method 'bf': brute-force search holds {count} candidates, exceeding the "
                f"evaluation budget of {config.max_evaluations}"
            )


def optimize(objective, n_models: int, config: OptimizerConfig) -> OptResult:
    """Run the configured method on ``objective`` over M raw weights.

    ``objective`` maps a raw nonnegative weight vector to an error in [0, 1]
    and must normalize internally, as the scorer that
    :func:`fusionopt.objective.make_objective` returns does.
    A search the budget cuts off returns its best candidate so far with
    ``stop_reason="budget_exhausted"``, so it cannot pass for a finished one.
    """
    check_search(config, n_models)
    # Grid points never repeat, so a memo for bf would only hold memory.
    tracker = EvaluationTracker(objective, config.max_evaluations, memo=config.method != "bf")
    params = config.resolved()
    try:
        if config.method == "equal":
            tracker.evaluate(equal_weights(n_models).values)
        elif config.method == "bf":
            _brute_force.run(tracker, n_models, config.grid_steps())
        elif config.method == "pso":
            _pso.run(tracker, n_models, config.seed, params)
        elif config.method == "ga":
            _genetic.run(tracker, n_models, config.seed, params)
        elif config.method == "powell":
            _powell.run(tracker, n_models, config.seed, params)
        else:  # nelder-mead; config validation rejects anything else
            _nelder_mead.run(tracker, n_models, params)
    except BudgetExhausted:
        return tracker.result(config.method, config.seed, stop_reason="budget_exhausted")
    return tracker.result(config.method, config.seed)


def brute_force(objective, n_models: int, grid_step: float = DEFAULT_GRID_STEP,
                max_evaluations: int = DEFAULT_MAX_EVALUATIONS) -> OptResult:
    """Exhaustive grid search over the simplex at ``grid_step``."""
    config = OptimizerConfig(method="bf", grid_step=grid_step, max_evaluations=max_evaluations)
    return optimize(objective, n_models, config)
