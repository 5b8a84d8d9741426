"""Search-parameter checks: the exact message for each rejected setting."""

import pytest

from fusionopt.errors import ConfigError
from fusionopt.optimizers import OptimizerConfig

# (method, override just outside the bound, the ConfigError text)
OUT_OF_BOUND = [
    ("pso", {"swarm_size": 1}, "method 'pso': swarm_size must be at least 2"),
    ("pso", {"iterations": 0}, "method 'pso': iterations must be at least 1"),
    ("pso", {"inertia": 1.0}, "method 'pso': inertia must lie in [0, 1)"),
    ("pso", {"inertia": -0.01}, "method 'pso': inertia must lie in [0, 1)"),
    ("pso", {"cognitive": -0.01}, "method 'pso': cognitive must be nonnegative"),
    ("pso", {"social": -0.01}, "method 'pso': social must be nonnegative"),
    ("pso", {"velocity_clamp": 0.0}, "method 'pso': velocity_clamp must be positive"),
    ("ga", {"population_size": 3}, "method 'ga': population_size must be at least 4"),
    ("ga", {"generations": 0}, "method 'ga': generations must be at least 1"),
    ("ga", {"tournament_size": 0},
     "method 'ga': tournament_size must lie in [1, population_size]"),
    ("ga", {"population_size": 10, "tournament_size": 11},
     "method 'ga': tournament_size must lie in [1, population_size]"),
    ("ga", {"crossover_prob": 1.01}, "method 'ga': crossover_prob must lie in [0, 1]"),
    ("ga", {"mutation_prob": -0.01}, "method 'ga': mutation_prob must lie in [0, 1]"),
    ("ga", {"mutation_sigma": 0.0}, "method 'ga': mutation_sigma must be positive"),
    ("ga", {"elitism": -1}, "method 'ga': elitism must lie in [0, population_size)"),
    ("ga", {"population_size": 10, "elitism": 10},
     "method 'ga': elitism must lie in [0, population_size)"),
    ("ga", {"stall_window": 0}, "method 'ga': stall_window must be at least 1"),
    # several bounds fail; the first parameter in table order is reported
    ("ga", {"population_size": 2}, "method 'ga': population_size must be at least 4"),
    ("powell", {"restarts": 0}, "method 'powell': restarts must be at least 1"),
    ("powell", {"line_tolerance": 0.0}, "method 'powell': line_tolerance must be positive"),
    ("powell", {"outer_tolerance": -1e-9},
     "method 'powell': outer_tolerance must be positive"),
    ("powell", {"max_outer_iterations": 0},
     "method 'powell': max_outer_iterations must be at least 1"),
    ("nelder-mead", {"reflection": 0.0}, "method 'nelder-mead': reflection must be positive"),
    ("nelder-mead", {"expansion": 1.0}, "method 'nelder-mead': expansion must exceed 1"),
    ("nelder-mead", {"contraction": 1.0},
     "method 'nelder-mead': contraction must lie in (0, 1)"),
    ("nelder-mead", {"shrink": 0.0}, "method 'nelder-mead': shrink must lie in (0, 1)"),
    ("nelder-mead", {"initial_offset": 1.0},
     "method 'nelder-mead': initial_offset must lie in (0, 1)"),
    ("nelder-mead", {"spread_tolerance": 0.0},
     "method 'nelder-mead': spread_tolerance must be positive"),
    ("nelder-mead", {"max_iterations": 0},
     "method 'nelder-mead': max_iterations must be at least 1"),
]

# (method, overrides, the ConfigError text) for names and types
BAD_NAME_OR_TYPE = [
    ("pso", {"swarm_sze": 10, "inertai": 0.5},
     "method 'pso' does not accept parameter(s): inertai, swarm_sze"),
    ("bf", {"swarm_size": 10}, "method 'bf' does not accept parameter(s): swarm_size"),
    ("pso", {"swarm_size": 10.5}, "parameter 'swarm_size' must be an integer, got 10.5"),
    ("ga", {"elitism": "2"}, "parameter 'elitism' must be an integer, got '2'"),
    ("powell", {"restarts": True}, "parameter 'restarts' must be an integer, got True"),
    ("pso", {"inertia": "fast"}, "parameter 'inertia' must be a number, got 'fast'"),
    ("nelder-mead", {"shrink": None}, "parameter 'shrink' must be a number, got None"),
]


def _message(method, params):
    seed = 1 if method in ("pso", "ga", "powell") else None
    with pytest.raises(ConfigError) as info:
        OptimizerConfig(method=method, seed=seed, params=params)
    return str(info.value)


@pytest.mark.parametrize("method,params,expected", OUT_OF_BOUND)
def test_out_of_bound_message(method, params, expected):
    assert _message(method, params) == expected


@pytest.mark.parametrize("method,params,expected", BAD_NAME_OR_TYPE)
def test_bad_name_or_type_message(method, params, expected):
    assert _message(method, params) == expected


def test_every_parameter_has_a_pinned_bound():
    pinned = {(m, name) for m, params, _ in OUT_OF_BOUND for name in params}
    for method in ("pso", "ga", "powell", "nelder-mead"):
        seed = 1 if method != "nelder-mead" else None
        for name in OptimizerConfig(method=method, seed=seed).resolved():
            assert (method, name) in pinned, f"{method}.{name} has no pinned bound"
