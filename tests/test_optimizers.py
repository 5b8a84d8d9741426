import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from fusionopt.errors import ConfigError, UsageError
from fusionopt.fusion import WeightVector, exact_simplex
from fusionopt.objective import cumulative_error, make_objective
from fusionopt.optimizers import (
    METHODS,
    OptimizerConfig,
    brute_force,
    optimize,
    result_to_json,
    simplex_grid_size,
)
from fusionopt.optimizers import genetic, pso
from fusionopt.optimizers.brute_force import grid_candidates
from fusionopt.optimizers.common import BudgetExhausted, EvaluationTracker, rank_key, rng_stream
from fusionopt.optimizers.nelder_mead import run as nm_run

from synthdata import hand_dataset, random_dataset, tiered_dataset


def v_landscape(raw):
    """Analytic test landscape with its unique simplex optimum at (0.7, 0.3)."""
    w = exact_simplex(np.asarray(raw, dtype=np.float64))
    return abs(w[0] - 0.7) + abs(w[1] - 0.3)


def quadratic_bowl(center):
    center = np.asarray(center, dtype=np.float64)

    def objective(raw):
        x = np.asarray(raw, dtype=np.float64)
        return float(np.sum((x - center) ** 2))

    return objective


def oracle_brute_force(objective, n_models, steps):
    """Independent enumeration of the brute-force candidate set.

    Built from itertools rather than the package's composition generator;
    returns the (error, raw weights) pair under the lexicographic tie rule.
    """
    candidates = []
    for combo in itertools.product(range(steps + 1), repeat=n_models):
        if sum(combo) == steps:
            candidates.append(np.array(combo, dtype=np.float64) / steps)
    for j in range(n_models):
        one_hot = np.zeros(n_models)
        one_hot[j] = 1.0
        candidates.append(one_hot)
    candidates.append(np.full(n_models, 1.0 / n_models))
    best = None
    for cand in candidates:
        key = (float(objective(cand)), tuple(cand))
        if best is None or key < best:
            best = key
    return best


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="annealing"):
            OptimizerConfig(method="annealing")

    @pytest.mark.parametrize("step", [0.0, -0.1, 1.5])
    def test_grid_step_range(self, step):
        with pytest.raises(ConfigError, match="grid_step"):
            OptimizerConfig(method="bf", grid_step=step)

    def test_grid_step_must_divide_one(self):
        with pytest.raises(ConfigError, match="whole number"):
            OptimizerConfig(method="bf", grid_step=0.3)

    def test_subnormal_grid_step_is_a_config_error(self):
        with pytest.raises(ConfigError, match="grid_step"):
            OptimizerConfig(method="bf", grid_step=5e-324)

    def test_grid_step_quarters_ok(self):
        assert OptimizerConfig(method="bf", grid_step=0.25).grid_steps() == 4

    def test_max_evaluations_positive(self):
        with pytest.raises(ConfigError, match="max_evaluations"):
            OptimizerConfig(method="bf", max_evaluations=0)

    def test_max_evaluations_rejects_bool(self):
        with pytest.raises(ConfigError, match="max_evaluations"):
            OptimizerConfig(method="bf", max_evaluations=True)

    def test_stochastic_methods_require_seed(self):
        for method in ("pso", "ga", "powell"):
            with pytest.raises(UsageError, match="seed"):
                OptimizerConfig(method=method)

    def test_deterministic_methods_accept_no_seed(self):
        for method in ("equal", "bf", "nelder-mead"):
            assert OptimizerConfig(method=method).seed is None

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            OptimizerConfig(method="pso", seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            OptimizerConfig(method="pso", seed=2 ** 64)

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="swarm_sze"):
            OptimizerConfig(method="pso", seed=1, params={"swarm_sze": 10})

    def test_params_rejected_for_parameterless_methods(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(method="bf", params={"swarm_size": 10})

    def test_pso_swarm_too_small(self):
        with pytest.raises(ConfigError, match="swarm_size"):
            OptimizerConfig(method="pso", seed=1, params={"swarm_size": 1})

    def test_ga_population_too_small(self):
        with pytest.raises(ConfigError, match="population_size"):
            OptimizerConfig(method="ga", seed=1, params={"population_size": 2})

    def test_powell_restarts_positive(self):
        with pytest.raises(ConfigError, match="restarts"):
            OptimizerConfig(method="powell", seed=1, params={"restarts": 0})

    def test_nelder_mead_tolerance_positive(self):
        with pytest.raises(ConfigError, match="spread_tolerance"):
            OptimizerConfig(method="nelder-mead", params={"spread_tolerance": 0.0})

    def test_integer_param_rejects_fraction(self):
        with pytest.raises(ConfigError, match="integer"):
            OptimizerConfig(method="pso", seed=1, params={"swarm_size": 10.5})

    @pytest.mark.parametrize("value", ["fast", None, True, [0.5]])
    def test_float_param_rejects_non_numbers(self, value):
        with pytest.raises(ConfigError, match="inertia"):
            OptimizerConfig(method="pso", seed=1, params={"inertia": value})

    def test_integral_float_param_accepted(self):
        cfg = OptimizerConfig(method="pso", seed=1, params={"swarm_size": 10.0})
        assert cfg.resolved()["swarm_size"] == 10

    @pytest.mark.parametrize("name", ["inertia", "cognitive", "velocity_clamp"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_param_rejected(self, name, value):
        with pytest.raises(ConfigError) as info:
            OptimizerConfig(method="pso", seed=1, params={name: value})
        assert str(info.value) == f"parameter '{name}' must be finite, got {value!r}"

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_integer_param_rejected(self, value):
        with pytest.raises(ConfigError) as info:
            OptimizerConfig(method="ga", seed=1, params={"generations": value})
        assert str(info.value) == f"parameter 'generations' must be an integer, got {value!r}"


def _small_cfg(method, seed=42):
    """Reduced budgets keep the whole-suite runtime low."""
    params = {
        "pso": {"swarm_size": 12, "iterations": 30},
        "ga": {"population_size": 16, "generations": 25},
        "powell": {"restarts": 2},
        "nelder-mead": {},
        "bf": {},
        "equal": {},
    }[method]
    return OptimizerConfig(
        method=method,
        seed=seed if method in ("pso", "ga", "powell") else None,
        params=params,
    )


class TestOptimizeContract:
    def test_single_model_every_method_returns_unit_weight(self):
        ds = random_dataset(np.random.default_rng(0), n_models=1, n_samples=6)
        objective = make_objective(ds)
        for method in METHODS:
            result = optimize(objective, 1, _small_cfg(method))
            np.testing.assert_array_equal(result.best_weights.values, [1.0])

    def test_equal_method_is_single_evaluation(self):
        ds = hand_dataset()
        result = optimize(make_objective(ds), 2, OptimizerConfig(method="equal"))
        assert result.evaluations == 1
        np.testing.assert_allclose(result.best_weights.values, [0.5, 0.5],
                                   rtol=0, atol=1e-15)

    def test_identical_config_is_bit_identical(self):
        ds = tiered_dataset(11, n_samples=60)
        objective = make_objective(ds)
        for method in METHODS:
            cfg = _small_cfg(method)
            a = optimize(objective, 3, cfg)
            b = optimize(objective, 3, cfg)
            assert result_to_json(a) == result_to_json(b), method

    def test_different_seeds_still_improve_on_first_candidate(self):
        for seed in (7, 1234):
            result = optimize(v_landscape, 2, _small_cfg("pso", seed=seed))
            first_tracked_error = result.trace[0][1]
            assert result.best_error <= first_tracked_error

    def test_trace_is_non_increasing_and_within_budget(self):
        ds = tiered_dataset(5, n_samples=80)
        objective = make_objective(ds)
        for method in METHODS:
            result = optimize(objective, 3, _small_cfg(method))
            errors = [e for _, e in result.trace]
            assert errors == sorted(errors, reverse=True) or all(
                a >= b for a, b in zip(errors, errors[1:])
            ), method
            indices = [i for i, _ in result.trace]
            assert indices == sorted(indices)
            assert result.evaluations <= OptimizerConfig(method="equal").max_evaluations

    def test_best_error_matches_reevaluation_at_best_weights(self):
        ds = tiered_dataset(3, n_samples=60)
        objective = make_objective(ds)
        for method in METHODS:
            result = optimize(objective, 3, _small_cfg(method))
            assert objective(result.best_weights.values) == result.best_error, method

    def test_returned_weights_are_normalized(self):
        ds = tiered_dataset(8, n_samples=40)
        objective = make_objective(ds)
        for method in METHODS:
            result = optimize(objective, 3, _small_cfg(method))
            values = result.best_weights.values
            assert np.all(values >= 0.0)
            assert abs(math.fsum(values.tolist()) - 1.0) <= 1e-12

    def test_budget_caps_evaluations(self):
        cfg = OptimizerConfig(method="pso", seed=3, max_evaluations=50)
        result = optimize(v_landscape, 2, cfg)
        assert result.evaluations == 50

    def test_budget_respected_by_every_method(self):
        for method in METHODS:
            cfg = OptimizerConfig(
                method=method,
                seed=5 if method in ("pso", "ga", "powell") else None,
                max_evaluations=37,
                grid_step=0.25,
            )
            result = optimize(v_landscape, 2, cfg)
            assert result.evaluations <= 37, method

    def test_zero_models_rejected(self):
        with pytest.raises(ConfigError):
            optimize(v_landscape, 0, OptimizerConfig(method="bf"))

    def test_budget_cut_off_sets_the_stop_reason(self):
        cfg = OptimizerConfig(method="pso", seed=3, max_evaluations=50)
        assert optimize(v_landscape, 2, cfg).stop_reason == "budget_exhausted"

    @pytest.mark.parametrize("method,param", [("pso", "swarm_size"), ("ga", "population_size")])
    def test_huge_initial_draw_stops_at_the_budget(self, method, param):
        cfg = OptimizerConfig(method=method, seed=1, params={param: 10 ** 15},
                              max_evaluations=100)
        result = optimize(v_landscape, 2, cfg)
        assert result.evaluations == 100
        assert result.stop_reason == "budget_exhausted"

    @pytest.mark.parametrize("method,param", [("pso", "swarm_size"), ("ga", "population_size")])
    def test_a_draw_past_the_budget_evaluates_its_first_rows_in_order(self, method, param):
        seen = []
        cfg = OptimizerConfig(method=method, seed=9, params={param: 40}, max_evaluations=25)
        optimize(lambda raw: seen.append(raw.copy()) or 0.5, 3, cfg)
        expected = rng_stream(9, 0).uniform(size=(40, 3))[:25]
        assert np.array(seen).tobytes() == expected.tobytes()

    def test_finished_search_has_no_stop_reason(self):
        # equal and this bf grid use their whole budget, yet finish within it.
        results = [
            optimize(v_landscape, 2, OptimizerConfig(method="equal", max_evaluations=1)),
            optimize(v_landscape, 2, OptimizerConfig(method="bf", grid_step=0.25,
                                                     max_evaluations=5)),
            brute_force(v_landscape, 2, grid_step=0.5),
            optimize(v_landscape, 2, _small_cfg("pso")),
            optimize(v_landscape, 2, _small_cfg("ga")),
        ]
        assert [r.stop_reason for r in results] == [None] * len(results)


def test_only_the_tracker_checks_the_budget():
    """``BudgetExhausted`` is raised in ``optimizers/common.py`` alone; no method counts ahead."""
    src = Path(__file__).resolve().parent.parent / "src"
    raisers, names = set(), set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if "BudgetExhausted" in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                    raisers.add(path.relative_to(src).as_posix())
            for field in ("id", "attr", "name", "arg"):
                if isinstance(getattr(node, field, None), str):
                    names.add(getattr(node, field))
    assert raisers == {"fusionopt/optimizers/common.py"}
    assert "affordable" not in names


def vertex_landscape(raw):
    """Unique optimum (value 0) at the one-hot vertex of the first model."""
    w = exact_simplex(np.asarray(raw, dtype=np.float64))
    return 1.0 - float(w[0])


class TestConvergence:
    @pytest.mark.parametrize("method,seed,tolerance", [
        ("pso", 42, 1e-3),
        ("ga", 42, 1e-2),
        ("powell", 42, 1e-3),
        ("nelder-mead", None, 1e-3),
        ("bf", None, 1e-3),
    ])
    def test_analytic_landscape_under_defaults(self, method, seed, tolerance):
        result = optimize(v_landscape, 2, OptimizerConfig(method=method, seed=seed))
        assert result.best_error <= tolerance

    def test_pso_reaches_one_hot_vertex(self):
        result = optimize(vertex_landscape, 3, OptimizerConfig(method="pso", seed=42))
        assert result.best_error <= 1e-3

    def test_ga_reaches_one_hot_vertex(self):
        result = optimize(vertex_landscape, 3, OptimizerConfig(method="ga", seed=42))
        assert result.best_error <= 1e-2


class TestBruteForce:
    def test_grid_count_matches_stars_and_bars(self):
        # C(20 + 3 - 1, 3 - 1) = C(22, 2) = 231 simplex points for step 0.05;
        # the appended one-hots already sit on the grid, equal weights does not.
        assert simplex_grid_size(20, 3) == math.comb(22, 2) == 231
        counter = {"n": 0}

        def counting(raw):
            counter["n"] += 1
            return 0.5

        result = brute_force(counting, 3, grid_step=0.05)
        assert counter["n"] == 232
        assert result.evaluations == 232

    def test_grid_is_built_one_candidate_at_a_time(self):
        candidates = grid_candidates(3, 2)
        assert iter(candidates) is candidates
        assert [c.tolist() for c in candidates] == [
            [0.0, 1.0], [1 / 3, 2 / 3], [2 / 3, 1 / 3], [1.0, 0.0], [0.5, 0.5]]

    @pytest.mark.parametrize("n_models", [1, 2, 3, 4, 5])
    def test_grid_is_the_lexicographic_simplex_grid(self, n_models):
        for steps in range(1, 13):
            points = sorted(p for p in itertools.product(range(steps + 1), repeat=n_models)
                            if sum(p) == steps)
            expected = [np.array(p, dtype=np.float64) / steps for p in points]
            if steps % n_models:
                expected.append(np.full(n_models, 1.0 / n_models))
            got = list(grid_candidates(steps, n_models))
            assert [c.dtype for c in got] == [np.float64] * len(expected)
            assert [c.tolist() for c in got] == [e.tolist() for e in expected]

    def test_a_thousand_models_on_the_coarsest_grid(self):
        # A grid built by recursion as deep as the model count overflows the stack here.
        result = brute_force(lambda raw: 0.5, 1000, grid_step=1.0)
        assert result.evaluations == 1001

    def test_single_model_is_one_evaluation(self):
        result = brute_force(lambda raw: 0.0, 1, grid_step=0.05)
        assert result.evaluations == 1
        np.testing.assert_array_equal(result.best_weights.values, [1.0])

    @pytest.mark.parametrize("n_models,step", [(2, 0.25), (2, 0.1), (3, 0.25), (3, 0.1)])
    def test_matches_independent_oracle(self, n_models, step):
        ds = random_dataset(np.random.default_rng(17), n_models=n_models, n_samples=40)
        objective = make_objective(ds)
        result = brute_force(objective, n_models, grid_step=step)
        oracle_error, oracle_raw = oracle_brute_force(
            objective, n_models, round(1 / step))
        assert result.best_error == oracle_error
        np.testing.assert_array_equal(
            result.best_weights.values, exact_simplex(np.array(oracle_raw)))

    def test_tie_break_prefers_lexicographically_smallest(self):
        result = brute_force(lambda raw: 0.25, 2, grid_step=0.25)
        np.testing.assert_array_equal(result.best_weights.values, [0.0, 1.0])

    def test_recovers_perfect_model(self):
        # Ten samples where the first model is barely right everywhere and the
        # second is confidently wrong; fused scores are correct on every
        # sample only when the first weight exceeds 0.9, so on the 0.25 grid
        # the sole zero-error candidate is (1, 0).
        from fusionopt.scoreio import LabelVector, ScoreMatrix, align

        ids = tuple(f"s{i}" for i in range(10))
        labels = np.array([0, 1] * 5)
        m1 = np.array([[0.55, 0.45] if y == 0 else [0.45, 0.55] for y in labels])
        m2 = np.array([[0.05, 0.95] if y == 0 else [0.95, 0.05] for y in labels])
        ds = align(
            [ScoreMatrix("good", ids, m1), ScoreMatrix("bad", ids, m2)],
            LabelVector(ids, labels),
        )
        result = brute_force(make_objective(ds), 2, grid_step=0.25)
        assert result.best_error == 0.0
        np.testing.assert_array_equal(result.best_weights.values, [1.0, 0.0])

    def test_grid_exceeding_budget_is_an_error(self):
        with pytest.raises(ConfigError, match="budget"):
            brute_force(lambda raw: 0.0, 3, grid_step=0.05, max_evaluations=100)

    @pytest.mark.parametrize("n_models,count", [(2, 5), (3, 16)])
    def test_budget_check_counts_equal_weights_only_off_the_grid(self, n_models, count):
        # Four steps: equal weights is a grid point for M=2, an extra one for M=3.
        result = brute_force(lambda raw: 0.5, n_models, grid_step=0.25, max_evaluations=count)
        assert result.evaluations == count
        with pytest.raises(ConfigError, match=f"holds {count} candidates"):
            brute_force(lambda raw: 0.5, n_models, grid_step=0.25, max_evaluations=count - 1)

    def test_dominates_equal_weights_and_one_hots(self):
        for seed in range(5):
            ds = tiered_dataset(seed, n_samples=60)
            objective = make_objective(ds)
            result = brute_force(objective, 3)
            assert result.best_error <= cumulative_error(
                ds, WeightVector(np.full(3, 1 / 3)))
            for j in range(3):
                one_hot = np.zeros(3)
                one_hot[j] = 1.0
                assert result.best_error <= cumulative_error(ds, WeightVector(one_hot))


@pytest.mark.parametrize("method", ["bf", "pso"])
def test_tracker_with_only_all_zero_candidates_has_no_result(method):
    tracker = EvaluationTracker(lambda raw: 0.5, 10)
    for _ in range(3):
        assert tracker.evaluate(np.zeros(3)) == 1.0
    message = f"method '{method}' finished without evaluating any feasible candidate"
    with pytest.raises(ConfigError, match=rf"^{message}$"):
        tracker.result(method, 7)


class TestTracker:
    def test_all_zero_candidates_are_scored_not_evaluated(self):
        def touchy(raw):
            assert np.any(raw > 0), "objective must never see an all-zero vector"
            return 0.9

        tracker = EvaluationTracker(touchy, 10)
        assert tracker.evaluate(np.zeros(3)) == 1.0
        assert tracker.evaluate(np.array([0.2, 0.0, 0.0])) == 0.9
        assert tracker.evaluations == 2
        np.testing.assert_array_equal(tracker.best_raw, [0.2, 0.0, 0.0])

    def test_feasible_candidate_with_error_one_beats_an_all_zero_one(self):
        tracker = EvaluationTracker(lambda raw: 1.0, 10)
        assert tracker.evaluate(np.zeros(2)) == 1.0
        assert tracker.best_raw is None
        assert tracker.evaluate(np.array([0.5, 0.5])) == 1.0
        np.testing.assert_array_equal(tracker.best_raw, [0.5, 0.5])
        assert tracker.result("bf", None).best_error == 1.0

    @pytest.mark.parametrize("method", ["ga", "powell"])
    def test_repeated_candidates_reach_the_objective_once(self, method):
        objective = make_objective(tiered_dataset(4, n_samples=60))
        seen = []

        def counting(raw):
            seen.append(raw.tobytes())
            return objective(raw)

        result = optimize(counting, 3, _small_cfg(method))
        assert len(seen) == len(set(seen))
        assert result.evaluations > len(seen)
        plain = optimize(objective, 3, _small_cfg(method))
        assert result_to_json(result) == result_to_json(plain)

    def test_memo_hits_count_toward_the_budget(self):
        calls = []
        tracker = EvaluationTracker(lambda raw: calls.append(1) or 0.5, 3)
        for _ in range(3):
            assert tracker.evaluate(np.array([0.2, 0.8])) == 0.5
        with pytest.raises(BudgetExhausted):
            tracker.evaluate(np.array([0.2, 0.8]))
        assert (tracker.evaluations, len(calls)) == (3, 1)

    def test_without_a_memo_each_repeat_reaches_the_objective(self):
        calls = []
        tracker = EvaluationTracker(lambda raw: calls.append(1) or 0.5, 3, memo=False)
        for _ in range(3):
            assert tracker.evaluate(np.array([0.2, 0.8])) == 0.5
        assert (tracker.evaluations, len(calls), tracker.trace) == (3, 3, [(1, 0.5)])
        np.testing.assert_array_equal(tracker.best_raw, [0.2, 0.8])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_the_zero_test_lets_through_what_numpy_positivity_would(self, m):
        # The tracker tests Python floats; (raw > 0.0).any() is the reference.
        specials = [0.0, -0.0, math.nan, -1.0, 2.0 ** -1074, -(2.0 ** -1074), 0.5, math.inf,
                    -math.inf]
        for values in itertools.product(specials, repeat=m):
            raw = np.array(values)
            calls = []
            tracker = EvaluationTracker(lambda r: calls.append(1) or 0.5, 1)
            error = tracker.evaluate(raw)
            assert len(calls) == int((raw > 0.0).any()), values
            assert error == (0.5 if calls else 1.0)

    def test_search_cut_off_by_the_budget_stops_at_exactly_the_budget(self):
        calls = []
        cfg = OptimizerConfig(method="ga", seed=2, max_evaluations=75,
                              params={"population_size": 10, "stall_window": 100})
        result = optimize(lambda raw: calls.append(1) or 0.5, 3, cfg)
        assert result.evaluations == 75
        assert len(calls) < 75


class TestGenetic:
    def test_stall_window_stops_early_on_flat_landscape(self):
        cfg = OptimizerConfig(
            method="ga", seed=4,
            params={"population_size": 10, "generations": 100,
                    "elitism": 2, "stall_window": 5},
        )
        result = optimize(lambda raw: 0.5, 3, cfg)
        # init (10) plus five stalled generations of 8 children each
        assert result.evaluations == 10 + 5 * 8


    def test_tournament_picks_as_min_by_rank_key(self):
        # Few distinct errors and entries, so errors tie often and rows now and then.
        data = np.random.default_rng(11)
        for trial in range(400):
            n = int(data.integers(4, 12))
            size = int(data.integers(1, n + 1))
            population = data.choice([0.0, 0.25, 0.5, 1.0], (n, int(data.integers(1, 5))))
            errors = data.choice([0.125, 0.25, 0.5], n).tolist()
            ours, reference = rng_stream(3, trial), rng_stream(3, trial)
            got = genetic._tournament(ours, population.tolist(), errors, size)
            contenders = reference.integers(0, n, size=size)
            winner = min(contenders, key=lambda i: rank_key(errors[i], population[i]))
            assert got.tobytes() == population[winner].tobytes()
            assert ours.random() == reference.random()  # the same draws were taken


class TestPSO:
    @pytest.mark.parametrize("n_models", [1, 2, 3])
    def test_no_particle_stays_on_the_all_zero_point_of_a_flat_landscape(self, n_models):
        # Every candidate scores 1.0, so an all-zero position ties every best.
        # It is never a best, so a particle there is pulled off it at once.
        params = OptimizerConfig(method="pso", seed=0, params={
            "swarm_size": 5, "iterations": 30, "inertia": 0.0}).resolved()
        for seed in range(20):
            tracker = EvaluationTracker(lambda raw: 1.0, 10_000)
            zero = []
            evaluate = tracker.evaluate
            tracker.evaluate = lambda x: zero.append(not x.any()) or evaluate(x)
            pso.run(tracker, n_models, seed, params)
            assert len(zero) == 5 * 31
            rows = np.array(zero).reshape(31, 5)
            assert not rows[0].any()
            assert not (rows[1:] & rows[:-1]).any(), seed


class TestPowell:
    def test_quadratic_bowl_single_restart(self):
        cfg = OptimizerConfig(method="powell", seed=0, params={"restarts": 1})
        result = optimize(quadratic_bowl([0.7, 0.3]), 2, cfg)
        assert result.best_error <= 1e-10
        np.testing.assert_allclose(result.best_weights.values, [0.7, 0.3],
                                   rtol=0, atol=5e-6)

    def test_single_restart_ignores_seed(self):
        cfg_a = OptimizerConfig(method="powell", seed=1, params={"restarts": 1})
        cfg_b = OptimizerConfig(method="powell", seed=99, params={"restarts": 1})
        a = optimize(quadratic_bowl([0.4, 0.6]), 2, cfg_a)
        b = optimize(quadratic_bowl([0.4, 0.6]), 2, cfg_b)
        assert a.best_error == b.best_error
        np.testing.assert_array_equal(a.best_weights.values, b.best_weights.values)

    def test_never_worse_than_equal_weights_start(self):
        for seed in range(4):
            ds = tiered_dataset(20 + seed, n_samples=80)
            objective = make_objective(ds)
            cfg = OptimizerConfig(method="powell", seed=seed)
            result = optimize(objective, 3, cfg)
            assert result.best_error <= objective(np.full(3, 1 / 3))


class TestNelderMead:
    def test_simplex_always_has_m_plus_one_vertices(self):
        sizes = []

        def record(vertices, errors):
            sizes.append((len(vertices), len(errors)))

        tracker = EvaluationTracker(quadratic_bowl([0.3, 0.5, 0.2]), 10_000)
        params = OptimizerConfig(method="nelder-mead").resolved()
        nm_run(tracker, 3, params, on_iteration=record)
        assert sizes, "expected at least one iteration"
        assert all(size == (4, 4) for size in sizes)

    def test_spread_below_tolerance_at_termination(self):
        states = []

        def record(vertices, errors):
            states.append(list(errors))

        tracker = EvaluationTracker(quadratic_bowl([0.6, 0.4]), 10_000)
        params = OptimizerConfig(method="nelder-mead").resolved()
        nm_run(tracker, 2, params, on_iteration=record)
        assert len(states) < params["max_iterations"], "terminated by the cap, not spread"
        final = states[-1]
        assert max(final) - min(final) < params["spread_tolerance"]
        # analytic minimum of the bowl is 0 at its interior center
        assert tracker.best_error <= 1e-6

    def test_single_model_degenerates_cleanly(self):
        result = optimize(lambda raw: 0.0, 1, OptimizerConfig(method="nelder-mead"))
        np.testing.assert_array_equal(result.best_weights.values, [1.0])


class TestTraceSerialization:
    def test_result_json_fields(self):
        import json

        result = optimize(v_landscape, 2, _small_cfg("ga"))
        payload = json.loads(result_to_json(result))
        assert set(payload) == {"method", "seed", "best_error", "best_weights",
                                "evaluations", "trace"}
        assert payload["method"] == "ga"
        assert payload["seed"] == 42
        assert payload["evaluations"] == result.evaluations
