"""Generational genetic algorithm with real-valued genes.

Tournament selection, uniform crossover, per-gene Gaussian mutation clamped
to the unit box, and elitism. Terminates at the generation cap or once the
best error has not improved for a stall window. Every generation draws all
of its randomness from one counter-based stream before any child is
evaluated.
"""

from __future__ import annotations

import numpy as np

from .common import EvaluationTracker, better, rank_key, rng_stream, uniform_rows

_SITE_INIT = 0
_SITE_GENERATION_BASE = 1


def _tournament(rng, rows, errors, size: int) -> np.ndarray:
    """The best of ``size`` drawn contenders under :func:`rank_key`, the first on a full tie.

    ``rows`` is the population as lists of floats and ``errors`` a list, so a
    contender costs no numpy call.
    """
    contenders = rng.integers(0, len(rows), size=size).tolist()
    winner = contenders[0]
    for i in contenders[1:]:
        if better(errors[i], rows[i], errors[winner], rows[winner]):
            winner = i
    return np.array(rows[winner])


def run(tracker: EvaluationTracker, n_models: int, seed: int, params: dict) -> None:
    pop_size = params["population_size"]
    generations = params["generations"]
    tournament_size = params["tournament_size"]
    crossover_prob = params["crossover_prob"]
    mutation_prob = params["mutation_prob"]
    sigma = params["mutation_sigma"]
    elitism = params["elitism"]
    stall_window = params["stall_window"]

    population, errors = uniform_rows(tracker, rng_stream(seed, _SITE_INIT), pop_size, n_models)
    stalled = 0
    for generation in range(generations):
        rng = rng_stream(seed, _SITE_GENERATION_BASE + generation)
        rows = population.tolist()
        ranked = sorted(range(pop_size), key=lambda i: rank_key(errors[i], rows[i]))
        elites = [population[i].copy() for i in ranked[:elitism]]
        elite_errors = [errors[i] for i in ranked[:elitism]]

        children: list[np.ndarray] = []
        while len(children) < pop_size - elitism:
            parent_a = _tournament(rng, rows, errors, tournament_size)
            parent_b = _tournament(rng, rows, errors, tournament_size)
            if rng.random() < crossover_prob:
                mask = rng.random(n_models) < 0.5
                child_a = np.where(mask, parent_a, parent_b)
                child_b = np.where(mask, parent_b, parent_a)
            else:
                child_a, child_b = parent_a, parent_b
            for child in (child_a, child_b):
                mutate = rng.random(n_models) < mutation_prob
                noise = rng.normal(0.0, sigma, n_models)
                if mutate.any():  # else the child is kept as it is
                    child = np.where(mutate, (child + noise).clip(0.0, 1.0), child)
                children.append(child)
        children = children[: pop_size - elitism]

        # The tracker's best only falls, to the least error of any candidate
        # so far; an all-zero or memo-answered child cannot lower it.
        best_before = tracker.best_error
        child_errors = [tracker.evaluate(child) for child in children]
        population = np.array(elites + children)
        errors = elite_errors + child_errors

        stalled = 0 if tracker.best_error != best_before else stalled + 1
        if stalled >= stall_window:
            break
