"""Global-best particle swarm search over the unit box.

Velocities mix an inertia term with cognitive (own best) and social (swarm
best) attraction; both velocity and position are clamped per axis. All the
randomness for one iteration comes from its own counter-based stream, so
the draw order can never depend on evaluation scheduling.
"""

from __future__ import annotations

from .common import EvaluationTracker, better, rank_key, rng_stream, uniform_rows

_SITE_INIT_POSITIONS = 0
_SITE_INIT_VELOCITIES = 1
_SITE_ITERATION_BASE = 2


def run(tracker: EvaluationTracker, n_models: int, seed: int, params: dict) -> None:
    swarm_size = params["swarm_size"]
    iterations = params["iterations"]
    inertia = params["inertia"]
    cognitive = params["cognitive"]
    social = params["social"]
    v_max = params["velocity_clamp"]

    positions, personal_error = uniform_rows(
        tracker, rng_stream(seed, _SITE_INIT_POSITIONS), swarm_size, n_models
    )
    personal_best = positions.copy()
    velocities = rng_stream(seed, _SITE_INIT_VELOCITIES).uniform(
        -v_max, v_max, size=(swarm_size, n_models)
    )

    best_j = min(
        range(swarm_size), key=lambda j: rank_key(personal_error[j], personal_best[j])
    )
    global_best = personal_best[best_j].copy()
    global_error = personal_error[best_j]

    for iteration in range(iterations):
        rng = rng_stream(seed, _SITE_ITERATION_BASE + iteration)
        r_cognitive = rng.random((swarm_size, n_models))
        r_social = rng.random((swarm_size, n_models))
        velocities = (
            inertia * velocities
            + cognitive * r_cognitive * (personal_best - positions)
            + social * r_social * (global_best - positions)
        )
        velocities.clip(-v_max, v_max, out=velocities)
        positions = (positions + velocities).clip(0.0, 1.0)
        for j, x in enumerate(positions):
            error = tracker.evaluate(x)
            if better(error, x, personal_error[j], personal_best[j]):
                personal_error[j] = error
                personal_best[j] = x
                if better(error, x, global_error, global_best):
                    global_error = error
                    global_best = x.copy()
