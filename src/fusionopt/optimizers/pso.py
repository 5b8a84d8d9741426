"""Global-best particle swarm search over the unit box.

Velocities mix an inertia term with cognitive (own best) and social (the
tracker's best) attraction; both velocity and position are clamped per axis.
An all-zero position, which the tracker never keeps, is never a particle's
best either. All the randomness for one iteration comes from its own
counter-based stream, so the draw order can never depend on evaluation
scheduling.
"""

from __future__ import annotations

from .common import EvaluationTracker, better, rng_stream, uniform_rows

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

    for iteration in range(iterations):
        rng = rng_stream(seed, _SITE_ITERATION_BASE + iteration)
        r_cognitive = rng.random((swarm_size, n_models))
        r_social = rng.random((swarm_size, n_models))
        # best_raw is None only if every initial uniform row drew exactly zero.
        velocities = (
            inertia * velocities
            + cognitive * r_cognitive * (personal_best - positions)
            + social * r_social * (tracker.best_raw - positions)
        )
        velocities.clip(-v_max, v_max, out=velocities)
        positions = (positions + velocities).clip(0.0, 1.0)
        for j, x in enumerate(positions):
            error = tracker.evaluate(x)
            if better(error, x, personal_error[j], personal_best[j]) and x.any():
                personal_error[j] = error
                personal_best[j] = x
