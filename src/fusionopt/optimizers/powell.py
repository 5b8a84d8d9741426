"""Direction-set minimization with bounded line searches and seeded restarts.

The core is the classic scheme: cycle through a set of search directions
(coordinate axes initially), minimizing along each with a golden-section
line search restricted to the unit box, then consider replacing the
direction of largest single decrease with the overall displacement of the
cycle. A point only moves on strict improvement, so the error at the start
point bounds the result from above.

The stochastic element is the restart wrapper: the first start is fixed at
equal weights and consumes no randomness; further starts are drawn
uniformly from the box, each from its own seeded stream.
"""

from __future__ import annotations

import math

import numpy as np

from ..fusion import equal_weights
from .common import EvaluationTracker, rng_stream

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _feasible_interval(x: np.ndarray, direction: np.ndarray) -> tuple[float, float]:
    """Range of t keeping x + t*direction inside the unit box (0 is always inside)."""
    low, high = -math.inf, math.inf
    for xi, di in zip(x.tolist(), direction.tolist()):
        if di == 0.0:
            continue
        a = (0.0 - xi) / di
        b = (1.0 - xi) / di
        low = max(low, min(a, b))
        high = min(high, max(a, b))
    if not math.isfinite(low) or not math.isfinite(high):
        return 0.0, 0.0
    return low, high


def _line_minimize(tracker, x, direction, f_x, tolerance):
    """Golden-section search along ``direction``; moves only on improvement."""
    low, high = _feasible_interval(x, direction)
    if high - low <= tolerance:
        return x, f_x

    best_x, best_f = x, f_x

    def probe(t: float) -> float:
        nonlocal best_x, best_f
        point = (x + t * direction).clip(0.0, 1.0)
        f = tracker.evaluate(point)
        if f < best_f:
            best_x, best_f = point, f
        return f

    a, b = low, high
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    f_c = probe(c)
    f_d = probe(d)
    while b - a > tolerance:
        if f_c < f_d:
            b, d, f_d = d, c, f_c
            c = b - _GOLDEN * (b - a)
            f_c = probe(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + _GOLDEN * (b - a)
            f_d = probe(d)
    return best_x, best_f


def _minimize_from(tracker, start, line_tolerance, outer_tolerance, max_outer):
    n = start.size
    directions = [np.eye(n)[i] for i in range(n)]
    x = start.copy()
    f_x = tracker.evaluate(x)
    for _ in range(max_outer):
        f_start = f_x
        x_start = x.copy()
        biggest_drop = 0.0
        drop_index = 0
        for i, direction in enumerate(directions):
            f_before = f_x
            x, f_x = _line_minimize(tracker, x, direction, f_x, line_tolerance)
            if f_before - f_x > biggest_drop:
                biggest_drop = f_before - f_x
                drop_index = i
        if 2.0 * (f_start - f_x) <= outer_tolerance * (abs(f_start) + abs(f_x)) + 1e-20:
            break
        # Standard replacement test: keep the direction set well conditioned
        # by only adopting the cycle displacement when the extrapolated point
        # keeps descending and the decrease was not dominated by one direction.
        extrapolated = (2.0 * x - x_start).clip(0.0, 1.0)
        f_e = tracker.evaluate(extrapolated)
        if f_e < f_start:
            t = (
                2.0 * (f_start - 2.0 * f_x + f_e) * (f_start - f_x - biggest_drop) ** 2
                - biggest_drop * (f_start - f_e) ** 2
            )
            if t < 0.0:
                new_direction = x - x_start
                norm = float(np.linalg.norm(new_direction))
                if norm > 0.0:
                    new_direction = new_direction / norm
                    x, f_x = _line_minimize(tracker, x, new_direction, f_x, line_tolerance)
                    directions[drop_index] = directions[-1]
                    directions[-1] = new_direction


def run(tracker: EvaluationTracker, n_models: int, seed: int | None, params: dict) -> None:
    restarts = params["restarts"]
    line_tolerance = params["line_tolerance"]
    outer_tolerance = params["outer_tolerance"]
    max_outer = params["max_outer_iterations"]
    for restart in range(restarts):
        if restart == 0:
            start = equal_weights(n_models).values
        else:
            start = rng_stream(seed, restart).uniform(size=n_models)
        _minimize_from(tracker, start, line_tolerance, outer_tolerance, max_outer)
