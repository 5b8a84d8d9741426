"""Exhaustive search over the weight simplex grid.

Candidates are every vector whose entries are nonnegative integer multiples
of the grid step summing to one (parameterized as i/steps to keep the floats
clean), which include the one-hot vectors, plus the equal-weights vector
when it is off the grid. The grid point with the lowest error wins; equal
errors go to the lexicographically smallest vector.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..fusion import equal_weights
from .common import EvaluationTracker


def grid_candidates(steps: int, n_models: int):
    """Yield the simplex grid in lexicographic order, then equal weights if it is off the grid.

    Stars and bars: each choice of ``n_models - 1`` bar slots out of ``steps +
    n_models - 1`` is one point, its numerators the gaps between the bars, and
    ``combinations`` order is lexicographic in those numerators.
    """
    end = steps + n_models - 1
    for bars in combinations(range(end), n_models - 1):
        yield np.array([(b - a - 1) / steps for a, b in zip((-1, *bars), (*bars, end))])
    if steps % n_models:
        yield equal_weights(n_models).values


def run(tracker: EvaluationTracker, n_models: int, steps: int) -> None:
    for candidate in grid_candidates(steps, n_models):
        tracker.evaluate(candidate)
