"""Downhill simplex search in the unit box.

Maintains a polytope of M+1 vertices in M dimensions, replacing the worst
vertex via reflection, expansion, or contraction, and shrinking toward the
best vertex when nothing else helps. Candidate points are clamped to the
box before evaluation. Terminates when the vertex error spread falls below
the tolerance or at the iteration cap.
"""

from __future__ import annotations

import numpy as np

from ..fusion import equal_weights
from .common import EvaluationTracker, rank_key


def initial_simplex(n_models: int, offset: float) -> list[np.ndarray]:
    """Equal-weights start plus one per-axis offset vertex (flipped at the wall)."""
    start = equal_weights(n_models).values
    vertices = [start]
    for axis in range(n_models):
        vertex = start.copy()
        if vertex[axis] + offset <= 1.0:
            vertex[axis] += offset
        else:
            vertex[axis] -= offset
        vertices.append(vertex.clip(0.0, 1.0))
    return vertices


def run(tracker: EvaluationTracker, n_models: int, *, reflection: float, expansion: float,
        contraction: float, shrink: float, initial_offset: float, spread_tolerance: float,
        max_iterations: int, on_iteration=None) -> None:
    vertices = initial_simplex(n_models, initial_offset)
    errors = [tracker.evaluate(v) for v in vertices]

    for _ in range(max_iterations):
        order = sorted(range(len(vertices)), key=lambda i: rank_key(errors[i], vertices[i]))
        vertices = [vertices[i] for i in order]
        errors = [errors[i] for i in order]
        if errors[-1] - errors[0] < spread_tolerance:
            break

        centroid = np.mean(vertices[:-1], axis=0)
        worst = vertices[-1]
        reflected = (centroid + reflection * (centroid - worst)).clip(0.0, 1.0)
        f_reflected = tracker.evaluate(reflected)

        if f_reflected < errors[0]:
            expanded = (centroid + expansion * (centroid - worst)).clip(0.0, 1.0)
            f_expanded = tracker.evaluate(expanded)
            if f_expanded < f_reflected:
                vertices[-1], errors[-1] = expanded, f_expanded
            else:
                vertices[-1], errors[-1] = reflected, f_reflected
        elif f_reflected < errors[-2]:
            vertices[-1], errors[-1] = reflected, f_reflected
        else:
            outside = f_reflected < errors[-1]
            toward = reflected if outside else worst
            contracted = (centroid + contraction * (toward - centroid)).clip(0.0, 1.0)
            f_contracted = tracker.evaluate(contracted)
            if (f_contracted <= f_reflected) if outside else (f_contracted < errors[-1]):
                vertices[-1], errors[-1] = contracted, f_contracted
            else:
                for i in range(1, len(vertices)):
                    step = shrink * (vertices[i] - vertices[0])
                    vertices[i] = (vertices[0] + step).clip(0.0, 1.0)
                    errors[i] = tracker.evaluate(vertices[i])

        if on_iteration is not None:
            on_iteration([v.copy() for v in vertices], list(errors))
