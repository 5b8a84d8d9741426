"""Late-fusion score combination with derivative-free weight search.

Loads per-model probability tables, fuses them with a weighted linear
combination, measures precision/recall/F1/accuracy, and searches for
merit-based fusion weights by minimizing validation error with five
derivative-free methods (exhaustive grid, particle swarm, genetic,
direction-set, downhill simplex) plus the equal-weights baseline.
"""

from .scoreio import align, load_labels, load_manifest, load_manifest_splits, load_scores

__version__ = "0.1.0"
