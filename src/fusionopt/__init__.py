"""Late-fusion score combination with derivative-free weight search.

Loads per-model probability tables, fuses them with a weighted linear
combination, measures precision/recall/F1/accuracy, and searches for
merit-based fusion weights by minimizing validation error with five
derivative-free methods (exhaustive grid, particle swarm, genetic,
direction-set, downhill simplex) plus the equal-weights baseline.
"""

from .errors import (
    AugmentationError,
    ConfigError,
    DataError,
    FusionOptError,
    InvalidWeightsError,
    UsageError,
)
from .fusion import (
    FusedScores,
    Predictions,
    WeightVector,
    equal_weights,
    exact_simplex,
    fuse,
    normalize,
    predict,
)
from .objective import (
    OBJECTIVE_VARIANTS,
    POSITIVE_CLASS,
    ConfusionCounts,
    MetricsReport,
    confusion,
    cumulative_accuracy,
    cumulative_error,
    f1_score,
    make_objective,
    metrics,
)
from .optimizers import (
    METHODS,
    STOCHASTIC_METHODS,
    OptimizerConfig,
    OptResult,
    brute_force,
    optimize,
    result_to_json,
    write_result_json,
)
from .scoreio import (
    FusionDataset,
    LabelVector,
    Manifest,
    ReportRow,
    ScoreMatrix,
    align,
    load_aligned,
    load_labels,
    load_manifest,
    load_manifest_splits,
    load_scores,
    read_id_list,
    subset,
    write_labels,
    write_report,
    write_scores,
)
from .textprep import (
    TextSample,
    augment_backtranslate,
    clean_text,
    identity_translator,
    read_samples,
    upsample,
    write_samples,
)

__version__ = "0.1.0"
