"""Variation-incentive loss re-weighting for regression training."""

from .data import (
    Dataset,
    SynthSpec,
    generate_synth,
    ground_truth,
    load_csv,
    normalize_minmax,
    save_csv,
    split,
)
from .grid import (
    CellGrid,
    WeightTable,
    compute_weights,
    fit_grid,
    localized_deviation,
    locate_cell,
    select_lambda,
)
from .losses import LossEval, LossSpec, base_loss, weighted_loss
from .metrics import classification_metrics, regression_metrics
from .models import (
    Model,
    ModelSpec,
    TrainConfig,
    TrainReport,
    expand_polynomial,
    load_model,
    parameter_gradient,
    predict,
    save_model,
    train,
)

__version__ = "0.1.0"
