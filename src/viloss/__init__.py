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
    select_lambda,
)
from .losses import LossSpec, batch_value_grad
from .metrics import classification_metrics, regression_metrics
from .models import (
    Model,
    ModelSpec,
    TrainConfig,
    TrainReport,
    expand_polynomial,
    load_model,
    parameter_gradient,
    save_model,
    train,
)

__version__ = "0.1.0"
