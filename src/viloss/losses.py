"""Base losses (MSE, Huber, quartic, BCE) with analytic gradients.

A ``LossSpec`` is the loss alone: its base and, for Huber, its threshold.
Every loss reads the model's linear output. BCE reads it as the logit of
the logistic model, so it needs no clip and is finite for any finite logit.

Nothing here weights a sample. The per-sample weight is the weights given
with a run to ``train``; it multiplies each sample's parameter gradient
last, inside the SGD step (``viloss.models._batch_step``), so the weighted
gradient is exactly the weight times the base gradient. The weight never
reads a loss value, so the step calls only ``loss_grad``; ``train`` calls
``batch_value_grad`` once per epoch for the loss history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BASE_KINDS = ("mse", "huber", "lqr", "bce")


@dataclass(frozen=True)
class LossSpec:
    base: str = "mse"
    delta: float = 1.0  # Huber threshold

    def __post_init__(self):
        if self.base not in BASE_KINDS:
            raise ValueError(f"unknown base loss {self.base!r}")
        if not self.delta > 0:  # nan fails this too
            raise ValueError("delta must be positive")


def sigmoid(z):
    """The logistic function 1 / (1 + exp(-z)), in a form that cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def loss_grad(spec: LossSpec, y_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample gradient w.r.t. y_hat, unchecked: y_hat and y are float
    arrays of one shape (..., v), and for BCE y_hat is the logit and v is 1.
    Every gradient formula lives here; ``batch_value_grad`` checks its
    operands and calls this."""
    if spec.base == "bce":
        return sigmoid(y_hat) - y
    r = y_hat - y
    if spec.base == "mse":
        grad = 2.0 * r
    elif spec.base == "lqr":
        grad = 4.0 * r**3
    else:
        d = spec.delta
        grad = np.minimum(np.maximum(r, -d), d)  # r inside the threshold, else d * sign(r)
    v = y.shape[-1]
    return grad if v == 1 else grad / v  # the mean over one output is that output


def batch_value_grad(spec: LossSpec, y_hat: np.ndarray, y: np.ndarray):
    """Vectorized loss over a batch: y_hat and y are (B, v), or (R, B, v)
    for R stacked runs; for BCE y_hat is the logit. Returns per-sample
    values (y_hat.shape[:-1]) and gradients w.r.t. y_hat (y_hat.shape)."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise ValueError(f"shape mismatch: {y_hat.shape} vs {y.shape}")
    v = y.shape[-1]
    if spec.base == "bce":
        # -(y log s + (1 - y) log(1 - s)) with s = sigmoid(z), for a target y in {0, 1}
        if v != 1:
            raise ValueError("BCE requires a single output dimension")
        with np.errstate(under="ignore"):  # for |z| > ~745, exp(-|z|) rounds to its limit, 0
            value = np.maximum(y_hat, 0.0) - y * y_hat + np.log1p(np.exp(-np.abs(y_hat)))
    elif spec.base == "huber":
        d = spec.delta
        size = np.abs(y_hat - y)
        value = np.where(size < d, 0.5 * size**2, d * size - 0.5 * d**2)
    else:
        r = y_hat - y
        value = r**2 if spec.base == "mse" else r**4
    value = value[..., 0] if v == 1 else value.sum(axis=-1) / v
    return value, loss_grad(spec, y_hat, y)
