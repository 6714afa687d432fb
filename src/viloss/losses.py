"""Base losses (MSE, Huber, quartic, BCE) with analytic gradients.

Every loss reads the model's linear output. BCE reads it as the logit of
the logistic model, so it needs no clip and is finite for any finite logit.

The per-sample weight is model-independent. It multiplies each sample's
parameter gradient last, inside the step that ``train`` runs
(``viloss.models._batch_step``), so the weighted gradient is exactly the
weight times the base gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import NORM_KINDS

BASE_KINDS = ("mse", "huber", "lqr", "bce")


@dataclass(frozen=True)
class LossSpec:
    base: str = "mse"
    delta: float = 1.0  # Huber threshold
    weighted: bool = True
    norm_kind: str = "l2"

    def __post_init__(self):
        if self.base not in BASE_KINDS:
            raise ValueError(f"unknown base loss {self.base!r}")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.norm_kind.lower() not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")

    @property
    def label(self) -> str:
        """The loss and gamma_norm columns of a results row."""
        if self.weighted:
            return f"viloss_{self.base},{self.norm_kind}"
        return f"{self.base},none"


def sigmoid(z):
    """The logistic function 1 / (1 + exp(-z)), in a form that cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


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
        return value[..., 0], sigmoid(y_hat) - y

    r = y_hat - y
    if spec.base == "mse":
        value, grad = r**2, 2.0 * r
    elif spec.base == "lqr":
        value, grad = r**4, 4.0 * r**3
    else:
        d = spec.delta
        size = np.abs(r)
        value = np.where(size < d, 0.5 * r**2, d * size - 0.5 * d**2)
        grad = np.minimum(np.maximum(r, -d), d)  # r inside the threshold, else d * sign(r)

    if v == 1:  # the mean over one output is that output: skip the sum and the divisions
        return value[..., 0], grad
    return value.sum(axis=-1) / v, grad / v
