"""Base losses (MSE, Huber, quartic, BCE): their specs and per-sample values.

A ``LossSpec`` is the loss alone: its base and, for Huber, its threshold.
Every loss reads the model's linear output. BCE reads it as the logit of
the logistic model, so it needs no clip and is finite for any finite logit.
``batch_value_grad`` gives the values that ``viloss.models.train`` reports
and checks for divergence; the SGD step's gradient is ``viloss.models``'s.
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


def batch_value_grad(spec: LossSpec, y_hat: np.ndarray, y: np.ndarray):
    """Per-sample loss values (y_hat.shape[:-1]) over a batch: y_hat and y
    are (B, v), or (R, B, v) for R stacked runs; for BCE y_hat is the logit.
    Values only, despite the name, which the benchmark's tracer pins."""
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
    return value[..., 0] if v == 1 else value.sum(axis=-1) / v
