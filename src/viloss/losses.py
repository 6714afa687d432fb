"""Base losses (MSE, Huber, quartic, BCE): per-sample values, and the
in-place gradients the SGD step runs.

A ``LossSpec`` is the loss alone: its base and, for Huber, its threshold.
Every loss reads the model's linear output. BCE reads it as the logit of
the logistic model, so it needs no clip and is finite for any finite logit.

Values and gradients take separate paths. The step
(``viloss.models._batch_step``) computes gradients only, in place, with
``bce_grad`` or ``residual_grad``, the only gradient code. ``train`` takes
values from ``batch_value_grad`` once per epoch and loss group, for the
loss history and the divergence check. Nothing here weights a sample: the
weight ``mu / (1 + gamma)``, times lr / B, scales each sample's loss
gradient inside the step before one matmul with the basis, and never
reads a loss value.
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


def sigmoid(z, out=None):
    """The logistic function 1 / (1 + exp(-z)) of a float array, in a form
    that cannot overflow, written into ``out`` when it is given."""
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def bce_grad(z, y, out=None):
    """sigmoid(z) - y, the BCE gradient w.r.t. the logit z, written into
    ``out`` when it is given."""
    out = sigmoid(z, out)
    out -= y
    return out


def residual_grad(spec: LossSpec, r: np.ndarray) -> np.ndarray:
    """Turn the residual r = y_hat - y (..., v) of a regression loss into
    its gradient w.r.t. y_hat, in place, and return it."""
    if spec.base == "mse":
        r *= 2.0
    elif spec.base == "lqr":
        np.power(r, 3, out=r)
        r *= 4.0
    else:
        d = spec.delta
        np.maximum(r, -d, out=r)  # r inside the threshold, else d * sign(r)
        np.minimum(r, d, out=r)
    v = r.shape[-1]
    if v != 1:  # the mean over one output is that output
        r /= v
    return r


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
