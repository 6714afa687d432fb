"""Base losses (MSE, Huber, quartic, BCE) with analytic gradients.

The per-sample weight is model-independent. It multiplies each sample's
parameter gradient last, inside the step that ``train`` runs
(``viloss.models._batch_step``), so the weighted gradient is exactly the
weight times the base gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import NORM_KINDS

BCE_EPS = 1e-12

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


def batch_value_grad(spec: LossSpec, y_hat: np.ndarray, y: np.ndarray):
    """Vectorized loss over a batch: y_hat and y are (B, v), or (R, B, v)
    for R stacked runs. Returns per-sample values (y_hat.shape[:-1]) and
    gradients w.r.t. the predictions (y_hat.shape)."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise ValueError(f"shape mismatch: {y_hat.shape} vs {y.shape}")
    v = y.shape[-1]
    r = y_hat - y

    if spec.base == "mse":
        value, grad = r**2, 2.0 * r
    elif spec.base == "lqr":
        value, grad = r**4, 4.0 * r**3
    elif spec.base == "huber":
        d = spec.delta
        size = np.abs(r)
        value = np.where(size < d, 0.5 * r**2, d * size - 0.5 * d**2)
        grad = np.minimum(np.maximum(r, -d), d)  # r inside the threshold, else d * sign(r)
    else:
        # bce: scalar probability target in {0, 1}
        if v != 1:
            raise ValueError("BCE requires a single output dimension")
        p = np.minimum(np.maximum(y_hat, BCE_EPS), 1.0 - BCE_EPS)  # np.clip, at half the call cost
        q = 1.0 - p
        value = -(y * np.log(p) + (1.0 - y) * np.log(q))
        return value[..., 0], (p - y) / (p * q)

    if v == 1:  # the mean over one output is that output: skip the sum and the divisions
        return value[..., 0], grad
    return value.sum(axis=-1) / v, grad / v
