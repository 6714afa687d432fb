"""Base losses (MSE, Huber, quartic, BCE) with analytic gradients.

The per-sample weight is model-independent. It multiplies each sample's
parameter gradient last, inside the step that ``train`` runs
(``viloss.models._batch_step``), so the weighted gradient is exactly the
weight times the base gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.norm_kind.lower() not in ("l1", "l2"):
            raise ValueError(f"norm_kind must be 'l1' or 'l2', got {self.norm_kind!r}")


def batch_value_grad(spec: LossSpec, y_hat: np.ndarray, y: np.ndarray):
    """Vectorized loss over a batch: y_hat, y are (B, v). Returns per-sample
    values (B,) and gradients w.r.t. predictions (B, v)."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise ValueError(f"shape mismatch: {y_hat.shape} vs {y.shape}")
    v = y.shape[1]
    r = y_hat - y

    if spec.base == "mse":
        return (r**2).sum(axis=1) / v, 2.0 * r / v

    if spec.base == "lqr":
        return (r**4).sum(axis=1) / v, 4.0 * r**3 / v

    if spec.base == "huber":
        d = spec.delta
        small = np.abs(r) < d
        z = np.where(small, 0.5 * r**2, d * np.abs(r) - 0.5 * d**2)
        dz = np.where(small, r, d * np.sign(r))
        return z.sum(axis=1) / v, dz / v

    # bce: scalar probability target in {0, 1}
    if v != 1:
        raise ValueError("BCE requires a single output dimension")
    p = np.clip(y_hat, BCE_EPS, 1.0 - BCE_EPS)
    value = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    grad = (p - y) / (p * (1.0 - p))
    return value[:, 0], grad
