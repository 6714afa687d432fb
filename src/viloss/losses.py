"""Base losses (MSE, Huber, quartic, BCE): per-sample values, and the
in-place gradients the SGD step runs.

A ``LossSpec`` is the loss alone: its base and, for Huber, its threshold.
Every loss reads the model's linear output. BCE reads it as the logit of
the logistic model, so it needs no clip and is finite for any finite logit.

Values and gradients take separate paths. A loss's gradient w.r.t. its v
outputs is a constant c (``GRAD_CONSTANT``) times a non-linear part, over
v. For bce of the logit z it is (tanh(z / 2) + 1 - 2y) / 2, as sigmoid(z)
= (tanh(z / 2) + 1) / 2; a logistic model trains on its basis times 1/2
(``viloss.models._affine_basis``), so its outputs are h = z / 2, its part
tanh(h) + 1 - 2y, its target operand 2y (``grad_targets``) and its c 1.
The parts are the only gradient code, defined once, here, as in-place
ufunc calls ``(ufunc, a, b, out)``, run ``ufunc(a, b, out=out)``, or
``ufunc(a, out=out)`` if b is None: ``residual_ops`` turns a regression
residual z - y into its part, and ``bce_ops`` writes bce's from h. Each
constant operand is a float64 0-d array, which numpy takes without the
conversion a Python float costs it on every call. The SGD step
(``viloss.models._batch_step``) runs these calls on its (batch, runs * v)
stack, and ``train`` folds c / v with lr / B into the factor of each
epoch's weights ``mu / (1 + gamma)``, exactly when v is a power of two.
``train`` takes values from ``batch_value_grad`` once per epoch and loss
group, for the loss history and the divergence check.
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


GRAD_CONSTANT = {"mse": 2.0, "huber": 1.0, "lqr": 4.0, "bce": 1.0}


_ONE, _THREE = np.array(1.0), np.array(3.0)


def grad_targets(spec: LossSpec, y: np.ndarray) -> np.ndarray:
    """The target operand of the loss's gradient: 2y for bce, else y."""
    return 2.0 * y if spec.base == "bce" else y


def bce_ops(h, y2, g) -> list[tuple]:
    """The in-place calls that write bce's part tanh(h) + 1 - y2 into ``g``
    for the half logit ``h`` and twice the target ``y2``: tanh, + 1, - y2."""
    return [(np.tanh, h, None, g), (np.add, g, _ONE, g), (np.subtract, g, y2, g)]


def residual_ops(spec: LossSpec, r) -> list[tuple]:
    """The in-place calls that turn the residual ``r`` = y_hat - y of a
    regression loss into the non-linear part of its gradient w.r.t. y_hat:
    r**3 for lqr, r clipped to [-delta, delta] for huber, and none for mse,
    whose part is r itself."""
    if spec.base == "lqr":
        return [(np.power, r, _THREE, r)]
    if spec.base == "huber":  # r inside the threshold, else delta * sign(r)
        return [(np.maximum, r, np.array(-spec.delta, np.float64), r),
                (np.minimum, r, np.array(spec.delta, np.float64), r)]
    return []


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
