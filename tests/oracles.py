"""Reference implementations the tests compare the library against, each
written once and independent of the library's code path, the loss
gradient as the library's step forms it, which they are compared with,
and ``traced_peak``, the traced memory peak of one call."""

import tracemalloc

import numpy as np

from viloss import models
from viloss.losses import batch_value_grad
from viloss.models import Model

# each loss's gradient constant as the paper states it, on the whole basis
PAPER_CONSTANT = {"mse": 2.0, "huber": 1.0, "lqr": 4.0, "bce": 0.5}


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory Python traced during the
    call, in bytes, its result included; memory allocated before the call
    does not count."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_force_cells(features, lam):
    """Independent binning by direct interval tests: each cell's bin-index
    tuple mapped to its rows, in row order."""
    lo, hi = features.min(axis=0), features.max(axis=0)
    cells = {}
    for i, x in enumerate(features):
        key = []
        for k in range(features.shape[1]):
            if hi[k] == lo[k]:
                key.append(0)
                continue
            width = (hi[k] - lo[k]) / lam
            p = lam - 1  # closed last bin
            for b in range(lam):
                left = lo[k] + b * width
                right = lo[k] + (b + 1) * width
                if left <= x[k] < right:
                    p = b
                    break
            key.append(p)
        cells.setdefault(tuple(key), []).append(i)
    return cells


def binary_clusters_row_loop(spec):
    """``generate_binary_clusters`` drawn row by row, with each row's own
    ``normal`` or ``uniform`` call."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    y = (rng.random(n) < 0.05).astype(np.float64)
    x = np.empty((n, 2))
    in_cluster = rng.random(n) < 0.8
    for i in range(n):
        if y[i] == 1:
            x[i] = rng.normal(0.75, 0.1, 2)
        elif in_cluster[i]:
            x[i] = rng.normal(0.25, 0.08, 2)
        else:
            x[i] = rng.uniform(0.0, 1.0, 2)
    x = np.clip(x, 0.0, 1.0)
    flip = rng.random(n) < 0.02
    return x, np.where(flip, 1.0 - y, y)


def finite_diff_param_grad(model, loss_spec, x, y, weight, h=1e-6):
    """Central-difference gradient of weight * loss(y_hat(x), y) w.r.t. the
    model's flattened (W, b)."""
    def value(flat):
        probe = Model(model.spec, flat[: model.weights.size].reshape(model.weights.shape),
                      flat[model.weights.size :])
        pred = probe.predict_batch(x)[0]
        if loss_spec.base == "bce":
            # BCE of the predicted probability, independent of the library's
            # loss of the logit
            return weight * -(y[0] * np.log(pred[0]) + (1 - y[0]) * np.log(1 - pred[0]))
        values = batch_value_grad(loss_spec, pred[None], np.atleast_2d(y))
        return weight * values[0]

    flat0 = np.concatenate([model.weights.ravel(), model.bias])
    grad = np.zeros_like(flat0)
    for i in range(len(flat0)):
        up, down = flat0.copy(), flat0.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (value(up) - value(down)) / (2 * h)
    return grad


def allocating_loss_grad(spec, y_hat, y):
    """The gradient of the loss w.r.t. y_hat (..., v), by its formulas on
    fresh arrays: 2r, 4r**3 or r clipped to [-delta, delta] with r = y_hat -
    y, or sigmoid(y_hat) - y for bce of the logit, over v."""
    if spec.base == "bce":
        return 0.5 * (1.0 + np.tanh(0.5 * y_hat)) - y
    r = y_hat - y
    if spec.base == "mse":
        grad = 2.0 * r
    elif spec.base == "lqr":
        grad = 4.0 * r**3
    else:
        d = spec.delta
        grad = np.minimum(np.maximum(r, -d), d)
    v = y.shape[-1]
    return grad if v == 1 else grad / v


def run_ops(ops):
    """Run in-place ufunc calls ``(ufunc, a, b, out)`` as the SGD step does."""
    for ufunc, a, b, out in ops:
        if b is None:
            ufunc(a, out=out)
        else:
            ufunc(a, b, out=out)


def in_place_gradient(spec, y_hat, y):
    """The same gradient as the step forms it: the paper's constant times
    the non-linear part that the library's in-place calls write, over v
    (the step folds the constant over v into its weights, here 1). bce's
    calls read the half logit and twice the target."""
    part, bce = np.empty_like(y), spec.base == "bce"
    ops = models._step_ops(bce, 0.5 * y_hat if bce else y_hat, 2.0 * y if bce else y,
                           np.array(1.0), part, models._part_ops([(spec, slice(None))], part))
    run_ops(ops)
    return PAPER_CONSTANT[spec.base] * part / y.shape[-1]
