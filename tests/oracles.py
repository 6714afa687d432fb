"""Reference implementations the tests compare the library against, each
written once and independent of the library's code path."""

import numpy as np

from viloss.losses import batch_value_grad
from viloss.models import Model


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
