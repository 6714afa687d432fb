"""Linear, polynomial and logistic predictors with a deterministic
mini-batch SGD trainer that consumes per-sample weights."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .data import Dataset
from .grid import WeightTable
from .losses import LossSpec, batch_value_grad

MODEL_KINDS = ("linear", "polynomial", "logistic")


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "linear"
    degree: int = 1  # polynomial only
    input_dim: int = 1
    output_dim: int = 1

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "logistic" and self.output_dim != 1:
            raise ValueError("logistic models have a single output")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 1
    learning_rate: float = 0.01
    seed: int = 0
    shuffle: bool = True


@dataclass
class TrainReport:
    loss_history: list[float] = field(default_factory=list)
    wall_time: float = 0.0


def monomial_exponents(n_features: int, degree: int):
    """Exponent tuples for all monomials of total degree 0..degree in
    graded lexicographic order: [1, a, b, a^2, ab, b^2, ...]."""
    exps = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(n_features), d):
            e = [0] * n_features
            for j in combo:
                e[j] += 1
            exps.append(tuple(e))
    return exps


def expand_polynomial(features: np.ndarray, degree: int) -> np.ndarray:
    """Full-monomial basis (constant included) of one vector or a batch."""
    features = np.asarray(features, dtype=np.float64)
    single = features.ndim == 1
    x = np.atleast_2d(features)
    cols = [np.prod(x**np.array(e), axis=1) for e in monomial_exponents(x.shape[1], degree)]
    phi = np.stack(cols, axis=1)
    return phi[0] if single else phi


@dataclass
class Model:
    spec: ModelSpec
    weights: np.ndarray  # (output_dim, basis_dim)
    bias: np.ndarray  # (output_dim,)

    @property
    def basis_dim(self) -> int:
        return self.weights.shape[1]

    def expand(self, features: np.ndarray) -> np.ndarray:
        if self.spec.kind == "polynomial":
            return expand_polynomial(features, self.spec.degree)
        return np.asarray(features, dtype=np.float64)

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        phi = np.atleast_2d(self.expand(features))
        if phi.shape[1] != self.basis_dim:
            raise ValueError(f"expected basis dim {self.basis_dim}, got {phi.shape[1]}")
        z = phi @ self.weights.T + self.bias
        if self.spec.kind == "logistic":
            return _sigmoid(z)
        return z


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def init_model(spec: ModelSpec) -> Model:
    # zero init is deterministic and sufficient for the convex losses here
    if spec.kind == "polynomial":
        basis_dim = len(monomial_exponents(spec.input_dim, spec.degree))
    else:
        basis_dim = spec.input_dim
    return Model(spec, np.zeros((spec.output_dim, basis_dim)), np.zeros(spec.output_dim))


def _batch_step(model: Model, loss_spec: LossSpec, phi: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Forward and backward pass over one batch of expanded features.

    Returns the unweighted per-sample loss values (B,) and the weighted
    gradient sums over the batch w.r.t. W (out, basis) and b (out,). Each
    sample's gradient is formed first and its weight multiplies it last, so
    a weighted sample's gradient is exactly w_i times its unweighted one.
    """
    z = phi @ model.weights.T + model.bias
    logistic = model.spec.kind == "logistic"
    pred = _sigmoid(z) if logistic else z
    values, grad = batch_value_grad(loss_spec, pred, y)
    if logistic:
        grad = grad * pred * (1.0 - pred)
    dw = np.einsum("bo,bk,b->ok", grad, phi, w)
    db = np.einsum("bo,b->o", grad, w)
    return values, dw, db


def parameter_gradient(model: Model, loss_spec: LossSpec, features, target, weight: float = 1.0):
    """Gradient of weight * loss(y_hat(x), y) w.r.t. (W, b) for one sample:
    the step that ``train`` runs, on a batch of one."""
    phi = np.atleast_2d(model.expand(features))
    y = np.atleast_2d(np.asarray(target, dtype=np.float64))
    _, dw, db = _batch_step(model, loss_spec, phi, y, np.array([weight], dtype=np.float64))
    return dw, db


def train(
    model_spec: ModelSpec,
    dataset: Dataset,
    loss_spec: LossSpec,
    config: TrainConfig,
    weights: WeightTable | np.ndarray | None = None,
) -> tuple[Model, TrainReport]:
    """Mini-batch SGD. The batch parameter gradient is the mean over the
    batch of weight_i times each sample's loss gradient; runs are
    deterministic given the config seed. Weights must be finite and >= 0."""
    n = dataset.n
    if config.batch_size > n:
        raise ValueError("batch_size cannot exceed the dataset size")

    if isinstance(weights, WeightTable):
        w = np.asarray(weights.weight, dtype=np.float64)
    elif weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64)
    if len(w) != n:
        raise ValueError("weight table not aligned with dataset")
    bad = np.flatnonzero(~(np.isfinite(w) & (w >= 0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"weight of sample {i} must be finite and non-negative, got {w[i]!r}")
    if model_spec.kind == "logistic" and not np.isin(dataset.targets, (0.0, 1.0)).all():
        raise ValueError("logistic training requires targets in {0, 1}")

    model = init_model(model_spec)
    phi = np.atleast_2d(model.expand(dataset.features))
    y = dataset.targets

    rng = np.random.default_rng(config.seed)
    report = TrainReport()
    t0 = time.perf_counter()
    lr = config.learning_rate

    for epoch in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            B = len(batch)
            wb = w[batch]
            values, dw, db = _batch_step(
                model, loss_spec, np.take(phi, batch, axis=0), np.take(y, batch, axis=0), wb
            )
            batch_loss = float((wb * values).sum()) / B
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch starting at {start}"
                )
            epoch_loss += batch_loss * B
            model.weights -= lr * dw / B
            model.bias -= lr * db / B
        report.loss_history.append(epoch_loss / n)

    report.wall_time = time.perf_counter() - t0
    return model, report


def save_model(model: Model, path) -> None:
    spec = model.spec
    with open(path, "w") as fh:
        fh.write(f"{spec.kind},{spec.degree},{spec.input_dim},{spec.output_dim}\n")
        for value in np.concatenate([model.weights.ravel(), model.bias]):
            fh.write(f"{float(value)!r}\n")


def load_model(path) -> Model:
    with open(path) as fh:
        kind, degree, input_dim, output_dim = fh.readline().strip().split(",")
        params = np.array([float(line) for line in fh if line.strip()])
    spec = ModelSpec(kind, int(degree), int(input_dim), int(output_dim))
    model = init_model(spec)
    expected = model.weights.size + model.bias.size
    if params.size != expected:
        raise ValueError(f"expected {expected} parameters, found {params.size}")
    model.weights = params[: model.weights.size].reshape(model.weights.shape)
    model.bias = params[model.weights.size :]
    return model
