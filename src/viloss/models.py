"""Linear, polynomial and logistic predictors with a deterministic
mini-batch SGD trainer that consumes per-sample weights."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations_with_replacement

import numpy as np

from .data import Dataset, NormalizationRecord
from .losses import LossSpec, batch_value_grad, bce_grad, residual_grad, sigmoid

MODEL_KINDS = ("linear", "polynomial", "logistic")


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    """A model's kind and degree; the data it trains on give its widths."""

    kind: str = "linear"
    degree: int = 1  # polynomial only

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.kind != "polynomial" and self.degree != 1:
            raise ValueError(f"a {self.kind} model has degree 1, got {self.degree}")


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 1
    learning_rate: float = 0.01
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainReport:
    loss_history: list[float]  # weighted mean loss per epoch


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
            return sigmoid(z)
        return z


def _basis_size(spec: ModelSpec, input_dim: int) -> int:
    """Width of the model's basis: the input itself, or for a polynomial
    every monomial of degree 0..degree, ``len(monomial_exponents(...))``."""
    if spec.kind == "polynomial":
        return math.comb(input_dim + spec.degree, spec.degree)
    return input_dim


def init_model(spec: ModelSpec, input_dim: int, output_dim: int) -> Model:
    # zero init is deterministic and sufficient for the convex losses here
    return Model(spec, np.zeros((output_dim, _basis_size(spec, input_dim))), np.zeros(output_dim))


Run = tuple[LossSpec, np.ndarray | None]


def check_loss_pairing(kind: str, specs: list[LossSpec]) -> None:
    """Reject a run whose loss does not go with a ``kind`` model: logistic
    models and bce, the loss of a logit, only go with each other."""
    for r, spec in enumerate(specs):
        if (kind == "logistic") != (spec.base == "bce"):
            raise ValueError(f"run {r}: a {kind} model cannot train with the {spec.base} loss; "
                             f"logistic models and the bce loss go together")


def check_binary_targets(targets: np.ndarray) -> None:
    """Reject targets a logistic model can neither train on nor be scored
    against: it has a single output, and its targets lie in {0, 1}."""
    if targets.shape[1] != 1:
        raise ValueError(f"logistic models have a single output; the dataset has "
                         f"{targets.shape[1]} target columns")
    if not np.isin(targets, (0.0, 1.0)).all():
        raise ValueError("logistic models require targets in {0, 1}")


def _loss_groups(kind, specs: list[LossSpec]) -> list[tuple[LossSpec, slice]]:
    """Split the stack, after ``check_loss_pairing``, into its runs of
    consecutive equal loss specs: each one's spec and slice, in order."""
    check_loss_pairing(kind, specs)
    starts = [r for r in range(len(specs)) if r == 0 or specs[r] != specs[r - 1]]
    return [(specs[a], slice(a, b)) for a, b in zip(starts, starts[1:] + [len(specs)])]


def _step_views(params, grad):
    """What a step reads of ``params`` (R, out, basis + 1) and writes of its
    gradient buffer ``grad``: the weights transposed (R, basis, out), the
    bias (R, 1, out), ``grad`` itself and its weight and bias parts. They
    stay valid while both arrays are only updated in place."""
    k = params.shape[2] - 1
    return (params[:, :, :k].transpose(0, 2, 1), params[:, None, :, k],
            grad, grad[:, :, :k], grad[:, :, k])


def _batch_step(groups, params, views, phi, y, w, z, g, lr):
    """One SGD step of R stacked runs over one shared batch, in place.

    ``params`` (R, out, basis + 1) holds each run's weights with its bias as
    the last column, ``views`` its views from ``_step_views``, ``phi`` (B,
    basis) the batch's features, ``y`` (R, B, out) its targets repeated per
    run, ``w`` (R, B) each run's sample weights and ``groups`` the slices of
    runs that share a loss (see ``_loss_groups``). Writes the outputs into
    ``z`` (R, B, out), their loss gradients into ``g`` (R, B, out) and the
    weighted gradient sums into the gradient buffer of ``views``, then
    subtracts ``lr`` times their batch mean from ``params``. It writes only
    into the arrays it is given and computes no loss value. Each sample's gradient is formed
    first and its weight multiplies it last, so a weighted sample's gradient
    is exactly w_i times its unweighted one. Runs never mix: a non-finite
    value in one run leaves the others' results unchanged.
    """
    weights_t, bias, grad, grad_weights, grad_bias = views
    np.matmul(phi, weights_t, out=z)
    z += bias
    if groups[0][0].base == "bce":  # a stack is all bce or all regression (check_loss_pairing)
        bce_grad(z, y, out=g)
    else:
        np.subtract(z, y, out=g)  # one residual for the stack, then each group's gradient
        for spec, runs in groups:
            residual_grad(spec, g[runs])
    np.einsum("rbo,bk,rb->rok", g, phi, w, out=grad_weights)
    np.einsum("rbo,rb->ro", g, w, out=grad_bias)
    grad *= lr
    grad /= len(phi)
    params -= grad


def parameter_gradient(model: Model, loss_spec: LossSpec, features, target, weight: float = 1.0):
    """Gradient of weight * loss(y_hat(x), y) w.r.t. (W, b) for one sample:
    the step that ``train`` runs, for one run on a batch of one, at a
    learning rate of 1 on a copy of the parameters."""
    phi = np.atleast_2d(model.expand(features))
    y = np.atleast_2d(np.asarray(target, dtype=np.float64))[None]
    groups = _loss_groups(model.spec.kind, [loss_spec])
    w = np.array([[weight]], dtype=np.float64)
    params = np.concatenate([model.weights, model.bias[:, None]], axis=1)[None]
    grad = np.empty_like(params)
    _batch_step(groups, params, _step_views(params, grad), phi, y, w,
                np.empty(y.shape), np.empty(y.shape), 1.0)
    return grad[0, :, :-1], grad[0, :, -1]


def _run_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("weight table not aligned with dataset")
    return w


def train(
    model_spec: ModelSpec,
    dataset: Dataset,
    runs: list[Run],
    config: TrainConfig,
) -> list[tuple[Model, TrainReport]]:
    """Mini-batch SGD of every run in ``runs`` in lockstep.

    A run is a ``(LossSpec, weights)`` pair; ``weights`` is an (n,) array
    of finite weights >= 0, or None for unit weights; nothing else weights
    a run. The model's input and output widths are the dataset's feature
    and target widths. All runs share the model spec, the data, the config
    and so the shuffle order, and each run's result equals a ``train`` of
    that run alone. The batch parameter gradient is the mean over the batch
    of weight_i times each sample's loss gradient. Each run's weights and
    bias live in one (out, basis + 1) row of a parameter array, the bias
    last. The batch bounds, the step's views of the parameters and its
    buffers are built once; a step computes gradients only, in place
    (``_batch_step``), and the loss values of an epoch, at the parameters
    each batch saw, are computed once when it ends, for the history and the
    divergence check. Returns one (model, report) per run, in the order of
    ``runs``.
    """
    n = dataset.n
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds the {n} training rows")
    specs = [spec for spec, _ in runs]
    if not specs:
        raise ValueError("train needs at least one run")
    w = np.stack([_run_weights(weights, n) for _, weights in runs])
    bad = np.argwhere(~(np.isfinite(w) & (w >= 0)))
    if bad.size:
        r, i = (int(v) for v in bad[0])
        raise ValueError(
            f"run {r}: weight of sample {i} must be finite and non-negative, got {w[r, i]!r}"
        )
    # each loss sees the slice of the stack its consecutive runs fill
    groups = _loss_groups(model_spec.kind, specs)
    if model_spec.kind == "logistic":
        check_binary_targets(dataset.targets)

    template = init_model(model_spec, dataset.feature_dim, dataset.target_dim)
    phi = np.atleast_2d(template.expand(dataset.features))
    R, k, bs = len(specs), template.basis_dim, config.batch_size
    # the targets once per run (a view when there is one run), so the loss
    # sees operands of one shape and takes numpy's fast non-broadcast path
    y = np.ascontiguousarray(np.broadcast_to(dataset.targets, (R,) + dataset.targets.shape))
    params = np.zeros((R, dataset.target_dim, k + 1))  # each run's weights, then its bias
    grad = np.empty_like(params)
    views = _step_views(params, grad)
    z = np.empty(y.shape)  # each sample's output at the step that used it
    g = np.empty((R, bs, dataset.target_dim))  # a batch's loss gradients
    values = np.empty((R, n))

    full = n - n % bs  # the samples in full batches
    # each batch's bounds and its part of g: all of it, or a leading slice
    # for a partial last batch
    last = g[:, : n - full]
    batches = [(start, min(start + bs, n), g if start < full else last)
               for start in range(0, n, bs)]
    history = np.empty((R, config.epochs))
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate

    # a diverging run keeps stepping on non-finite values until the epoch
    # ends and the check below names it, so numpy's warnings are noise here
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n) if config.shuffle else np.arange(n)
            y_e, w_e = y.take(order, axis=1), w.take(order, axis=1)
            for start, stop, g_batch in batches:
                _batch_step(groups, params, views, phi.take(order[start:stop], axis=0),
                            y_e[:, start:stop], w_e[:, start:stop], z[:, start:stop],
                            g_batch, lr)
            # the loss values of the epoch at the parameters each batch saw
            for spec, runs in groups:
                values[runs] = batch_value_grad(spec, z[runs], y_e[runs])
            weighted = w_e * values
            batch_loss = weighted[:, :full].reshape(R, -1, bs).sum(axis=2)
            if full < n:
                batch_loss = np.column_stack([batch_loss, weighted[:, full:].sum(axis=1)])
            bad = ~np.isfinite(batch_loss)
            if bad.any():
                j = int(bad.any(axis=0).argmax())
                r = int(bad[:, j].argmax())
                raise TrainingDiverged(f"run {r} ({specs[r].base}): non-finite loss at epoch "
                                       f"{epoch}, batch starting at {batches[j][0]}")
            history[:, epoch] = batch_loss.sum(axis=1) / n

    return [(Model(model_spec, params[r, :, :k].copy(), params[r, :, k].copy()),
             TrainReport(history[r].tolist())) for r in range(R)]


_RECORD_FIELDS = tuple(f.name for f in fields(NormalizationRecord))
MODEL_FILE_VERSION = "1"  # the first line of a model file: viloss_model_version=1


def save_model(model: Model, record: NormalizationRecord, path) -> None:
    """Write the model with the normalization its training data had, so a
    loaded model predicts on raw features in the targets' original units.
    The spec line's widths are the record's feature width and the bias size."""
    spec = model.spec
    with open(path, "w") as fh:
        fh.write(f"viloss_model_version={MODEL_FILE_VERSION}\n")
        fh.write(f"{spec.kind},{spec.degree},{record.feature_min.size},{model.bias.size}\n")
        for name in _RECORD_FIELDS:
            fh.write(f"{name}=" + ",".join(repr(float(v)) for v in getattr(record, name)) + "\n")
        for value in np.concatenate([model.weights.ravel(), model.bias]):
            fh.write(f"{float(value)!r}\n")


def _finite_float(path, line_no, text) -> float:
    """``float(text)``; a value that does not parse or is not finite is
    rejected, naming ``path:line_no``."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"{path}:{line_no}: {exc}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{line_no}: non-finite value {text!r}")
    return value


def load_model(path) -> tuple[Model, NormalizationRecord]:
    """Read a file written by ``save_model``: the model and the normalization
    record it predicts through. A file without the version line, of another
    version, with a bad model spec line (a logistic model has one output),
    without the record, or with a value that does not parse or is not finite
    (named by its line) is rejected."""
    with open(path) as fh:
        tag, _, version = fh.readline().strip().partition("=")
        if tag != "viloss_model_version":
            raise ValueError(f"{path}: no viloss_model_version line")
        if version != MODEL_FILE_VERSION:
            raise ValueError(f"{path}: unknown model file version {version!r}, "
                             f"expected {MODEL_FILE_VERSION!r}")
        spec_line = fh.readline().strip()
        # (line number, text) of each non-blank line after the spec line
        lines = [(no, line.strip()) for no, line in enumerate(fh, start=3) if line.strip()]
    try:
        kind, degree, input_dim, output_dim = spec_line.split(",")
        spec, input_dim, output_dim = ModelSpec(kind, int(degree)), int(input_dim), int(output_dim)
        if kind == "logistic" and output_dim != 1:
            raise ValueError("logistic models have a single output")
    except ValueError as exc:
        raise ValueError(f"{path}:2: expected kind,degree,input_dim,output_dim, "
                         f"got {spec_line!r} ({exc})") from None
    record_lines, param_lines = lines[: len(_RECORD_FIELDS)], lines[len(_RECORD_FIELDS) :]
    if [text.partition("=")[0] for _, text in record_lines] != list(_RECORD_FIELDS):
        raise ValueError(f"{path}: no normalization record")
    columns = [np.array([_finite_float(path, no, v) for v in text.partition("=")[2].split(",")])
               for no, text in record_lines]
    if [c.size for c in columns] != [input_dim] * 2 + [output_dim] * 2:
        raise ValueError(f"{path}: normalization record does not match the model's dimensions")
    params = np.array([_finite_float(path, no, text) for no, text in param_lines])
    # checked before any array is sized from a spec line that may be corrupt
    basis = _basis_size(spec, input_dim)
    expected = output_dim * (basis + 1)
    if params.size != expected:
        raise ValueError(f"{path}: expected {expected} parameters, found {params.size}")
    weights = params[: output_dim * basis].reshape(output_dim, basis)
    return Model(spec, weights, params[output_dim * basis :]), NormalizationRecord(*columns)
