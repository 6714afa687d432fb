"""Linear, polynomial and logistic predictors with a deterministic
mini-batch SGD trainer that consumes per-sample weights."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations_with_replacement

import numpy as np

from .data import Dataset, NormalizationRecord, check_integers
from .losses import LossSpec, batch_value_grad

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
        check_integers(degree=self.degree)
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.kind != "polynomial" and self.degree != 1:
            raise ValueError(f"a {self.kind} model has degree 1, got {self.degree}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 1
    learning_rate: float = 0.01
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        check_integers(epochs=self.epochs, batch_size=self.batch_size, seed=self.seed)
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


def expand_polynomial(features: np.ndarray, degree: int, out=None) -> np.ndarray:
    """Full-monomial basis (constant included) of one vector or a batch.

    A power table ``powers[p] = x ** np.full(d, p)`` for p = 0..degree
    holds every feature's powers; each monomial's column of the (n, k)
    result is the product of its features' table columns, taken in feature
    order. The table keeps the call shape of an (n, d) array raised to a
    length-d exponent array: numpy picks its ``pow`` loop by that shape,
    and a scalar exponent, ``x * x`` or a transposed table can differ from
    it in the last bit. A batch's basis is written into ``out`` when it is
    given, an (n, k) array or view of any strides, and ``out`` is returned.
    A row's values depend on that row alone, so the library's callers
    expand one ``_row_blocks`` block of rows at a time through
    ``Model.expand``: the same bits, with a table the size of one block.
    """
    features = np.asarray(features, dtype=np.float64)
    single = features.ndim == 1
    x = np.atleast_2d(features)
    n, d = x.shape
    powers = [x ** np.full(d, p) for p in range(degree + 1)]
    exponents = monomial_exponents(d, degree)
    phi = np.empty((n, len(exponents))) if out is None else out
    for m, e in enumerate(exponents):
        column = phi[:, m]
        if d == 1:
            column[:] = powers[e[0]][:, 0]
        else:
            np.multiply(powers[e[0]][:, 0], powers[e[1]][:, 1], out=column)
        for j in range(2, d):
            column *= powers[e[j]][:, j]
    return phi[0] if single else phi


@dataclass(eq=False)
class Model:
    """A model's spec and parameters. Two models are equal only if they are
    the same object."""

    spec: ModelSpec
    weights: np.ndarray  # (output_dim, basis_dim)
    bias: np.ndarray  # (output_dim,)

    @property
    def basis_dim(self) -> int:
        return self.weights.shape[1]

    def expand(self, features: np.ndarray, out=None) -> np.ndarray:
        """The model's basis of ``features``; written into ``out`` and
        returned when ``out`` is given (see ``expand_polynomial``)."""
        if self.spec.kind == "polynomial":
            return expand_polynomial(features, self.spec.degree, out)
        if out is None:
            return np.asarray(features, dtype=np.float64)
        np.copyto(out, features)
        return out

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """The (n, output_dim) outputs on an (n, d) batch, or on one (d,)
        vector as a batch of one. The basis width is checked before any
        array is allocated. Each ``_row_blocks`` block of rows is expanded
        into one reused buffer and multiplied into its rows of the output,
        so the call holds the output and one block, never the (n, basis)
        matrix. The outputs have the bits of the whole product
        ``expand(features) @ weights.T + bias`` (and its sigmoid) on one
        BLAS thread, and keep them on two: OpenBLAS can split a large
        one-output product between threads at a row off its kernel's tiles,
        which gives the rows after it other bits; a block keeps its bits."""
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        width = _basis_size(self.spec, x.shape[1])
        if width != self.basis_dim:
            raise ValueError(f"expected basis dim {self.basis_dim}, got {width}")
        z = np.empty((len(x), len(self.bias)))
        # a last block may hold one row more than the others
        buf = np.empty((min(len(x), _block_rows(width) + 1), width))
        for rows in _row_blocks(len(x), width):
            basis = self.expand(x[rows], out=buf[: rows.stop - rows.start])
            np.matmul(basis, self.weights.T, out=z[rows])
        z += self.bias
        if self.spec.kind == "logistic":  # the sigmoid, in a form that cannot overflow
            return 0.5 * (np.tanh(0.5 * z) + 1.0)
        return z


def _basis_size(spec: ModelSpec, input_dim: int) -> int:
    """Width of the model's basis: the input itself, or for a polynomial
    every monomial of degree 0..degree, ``len(monomial_exponents(...))``."""
    if spec.kind == "polynomial":
        return math.comb(input_dim + spec.degree, spec.degree)
    return input_dim


# the basis bytes a block of rows holds when a basis is built or multiplied
# block by block: 4672 rows of a degree-6 basis of two features, whose power
# table is half that size. Of 256 KiB to 2 MiB, 1 MiB expanded and predicted
# 50,000 such rows fastest on a Xeon with 2 MiB of L2 cache a core
_BASIS_BLOCK_BYTES = 1 << 20


def _block_rows(width: int) -> int:
    """The rows of a full block of a basis of ``width`` columns: as many as
    ``_BASIS_BLOCK_BYTES`` hold, rounded down to a multiple of 64, and at
    least 64. Every block so starts on a row where a whole-array product
    starts a tile of its BLAS kernel's rows, and a row gets the same bits
    in either; a block of 4681 rows would not."""
    return max(64, _BASIS_BLOCK_BYTES // (8 * width) // 64 * 64)


def _row_blocks(n: int, width: int) -> list[slice]:
    """Consecutive row ranges of ``_block_rows`` rows that cover an n-row
    basis of ``width`` columns. A last block of one row joins the block
    before it: numpy hands a one-row product to another BLAS routine, whose
    bits can differ."""
    starts = list(range(0, n, _block_rows(width)))
    if len(starts) > 1 and starts[-1] == n - 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


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
    against: it has a single output, and its targets lie in {0, 1}. The
    message names the first row whose target does not."""
    if targets.shape[1] != 1:
        raise ValueError(f"logistic models have a single output; the dataset has "
                         f"{targets.shape[1]} target columns")
    bad = ~np.isin(targets[:, 0], (0.0, 1.0))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"logistic models require targets in {{0, 1}}; row {i} has {targets[i, 0]}")


def _loss_groups(kind, specs: list[LossSpec], v: int) -> list[tuple[LossSpec, slice]]:
    """Split the stack, after ``check_loss_pairing``, into its runs of
    consecutive equal loss specs: each one's spec and columns, v per run."""
    check_loss_pairing(kind, specs)
    starts = [r for r in range(len(specs)) if r == 0 or specs[r] != specs[r - 1]]
    return [(specs[a], slice(a * v, b * v)) for a, b in zip(starts, starts[1:] + [len(specs)])]


def _affine_basis(model: Model, features) -> np.ndarray:
    """The model's basis of ``features`` with a constant-1 column last: an
    (n, basis + 1) array whose last column the bias weighs. The basis is
    written straight into it through ``Model.expand``, one ``_row_blocks``
    block of rows at a time, so a polynomial's power table stays the size
    of one block. A logistic model's is halved, so its outputs are half
    logits, which bce's part reads (``_step_ops``): halving is exact, so a
    step on it gives the bits of one on the whole basis with bce's constant
    1/2, unless a basis value, product, logit or partial sum is subnormal or
    overflows."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    phi = np.empty((len(x), model.basis_dim + 1))
    for rows in _row_blocks(len(x), model.basis_dim):
        model.expand(x[rows], out=phi[rows, :-1])
    phi[:, -1] = 1.0
    if model.spec.kind == "logistic":
        phi *= 0.5
    return phi


# each loss's gradient w.r.t. its v outputs is its constant here times the
# non-linear part that ``_step_ops`` writes, over v: bce's is 1, on the half basis
GRAD_CONSTANT = {"mse": 2.0, "huber": 1.0, "lqr": 4.0, "bce": 1.0}
_ONE, _THREE = np.array(1.0), np.array(3.0)


def _step_scale(specs: list[LossSpec], v: int, lr: float, sizes) -> np.ndarray:
    """The (n, R * v) factor of each sample's weight in the step: lr / (its
    batch's size) times its run's ``GRAD_CONSTANT`` over v, if finite."""
    c = np.array([GRAD_CONSTANT[spec.base] for spec in specs])
    with np.errstate(over="ignore"):
        scale = (lr / sizes)[:, None] * c / v
    if not np.isfinite(scale).all():
        base = specs[int((~np.isfinite(scale)).any(axis=0).argmax())].base
        raise ValueError(f"learning rate {lr!r} times the {base} loss's gradient constant "
                         f"{GRAD_CONSTANT[base]:g} overflows float64")
    return np.repeat(scale, v, axis=1)


_BLOCK_BYTES = 1 << 16  # the basis bytes ``train`` gathers at once, unless one batch needs more


def _part_ops(groups, g) -> list[tuple]:
    """The in-place calls that turn each loss group's columns r of the
    (B, R * v) residual ``g`` = z - y into the non-linear part of its
    gradient: r**3 for lqr, r clipped to [-delta, delta] for huber, and
    none for mse, whose part is r itself, or for bce."""
    ops = []
    for spec, cols in groups:
        r = g[:, cols]
        if spec.base == "lqr":
            ops.append((np.power, r, _THREE, r))
        elif spec.base == "huber":  # r inside the threshold, else delta * sign(r)
            ops += [(np.maximum, r, np.array(-spec.delta, np.float64), r),
                    (np.minimum, r, np.array(spec.delta, np.float64), r)]
    return ops


def _step_ops(bce: bool, z, y, ws, g, parts) -> list[tuple]:
    """A step's in-place ufunc calls ``(ufunc, a, b, out)``, which
    ``_batch_step`` runs as ``ufunc(a, b, out=out)``, or ``ufunc(a,
    out=out)`` if b is None. They write into the (B, R * v) buffer ``g``
    each loss's non-linear gradient part of the outputs ``z`` and target
    operand ``y``, then scale it by the weights ``ws``. A regression
    stack's part starts as the residual z - y, which ``parts`` (``_part_ops``
    on ``g``) turn into each group's. bce's gradient w.r.t. the logit x is
    sigmoid(x) - t = (tanh(x / 2) + 1 - 2t) / 2. A logistic model's outputs
    are half logits z = x / 2 (``_affine_basis``), so bce's part is tanh(z)
    + 1 - y, three calls on the target operand y = 2t, and its constant is
    1. Each constant operand is a float64 0-d array, which numpy takes
    without the conversion a Python float costs on every call."""
    head = ([(np.tanh, z, None, g), (np.add, g, _ONE, g), (np.subtract, g, y, g)] if bce
            else [(np.subtract, z, y, g), *parts])
    return head + [(np.multiply, g, ws, g)]


def _batch_step(params, params_t, grad, phi, z, g_t, ops):
    """One SGD step of R stacked runs over one shared batch, in place.

    ``params`` (R * v, basis + 1) holds each run's v rows of weights, its
    bias last, ``params_t`` is its transpose and ``grad`` a buffer of its
    shape; ``phi`` (B, basis + 1) holds the batch's rows of
    ``_affine_basis``. ``z`` is a buffer for the (B, R * v) outputs, run r
    in columns r * v to r * v + v - 1, and ``g_t`` the transpose of the
    gradient buffer that ``ops`` (``_step_ops``) fill. Every operand is a
    prebuilt array or view, so the step runs only its BLAS and ufunc calls:
    one dot writes the outputs, the ufunc calls turn them into each loss's
    non-linear gradient part times the scaled weights, and a second dot
    with the basis writes the update, bias included. It computes no loss
    value, and runs never mix: a non-finite value in one run leaves the
    others unchanged. A weighted sample's weight gradient is within 2 ulp
    of w_i times its unweighted one, its bias gradient exactly that;
    results agree to rtol 1e-12 with summing the products per run and
    scaling the sum by lr / B.
    """
    phi.dot(params_t, z)
    for ufunc, a, b, out in ops:  # out by keyword: numpy deprecates it positional for maximum
        if b is None:
            ufunc(a, out=out)
        else:
            ufunc(a, b, out=out)
    g_t.dot(phi, grad)
    params -= grad


def parameter_gradient(model: Model, loss_spec: LossSpec, features, target, weight: float = 1.0):
    """Gradient of weight * loss(y_hat(x), y) w.r.t. (W, b) for one sample:
    ``train``'s own SGD (``_sgd``), with its checks, for one run and one
    step on a batch of one at a learning rate of 1, on a copy of the
    model's parameters. A non-finite loss raises ``TrainingDiverged``."""
    params = np.concatenate([model.weights, model.bias[:, None]], axis=1)
    _, grad = _sgd(model.spec, Dataset(np.atleast_2d(features), np.atleast_2d(target)),
                   [(loss_spec, np.array([weight]))], TrainConfig(1, 1, 1.0, shuffle=False), params)
    return grad[:, :-1], grad[:, -1]


def train(
    model_spec: ModelSpec,
    dataset: Dataset,
    runs: list[Run],
    config: TrainConfig,
) -> list[tuple[Model, TrainReport]]:
    """Mini-batch SGD of every run in ``runs`` in lockstep, from zero
    parameters (see ``_sgd``). Returns one (model, report) per run, in the
    order of ``runs``."""
    # each run's v rows of weights, then its bias; _sgd steps them as (R * v, basis + 1)
    width = _basis_size(model_spec, dataset.feature_dim) + 1
    params = np.zeros((len(runs), dataset.target_dim, width))
    history, _ = _sgd(model_spec, dataset, runs, config, params.reshape(-1, width))
    return [(Model(model_spec, p[:, :-1].copy(), p[:, -1].copy()), TrainReport(h.tolist()))
            for p, h in zip(params, history)]


def _sgd(model_spec: ModelSpec, dataset: Dataset, runs: list[Run], config: TrainConfig,
         params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The SGD of ``train`` and ``parameter_gradient``: every run in ``runs``
    in lockstep, stepping ``params`` in place. A run is a ``(LossSpec,
    weights)`` pair, ``weights`` an (n,) array of finite weights >= 0 or
    None for unit weights. ``params`` must fit the dataset's feature and
    target widths, or the call names both widths. All runs share the data,
    the config and so the shuffle order, and each run's result equals that
    run trained alone to rtol 1e-12. A batch's parameter gradient is the mean
    over the batch of weight_i times each sample's loss gradient. Run r owns
    rows r * v to r * v + v - 1 of ``params`` (R * v, basis + 1), its bias
    last (see ``_affine_basis``), and those columns of the (n, R * v)
    outputs, targets and weights, so a batch is a slice of rows. An epoch
    gathers its order's targets and weights and scales the weights by
    ``_step_scale``. One ``take`` gathers the basis rows of a block of
    batches into a buffer of at most ``_BLOCK_BYTES``, or of one batch, and
    each step runs ``_batch_step`` and its ``_step_ops`` on views of it, of
    the epoch's arrays and of the gradient buffer. These operands are built
    once per call, about 1 to 1.5 KB for each of the n / batch_size batches.
    When an epoch ends, its loss values at the parameters each batch saw
    feed the history and the divergence check. Returns the (R, epochs)
    history of each run's weighted mean loss and the gradient buffer, which
    holds the last step's update."""
    n = dataset.n
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds the {n} training rows")
    specs = [spec for spec, _ in runs]
    if not specs:
        raise ValueError("train needs at least one run")
    w = [np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
         for _, weights in runs]
    if any(run_w.shape != (n,) for run_w in w):
        raise ValueError("weight table not aligned with dataset")
    w = np.stack(w)
    bad = np.argwhere(~(np.isfinite(w) & (w >= 0)))
    if bad.size:
        r, i = (int(v) for v in bad[0])
        raise ValueError(f"run {r}: weight of sample {i} must be finite and non-negative, "
                         f"got {float(w[r, i])}")
    R, v, bs = len(specs), dataset.target_dim, config.batch_size
    width = _basis_size(model_spec, dataset.feature_dim) + 1
    if params.shape[1] != width:  # predict_batch's wording
        raise ValueError(f"expected basis dim {params.shape[1] - 1}, got {width - 1}")
    if params.shape[0] != R * v:
        raise ValueError(f"expected {params.shape[0] // R} target columns, got {v}")
    groups = _loss_groups(model_spec.kind, specs, v)  # each loss's columns of the stack
    bce = model_spec.kind == "logistic"  # a stack is all bce or all regression
    if bce:
        check_binary_targets(dataset.targets)
    starts = np.arange(0, n, bs)  # each batch's first sample; the last batch may be partial
    stops = np.minimum(starts + bs, n)
    scale = _step_scale(specs, v, config.learning_rate, np.repeat(stops - starts, stops - starts))

    phi = _affine_basis(init_model(model_spec, dataset.feature_dim, v), dataset.features)
    # bce's target operand, 2y; run r in columns r*v .. r*v+v-1
    y = np.tile(2.0 * dataset.targets if bce else dataset.targets, R)
    w = np.repeat(w.T, v, axis=1)
    grad = np.empty_like(params)
    z = np.empty(y.shape)  # each sample's output at the step that used it
    g = np.empty((bs, R * v))  # a batch's loss gradients
    values = np.empty((R, n))
    # an epoch's sample order, its targets and weights, and the weights scaled for the step
    order, y_e, w_e, ws_e = np.arange(n), np.empty_like(y), np.empty_like(w), np.empty_like(w)
    # a gather block holds the basis rows of consecutive batches: as many as
    # fit in _BLOCK_BYTES, at least one; each step reads a fixed view of it
    per_block = max(1, _BLOCK_BYTES // (bs * phi[0].nbytes))
    block = np.empty((min(per_block * bs, n), phi.shape[1]))
    head = (params, params.T, grad)
    # each batch size's view of g, its transpose and its groups' part ops
    tails = {size: (g[:size], g[:size].T, _part_ops(groups, g[:size]))
             for size in set((stops - starts).tolist())}
    bounds = list(zip(starts.tolist(), stops.tolist()))  # each batch's first and end sample
    blocks = []  # (the block's rows of order, its view of block, its batches' step arguments)
    for j in range(0, len(bounds), per_block):
        batches = bounds[j : j + per_block]
        a0, a1 = batches[0][0], batches[-1][1]
        steps = [(*head, block[a - a0 : b - a0], z_b, g_t,
                  _step_ops(bce, z_b, y_e[a:b], ws_e[a:b], g_b, parts))
                 for a, b in batches for z_b in [z[a:b]] for g_b, g_t, parts in [tails[b - a]]]
        blocks.append((order[a0:a1], block[: a1 - a0], steps))
    history = np.empty((R, config.epochs))
    rng = np.random.default_rng(config.seed)

    # a diverging run keeps stepping on non-finite values until the epoch
    # ends and the check below names it, so numpy's warnings are noise here
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            if config.shuffle:
                order[:] = rng.permutation(n)
            # order is a permutation: "clip" never fires, and lets take write into out=
            y.take(order, axis=0, out=y_e, mode="clip")
            w.take(order, axis=0, out=w_e, mode="clip")
            np.multiply(w_e, scale, out=ws_e)
            for rows, basis, steps in blocks:
                phi.take(rows, axis=0, out=basis, mode="clip")
                for args in steps:
                    _batch_step(*args)
            # the epoch's loss values at the parameters each batch saw; for
            # bce, z holds the half logit and y_e twice the target
            outputs, targets = (2.0 * z, 0.5 * y_e) if bce else (z, y_e)
            for spec, cols in groups:
                values[cols.start // v : cols.stop // v] = batch_value_grad(spec,
                    outputs[:, cols].reshape(n, -1, v), targets[:, cols].reshape(n, -1, v)).T
            values *= w_e[:, ::v].T
            batch_loss = np.add.reduceat(values, starts, axis=1)
            bad = ~np.isfinite(batch_loss)
            if bad.any():
                j = int(bad.any(axis=0).argmax())
                r = int(bad[:, j].argmax())
                raise TrainingDiverged(f"run {r} ({specs[r].base}): non-finite loss at epoch "
                                       f"{epoch}, batch starting at {starts[j]}")
            history[:, epoch] = batch_loss.sum(axis=1) / n
    return history, grad


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
