import re

import numpy as np
import pytest

from viloss import (
    Dataset,
    LossSpec,
    ModelSpec,
    TrainConfig,
    batch_value_grad,
    cli,
    compute_weights,
    expand_polynomial,
    fit_grid,
    load_model,
    losses,
    models,
    normalize_minmax,
    parameter_gradient,
    save_model,
    split,
    train,
)
from viloss.data import NormalizationRecord
from viloss.models import Model, TrainingDiverged, init_model


class TestExpandPolynomial:
    def test_univariate_degree_three(self):
        x = np.array([2.0])
        np.testing.assert_array_equal(expand_polynomial(x, 3), [1.0, 2.0, 4.0, 8.0])

    def test_bivariate_degree_two_order(self):
        a, b = 2.0, 3.0
        np.testing.assert_array_equal(
            expand_polynomial(np.array([a, b]), 2),
            [1.0, a, b, a * a, a * b, b * b],
        )

    def test_symbolic_univariate_shape(self):
        phi = expand_polynomial(np.array([0.5]), 6)
        assert phi.shape == (7,)

    def test_batch_expansion(self):
        x = np.array([[1.0], [2.0]])
        phi = expand_polynomial(x, 2)
        np.testing.assert_array_equal(phi, [[1.0, 1.0, 1.0], [1.0, 2.0, 4.0]])

    @pytest.mark.parametrize("input_dim,degree", [(1, 6), (2, 6), (3, 2), (5, 3)])
    def test_model_basis_counts_the_monomials(self, input_dim, degree):
        model = init_model(ModelSpec("polynomial", degree), input_dim, 1)
        assert model.basis_dim == len(models.monomial_exponents(input_dim, degree))
        assert expand_polynomial(np.zeros(input_dim), degree).shape == (model.basis_dim,)


class TestPredict:
    def test_zero_linear_model(self):
        model = init_model(ModelSpec("linear"), 3, 2)
        np.testing.assert_array_equal(model.predict_batch([1.0, 2.0, 3.0])[0], [0.0, 0.0])

    def test_zero_logistic_model(self):
        model = init_model(ModelSpec("logistic"), 2, 1)
        assert model.predict_batch([5.0, -1.0])[0, 0] == pytest.approx(0.5)

    def test_hand_set_linear(self):
        model = init_model(ModelSpec("linear"), 1, 1)
        model.weights[0, 0] = 2.0
        model.bias[0] = 1.0
        assert model.predict_batch([3.0])[0, 0] == pytest.approx(7.0)

    def test_dimension_mismatch_rejected(self):
        model = init_model(ModelSpec("linear"), 2, 1)
        with pytest.raises(ValueError):
            model.predict_batch([1.0, 2.0, 3.0])

    def test_logistic_output_in_unit_interval(self):
        model = init_model(ModelSpec("logistic"), 1, 1)
        model.weights[0, 0] = 3.0
        p = model.predict_batch([5.0])[0, 0]
        assert 0.0 < p < 1.0


def _random_model(spec: ModelSpec, rng, input_dim: int, output_dim: int = 1) -> Model:
    model = init_model(spec, input_dim, output_dim)
    model.weights = rng.normal(scale=0.5, size=model.weights.shape)
    model.bias = rng.normal(scale=0.5, size=model.bias.shape)
    return model


def _fd_parameter_gradient(model, loss_spec, x, y, weight, h=1e-6):
    def value(w_flat):
        probe = Model(model.spec, w_flat[: model.weights.size].reshape(model.weights.shape),
                      w_flat[model.weights.size:])
        pred = probe.predict_batch(x)[0]
        if loss_spec.base == "bce":
            # BCE of the predicted probability, independent of the library's
            # loss of the logit
            return weight * -(y[0] * np.log(pred[0]) + (1 - y[0]) * np.log(1 - pred[0]))
        values = batch_value_grad(loss_spec, pred[None], np.atleast_2d(y))
        return weight * values[0]

    w0 = np.concatenate([model.weights.ravel(), model.bias])
    grad = np.zeros_like(w0)
    for i in range(len(w0)):
        up, down = w0.copy(), w0.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (value(up) - value(down)) / (2 * h)
    return grad


class TestParameterGradient:
    @pytest.mark.parametrize(
        "kind,loss",
        [
            ("linear", "mse"), ("linear", "huber"), ("linear", "lqr"),
            ("polynomial", "mse"), ("polynomial", "huber"), ("polynomial", "lqr"),
            ("logistic", "bce"),
        ],
    )
    def test_matches_finite_differences(self, kind, loss):
        rng = np.random.default_rng(hash((kind, loss)) % 2**31)
        model = _random_model(ModelSpec(kind, degree=3 if kind == "polynomial" else 1), rng, 2)
        x = rng.uniform(0, 1, size=2)
        y = np.array([float(rng.integers(0, 2))]) if loss == "bce" else rng.normal(size=1)
        w = float(rng.uniform(0.2, 3.0))
        dw, db = parameter_gradient(model, LossSpec(loss), x, y, weight=w)
        analytic = np.concatenate([dw.ravel(), db])
        fd = _fd_parameter_gradient(model, LossSpec(loss), x, y, w)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_weight_scaling_is_exact(self):
        rng = np.random.default_rng(33)
        model = _random_model(ModelSpec("linear"), rng, 3, 2)
        x, y = rng.normal(size=3), rng.normal(size=2)
        for loss in ("mse", "huber", "lqr"):
            base_dw, base_db = parameter_gradient(model, LossSpec(loss), x, y, weight=1.0)
            w = 2.7182818
            dw, db = parameter_gradient(model, LossSpec(loss), x, y, weight=w)
            np.testing.assert_array_equal(dw, w * base_dw)
            np.testing.assert_array_equal(db, w * base_db)
            dw, db = parameter_gradient(model, LossSpec(loss), x, y, weight=0.0)
            np.testing.assert_array_equal(dw, 0.0)
            np.testing.assert_array_equal(db, 0.0)


def _linear_1d_dataset(n=50, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 1))
    y = 2.0 * x + 1.0 + noise * rng.normal(size=(n, 1))
    return Dataset(x, y)


class TestTrain:
    def test_recovers_noiseless_linear_fit(self):
        ds = _linear_1d_dataset()
        # least-squares oracle: the noiseless data lie exactly on w=2, b=1
        a = np.column_stack([ds.features, np.ones(ds.n)])
        oracle, *_ = np.linalg.lstsq(a, ds.targets, rcond=None)
        assert oracle[0, 0] == pytest.approx(2.0, abs=1e-9)

        cfg = TrainConfig(epochs=300, batch_size=10, learning_rate=0.2, seed=1)
        [(model, report)] = train(ModelSpec("linear"), ds,
                                  [(LossSpec("mse"), None)], cfg)
        assert model.weights[0, 0] == pytest.approx(2.0, abs=1e-3)
        assert model.bias[0] == pytest.approx(1.0, abs=1e-3)
        assert len(report.loss_history) == 300

    def test_unit_weights_match_unweighted_bitwise(self):
        ds = _linear_1d_dataset(noise=0.1)
        cfg = TrainConfig(epochs=5, batch_size=7, learning_rate=0.05, seed=3)
        [(m1, r1)] = train(ModelSpec("linear"), ds, [(LossSpec("mse"), None)], cfg)
        [(m2, r2)] = train(ModelSpec("linear"), ds,
                           [(LossSpec("mse"), np.ones(ds.n))], cfg)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.bias, m2.bias)
        assert r1.loss_history == r2.loss_history

    def test_determinism(self):
        ds = _linear_1d_dataset(noise=0.3, seed=5)
        cfg = TrainConfig(epochs=10, batch_size=5, learning_rate=0.05, seed=11)
        [(m1, r1)] = train(ModelSpec("linear"), ds, [(LossSpec("mse"), None)], cfg)
        [(m2, r2)] = train(ModelSpec("linear"), ds, [(LossSpec("mse"), None)], cfg)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert r1.loss_history == r2.loss_history

    def test_zero_weight_sample_contributes_nothing(self):
        # full-batch: the zero-weighted sample must not move the parameters;
        # the removed-sample run needs its learning rate rescaled to undo the
        # mean denominator going from n to n-1
        ds = _linear_1d_dataset(n=10, noise=0.2, seed=7)
        weights = np.ones(10)
        weights[4] = 0.0
        cfg = TrainConfig(epochs=20, batch_size=10, learning_rate=0.1, seed=0, shuffle=False)
        [(m1, _)] = train(ModelSpec("linear"), ds, [(LossSpec("mse"), weights)], cfg)

        keep = np.array([i for i in range(10) if i != 4])
        reduced = ds.subset(keep)
        cfg2 = TrainConfig(epochs=20, batch_size=9, learning_rate=0.1 * 9 / 10,
                           seed=0, shuffle=False)
        [(m2, _)] = train(ModelSpec("linear"), reduced,
                          [(LossSpec("mse"), None)], cfg2)
        np.testing.assert_allclose(m1.weights, m2.weights, rtol=1e-12)
        np.testing.assert_allclose(m1.bias, m2.bias, rtol=1e-12)

    def test_duplication_equals_weighting(self):
        # 3-sample instance: duplicating sample 2 three times with unit weight
        # gives the same full-batch gradient sum as weighting it 3x
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([[1.0], [0.0], [3.0]])
        model = init_model(ModelSpec("linear"), 1, 1)
        model.weights[0, 0], model.bias[0] = 1.0, 0.5

        # hand-computed MSE gradients at (w=1, b=0.5): residuals -0.5, 1.5, -0.5
        # d/dw = 2 r x -> [0, 3, -2]; d/db = 2 r -> [-1, 3, -1]
        grads = [parameter_gradient(model, LossSpec("mse"), x[i], y[i])[0][0, 0]
                 for i in range(3)]
        np.testing.assert_allclose(grads, [0.0, 3.0, -2.0])

        weighted_sum = sum(
            parameter_gradient(model, LossSpec("mse"), x[i], y[i],
                               weight=3.0 if i == 2 else 1.0)[0][0, 0]
            for i in range(3)
        )
        dup_sum = sum(
            parameter_gradient(model, LossSpec("mse"), x[i], y[i])[0][0, 0]
            for i in [0, 1, 2, 2, 2]
        )
        assert weighted_sum == pytest.approx(dup_sum)

    def test_one_step_matches_parameter_gradient(self):
        # one unshuffled step on one row from the zero init moves the
        # parameters by exactly -lr times the single-sample gradient
        rng = np.random.default_rng(41)
        combos = [("linear", "mse"), ("linear", "huber"), ("polynomial", "lqr"),
                  ("polynomial", "mse"), ("logistic", "bce")]
        cfg = TrainConfig(epochs=1, batch_size=1, learning_rate=0.3, shuffle=False)
        for trial in range(100):
            kind, loss = combos[trial % len(combos)]
            spec = ModelSpec(kind, degree=3 if kind == "polynomial" else 1)
            x = rng.uniform(-1, 1, size=(1, 2))
            y = (rng.integers(0, 2, size=(1, 1)).astype(float) if loss == "bce"
                 else rng.normal(size=(1, 1)))
            w = float(rng.uniform(0.1, 4.0))
            [(model, report)] = train(spec, Dataset(x, y), [(LossSpec(loss), np.array([w]))], cfg)
            model0 = init_model(spec, 2, 1)
            dw, db = parameter_gradient(model0, LossSpec(loss), x[0], y[0], weight=w)
            np.testing.assert_array_equal(model.weights, -cfg.learning_rate * dw)
            np.testing.assert_array_equal(model.bias, -cfg.learning_rate * db)
            z = model0.expand(x) @ model0.weights.T + model0.bias  # the logit for bce
            values = batch_value_grad(LossSpec(loss), z, y)
            assert report.loss_history == [w * values[0]]

    def test_duplication_equals_weighting_through_train(self):
        # full-batch, unshuffled: integer weights k_i train like the data with
        # row i repeated k_i times, once lr is scaled by N / n to undo the
        # batch mean's denominator
        rng = np.random.default_rng(43)
        combos = [("linear", "mse"), ("polynomial", "huber"), ("polynomial", "lqr"),
                  ("logistic", "bce")]
        for trial in range(40):
            kind, loss = combos[trial % len(combos)]
            spec = ModelSpec(kind, degree=3 if kind == "polynomial" else 1)
            n = int(rng.integers(2, 9))
            x = rng.uniform(-1, 1, size=(n, 2))
            y = (rng.integers(0, 2, size=(n, 1)).astype(float) if loss == "bce"
                 else rng.normal(size=(n, 1)))
            k = rng.integers(1, 5, size=n)
            rows = np.repeat(np.arange(n), k)
            big_n = len(rows)
            cfg = TrainConfig(epochs=5, batch_size=n, learning_rate=0.1, shuffle=False)
            dup_cfg = TrainConfig(epochs=5, batch_size=big_n, learning_rate=0.1 * big_n / n,
                                  shuffle=False)
            [(m1, _)] = train(spec, Dataset(x, y), [(LossSpec(loss), k.astype(float))], cfg)
            [(m2, _)] = train(spec, Dataset(x[rows], y[rows]), [(LossSpec(loss), None)], dup_cfg)
            np.testing.assert_allclose(m1.weights, m2.weights, rtol=1e-12)
            np.testing.assert_allclose(m1.bias, m2.bias, rtol=1e-12)

    def test_invalid_weight_rejected(self):
        ds = _linear_1d_dataset(n=5)
        cfg = TrainConfig(epochs=1, batch_size=2)
        for bad, index in [(-0.5, 3), (float("nan"), 1)]:
            weights = np.ones(5)
            weights[index] = bad
            weights[4] = -1.0  # a later bad weight is not the one named
            with pytest.raises(ValueError, match=f"sample {index} "):
                train(ModelSpec("linear"), ds, [(LossSpec("mse"), weights)], cfg)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverging_run_aborts_with_location(self):
        ds = _linear_1d_dataset(n=20, seed=2)
        cfg = TrainConfig(epochs=50, batch_size=1, learning_rate=1e6, seed=0)
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(ModelSpec("linear"), ds, [(LossSpec("mse"), None)], cfg)

    @pytest.mark.parametrize("kind,loss,legal", [("logistic", "mse", "bce"),
                                                 ("linear", "bce", "mse")])
    def test_model_and_loss_must_pair(self, kind, loss, legal):
        # bce reads a logit, so it trains logistic models and nothing else
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
        cfg = TrainConfig(epochs=1, batch_size=1)
        runs = [(LossSpec(legal), None), (LossSpec(loss), None)]
        with pytest.raises(ValueError, match=f"run 1: a {kind} model cannot train with the "
                                             f"{loss} loss"):
            train(ModelSpec(kind), ds, runs, cfg)
        with pytest.raises(ValueError, match="run 0: "):
            parameter_gradient(init_model(ModelSpec(kind), 1, 1), LossSpec(loss), [1.0], [1.0])

    def test_logistic_requires_binary_targets(self):
        ds = _linear_1d_dataset()
        cfg = TrainConfig(epochs=1, batch_size=5)
        with pytest.raises(ValueError, match="\\{0, 1\\}"):
            train(ModelSpec("logistic"), ds, [(LossSpec("bce"), None)], cfg)

    def test_batch_size_bounded_by_n(self):
        ds = _linear_1d_dataset(n=5)
        cfg = TrainConfig(epochs=1, batch_size=6)
        with pytest.raises(ValueError):
            train(ModelSpec("linear"), ds, [(LossSpec("mse"), None)], cfg)

    def test_misaligned_weights_rejected(self):
        ds = _linear_1d_dataset(n=5)
        cfg = TrainConfig(epochs=1, batch_size=2)
        with pytest.raises(ValueError, match="aligned"):
            train(ModelSpec("linear"), ds, [(LossSpec("mse"), np.ones(4))], cfg)


def _repro_split(name, seed):
    """The normalized training split and the l1/l2 weights that
    ``viloss repro`` trains one seed of ``name`` on."""
    exp = cli.REPRO_EXPERIMENTS[name]
    train_norm = normalize_minmax(split(cli._repro_dataset(name, seed), 0.7, seed)[0])
    grid = fit_grid(train_norm, exp.lam)
    return train_norm, {norm: compute_weights(grid, train_norm, norm).weight
                        for norm in ("l1", "l2")}


class TestLockstep:
    @pytest.mark.parametrize("name", ["synth-1d", "synth-2d", "logistic-synth"])
    def test_stack_matches_solo_runs(self, name):
        # every variant of a repro seed trained in one stack, in the repro
        # order and interleaved (so a base loss's runs are not adjacent),
        # equals each variant trained alone
        exp = cli.REPRO_EXPERIMENTS[name]
        ds, tables = _repro_split(name, 0)
        runs = [(spec, tables.get(norm)) for spec, norm in exp.variants()]
        cfg = TrainConfig(epochs=3, batch_size=exp.batch_size,
                          learning_rate=exp.learning_rate, seed=0)
        solo = [train(exp.model_spec, ds, [run], cfg)[0] for run in runs]
        interleaved = list(range(0, len(runs), 2)) + list(range(1, len(runs), 2))
        stacked = train(exp.model_spec, ds, runs, cfg)
        restacked = train(exp.model_spec, ds, [runs[i] for i in interleaved], cfg)
        for trained in (stacked, [restacked[interleaved.index(i)] for i in range(len(runs))]):
            for (model, report), (want, want_report) in zip(trained, solo):
                if exp.batch_size == 1:
                    np.testing.assert_array_equal(model.weights, want.weights)
                    np.testing.assert_array_equal(model.bias, want.bias)
                    assert report.loss_history == want_report.loss_history
                else:
                    np.testing.assert_allclose(model.weights, want.weights, rtol=1e-12, atol=0)
                    np.testing.assert_allclose(model.bias, want.bias, rtol=1e-12, atol=0)
                    np.testing.assert_allclose(report.loss_history, want_report.loss_history,
                                               rtol=1e-12, atol=0)

    def test_diverging_run_leaves_the_others_alone(self, monkeypatch):
        # on synth-1d data seed 11 the unweighted quartic run goes non-finite
        # in epoch 10; until the end of that epoch, when the check raises, the
        # runs stacked with it take exactly the steps they take without it
        seen = []
        step = models._batch_step

        def recording(groups, params, *batch):
            seen.append((params[:, :, :-1].copy(), params[:, :, -1].copy()))
            return step(groups, params, *batch)

        monkeypatch.setattr(models, "_batch_step", recording)
        exp = cli.REPRO_EXPERIMENTS["synth-1d"]
        ds, _ = _repro_split("synth-1d", 11)
        cfg = TrainConfig(epochs=20, batch_size=1, learning_rate=exp.learning_rate, seed=11)
        mse, lqr, huber = (LossSpec(base) for base in ("mse", "lqr", "huber"))
        with pytest.raises(TrainingDiverged, match=r"run 1 \(lqr\): non-finite loss "
                                                   r"at epoch 10, batch starting at 111$"):
            train(exp.model_spec, ds, [(mse, None), (lqr, None), (huber, None)], cfg)
        with_lqr, seen[:] = seen[:], []
        train(exp.model_spec, ds, [(mse, None), (huber, None)], cfg)
        assert len(with_lqr) == 11 * ds.n
        assert not np.isfinite(with_lqr[-1][0][1]).all()
        for (weights, bias), (want_weights, want_bias) in zip(with_lqr, seen):
            np.testing.assert_array_equal(weights[[0, 2]], want_weights)
            np.testing.assert_array_equal(bias[[0, 2]], want_bias)

    def test_loss_history_is_per_batch_values_at_pre_step_parameters(self, monkeypatch):
        # three loss groups, 23 rows in batches of 5 (the last holds 3), two
        # outputs: each epoch's loss, recomputed batch by batch from the
        # parameters each step saw, is the history train reports
        seen = []
        step = models._batch_step

        def recording(groups, params, *batch):
            seen.append(params.copy())
            return step(groups, params, *batch)

        monkeypatch.setattr(models, "_batch_step", recording)
        rng = np.random.default_rng(29)
        n, bs = 23, 5
        ds = Dataset(rng.uniform(-1, 1, size=(n, 2)), rng.normal(size=(n, 2)))
        specs = [LossSpec("mse"), LossSpec("huber", 0.5), LossSpec("huber", 0.5), LossSpec("lqr")]
        weights = [np.ones(n), rng.uniform(0, 2, n), rng.uniform(0, 2, n), np.ones(n)]
        cfg = TrainConfig(epochs=3, batch_size=bs, learning_rate=0.05, seed=13)
        trained = train(ModelSpec("linear"), ds, list(zip(specs, weights)), cfg)

        shuffle, params = np.random.default_rng(cfg.seed), iter(seen)
        want = np.zeros((len(specs), cfg.epochs))
        for epoch in range(cfg.epochs):
            order = shuffle.permutation(n)
            for start in range(0, n, bs):
                rows, p = order[start : start + bs], next(params)
                for r, (spec, w) in enumerate(zip(specs, weights)):
                    z = ds.features[rows] @ p[r, :, :-1].T + p[r, :, -1]
                    values = batch_value_grad(spec, z, ds.targets[rows])
                    want[r, epoch] += (w[rows] * values).sum()
        assert next(params, None) is None
        for r, (_, report) in enumerate(trained):
            np.testing.assert_allclose(report.loss_history, want[r] / n, rtol=1e-12, atol=0)

    def test_divergence_in_partial_last_batch_names_its_start(self):
        # unshuffled, 23 rows in batches of 5: only the last row, in the
        # partial batch that starts at 20, overflows the quartic loss
        x = np.linspace(-1.0, 1.0, 23)[:, None]
        y = 0.5 * x
        y[-1] = 1e100
        runs = [(LossSpec("mse"), None), (LossSpec("lqr"), None)]
        cfg = TrainConfig(epochs=2, batch_size=5, learning_rate=0.01, shuffle=False)
        with pytest.raises(TrainingDiverged, match=r"^run 1 \(lqr\): non-finite loss "
                                                   r"at epoch 0, batch starting at 20$"):
            train(ModelSpec("linear"), Dataset(x, y), runs, cfg)

    def test_interleaved_stack_keeps_caller_order(self):
        # the two mse runs are not adjacent, so the stack trains as three
        # groups in caller order and the diverging lqr run keeps its index
        exp = cli.REPRO_EXPERIMENTS["synth-1d"]
        ds, _ = _repro_split("synth-1d", 11)
        cfg = TrainConfig(epochs=20, batch_size=1, learning_rate=exp.learning_rate, seed=11)
        runs = [(LossSpec("mse"), None), (LossSpec("lqr"), None), (LossSpec("mse"), None)]
        with pytest.raises(TrainingDiverged, match=r"^run 1 \(lqr\): non-finite loss "
                                                   r"at epoch 10, batch starting at 111$"):
            train(exp.model_spec, ds, runs, cfg)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            train(ModelSpec("linear"), _linear_1d_dataset(), [], TrainConfig())


def _allocating_loss_grad(spec, y_hat, y):
    # the gradient formulas as they were before the step worked in place
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


def _allocating_step(groups, params, phi, y, w, lr):
    # the step as it was before it worked in place: fresh outputs, one
    # gradient per loss group copied into a fresh array, the update after
    k = phi.shape[1]
    z = np.matmul(phi, params[:, :, :k].transpose(0, 2, 1)) + params[:, None, :, k]
    g = np.empty_like(z)
    for spec, runs in groups:
        g[runs] = _allocating_loss_grad(spec, z[runs], y[runs])
    grad = np.empty_like(params)
    np.einsum("rbo,bk,rb->rok", g, phi, w, out=grad[:, :, :k])
    np.einsum("rbo,rb->ro", g, w, out=grad[:, :, k])
    grad *= lr
    grad /= len(phi)
    params -= grad
    return z


_HUBER = LossSpec("huber", 0.5)
_ORACLE_STACKS = {
    "loss-major": [LossSpec("mse")] * 2 + [_HUBER] * 2 + [LossSpec("lqr")] * 2,
    "interleaved": [LossSpec("mse"), _HUBER, LossSpec("lqr")] * 2,
    "bce": [LossSpec("bce")] * 3,
}


class TestStepOracle:
    """The in-place step against the allocating one it replaced: the same
    operations in the same order, so every parameter and output is equal
    bit for bit."""

    @pytest.mark.parametrize("bs", [1, 5, 7])  # 23 rows: 7 leaves a partial last batch
    @pytest.mark.parametrize("stack,out", [("loss-major", 1), ("loss-major", 2),
                                           ("interleaved", 1), ("interleaved", 2), ("bce", 1)])
    def test_step_matches_the_allocating_step(self, stack, out, bs):
        specs = _ORACLE_STACKS[stack]
        groups = models._loss_groups("logistic" if stack == "bce" else "linear", specs)
        rng = np.random.default_rng(31)
        R, n, k, lr = len(specs), 23, 4, 0.02
        phi = rng.uniform(-1.0, 1.0, size=(n, k))
        y = rng.normal(scale=0.5, size=(R, n, out))
        if stack == "bce":
            y = (y > 0).astype(float)
        w = rng.uniform(0.0, 2.0, size=(R, n))
        w[:, ::4] = 0.0
        params = rng.normal(scale=0.3, size=(R, out, k + 1))
        # one run goes non-finite: the quartic within a few steps, bce at once
        wild = 0 if stack == "bce" else specs.index(LossSpec("lqr"))
        params[wild] *= np.inf if stack == "bce" else 1e154
        want = params.copy()
        grad = np.empty_like(params)
        views = models._step_views(params, grad)
        z, g = np.empty((R, n, out)), np.empty((R, bs, out))
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(3):
                order = rng.permutation(n)
                y_e, w_e = y.take(order, axis=1), w.take(order, axis=1)
                for start in range(0, n, bs):
                    stop = min(start + bs, n)
                    rows = phi.take(order[start:stop], axis=0)
                    models._batch_step(groups, params, views, rows, y_e[:, start:stop],
                                       w_e[:, start:stop], z[:, start:stop],
                                       g[:, : stop - start], lr)
                    want_z = _allocating_step(groups, want, rows, y_e[:, start:stop],
                                              w_e[:, start:stop], lr)
                    np.testing.assert_array_equal(z[:, start:stop], want_z)
                    np.testing.assert_array_equal(params, want)
        assert not np.isfinite(params[wild]).any()
        assert np.isfinite(np.delete(params, wild, axis=0)).all()

    @pytest.mark.parametrize("base,v", [("mse", 1), ("mse", 2), ("huber", 1), ("huber", 2),
                                        ("lqr", 1), ("lqr", 2), ("bce", 1)])
    def test_in_place_gradients_match_loss_grad(self, base, v):
        rng = np.random.default_rng(37)
        spec = LossSpec(base, delta=0.5)
        y_hat = rng.normal(scale=3.0, size=(3, 40, v))
        y_hat[0, :3, 0] = [1e120, -np.inf, np.nan]  # overflow and non-finite outputs
        y = (rng.integers(0, 2, size=y_hat.shape).astype(float) if base == "bce"
             else rng.normal(size=y_hat.shape))
        with np.errstate(over="ignore", invalid="ignore"):
            want = _allocating_loss_grad(spec, y_hat, y)
            got = (losses.bce_grad(y_hat, y, out=np.empty_like(y)) if base == "bce"
                   else losses.residual_grad(spec, y_hat - y))
            np.testing.assert_array_equal(got, want)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value,message", [
        ("epochs", 0, "epochs must be >= 1"),
        ("epochs", -1, "epochs must be >= 1"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("batch_size", -1, "batch_size must be >= 1"),
        ("learning_rate", 0.0, "learning_rate must be finite and positive"),
        ("learning_rate", -0.1, "learning_rate must be finite and positive"),
        ("learning_rate", float("nan"), "learning_rate must be finite and positive"),
        ("learning_rate", float("inf"), "learning_rate must be finite and positive"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_values_that_train_nothing_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**{field: value})


class TestModelSpec:
    def test_logistic_single_output(self, tmp_path, monkeypatch):
        # the data give a model its widths, so train checks the rule on its
        # targets before any step, and load_model on the file's spec line
        steps = []
        monkeypatch.setattr(models, "_batch_step", lambda *args: steps.append(args))
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="^logistic models have a single output; "
                                             "the dataset has 2 target columns$"):
            train(ModelSpec("logistic"), ds, [(LossSpec("bce"), None)], TrainConfig())
        assert steps == []
        path = tmp_path / "model.txt"
        path.write_text("viloss_model_version=1\nlogistic,1,2,2\nfeature_min=0.0,0.0\n"
                        "feature_max=1.0,1.0\ntarget_min=0.0,0.0\ntarget_max=1.0,1.0\n"
                        + "0.0\n" * 6)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: expected kind,degree,input_dim,output_dim, got 'logistic,1,2,2' "
                f"(logistic models have a single output)")):
            load_model(path)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ModelSpec("mlp")

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_degree_only_for_polynomial(self, kind):
        # nothing would read the degree, yet model files and manifests record it
        with pytest.raises(ValueError, match=f"^a {kind} model has degree 1, got 6$"):
            ModelSpec(kind, 6)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        model = _random_model(ModelSpec("polynomial", degree=4), rng, 2)
        norm = normalize_minmax(Dataset(rng.random((10, 2)), rng.normal(size=10)))
        path = tmp_path / "model.txt"
        save_model(model, norm.normalization, path)
        loaded, record = load_model(path)
        assert loaded.spec == model.spec
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.bias, model.bias)
        for name in ("feature_min", "feature_max", "target_min", "target_max"):
            np.testing.assert_array_equal(getattr(record, name),
                                          getattr(norm.normalization, name))

    def test_golden_file(self, tmp_path):
        # version 1: the spec line's widths come from the record and the bias
        model = init_model(ModelSpec("linear"), 2, 2)
        model.weights[:] = [[0.5, -0.25], [0.1, 3.0]]
        model.bias[:] = [0.125, -2.0]
        record = NormalizationRecord(np.array([0.0, 1.0]), np.array([2.0, 3.0]),
                                     np.array([-1.0, 0.0]), np.array([1.5, 1e-3]))
        path = tmp_path / "model.txt"
        save_model(model, record, path)
        assert path.read_text() == (
            "viloss_model_version=1\n"
            "linear,1,2,2\n"
            "feature_min=0.0,1.0\n"
            "feature_max=2.0,3.0\n"
            "target_min=-1.0,0.0\n"
            "target_max=1.5,0.001\n"
            "0.5\n-0.25\n0.1\n3.0\n0.125\n-2.0\n"
        )

    @pytest.mark.parametrize("line,text", [
        (6, "target_max=1.0,nan"), (7, "inf"), (9, "nan"), (9, "1e400"), (9, "abc"),
    ])
    def test_bad_value_rejected_naming_its_line(self, tmp_path, line, text):
        # a nan parameter used to make eval print nan metrics and exit 0;
        # the blank line 7 of the file still counts
        lines = ["viloss_model_version=1", "linear,1,1,1", "feature_min=0.0",
                 "feature_max=1.0", "target_min=0.0", "target_max=1.0", "", "0.5", "0.25"]
        lines[line - 1] = text
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: "):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("viloss_model_version=1\nlinear,1,2,1\nfeature_min=0.0,0.0\n"
                        "feature_max=1.0,1.0\ntarget_min=0.0\ntarget_max=1.0\n0.5\n")
        with pytest.raises(ValueError, match="expected 3 parameters, found 1"):
            load_model(path)

    def test_file_without_normalization_rejected(self, tmp_path):
        # a model file without the record cannot reproduce the training metric
        path = tmp_path / "model.txt"
        path.write_text("viloss_model_version=1\nlinear,1,2,1\n0.5\n0.25\n0.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: no normalization record")):
            load_model(path)

    @pytest.mark.parametrize("header,message", [
        ([], "no viloss_model_version line"),
        (["viloss_model_version=2"], "unknown model file version '2', expected '1'"),
    ])
    def test_missing_or_unknown_version_rejected(self, tmp_path, header, message):
        model = init_model(ModelSpec("linear"), 2, 1)
        record = normalize_minmax(Dataset(np.eye(2), np.arange(2.0))).normalization
        path = tmp_path / "model.txt"
        save_model(model, record, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "viloss_model_version=1"
        path.write_text("\n".join(header + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    @pytest.mark.parametrize("spec_line", ["linear,1,2", "linear,1,2,1,1", "linear,x,1,1",
                                           "mlp,1,2,1", "linear,6,1,1", ""])
    def test_malformed_spec_line_names_path_and_line(self, tmp_path, spec_line):
        path = tmp_path / "model.txt"
        path.write_text(f"viloss_model_version=1\n{spec_line}\n0.5\n0.25\n0.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: expected kind,degree,"
                                                       f"input_dim,output_dim, got {spec_line!r}")):
            load_model(path)
