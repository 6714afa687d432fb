import dataclasses
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
    models,
    normalize_minmax,
    parameter_gradient,
    save_model,
    split,
    train,
)
from viloss.data import NormalizationRecord
from viloss.models import Model, TrainingDiverged, init_model

from oracles import (PAPER_CONSTANT, allocating_loss_grad, finite_diff_param_grad,
                     in_place_gradient, traced_peak)


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

    @staticmethod
    def _product_of_powers(x, degree):
        """The basis as each monomial's product of its features' powers."""
        exponents = models.monomial_exponents(x.shape[1], degree)
        return np.stack([np.prod(x ** np.array(e), axis=1) for e in exponents], axis=1)

    @pytest.mark.parametrize("case", range(40))
    def test_matches_the_product_of_powers_bit_for_bit(self, case):
        # random widths, degrees and sizes; wide magnitudes, signed zeros,
        # nan and inf; tobytes() tells -0.0 from 0.0 and compares nan bits
        rng = np.random.default_rng(case)
        d, degree = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        n = int(rng.choice([1, 2, 9, 257, 3000]))
        x = rng.uniform(-2.0, 2.0, (n, d)) * 10.0 ** rng.integers(-60, 60, (n, d))
        special = rng.random((n, d)) < 0.3
        x[special] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0], special.sum())
        with np.errstate(all="ignore"):
            phi, expected = expand_polynomial(x, degree), self._product_of_powers(x, degree)
            vector = expand_polynomial(x[0], degree)
        assert phi.shape == expected.shape and phi.flags.c_contiguous
        assert phi.tobytes() == expected.tobytes()
        assert vector.shape == expected[0].shape and vector.tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("d,degree", [(1, 3), (2, 6), (5, 2)])
    def test_zero_rows(self, d, degree):
        phi = expand_polynomial(np.empty((0, d)), degree)
        assert phi.shape == self._product_of_powers(np.empty((0, d)), degree).shape

    def test_peak_memory_is_the_basis_and_one_power_table(self):
        # the basis is written in place: besides it only the degree + 1
        # powers of x are alive, where stacking 28 columns would double it
        x, degree = np.random.default_rng(0).uniform(-1.0, 1.0, (50_000, 2)), 6
        phi, peak = traced_peak(expand_polynomial, x, degree)
        assert peak < phi.nbytes + (degree + 1) * x.nbytes + 64 * 1024

    @pytest.mark.parametrize("input_dim,degree", [(1, 6), (2, 6), (3, 2), (5, 3)])
    def test_model_basis_counts_the_monomials(self, input_dim, degree):
        model = init_model(ModelSpec("polynomial", degree), input_dim, 1)
        assert model.basis_dim == len(models.monomial_exponents(input_dim, degree))
        assert expand_polynomial(np.zeros(input_dim), degree).shape == (model.basis_dim,)


class TestAffineBasis:
    """``train`` steps on the basis with a constant-1 column last, written
    into one (n, k + 1) buffer through ``out=`` views, and halved for a
    logistic model."""

    @pytest.mark.parametrize("spec,d", [(ModelSpec("linear"), 3), (ModelSpec("polynomial", 1), 2),
                                        (ModelSpec("polynomial", 4), 3), (ModelSpec("logistic"), 2)])
    def test_out_view_gets_the_allocating_bits(self, spec, d):
        rng = np.random.default_rng(41)
        x = rng.uniform(-2.0, 2.0, (57, d)) * 10.0 ** rng.integers(-60, 60, (57, d))
        x[rng.random(x.shape) < 0.2] = -0.0
        model = init_model(spec, d, 1)
        k = model.basis_dim
        buffer = np.full((len(x), k + 1), 7.0)
        view = buffer[:, :k]  # rows k + 1 apart: not contiguous
        with np.errstate(all="ignore"):
            want = model.expand(x)
            assert model.expand(x, out=view) is view
            assert view.tobytes() == np.ascontiguousarray(want).tobytes()
            if spec.kind == "polynomial":
                view[...] = 0.0
                assert expand_polynomial(x, spec.degree, out=view) is view
                assert view.tobytes() == want.tobytes()
        assert (buffer[:, k] == 7.0).all()
        affine = models._affine_basis(model, x)
        whole = np.column_stack([want, np.ones(len(x))])
        half = spec.kind == "logistic"
        assert affine.tobytes() == (0.5 * whole if half else whole).tobytes()

    def test_train_holds_one_basis_array(self):
        # the basis costs one (n, k + 1) array: expanding into a separate
        # (n, k) array and copying it would cost both
        rng = np.random.default_rng(43)
        n, spec = 2000, ModelSpec("polynomial", 10)
        ds = Dataset(rng.uniform(0.0, 1.0, (n, 2)), rng.uniform(0.0, 1.0, (n, 1)))
        k = init_model(spec, 2, 1).basis_dim
        cfg = TrainConfig(epochs=1, batch_size=50, learning_rate=0.01)
        _, peak = traced_peak(train, spec, ds, [(LossSpec("mse"), None)], cfg)
        basis = n * (k + 1) * 8
        assert basis <= peak < basis + n * k * 8


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


def _whole_prediction(model: Model, x) -> np.ndarray:
    """``predict_batch`` on the whole (n, basis) matrix at once."""
    z = np.atleast_2d(model.expand(x)) @ model.weights.T + model.bias
    return 0.5 * (np.tanh(0.5 * z) + 1.0) if model.spec.kind == "logistic" else z


class TestRowBlocks:
    """``predict_batch`` and ``_affine_basis`` expand the basis one block of
    rows at a time and give the bits of the whole-array computation."""

    # one output is a BLAS gemv, whose bits depend on where a block starts
    MODELS = [(ModelSpec("linear"), 3, 1), (ModelSpec("polynomial", 6), 2, 1),
              (ModelSpec("polynomial", 6), 2, 2), (ModelSpec("logistic"), 2, 1)]

    @pytest.mark.parametrize("spec,d,v", MODELS)
    @pytest.mark.parametrize("blocks", [2.5, 2, "2 and a row"])
    def test_prediction_matches_the_whole_product(self, spec, d, v, blocks):
        # a last block of one row would go through another BLAS routine
        rng = np.random.default_rng(47)
        model = _random_model(spec, rng, d, v)
        step = models._block_rows(model.basis_dim)
        n = 2 * step + 1 if blocks == "2 and a row" else int(blocks * step)
        x = rng.uniform(-1.5, 1.5, (n, d))
        assert len(models._row_blocks(n, model.basis_dim)) == 2 + (blocks == 2.5)
        got = model.predict_batch(x)
        assert got.shape == (n, v)
        assert got.tobytes() == _whole_prediction(model, x).tobytes()

    @pytest.mark.parametrize("spec,d,v", MODELS)
    def test_one_vector_is_a_batch_of_one(self, spec, d, v):
        model = _random_model(spec, np.random.default_rng(53), d, v)
        x = np.linspace(-1.0, 1.0, d)
        got = model.predict_batch(x)
        assert got.shape == (1, v)
        assert got.tobytes() == _whole_prediction(model, x[None]).tobytes()

    @pytest.mark.parametrize("spec,d,v", MODELS)
    def test_zero_rows(self, spec, d, v):
        model = _random_model(spec, np.random.default_rng(59), d, v)
        assert model.predict_batch(np.empty((0, d))).shape == (0, v)
        assert models._affine_basis(model, np.empty((0, d))).shape == (0, model.basis_dim + 1)

    @pytest.mark.parametrize("spec,d,wrong,message", [
        (ModelSpec("linear"), 2, 3, "expected basis dim 2, got 3"),
        (ModelSpec("polynomial", 6), 2, 3, "expected basis dim 28, got 84"),
    ])
    def test_wrong_width_rejected_before_any_allocation(self, spec, d, wrong, message):
        # a whole 84-column basis of these rows would be 67 MB
        model = init_model(spec, d, 1)
        x = np.zeros((100_000, wrong))

        def rejected():
            with pytest.raises(ValueError, match=f"^{message}$"):
                model.predict_batch(x)

        _, peak = traced_peak(rejected)
        assert peak < 100_000

    @pytest.mark.parametrize("spec,d", [(ModelSpec("linear"), 3), (ModelSpec("polynomial", 6), 2),
                                        (ModelSpec("logistic"), 2)])
    def test_affine_basis_across_a_block_edge(self, spec, d):
        rng = np.random.default_rng(61)
        model = init_model(spec, d, 1)
        n = models._block_rows(model.basis_dim) + 37
        x = rng.uniform(-1.5, 1.5, (n, d))
        whole = np.column_stack([model.expand(x), np.ones(n)])
        want = 0.5 * whole if spec.kind == "logistic" else whole
        assert models._affine_basis(model, x).tobytes() == want.tobytes()

    def test_prediction_holds_the_output_and_a_block(self):
        # 100k rows of a degree-6 basis of two features are 22.4 MB
        model = _random_model(ModelSpec("polynomial", 6), np.random.default_rng(67), 2)
        x = np.random.default_rng(71).uniform(0.0, 1.0, (100_000, 2))
        out, peak = traced_peak(model.predict_batch, x)
        whole = len(x) * model.basis_dim * 8
        assert whole == 22_400_000
        assert out.nbytes <= peak < out.nbytes + 3 * models._BASIS_BLOCK_BYTES < whole / 5

    def test_affine_basis_holds_its_result_and_a_block(self):
        model = init_model(ModelSpec("polynomial", 6), 2, 1)
        x = np.random.default_rng(73).uniform(0.0, 1.0, (100_000, 2))
        phi, peak = traced_peak(models._affine_basis, model, x)
        assert phi.nbytes <= peak < phi.nbytes + models._BASIS_BLOCK_BYTES


_FD_CASES = [
    ("linear", "mse", 1), ("linear", "huber", 1), ("linear", "lqr", 1),
    ("polynomial", "mse", 1), ("polynomial", "huber", 1), ("polynomial", "lqr", 1),
    ("logistic", "bce", 1),
] + [(kind, loss, 2) for kind in ("linear", "polynomial") for loss in ("mse", "huber", "lqr")]


class TestParameterGradient:
    @pytest.mark.parametrize("kind,loss,out", _FD_CASES, ids=[
        f"{kind}-{loss}" + ("" if out == 1 else f"-{out}-outputs") for kind, loss, out in _FD_CASES
    ])
    def test_matches_finite_differences(self, kind, loss, out):
        # two outputs check the step's 1 / v, and huber's clip at delta 0.3
        rng = np.random.default_rng(_FD_CASES.index((kind, loss, out)))
        model = _random_model(ModelSpec(kind, degree=3 if kind == "polynomial" else 1), rng, 2, out)
        x = rng.uniform(0, 1, size=2)
        y = np.array([float(rng.integers(0, 2))]) if loss == "bce" else rng.normal(size=out)
        w = float(rng.uniform(0.2, 3.0))
        spec = LossSpec(loss, delta=1.0 if out == 1 else 0.3)
        dw, db = parameter_gradient(model, spec, x, y, weight=w)
        analytic = np.concatenate([dw.ravel(), db])
        fd = finite_diff_param_grad(model, spec, x, y, w)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_weight_scaling_is_exact(self):
        # the weight scales the loss gradient before the basis does: the
        # weight gradient is within 2 ulp of w times the unweighted one, and
        # the bias gradient, on the basis's 1.0, is exactly that
        rng = np.random.default_rng(33)
        model = _random_model(ModelSpec("linear"), rng, 3, 2)
        x, y = rng.normal(size=3), rng.normal(size=2)
        for loss in ("mse", "huber", "lqr"):
            base_dw, base_db = parameter_gradient(model, LossSpec(loss), x, y, weight=1.0)
            w = 2.7182818
            dw, db = parameter_gradient(model, LossSpec(loss), x, y, weight=w)
            np.testing.assert_array_max_ulp(dw, w * base_dw, maxulp=2)
            np.testing.assert_array_equal(db, w * base_db)
            dw, db = parameter_gradient(model, LossSpec(loss), x, y, weight=0.0)
            np.testing.assert_array_equal(dw, 0.0)
            np.testing.assert_array_equal(db, 0.0)

    @pytest.mark.parametrize("weight,text", [(-2.0, "-2.0"), (float("nan"), "nan")])
    def test_bad_weight_rejected_in_trains_words(self, weight, text):
        # parameter_gradient runs train's SGD, so it rejects what train
        # rejects, with train's message; the weight reads as a Python float
        message = "^run 0: weight of sample {} must be finite and non-negative, got " + text + "$"
        cfg = TrainConfig(epochs=1, batch_size=1)
        ds = Dataset(np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match=message.format(1)):
            train(ModelSpec("linear"), ds, [(LossSpec("mse"), np.array([1.0, weight]))], cfg)
        with pytest.raises(ValueError, match=message.format(0)):
            parameter_gradient(init_model(ModelSpec("linear"), 1, 1), LossSpec("mse"), [0.5],
                               [1.0], weight=weight)

    @pytest.mark.parametrize("spec,d,v,x,y,message", [
        (ModelSpec("linear"), 2, 1, [0.5], [1.0], "expected basis dim 2, got 1"),
        (ModelSpec("linear"), 2, 2, [0.5, 0.1], [1.0], "expected 2 target columns, got 1"),
        (ModelSpec("polynomial", 2), 2, 1, [0.5, 0.1, 0.2], [1.0], "expected basis dim 6, got 10"),
    ], ids=["one-feature", "one-target", "poly-three-features"])
    def test_mismatched_widths_named(self, spec, d, v, x, y, message):
        # these failed inside the step with numpy's shape errors
        with pytest.raises(ValueError, match=f"^{message}$"):
            parameter_gradient(init_model(spec, d, v), LossSpec("mse"), x, y)

    def test_bad_sample_rejected_as_train_rejects_it(self):
        # a nan feature used to give a nan gradient, a bce label of 0.5 a
        # gradient, and an overflowing loss a numpy warning
        linear, logistic = (init_model(ModelSpec(kind), 1, 1) for kind in ("linear", "logistic"))
        with pytest.raises(ValueError, match="^non-finite feature or target value in row 0$"):
            parameter_gradient(linear, LossSpec("mse"), [np.nan], [1.0])
        with pytest.raises(ValueError, match=r"^logistic models require targets in \{0, 1\}; "
                                             r"row 0 has 0.5$"):
            parameter_gradient(logistic, LossSpec("bce"), [0.5], [0.5])
        with pytest.raises(TrainingDiverged, match=r"^run 0 \(lqr\): non-finite loss at epoch 0, "
                                                   r"batch starting at 0$"):
            parameter_gradient(linear, LossSpec("lqr"), [0.0], [1e100])


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

    def test_partial_last_batch_steps_by_its_own_mean(self):
        # 23 unshuffled rows in batches of 7: the last batch holds 2 rows,
        # so its step is lr / 2 times their weighted gradient sum
        rng = np.random.default_rng(47)
        ds = Dataset(rng.uniform(-1, 1, size=(23, 2)), rng.normal(size=(23, 1)))
        w = rng.uniform(0.0, 2.0, size=23)
        cfg = TrainConfig(epochs=2, batch_size=7, learning_rate=0.05, shuffle=False)
        [(model, _)] = train(ModelSpec("linear"), ds, [(LossSpec("mse"), w)], cfg)
        phi, want = np.column_stack([ds.features, np.ones(23)]), np.zeros((1, 3))
        for _, a in np.ndindex(cfg.epochs, 4):
            rows = slice(7 * a, 7 * a + 7)
            _papers_update([LossSpec("mse")], want, phi[rows], ds.targets[rows], w[rows, None],
                           cfg.learning_rate)
        np.testing.assert_allclose(model.weights, want[:, :2], rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.bias, want[:, 2], rtol=1e-12, atol=0)

    # (rows, batch size, block rows): batch 1 over several blocks; a partial
    # last batch with two batches a block; a batch larger than the block;
    # bs = n; and n smaller than the block
    @pytest.mark.parametrize("n,bs,block", [(40, 1, 6), (23, 7, 14), (23, 7, 5), (23, 23, 8),
                                            (23, 3, 100)])
    def test_gather_block_matches_a_per_step_gather(self, monkeypatch, n, bs, block):
        # train gathers the basis rows of the whole batches that fit in
        # _BLOCK_BYTES at once: each step sees its batch's rows of the epoch's
        # order, and the results equal those of a block of one batch, where
        # each step gathers its own rows, bit for bit
        rng = np.random.default_rng(53)
        spec = ModelSpec("polynomial", 2)
        ds = Dataset(rng.uniform(-1, 1, size=(n, 2)), rng.normal(scale=0.3, size=(n, 2)))
        runs = [(LossSpec("mse"), None), (LossSpec("huber", 0.5), rng.uniform(0, 2, n)),
                (LossSpec("lqr"), rng.uniform(0, 2, n))]
        cfg = TrainConfig(epochs=3, batch_size=bs, learning_rate=0.05, seed=17)
        basis = models._affine_basis(init_model(spec, 2, 2), ds.features)
        seen = []
        step = models._batch_step

        def recording(params, params_t, grad, phi, *operands):
            seen.append(phi.copy())
            return step(params, params_t, grad, phi, *operands)

        monkeypatch.setattr(models, "_batch_step", recording)
        monkeypatch.setattr(models, "_BLOCK_BYTES", block * basis[0].nbytes)
        blocked = train(spec, ds, runs, cfg)
        shuffle = np.random.default_rng(cfg.seed)
        orders = [shuffle.permutation(n) for _ in range(cfg.epochs)]
        want = [basis[order[a : a + bs]] for order in orders for a in range(0, n, bs)]
        assert [phi.tobytes() for phi in seen] == [phi.tobytes() for phi in want]
        monkeypatch.setattr(models, "_BLOCK_BYTES", 0)  # a block of one batch
        for (model, report), (ref, ref_report) in zip(blocked, train(spec, ds, runs, cfg)):
            assert model.weights.tobytes() == ref.weights.tobytes()
            assert model.bias.tobytes() == ref.bias.tobytes()
            assert report.loss_history == ref_report.loss_history

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
        # parameters by -lr times the single-sample gradient: the step rounds
        # w * lr, the loss gradient times it and the basis times that, three
        # roundings against parameter_gradient's three in another order;
        # 3000 random draws of this loop reached 3 ulp
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
            np.testing.assert_array_max_ulp(model.weights, -cfg.learning_rate * dw, maxulp=3)
            np.testing.assert_array_max_ulp(model.bias, -cfg.learning_rate * db, maxulp=3)
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

    def test_overflowing_step_scale_rejected(self):
        # each step scales a sample's weight by lr / B times its loss's
        # gradient constant; at lr 1e308 the quartic's 4 * lr is inf, and a
        # weight of 0 would step by 0 * inf = nan
        ds = _linear_1d_dataset(n=5)
        cfg = TrainConfig(epochs=1, batch_size=1, learning_rate=1e308)
        runs = [(LossSpec("huber"), None), (LossSpec("lqr"), np.zeros(5))]
        with pytest.raises(ValueError, match=r"^learning rate 1e\+308 times the lqr loss's "
                                             r"gradient constant 4 overflows float64$"):
            train(ModelSpec("linear"), ds, runs, cfg)

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

    def test_binary_target_check_names_the_first_row(self):
        targets = np.array([[0.0], [1.0], [1.0], [2.0], [0.5]])
        with pytest.raises(ValueError, match="^logistic models require targets in \\{0, 1\\}; "
                                             "row 3 has 2.0$"):
            models.check_binary_targets(targets)
        models.check_binary_targets(targets[:3])  # one class or two, in {0, 1}
        models.check_binary_targets(np.zeros((4, 1)))

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
        # equals each variant trained alone, to rtol 1e-12: the stack's
        # dots sum in another order than a lone run's
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
                np.testing.assert_allclose(model.weights, want.weights, rtol=1e-12, atol=0)
                np.testing.assert_allclose(model.bias, want.bias, rtol=1e-12, atol=0)
                np.testing.assert_allclose(report.loss_history, want_report.loss_history,
                                           rtol=1e-12, atol=0)

    def test_diverging_run_leaves_the_others_alone(self, monkeypatch):
        # on synth-1d data seed 11 the unweighted quartic run goes non-finite
        # in epoch 10; until the end of that epoch, when the check raises, the
        # runs stacked with it take exactly the steps they take beside a
        # finite run in its place (a stack of another width may sum its dots
        # in another order)
        seen = []
        step = models._batch_step

        def recording(params, *operands):
            seen.append((params[:, :-1].copy(), params[:, -1].copy()))  # one row per run
            return step(params, *operands)

        monkeypatch.setattr(models, "_batch_step", recording)
        exp = cli.REPRO_EXPERIMENTS["synth-1d"]
        ds, _ = _repro_split("synth-1d", 11)
        cfg = TrainConfig(epochs=20, batch_size=1, learning_rate=exp.learning_rate, seed=11)
        mse, lqr, huber = (LossSpec(base) for base in ("mse", "lqr", "huber"))
        with pytest.raises(TrainingDiverged, match=r"run 1 \(lqr\): non-finite loss "
                                                   r"at epoch 10, batch starting at 111$"):
            train(exp.model_spec, ds, [(mse, None), (lqr, None), (huber, None)], cfg)
        with_lqr, seen[:] = seen[:], []
        train(exp.model_spec, ds, [(mse, None), (mse, np.full(ds.n, 0.5)), (huber, None)], cfg)
        assert len(with_lqr) == 11 * ds.n
        assert not np.isfinite(with_lqr[-1][0][1]).all()
        assert np.isfinite(seen[-1][0]).all()
        for (weights, bias), (want_weights, want_bias) in zip(with_lqr, seen):
            np.testing.assert_array_equal(weights[[0, 2]], want_weights[[0, 2]])
            np.testing.assert_array_equal(bias[[0, 2]], want_bias[[0, 2]])

    def test_loss_history_is_per_batch_values_at_pre_step_parameters(self, monkeypatch):
        # three loss groups, 23 rows in batches of 5 (the last holds 3), two
        # outputs: each epoch's loss, recomputed batch by batch from the
        # parameters each step saw, is the history train reports
        seen = []
        step = models._batch_step

        def recording(params, *operands):
            seen.append(params.copy())
            return step(params, *operands)

        monkeypatch.setattr(models, "_batch_step", recording)
        rng = np.random.default_rng(29)
        n, bs = 23, 5
        ds = Dataset(rng.uniform(-1, 1, size=(n, 2)), rng.normal(size=(n, 2)))
        specs = [LossSpec("mse"), LossSpec("huber", 0.5), LossSpec("huber", 0.5), LossSpec("lqr")]
        weights = [np.ones(n), rng.uniform(0, 2, n), rng.uniform(0, 2, n), np.ones(n)]
        cfg = TrainConfig(epochs=3, batch_size=bs, learning_rate=0.05, seed=13)
        trained = train(ModelSpec("linear"), ds, list(zip(specs, weights)), cfg)

        shuffle = np.random.default_rng(cfg.seed)
        params = (p.reshape(len(specs), 2, 3) for p in seen)  # each run's 2 rows
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


def _allocating_part(spec, y_hat, y):
    # each loss's non-linear gradient part on fresh arrays: its gradient is
    # PAPER_CONSTANT times this over v
    if spec.base == "bce":
        return (np.tanh(0.5 * y_hat) + 1.0) - 2.0 * y
    r = y_hat - y
    if spec.base == "lqr":
        return r**3
    if spec.base == "huber":
        return np.minimum(np.maximum(r, -spec.delta), spec.delta)
    return r


# The oracles below step ``params`` (R * v, basis + 1), run r's v rows
# first, in place, on the batch's whole basis rows ``phi`` (B, basis + 1),
# whose constant-1 last column the bias weighs, and its sample-major targets
# and weights ``y`` and ``w`` (B, R * v), and return the outputs (B, R * v).


def _allocating_step(specs, params, phi, y, w, lr):
    # the step's operations in its order on fresh arrays: one dot for the
    # outputs, each run's non-linear part scaled by w * (lr / B * c / v),
    # then one dot with the basis
    v = len(params) // len(specs)
    z = np.dot(phi, params.T)
    g = np.empty_like(z)
    for r, spec in enumerate(specs):
        cols = slice(r * v, r * v + v)
        scale = lr / len(phi) * PAPER_CONSTANT[spec.base] / v
        g[:, cols] = _allocating_part(spec, z[:, cols], y[:, cols]) * (w[:, cols] * scale)
    params -= np.dot(g.T, phi)
    return z


def _papers_update(specs, params, phi, y, w, lr):
    # the paper's update in plain loops, sharing nothing with the step's
    # layout: for each run and sample, the loss gradient times the sample's
    # features for the weights and times 1 for the bias, apart, times w_i,
    # summed over the batch and scaled by lr / B after
    v, k = len(params) // len(specs), phi.shape[1] - 1
    x = phi[:, :k]
    z = x @ params[:, :k].T + params[:, k]
    update = np.zeros_like(params)
    for r, spec in enumerate(specs):
        for i in range(len(x)):
            grad = allocating_loss_grad(spec, z[i, r * v : r * v + v], y[i, r * v : r * v + v])
            for o in range(v):
                update[r * v + o, :k] += grad[o] * x[i] * w[i, r * v]
                update[r * v + o, k] += grad[o] * w[i, r * v]
    params -= update * lr / len(x)
    return z


_HUBER = LossSpec("huber", 0.5)
_ORACLE_STACKS = {
    "loss-major": [LossSpec("mse")] * 2 + [_HUBER] * 2 + [LossSpec("lqr")] * 2,
    "interleaved": [LossSpec("mse"), _HUBER, LossSpec("lqr")] * 2,
    "bce": [LossSpec("bce")] * 3,
}


def _wild_run(stack):
    # the run whose parameters start out huge or infinite: the quartic goes
    # non-finite within a few steps, bce at once
    return 0 if stack == "bce" else _ORACLE_STACKS[stack].index(LossSpec("lqr"))


def _step_against(oracle, stack, out, bs, check, wild=True):
    """Three shuffled epochs of ``models._sgd`` on a 23-row stack (a
    logistic model for bce, a linear one else) from random parameters, its
    runs sharing the targets as in ``train``. A wrapper of
    ``models._batch_step`` runs each real step, then ``oracle(specs,
    params, phi, y, w, lr)`` on the batch's rows of the whole affine basis
    and its own copy of the parameters, then ``check(z, want_z, params,
    want)``, with z the outputs as the loss values read them: twice the
    half logit that a bce step stores. If ``wild``, ``_wild_run`` starts out
    huge or infinite, and the stack steps until ``_sgd`` raises
    ``TrainingDiverged`` naming it at the end of the first epoch. Returns
    the final parameters as (R, out, basis + 1) and the number of steps."""
    specs, bce = _ORACLE_STACKS[stack], stack == "bce"
    rng = np.random.default_rng(31)
    R, n, k = len(specs), 23, 4
    x = rng.uniform(-1.0, 1.0, size=(n, k))
    phi = np.column_stack([x, np.ones(n)])
    y = rng.normal(scale=0.5, size=(n, out))
    if bce:
        y = (y > 0).astype(float)
    w = rng.uniform(0.0, 2.0, size=(n, R))
    w[::4] = 0.0
    params = rng.normal(scale=0.3, size=(R * out, k + 1))
    if wild:
        params.reshape(R, out, k + 1)[_wild_run(stack)] *= np.inf if bce else 1e154
    want = params.copy()
    cfg = TrainConfig(epochs=3, batch_size=bs, learning_rate=0.02, seed=31)
    shuffle = np.random.default_rng(cfg.seed)
    batches = [order[a : a + bs] for order in (shuffle.permutation(n) for _ in range(3))
               for a in range(0, n, bs)]
    seen, step = [], models._batch_step

    def beside(params, params_t, grad, basis, z, *operands):
        step(params, params_t, grad, basis, z, *operands)
        rows = batches[len(seen)]
        seen.append(rows)
        np.testing.assert_array_equal(basis, 0.5 * phi[rows] if bce else phi[rows])
        want_z = oracle(specs, want, phi[rows], np.tile(y[rows], R),
                        np.repeat(w[rows], out, axis=1), cfg.learning_rate)
        check(2.0 * z if bce else z, want_z, params, want)

    model_spec = ModelSpec("logistic" if bce else "linear")
    runs = [(spec, w[:, r]) for r, spec in enumerate(specs)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "_batch_step", beside)
        if not wild:
            models._sgd(model_spec, Dataset(x, y), runs, cfg, params)
        else:
            r = _wild_run(stack)
            with pytest.raises(TrainingDiverged, match=rf"^run {r} \({specs[r].base}\): "
                                                       r"non-finite loss at epoch 0, "):
                models._sgd(model_spec, Dataset(x, y), runs, cfg, params)
    return params.reshape(R, out, k + 1), len(seen)


# 23 rows; at out 3 the scale's 1/3 is not exact
_ORACLE_CASES = [("loss-major", 1), ("loss-major", 2), ("interleaved", 1), ("interleaved", 2),
                 ("bce", 1), ("interleaved", 3)]


def _close_on_finite_runs(stack, out, wild=True):
    """A ``_step_against`` check: the runs that stay finite agree to rtol
    1e-12. Without a ``wild`` run every run stays finite for three epochs,
    and a parameter that passes near 0 there differs by an ulp of its
    terms, not of itself; so each value is also allowed 1e-12 of the
    largest parameter or output."""
    runs = np.arange(len(_ORACLE_STACKS[stack]))
    finite = np.repeat(runs != (_wild_run(stack) if wild else -1), out)

    def check(z, want_z, params, want):
        for got, expected in [(z[:, finite], want_z[:, finite]), (params[finite], want[finite])]:
            atol = 0 if wild else 1e-12 * np.abs(expected).max()
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=atol)

    return check


def _equal(z, want_z, params, want):
    """A ``_step_against`` check: every output and parameter bit for bit."""
    np.testing.assert_array_equal(z, want_z)
    np.testing.assert_array_equal(params, want)


class TestStepOracle:
    """``_sgd``'s real steps against two oracles. The allocating step runs
    the same operations in the same order on the same 2-D, sample-major
    layout, with the paper's gradient constants on the whole basis, so
    every parameter and output is equal bit for bit, though a bce step runs
    on the basis halved with a constant of 1. The step runs one dot for the
    outputs, scales each loss's non-linear gradient part by w * lr / B
    times the loss's constant over v, and runs one dot with the basis. The
    paper's update in plain loops, with the bias apart, agrees with it to
    rtol 1e-12 on the runs that stay finite."""

    @pytest.mark.parametrize("bs", [1, 5, 7])  # 23 rows: 7 leaves a partial last batch
    @pytest.mark.parametrize("stack,out", _ORACLE_CASES)
    def test_step_matches_the_allocating_step(self, stack, out, bs):
        params, steps = _step_against(_allocating_step, stack, out, bs, _equal)
        assert steps == -(-23 // bs)  # one epoch
        wild = _wild_run(stack)
        assert not np.isfinite(params[wild]).any()
        assert np.isfinite(np.delete(params, wild, axis=0)).all()

    @pytest.mark.parametrize("bs", [1, 5, 7])
    @pytest.mark.parametrize("stack,out", _ORACLE_CASES)
    def test_affine_step_matches_the_two_contraction_step(self, stack, out, bs):
        _step_against(_papers_update, stack, out, bs, _close_on_finite_runs(stack, out))

    @pytest.mark.parametrize("bs", [1, 5, 7])
    @pytest.mark.parametrize("stack,out", _ORACLE_CASES)
    def test_finite_stack_matches_both_oracles_for_three_epochs(self, stack, out, bs):
        params, steps = _step_against(_allocating_step, stack, out, bs, _equal, wild=False)
        assert steps == 3 * -(-23 // bs)
        assert np.isfinite(params).all()
        _step_against(_papers_update, stack, out, bs,
                      _close_on_finite_runs(stack, out, wild=False), wild=False)

    @pytest.mark.parametrize("base,v", [("mse", 1), ("mse", 2), ("huber", 1), ("huber", 2),
                                        ("lqr", 1), ("lqr", 2), ("bce", 1)])
    def test_in_place_gradients_match_loss_grad(self, base, v):
        # each loss's constant times its in-place non-linear part over v
        rng = np.random.default_rng(37)
        spec = LossSpec(base, delta=0.5)
        y_hat = rng.normal(scale=3.0, size=(3, 40, v))
        y_hat[0, :3, 0] = [1e120, -np.inf, np.nan]  # overflow and non-finite outputs
        y = (rng.integers(0, 2, size=y_hat.shape).astype(float) if base == "bce"
             else rng.normal(size=y_hat.shape))
        with np.errstate(over="ignore", invalid="ignore"):
            np.testing.assert_array_equal(in_place_gradient(spec, y_hat, y),
                                          allocating_loss_grad(spec, y_hat, y))

    @pytest.mark.parametrize("stack", list(_ORACLE_STACKS))
    def test_step_constants_are_float64_0d_arrays(self, stack):
        # a Python float operand costs a ufunc call more than its arithmetic
        # on a few elements: every operand of the step's prebuilt calls is
        # an array, and each constant a float64 0-d one
        specs, bce = _ORACLE_STACKS[stack], stack == "bce"
        groups = models._loss_groups("logistic" if bce else "linear", specs, 2 - bce)
        z, y, ws, g = (np.zeros((5, len(specs) * (2 - bce))) for _ in range(4))
        ops = models._step_ops(bce, z, y, ws, g, models._part_ops(groups, g))
        operands = [x for _, a, b, out in ops for x in (a, b, out) if x is not None]
        assert all(isinstance(x, np.ndarray) for x in operands)
        constants = [x for x in operands if x.ndim == 0]
        assert all(x.dtype == np.float64 for x in constants)
        # bce's + 1, or huber's two bounds and lqr's exponent per group
        assert len(constants) == {"loss-major": 3, "interleaved": 6, "bce": 1}[stack]

    def test_power_by_a_0d_exponent_matches_the_float_exponent(self):
        # lqr's part is r ** 3 with a 0-d exponent, which must give the bits
        # that the exponent 3.0 gives
        rng = np.random.default_rng(59)
        r = rng.uniform(-1.0, 1.0, 10**5) * 10.0 ** rng.uniform(-120.0, 120.0, 10**5)
        tiny = np.nextafter(0.0, 1.0)
        r = np.concatenate([r, [np.inf, -np.inf, np.nan, 0.0, -0.0, tiny, -tiny, 1e-310, 1e103]])
        [(ufunc, _, three, _)] = models._part_ops([(LossSpec("lqr"), slice(None))], r[:, None])
        with np.errstate(over="ignore", under="ignore"):
            assert ufunc(r, three).tobytes() == np.power(r, 3.0).tobytes()


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
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
        ("batch_size", 1.0, "batch_size must be an integer, got 1.0"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", "0", "seed must be an integer, got '0'"),
    ])
    def test_values_that_train_nothing_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**{field: value})

    def test_fields_are_frozen(self):
        # an assignment would skip the checks above: epochs 0 used to train
        # nothing and batch_size 0 to divide by zero inside train
        cfg = TrainConfig(epochs=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epochs = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.batch_size = 0


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

    def test_polynomial_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match="^degree must be >= 1$"):
            ModelSpec("polynomial", 0)

    @pytest.mark.parametrize("kind,degree", [("polynomial", 2.5), ("polynomial", 6.0),
                                             ("linear", 1.0), ("logistic", None)])
    def test_degree_must_be_an_integer(self, kind, degree):
        # a float degree used to pass and fail inside train, at math.comb
        with pytest.raises(ValueError, match=f"^degree must be an integer, got {degree!r}$"):
            ModelSpec(kind, degree)

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_degree_only_for_polynomial(self, kind):
        # nothing would read the degree, yet model files and manifests record it
        with pytest.raises(ValueError, match=f"^a {kind} model has degree 1, got 6$"):
            ModelSpec(kind, 6)


class TestModel:
    def test_equal_only_to_itself(self):
        # the generated == compared arrays, whose truth value is ambiguous
        model = init_model(ModelSpec("linear"), 2, 1)
        assert model == model
        assert (init_model(ModelSpec("linear"), 2, 1) == init_model(ModelSpec("linear"), 2, 1)) \
            is False


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

    def test_record_of_other_width_rejected(self, tmp_path):
        # the spec line says one feature; feature_min holds two values
        path = tmp_path / "model.txt"
        path.write_text("viloss_model_version=1\nlinear,1,1,1\nfeature_min=0.0,0.0\n"
                        "feature_max=1.0\ntarget_min=0.0\ntarget_max=1.0\n0.5\n0.25\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: normalization record does not match the model's dimensions")):
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
