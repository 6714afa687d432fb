import math

import numpy as np
import pytest

from viloss import Dataset, LossSpec, ModelSpec, TrainConfig, batch_value_grad, train
from viloss import losses
from viloss.losses import bce_grad, residual_grad


def finite_diff_grad(spec, y_hat, y, h=1e-6):
    y_hat = np.asarray(y_hat, dtype=float)
    grad = np.zeros_like(y_hat)
    for i in range(len(y_hat)):
        up, down = y_hat.copy(), y_hat.copy()
        up[i] += h
        down[i] -= h
        values = batch_value_grad(spec, np.stack([up, down]), np.stack([y, y]))
        grad[i] = (values[0] - values[1]) / (2 * h)
    return grad


class TestBaseLossValues:
    def test_mse_zero_residual(self):
        y_hat, y = np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])
        values = batch_value_grad(LossSpec("mse"), y_hat, y)
        assert values[0] == 0.0
        np.testing.assert_array_equal(residual_grad(LossSpec("mse"), y_hat - y)[0], 0.0)

    def test_mse_hand_value(self):
        values = batch_value_grad(LossSpec("mse"), [[3.0, 0.0]], [[1.0, 0.0]])
        assert values[0] == pytest.approx(2.0)  # (4 + 0) / 2

    def test_huber_linear_branch(self):
        values = batch_value_grad(LossSpec("huber", delta=1.0), [[2.0]], [[0.0]])
        assert values[0] == pytest.approx(1.5)

    def test_huber_quadratic_branch(self):
        values = batch_value_grad(LossSpec("huber", delta=1.0), [[0.5]], [[0.0]])
        assert values[0] == pytest.approx(0.125)

    def test_bce_half(self):
        # logit 0 is probability 0.5
        values = batch_value_grad(LossSpec("bce"), [[0.0]], [[1.0]])
        assert values[0] == pytest.approx(math.log(2))

    def test_lqr_quartic(self):
        values = batch_value_grad(LossSpec("lqr"), [[2.0]], [[0.0]])
        assert values[0] == pytest.approx(16.0)

    def test_bce_extreme_logits(self):
        # no clip: a confident right answer costs exactly 0, a confident
        # wrong one its full logit, and nothing under- or overflows
        y_hat = np.array([[1000.0], [-1000.0], [1000.0], [-1000.0]])
        y = np.array([[1.0], [0.0], [0.0], [1.0]])
        with np.errstate(all="raise"):
            values = batch_value_grad(LossSpec("bce"), y_hat, y)
            grads = bce_grad(y_hat, y, out=np.empty_like(y))
        np.testing.assert_array_equal(values, [0.0, 0.0, 1000.0, 1000.0])
        np.testing.assert_array_equal(grads[:, 0], [0.0, 0.0, 1.0, -1.0])

    def test_bce_requires_scalar_output(self):
        with pytest.raises(ValueError):
            batch_value_grad(LossSpec("bce"), [[0.3, 0.4]], [[1.0, 0.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batch_value_grad(LossSpec("mse"), [[0.3, 0.4]], [[1.0]])

    @pytest.mark.parametrize("base", ["mse", "huber", "lqr", "bce"])
    def test_values_never_reach_gradient_code(self, base, monkeypatch):
        # the step's in-place gradients are the only gradient code, and the
        # values the history reads take no path through them
        rng = np.random.default_rng(29)
        spec = LossSpec(base, delta=0.5)
        v = 1 if base == "bce" else 2
        y_hat = rng.normal(scale=2.0, size=(3, 4, v))  # 3 stacked runs of 4 samples
        y = (rng.integers(0, 2, size=y_hat.shape).astype(float) if base == "bce"
             else rng.normal(size=y_hat.shape))
        want = batch_value_grad(spec, y_hat, y)

        def no_gradients(*args, **kwargs):
            raise AssertionError("a loss value read a gradient")

        monkeypatch.setattr(losses, "residual_grad", no_gradients)
        monkeypatch.setattr(losses, "bce_grad", no_gradients)
        np.testing.assert_array_equal(batch_value_grad(spec, y_hat, y), want)


class TestGradients:
    @pytest.mark.parametrize("base", ["mse", "huber", "lqr"])
    def test_matches_finite_differences(self, base):
        rng = np.random.default_rng(17)
        spec = LossSpec(base, delta=0.7)
        for _ in range(20):
            v = rng.integers(1, 5)
            y_hat = rng.normal(size=v)
            y = rng.normal(size=v)
            grads = residual_grad(spec, (y_hat - y)[None])
            fd = finite_diff_grad(spec, y_hat, y)
            np.testing.assert_allclose(grads[0], fd, rtol=1e-4, atol=1e-6)

    def test_bce_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        spec = LossSpec("bce")
        for _ in range(20):
            y_hat = rng.uniform(-6.0, 6.0, size=1)  # a logit
            y = np.array([float(rng.integers(0, 2))])
            grads = bce_grad(y_hat[None], y[None], out=np.empty((1, 1)))
            fd = finite_diff_grad(spec, y_hat, y)
            np.testing.assert_allclose(grads[0], fd, rtol=1e-4, atol=1e-6)

    def test_huber_continuity_at_delta(self):
        delta = 1.3
        spec = LossSpec("huber", delta=delta)
        y_hat = np.array([[delta - 1e-9], [delta + 1e-9]])
        below, above = batch_value_grad(spec, y_hat, np.zeros((2, 1)))
        grads = residual_grad(spec, y_hat.copy())  # the residual from a zero target
        assert below == pytest.approx(above, abs=1e-8)
        assert grads[0, 0] == pytest.approx(grads[1, 0], abs=1e-8)


def weighted_step(spec, y_hat, y, weight):
    """Weighted loss value and its gradient w.r.t. the prediction, as one
    step of ``train`` forms them: one row, feature 1, learning rate 1. The
    zero-initialised model predicts 0, so the target is shifted by -y_hat to
    keep the residual y_hat - y bit for bit."""
    y_hat = np.asarray(y_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    data = Dataset(np.ones((1, 1)), (y - y_hat)[None])
    cfg = TrainConfig(epochs=1, batch_size=1, learning_rate=1.0, shuffle=False)
    [(model, report)] = train(ModelSpec("linear"), data,
                              [(spec, np.array([weight]))], cfg)
    return report.loss_history[0], -model.bias


class TestWeightedLoss:
    def test_unit_weight_is_identity(self):
        spec = LossSpec("mse")
        y_hat, y = np.array([[1.5, -0.5]]), np.array([[1.0, 0.0]])
        values = batch_value_grad(spec, y_hat, y)
        grads = residual_grad(spec, y_hat - y)
        value, grad = weighted_step(spec, [1.5, -0.5], [1.0, 0.0], 1.0)
        assert value == values[0]
        np.testing.assert_array_equal(grad, grads[0])

    def test_mu_two_gamma_one(self):
        # mu / (1 + gamma) = 2 / 2 = 1 applied to base value 0.5
        value, _ = weighted_step(LossSpec("mse"), [1.0, 0.0], [0.0, 0.0], 2.0 / (1.0 + 1.0))
        assert value == pytest.approx(0.5)

    def test_zero_weight_annihilates(self):
        value, grad = weighted_step(LossSpec("lqr"), [2.0], [0.0], 0.0)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_gradient_scales_bit_for_bit(self):
        rng = np.random.default_rng(19)
        for base_kind in ("mse", "huber", "lqr"):
            y_hat, y = rng.normal(size=3), rng.normal(size=3)
            values = batch_value_grad(LossSpec(base_kind), y_hat[None], y[None])
            grads = residual_grad(LossSpec(base_kind), (y_hat - y)[None])
            w = float(rng.uniform(0.1, 5.0))
            value, grad = weighted_step(LossSpec(base_kind), y_hat, y, w)
            np.testing.assert_array_equal(grad, w * grads[0])
            assert value == w * values[0]


class TestOrdering:
    def test_lqr_vs_mse(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            big = rng.uniform(1.0, 4.0, size=3) * rng.choice([-1, 1], size=3)
            small = rng.uniform(0.0, 1.0, size=3) * rng.choice([-1, 1], size=3)
            rows, zeros = np.stack([big, small]), np.zeros((2, 3))
            lqr = batch_value_grad(LossSpec("lqr"), rows, zeros)
            mse = batch_value_grad(LossSpec("mse"), rows, zeros)
            assert lqr[0] >= mse[0]
            assert lqr[1] <= mse[1]


class TestLossSpec:
    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            LossSpec("hinge")

    def test_bad_delta_rejected(self):
        # nan <= 0 is false: the check must be written so that nan fails it
        for delta in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="delta must be positive"):
                LossSpec("huber", delta=delta)

    def test_default_delta(self):
        assert LossSpec("huber").delta == 1.0
