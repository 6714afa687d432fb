import numpy as np
import pytest

from viloss import classification_metrics, regression_metrics


class TestRegressionMetrics:
    def test_perfect_prediction(self):
        y = np.array([[1.0], [2.0]])
        report = regression_metrics(y, y)
        assert report.mape == 0.0
        assert report.mae == 0.0

    def test_hand_example(self):
        report = regression_metrics(np.array([[2.0], [2.0]]), np.array([[1.0], [2.0]]))
        assert report.mae == pytest.approx(0.5)
        assert report.mape == pytest.approx(0.5)

    def test_zero_target_zero_prediction(self):
        report = regression_metrics(np.array([[0.0]]), np.array([[0.0]]))
        assert report.mape == 0.0

    def test_zero_target_guard_is_finite(self):
        report = regression_metrics(np.array([[1.0]]), np.array([[0.0]]))
        assert np.isfinite(report.mape)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(30, 2))
        y_hat = y + rng.normal(scale=0.1, size=y.shape)
        a = regression_metrics(y_hat, y)
        perm = rng.permutation(30)
        b = regression_metrics(y_hat[perm], y[perm])
        assert a.mape == pytest.approx(b.mape)
        assert a.mae == pytest.approx(b.mae)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            regression_metrics(np.zeros((2, 1)), np.zeros((3, 1)))


class TestClassificationMetrics:
    def test_perfect_predictor(self):
        prob = np.array([0.9, 0.1, 0.8, 0.2])
        y = np.array([1, 0, 1, 0])
        report = classification_metrics(prob, y)
        assert (report.accuracy, report.precision, report.recall, report.f1) == (
            1.0, 1.0, 1.0, 1.0,
        )

    def test_all_negative_on_balanced_data(self):
        prob = np.full(10, 0.1)
        y = np.array([0, 1] * 5)
        report = classification_metrics(prob, y)
        assert report.accuracy == 0.5
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_hand_confusion_matrix(self):
        # tp=3, fp=1, fn=1, tn=5: on 10 samples the four rates below pin them
        prob = np.array([0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        y = np.array([1, 1, 1, 0, 1, 0, 0, 0, 0, 0])
        report = classification_metrics(prob, y)
        assert report.precision == pytest.approx(0.75)
        assert report.recall == pytest.approx(0.75)
        assert report.f1 == pytest.approx(0.75)
        assert report.accuracy == pytest.approx(0.8)
