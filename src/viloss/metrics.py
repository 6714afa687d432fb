"""Regression and binary-classification evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAPE_EPS = 1e-8


@dataclass(frozen=True)
class RegressionReport:
    mape: float
    mae: float

    def as_row(self) -> str:
        return f"{self.mape!r},{self.mae!r}"


@dataclass(frozen=True)
class ClassificationReport:
    accuracy: float
    precision: float
    recall: float
    f1: float

    def as_row(self) -> str:
        return f"{self.accuracy!r},{self.precision!r},{self.recall!r},{self.f1!r}"


def regression_metrics(y_hat: np.ndarray, y: np.ndarray) -> RegressionReport:
    """MAE and MAPE over samples and output dimensions; near-zero targets
    are guarded by a small epsilon in the MAPE denominator."""
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y_hat.shape != y.shape:
        raise ValueError(f"shape mismatch: {y_hat.shape} vs {y.shape}")
    err = np.abs(y_hat - y)
    mae = float(err.mean())
    mape = float((err / np.maximum(np.abs(y), MAPE_EPS)).mean())
    return RegressionReport(mape, mae)


def classification_metrics(prob: np.ndarray, y: np.ndarray) -> ClassificationReport:
    """Confusion-matrix metrics with class 1 as the positive class, predicted
    where the probability is at least 0.5."""
    prob = np.asarray(prob, dtype=np.float64).ravel()
    y = np.asarray(y).ravel().astype(int)
    pred = (prob >= 0.5).astype(int)

    tp = int(np.sum((pred == 1) & (y == 1)))
    fp = int(np.sum((pred == 1) & (y == 0)))
    tn = int(np.sum((pred == 0) & (y == 0)))
    fn = int(np.sum((pred == 0) & (y == 1)))

    accuracy = (tp + tn) / len(y)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ClassificationReport(accuracy, precision, recall, f1)
