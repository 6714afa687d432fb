"""End-to-end acceptance gate.

Each test covers one release criterion at its stated tolerance and prints a
single PASS line when it holds (run with -s to see them).
"""

import time

import numpy as np
import pytest

from viloss import (
    Dataset,
    LossSpec,
    ModelSpec,
    SynthSpec,
    TrainConfig,
    classification_metrics,
    compute_weights,
    fit_grid,
    generate_synth,
    normalize_minmax,
    parameter_gradient,
    regression_metrics,
    select_lambda,
    split,
    train,
)
from viloss.cli import main as cli_main
from viloss.data import BinarySynthSpec, generate_binary_clusters
from viloss.losses import batch_value_grad
from viloss.models import Model, init_model

LAMBDA_CANDIDATES = [1, 2, 5, 10, 20, 50, 100]


def _finite_diff_param_grad(model, loss_spec, x, y, weight, h=1e-6):
    def value(flat):
        probe = Model(
            model.spec,
            flat[: model.weights.size].reshape(model.weights.shape),
            flat[model.weights.size :],
        )
        pred = probe.predict_batch(x)[0]
        if loss_spec.base == "bce":
            # BCE of the predicted probability, independent of the library's
            # loss of the logit
            return weight * -(y[0] * np.log(pred[0]) + (1 - y[0]) * np.log(1 - pred[0]))
        values, _ = batch_value_grad(loss_spec, pred[None], np.atleast_2d(y))
        return weight * values[0]

    flat0 = np.concatenate([model.weights.ravel(), model.bias])
    grad = np.zeros_like(flat0)
    for i in range(len(flat0)):
        up, down = flat0.copy(), flat0.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (value(up) - value(down)) / (2 * h)
    return grad


def test_criterion_1_gradient_identity():
    """Weighted parameter gradients are weight x base gradients bit-for-bit
    and match finite differences within 1e-5 relative; < 5 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    combos = [
        ("linear", "mse"), ("linear", "huber"), ("linear", "lqr"),
        ("polynomial", "mse"), ("polynomial", "huber"), ("polynomial", "lqr"),
        ("logistic", "bce"),
    ]
    for trial in range(100):
        kind, loss = combos[trial % len(combos)]
        spec = ModelSpec(kind, degree=int(rng.integers(2, 5)), input_dim=2, output_dim=1)
        model = init_model(spec)
        model.weights = rng.normal(scale=0.5, size=model.weights.shape)
        model.bias = rng.normal(scale=0.5, size=model.bias.shape)
        x = rng.uniform(0, 1, size=2)
        y = np.array([float(rng.integers(0, 2))]) if loss == "bce" else rng.normal(size=1)
        w = float(rng.uniform(0.1, 4.0))

        base_dw, base_db = parameter_gradient(model, LossSpec(loss), x, y, weight=1.0)
        dw, db = parameter_gradient(model, LossSpec(loss), x, y, weight=w)
        np.testing.assert_array_equal(dw, w * base_dw)
        np.testing.assert_array_equal(db, w * base_db)

        analytic = np.concatenate([dw.ravel(), db])
        fd = _finite_diff_param_grad(model, LossSpec(loss), x, y, w)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: gradient identity (100 triples, {elapsed:.2f}s)")


def _oracle_weights(features, targets, lam, norm):
    """Brute-force grid statistics and weights, independent of the library
    code path: direct interval membership tests and two-pass moments."""
    n, m = features.shape
    lo, hi = features.min(axis=0), features.max(axis=0)
    membership = {}
    for i in range(n):
        key = []
        for k in range(m):
            if hi[k] == lo[k]:
                key.append(0)
                continue
            width = (hi[k] - lo[k]) / lam
            p = lam - 1
            for b in range(lam):
                if lo[k] + b * width <= features[i, k] < lo[k] + (b + 1) * width:
                    p = b
                    break
            key.append(p)
        membership.setdefault(tuple(key), []).append(i)

    stats = {}
    for key, rows in membership.items():
        cx, cy = features[rows], targets[rows]
        sigma_x = np.sqrt(np.mean(np.sum((cx - cx.mean(0)) ** 2, axis=1)))
        sigma_y = np.sqrt(np.mean(np.sum((cy - cy.mean(0)) ** 2, axis=1)))
        stats[key] = (sigma_x, sigma_y, cy.mean(0))
    sigma_x_bar = np.mean([s[0] for s in stats.values()])

    mu = np.empty(n)
    gamma = np.empty(n)
    for key, rows in membership.items():
        sigma_x, sigma_y, y_mean = stats[key]
        cell_mu = sigma_x**2 / sigma_x_bar**2 if sigma_x_bar > 0 else 1.0
        for i in rows:
            mu[i] = cell_mu
            if sigma_y == 0:
                gamma[i] = 0.0
            elif norm == "l1":
                gamma[i] = np.sum(np.abs(targets[i] - y_mean)) / sigma_y
            else:
                gamma[i] = np.sum((targets[i] - y_mean) ** 2) / sigma_y**2
    return membership, stats, mu, gamma


def test_criterion_2_grid_oracle():
    """Cell membership, sigma_x, sigma_y, mu, gamma match brute force within
    1e-9 on 50 random small datasets; < 10 s."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(4, 201))
        m = int(rng.integers(1, 4))
        lam = int(rng.integers(1, 11))
        norm = "l1" if trial % 2 else "l2"
        features = rng.random((n, m))
        targets = rng.normal(size=(n, 1))
        ds = Dataset(features, targets)

        grid = fit_grid(ds, lam)
        table = compute_weights(grid, ds, norm)
        membership, stats, mu, gamma = _oracle_weights(features, targets, lam, norm)

        rows_of = {tuple(key): row for row, key in enumerate(grid.keys.tolist())}
        assert set(rows_of) == set(membership)
        for key, rows in membership.items():
            row = rows_of[key]
            assert grid.count[row] == len(rows)
            np.testing.assert_allclose(grid.sigma_x[row], stats[key][0], rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(grid.sigma_y[row], stats[key][1], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(table.mu, mu, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(table.gamma, gamma, rtol=1e-9, atol=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: grid vs brute-force oracle (50 datasets, {elapsed:.2f}s)")


def test_criterion_3_ld_shape():
    """On regenerated 2-D synthetic data the LD curve is unimodal: maximum at
    an interior candidate in {5, 10, 20}, LD(1) > 0, LD(100) near the floor."""
    for seed in range(5):
        ds = generate_synth(SynthSpec(variant="synth-2d", seed=seed))
        train_set, _ = split(ds, 0.7, seed)
        train_norm = normalize_minmax(train_set)
        lam_star, report = select_lambda(train_norm, LAMBDA_CANDIDATES)
        ld = {e.lam: e.ld for e in report}
        assert lam_star in (5, 10, 20), f"seed {seed}: maximum at {lam_star}"
        assert ld[1] > 0
        assert ld[100] < 0.3 * max(ld.values()), f"seed {seed}: LD(100) not near floor"
    print("\nPASS criterion 3: LD curve unimodal with interior maximum (5 seeds)")


def _regression_mapes(variant, seed, lam, batch_size, epochs=150, lr=0.1):
    """Test MAPE of unweighted and of weighted (L2) MSE, trained in lockstep
    on one split."""
    ds = generate_synth(SynthSpec(variant=variant, seed=seed))
    train_set, test_set = split(ds, 0.7, seed)
    train_norm = normalize_minmax(train_set)
    record = train_norm.normalization

    grid = fit_grid(train_norm, lam)
    weights = compute_weights(grid, train_norm, "l2")

    model_spec = ModelSpec("polynomial", 6, ds.feature_dim, 1)
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=lr, seed=seed)
    runs = [(LossSpec("mse"), None), (LossSpec("mse"), weights)]
    test_x = record.apply_features(test_set.features)
    return tuple(
        regression_metrics(record.invert_targets(model.predict_batch(test_x)),
                           test_set.targets).mape
        for model, _ in train(model_spec, train_norm, runs, cfg)
    )


def test_criterion_4_synth_1d_improvement():
    """Poly-6, lambda=2, batch 1: weighted MSE (L2) test MAPE at least 15%
    relatively below the unweighted baseline, median over 5 seeds; < 2 min."""
    t0 = time.perf_counter()
    base, vi = zip(*(_regression_mapes("synth-1d", s, 2, 1) for s in range(5)))
    elapsed = time.perf_counter() - t0
    reduction = 1.0 - np.median(vi) / np.median(base)
    assert reduction >= 0.15, f"relative reduction {reduction:.3f} < 0.15"
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 4: synth-1d MAPE {np.median(base):.3f} -> "
        f"{np.median(vi):.3f} ({reduction:.1%} reduction, {elapsed:.0f}s)"
    )


def test_criterion_5_synth_2d_improvement():
    """Poly-6, lambda=10, batch 5: weighted MSE (L2) test MAPE at least 20%
    relatively below the unweighted baseline, median over 5 seeds; < 5 min."""
    t0 = time.perf_counter()
    base, vi = zip(*(_regression_mapes("synth-2d", s, 10, 5) for s in range(5)))
    elapsed = time.perf_counter() - t0
    reduction = 1.0 - np.median(vi) / np.median(base)
    assert reduction >= 0.20, f"relative reduction {reduction:.3f} < 0.20"
    assert elapsed < 300.0
    print(
        f"\nPASS criterion 5: synth-2d MAPE {np.median(base):.3f} -> "
        f"{np.median(vi):.3f} ({reduction:.1%} reduction, {elapsed:.0f}s)"
    )


def test_criterion_6_lambda_sweep_avoids_degenerate_grid():
    """The LD-selected lambda is never 1 on 2-D synthetic data, where a single
    cell is known to make weighting hurt."""
    for seed in range(5):
        ds = generate_synth(SynthSpec(variant="synth-2d", seed=seed))
        train_set, _ = split(ds, 0.7, seed)
        train_norm = normalize_minmax(train_set)
        lam_star, _ = select_lambda(train_norm, LAMBDA_CANDIDATES)
        assert lam_star != 1
    print("\nPASS criterion 6: selected lambda never 1 on synth-2d (5 seeds)")


def _logistic_runs(seed):
    """Test metrics of unweighted and of weighted (L2) BCE, trained in
    lockstep on one split."""
    ds = generate_binary_clusters(BinarySynthSpec(seed=seed))
    train_set, test_set = split(ds, 0.7, seed)
    grid = fit_grid(train_set, 5)
    weights = compute_weights(grid, train_set, "l2")
    cfg = TrainConfig(epochs=150, batch_size=5, learning_rate=0.5, seed=seed)
    runs = [(LossSpec("bce"), None), (LossSpec("bce"), weights)]
    return tuple(
        classification_metrics(model.predict_batch(test_set.features), test_set.targets)
        for model, _ in train(ModelSpec("logistic", 1, 2, 1), train_set, runs, cfg)
    )


def test_criterion_7_logistic_path():
    """On the imbalanced two-cluster binary task, weighted BCE keeps F1 within
    0.01 of the baseline in median and strictly improves precision on at
    least 3 of 5 seeds."""
    base, vi = zip(*(_logistic_runs(s) for s in range(5)))
    f1_base = np.median([r.f1 for r in base])
    f1_vi = np.median([r.f1 for r in vi])
    assert f1_vi >= f1_base - 0.01, f"median F1 {f1_vi:.3f} < {f1_base:.3f} - 0.01"
    improved = sum(v.precision > b.precision for v, b in zip(vi, base))
    assert improved >= 3, f"precision improved on only {improved}/5 seeds"
    print(
        f"\nPASS criterion 7: logistic F1 {f1_base:.3f} -> {f1_vi:.3f}, "
        f"precision up on {improved}/5 seeds"
    )


def test_criterion_8_repro_determinism(tmp_path):
    """Two repro runs with the same configuration produce byte-identical
    result files."""
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = cli_main([
            "repro", "--name", "synth-1d", "--seeds", "0,1",
            "--epochs", "10", "--out-dir", str(d),
        ])
        assert code == 0
    a = (dirs[0] / "results.csv").read_bytes()
    b = (dirs[1] / "results.csv").read_bytes()
    assert a == b
    print("\nPASS criterion 8: repro synth-1d reruns are byte-identical")
