"""End-to-end acceptance gate.

Each test covers one release criterion at its stated tolerance and prints a
single PASS line when it holds (run with -s to see them).
"""

import contextlib
import csv
import io
import time

import numpy as np

from viloss import (
    Dataset,
    LossSpec,
    ModelSpec,
    SynthSpec,
    compute_weights,
    fit_grid,
    generate_synth,
    normalize_minmax,
    parameter_gradient,
    select_lambda,
    split,
)
from viloss.cli import LAMBDA_CANDIDATES, REPRO_EXPERIMENTS
from viloss.cli import main as cli_main
from viloss.models import init_model

from oracles import brute_force_cells, finite_diff_param_grad


def test_criterion_1_gradient_identity():
    """Weighted parameter gradients are weight x base gradients, within 2 ulp
    per weight-gradient element and bit-for-bit for the bias, and match
    finite differences within 1e-5 relative; < 5 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    combos = [
        ("linear", "mse"), ("linear", "huber"), ("linear", "lqr"),
        ("polynomial", "mse"), ("polynomial", "huber"), ("polynomial", "lqr"),
        ("logistic", "bce"),
    ]
    for trial in range(100):
        kind, loss = combos[trial % len(combos)]
        degree = int(rng.integers(2, 5))  # drawn for every kind: the draws stay in step
        spec = ModelSpec(kind, degree=degree if kind == "polynomial" else 1)
        model = init_model(spec, 2, 1)
        model.weights = rng.normal(scale=0.5, size=model.weights.shape)
        model.bias = rng.normal(scale=0.5, size=model.bias.shape)
        x = rng.uniform(0, 1, size=2)
        y = np.array([float(rng.integers(0, 2))]) if loss == "bce" else rng.normal(size=1)
        w = float(rng.uniform(0.1, 4.0))

        base_dw, base_db = parameter_gradient(model, LossSpec(loss), x, y, weight=1.0)
        dw, db = parameter_gradient(model, LossSpec(loss), x, y, weight=w)
        # the step scales the loss gradient by w before the basis does
        np.testing.assert_array_max_ulp(dw, w * base_dw, maxulp=2)
        np.testing.assert_array_equal(db, w * base_db)

        analytic = np.concatenate([dw.ravel(), db])
        fd = finite_diff_param_grad(model, LossSpec(loss), x, y, w)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: gradient identity (100 triples, {elapsed:.2f}s)")


def _oracle_weights(features, targets, lam, norm):
    """Brute-force grid statistics and weights, independent of the library
    code path: direct interval membership tests and two-pass moments."""
    n = len(features)
    membership = brute_force_cells(features, lam)

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


def _repro(name, tmp_path, config):
    """Run ``viloss repro --name <name>`` at its defaults (seeds 0-4, 150
    epochs) and return ``column(loss, gamma_norm, field)``: that variant's
    ``field`` in the results.csv it wrote, as floats in seed order. The
    experiment's (model, lambda, batch size, learning rate) must equal
    ``config``, the one its criterion states."""
    exp = REPRO_EXPERIMENTS[name]
    assert (exp.model_spec, exp.lam, exp.batch_size, exp.learning_rate) == config
    with contextlib.redirect_stdout(io.StringIO()):  # its rows; one PASS line per test
        assert cli_main(["repro", "--name", name, "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "results.csv", newline="") as f:
        rows = list(csv.DictReader(f))

    def column(loss, norm, field):
        values = [float(r[field]) for r in rows if (r["loss"], r["gamma_norm"]) == (loss, norm)]
        assert len(values) == 5
        return values

    return column


def test_criterion_4_synth_1d_improvement(tmp_path):
    """Poly-6, lambda=2, batch 1, lr 0.1: weighted MSE (L2) test MAPE at
    least 15% relatively below the unweighted baseline, median over 5 seeds;
    < 2 min."""
    t0 = time.perf_counter()
    column = _repro("synth-1d", tmp_path, (ModelSpec("polynomial", 6), 2, 1, 0.1))
    base, vi = column("mse", "none", "mape"), column("viloss_mse", "l2", "mape")
    elapsed = time.perf_counter() - t0
    reduction = 1.0 - np.median(vi) / np.median(base)
    assert reduction >= 0.15, f"relative reduction {reduction:.3f} < 0.15"
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 4 (viloss repro --name synth-1d): MAPE {np.median(base):.3f} -> "
        f"{np.median(vi):.3f} ({reduction:.1%} reduction, {elapsed:.0f}s)"
    )


def test_criterion_5_synth_2d_improvement(tmp_path):
    """Poly-6, lambda=10, batch 5, lr 0.1: weighted MSE (L2) test MAPE at
    least 20% relatively below the unweighted baseline, median over 5 seeds;
    < 5 min."""
    t0 = time.perf_counter()
    column = _repro("synth-2d", tmp_path, (ModelSpec("polynomial", 6), 10, 5, 0.1))
    base, vi = column("mse", "none", "mape"), column("viloss_mse", "l2", "mape")
    elapsed = time.perf_counter() - t0
    reduction = 1.0 - np.median(vi) / np.median(base)
    assert reduction >= 0.20, f"relative reduction {reduction:.3f} < 0.20"
    assert elapsed < 300.0
    print(
        f"\nPASS criterion 5 (viloss repro --name synth-2d): MAPE {np.median(base):.3f} -> "
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


def test_criterion_7_logistic_path(tmp_path):
    """Logistic, lambda=5, batch 5, lr 0.5: on the imbalanced two-cluster
    binary task, weighted BCE (L2) keeps F1 within 0.01 of the baseline in
    median and strictly improves precision on at least 3 of 5 seeds."""
    column = _repro("logistic-synth", tmp_path, (ModelSpec("logistic"), 5, 5, 0.5))
    f1_base = np.median(column("bce", "none", "f1"))
    f1_vi = np.median(column("viloss_bce", "l2", "f1"))
    assert f1_vi >= f1_base - 0.01, f"median F1 {f1_vi:.3f} < {f1_base:.3f} - 0.01"
    improved = sum(v > b for v, b in zip(column("viloss_bce", "l2", "prec"),
                                          column("bce", "none", "prec")))
    assert improved >= 3, f"precision improved on only {improved}/5 seeds"
    print(
        f"\nPASS criterion 7 (viloss repro --name logistic-synth): logistic F1 "
        f"{f1_base:.3f} -> {f1_vi:.3f}, precision up on {improved}/5 seeds"
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
