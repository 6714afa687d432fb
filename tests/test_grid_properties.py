"""Property tests for fit_grid + compute_weights on random small datasets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from viloss import Dataset, compute_weights, fit_grid

cases = st.fixed_dictionaries({
    "n": st.integers(1, 60),
    "m": st.integers(1, 3),
    "lam": st.integers(1, 8),
    "norm": st.sampled_from(["l1", "l2"]),
    "seed": st.integers(0, 2**32 - 1),
})


def weigh(features, targets, lam, norm):
    ds = Dataset(features, targets)
    grid = fit_grid(ds, lam)
    return grid, compute_weights(grid, ds, norm)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases)
def test_weights_finite_and_consistent(case):
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    grid, table = weigh(rng.random((n, case["m"])), rng.normal(size=(n, 1)),
                        case["lam"], case["norm"])
    assert np.isfinite(table.weight).all()
    assert (table.weight >= 0).all()
    np.testing.assert_array_equal(table.weight, table.mu / (1.0 + table.gamma))
    assert grid.count.sum() == n


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases)
def test_row_permutation_permutes_weights(case):
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    features, targets = rng.random((n, case["m"])), rng.normal(size=(n, 1))
    perm = rng.permutation(n)
    _, table = weigh(features, targets, case["lam"], case["norm"])
    _, permuted = weigh(features[perm], targets[perm], case["lam"], case["norm"])
    for name in ("mu", "gamma", "weight"):
        np.testing.assert_allclose(getattr(permuted, name), getattr(table, name)[perm],
                                   rtol=1e-12, atol=1e-12, err_msg=name)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases)
def test_equal_cell_spread_gives_unit_mu(case):
    # every occupied cell of a unit lattice holds one translate of the same
    # point pattern, which spans less than a cell; with the first and last
    # lattice cell occupied, the fitted bins put each translate in its own cell
    rng = np.random.default_rng(case["seed"])
    m, lam = case["m"], case["lam"]
    pattern = rng.random((int(rng.integers(2, 7)), m)) / 2
    pattern -= pattern.min(axis=0)
    corners = np.stack([np.zeros(m), np.full(m, lam - 1.0)])
    cells = np.unique(np.vstack([corners, rng.integers(0, lam, size=(case["n"] // 4, m))]), axis=0)
    features = (cells[:, None, :] + pattern).reshape(-1, m)
    grid, table = weigh(features, rng.normal(size=(len(features), 1)), lam, case["norm"])
    np.testing.assert_array_equal(grid.keys, cells)
    np.testing.assert_allclose(table.mu, 1.0, rtol=0, atol=1e-12)
