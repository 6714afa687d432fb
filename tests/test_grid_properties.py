"""Property tests for fit_grid + compute_weights on random small datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viloss import Dataset, compute_weights, fit_grid
from viloss.data import column_range
from viloss.grid import _bins, _unit_scaled

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


def assert_matches_row_unique(features, lam, subset):
    """fit_grid's cells equal a row-wise ``np.unique`` of the bin indices."""
    sub = features[:, subset]
    idx = _bins(_unit_scaled(sub, column_range(sub)), lam)
    keys, cell_of, count = np.unique(idx, axis=0, return_inverse=True, return_counts=True)
    grid = fit_grid(Dataset(features, np.zeros((len(features), 1))), lam, subset)
    np.testing.assert_array_equal(grid.keys, keys)
    np.testing.assert_array_equal(grid.cell_of, cell_of.reshape(-1))
    np.testing.assert_array_equal(grid.count, count)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    "n": st.integers(1, 60),
    "m": st.integers(1, 8),
    "lam": st.integers(1, 10**4),
    "levels": st.integers(1, 6),  # few distinct values per feature, so cells share samples
    "seed": st.integers(0, 2**32 - 1),
}))
def test_flat_key_matches_row_unique(case):
    # lam ** m passes the int64 maximum from m = 5 at lam = 10**4
    rng = np.random.default_rng(case["seed"])
    m = case["m"]
    features = rng.integers(0, case["levels"], size=(case["n"], m + 1)) * rng.random(m + 1)
    subset = rng.permutation(m + 1)[:m].tolist()  # any m of the m + 1 columns, in any order
    assert_matches_row_unique(features, case["lam"], subset)


def count_unique_calls(monkeypatch, features, lam):
    """Shapes of the ``np.unique`` calls that fitting ``features`` makes."""
    calls, unique = [], np.unique

    def counting_unique(a, **kwargs):
        calls.append(a.shape)
        return unique(a, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    fit_grid(Dataset(features, np.zeros((len(features), 1))), lam)
    monkeypatch.undo()
    return calls


def test_flat_key_reranks_before_int64_overflow(monkeypatch):
    # 1000 ** 7 > 2 ** 63: the key is re-ranked once before its last column
    rng = np.random.default_rng(7)
    features = rng.integers(0, 3, size=(500, 7)) * rng.random(7)
    assert 1000**7 > np.iinfo(np.int64).max
    assert count_unique_calls(monkeypatch, features, 1000) == [(500,), (500,)]
    assert_matches_row_unique(features, 1000, list(range(7)))


@pytest.mark.parametrize("n,calls", [(25, []), (24, [(24,)])])
def test_dense_ranking_up_to_n_keys(monkeypatch, n, calls):
    # lam ** d = 25 keys: a dense table ranks them when n >= 25, with no
    # sort, and np.unique when the table would outgrow the n samples
    features = np.random.default_rng(n).random((n, 2))
    assert count_unique_calls(monkeypatch, features, 5) == calls
    assert_matches_row_unique(features, 5, [0, 1])


def test_lam_times_n_past_int64_rejected():
    features = np.random.default_rng(0).random((3, 2))
    with pytest.raises(ValueError, match=r"lam \* n must stay below 2\*\*63"):
        fit_grid(Dataset(features, np.zeros((3, 1))), 2**62)
