import dataclasses
import re

import numpy as np
import pytest

from viloss import grid as grid_module
from viloss import (
    Dataset,
    SynthSpec,
    compute_weights,
    fit_grid,
    generate_synth,
    localized_deviation,
    select_lambda,
)
from viloss.grid import NORM_KINDS, WeightTable

from oracles import brute_force_cells, traced_peak


def make_1d(xs, ys=None):
    xs = np.asarray(xs, dtype=float)
    if ys is None:
        ys = np.zeros_like(xs)
    return Dataset(xs[:, None], np.asarray(ys, dtype=float)[:, None])


def cell_rows(grid):
    """Map each non-empty cell's bin-index tuple to its row in the grid arrays."""
    return {tuple(key): row for row, key in enumerate(grid.keys.tolist())}


class TestFitGrid:
    def test_four_point_example(self):
        ds = make_1d([0.1, 0.2, 0.8, 0.9])
        grid = fit_grid(ds, 2)
        assert sorted(grid.count.tolist()) == [2, 2]
        low = cell_rows(grid)[(0,)]
        assert grid.sigma_x[low] == pytest.approx(0.05)

    def test_lambda_one_single_cell(self):
        ds = make_1d([0.0, 0.5, 1.0])
        grid = fit_grid(ds, 1)
        assert grid.n_cells == 1
        assert grid.sigma_x[0] > 0
        assert grid.mu[0] == pytest.approx(1.0)

    def test_all_singletons(self):
        ds = make_1d([0.0, 0.4, 1.0])
        grid = fit_grid(ds, 1000)
        assert all(grid.count == 1)
        assert all(grid.sigma_x == 0)
        assert grid.sigma_x_bar == 0.0

    def test_full_partitioning_cell_bound(self):
        rng = np.random.default_rng(7)
        ds = Dataset(rng.random((1000, 2)), rng.random((1000, 1)))
        grid = fit_grid(ds, 10)
        assert grid.n_cells <= 10**2
        assert grid.count.sum() == 1000

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.random((57, 3)), rng.random((57, 2)))
        for lam in (1, 2, 5, 9):
            grid = fit_grid(ds, lam)
            assert grid.count.sum() == 57
            assert all(grid.count > 0)

    def test_zero_range_dimension_collapses(self):
        x = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        ds = Dataset(x, np.zeros((5, 1)))
        grid = fit_grid(ds, 4)
        assert all(grid.keys[:, 0] == 0)

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_equal_targets_have_zero_spread(self, norm):
        # the mean of three 0.1 rounds to 0.10000000000000002, which left
        # sigma_y ~1e-17 and gamma 1 where equal targets must give 0
        ds = Dataset([[0.1], [0.2], [0.3]], [[0.1], [0.1], [0.1]])
        grid = fit_grid(ds, 1)
        assert grid.sigma_y[0] == 0.0
        np.testing.assert_array_equal(compute_weights(grid, ds, norm).gamma, 0.0)

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.empty((0, 1)), np.empty((0, 1)))
        with pytest.raises(ValueError):
            fit_grid(ds, 2)

    def test_bad_feature_subset(self):
        ds = make_1d([0.1, 0.8])
        with pytest.raises(ValueError):
            fit_grid(ds, 2, feature_subset=[0, 0])
        with pytest.raises(ValueError, match="feature_subset index 1 out of range for 1 features"):
            fit_grid(ds, 2, feature_subset=[1])
        with pytest.raises(ValueError, match="feature_subset index -1 out of range for 1 features"):
            fit_grid(ds, 2, feature_subset=[-1])
        with pytest.raises(ValueError, match="feature_subset must name at least one feature"):
            fit_grid(ds, 2, feature_subset=[])

    @pytest.mark.parametrize("seed", range(8))
    def test_bins_are_the_floor_of_the_scaled_features(self, seed):
        # the bits of ((x - lo) / width) * lam decide the bin of a value on
        # a bin edge; rounded features put many values there
        rng = np.random.default_rng(seed)
        features = np.round(rng.random((2000, 3)) * 10.0 ** rng.integers(-2, 3), 2)
        subset = [2, 0]
        sub = features[:, subset]
        lo, hi = sub.min(axis=0), sub.max(axis=0)
        for lam in (3, 7, 10, 30, 100, 999):
            grid = fit_grid(Dataset(features, np.zeros(len(features))), lam, subset)
            want = np.minimum(np.floor((sub - lo) / (hi - lo) * lam), lam - 1)
            np.testing.assert_array_equal(grid.keys[grid.cell_of], want)

    @pytest.mark.parametrize("lam", [0, -1, 2.5, 1.0])
    def test_lam_that_is_not_a_positive_integer_named(self, lam):
        ds = make_1d([0.1, 0.8])
        message = rf"^lam must be a positive integer, got {lam!r}$"
        with pytest.raises(ValueError, match=message):
            fit_grid(ds, lam)
        with pytest.raises(ValueError, match=message):
            select_lambda(ds, [2, lam])

    def test_sigma_x_bar_is_mean_over_cells(self):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.random((120, 2)), rng.random((120, 1)))
        grid = fit_grid(ds, 4)
        expected = np.mean(grid.sigma_x)
        assert grid.sigma_x_bar == pytest.approx(expected, rel=1e-9)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = rng.integers(5, 80)
            m = rng.integers(1, 4)
            lam = int(rng.integers(1, 8))
            features = rng.random((n, m))
            targets = rng.normal(size=(n, 1))
            ds = Dataset(features, targets)
            grid = fit_grid(ds, lam)
            oracle = brute_force_cells(features, lam)
            rows_of = cell_rows(grid)
            assert set(rows_of) == set(oracle)
            for key, rows in oracle.items():
                row = rows_of[key]
                assert grid.count[row] == len(rows)
                cx = features[rows]
                sigma_x = np.sqrt(np.mean(np.sum((cx - cx.mean(0)) ** 2, axis=1)))
                assert grid.sigma_x[row] == pytest.approx(sigma_x, rel=1e-9, abs=1e-12)
                cy = targets[rows]
                sigma_y = np.sqrt(np.mean(np.sum((cy - cy.mean(0)) ** 2, axis=1)))
                assert grid.sigma_y[row] == pytest.approx(sigma_y, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("xs,ys", [
        ([1e300, -1e300, 5e299, 0.0], [0.0, 1.0, 2.0, 3.0]),  # squared deviations
        ([1.5e308, -1.5e308, 0.0, 1.0], [0.0, 1.0, 2.0, 3.0]),  # the range itself
        ([0.0, 0.1, 0.2, 0.3], [1e300, -1e300, 5e299, 0.0]),  # the targets
        ([0.0, 0.1, 0.2, 0.3], [1.7e308, 1.7e308, 0.0, 0.0]),  # the target mean
        # equal targets: the mean of three 3e307 is 5e291 off them, whose
        # square overflows before the cell's sigma_y is set to 0
        ([0.0, 0.1, 0.2], [3e307, 3e307, 3e307]),
    ])
    def test_overflowing_statistics_rejected(self, xs, ys):
        # raw values far from 1 overflow float64 before any weight exists; a
        # numpy RuntimeWarning would fail this test, as warnings are errors
        with pytest.raises(ValueError, match="^cell statistics overflowed float64: "
                                             "normalize the features and targets first$"):
            fit_grid(make_1d(xs, ys), 1)

    def test_underflowing_mean_spread_rejected(self):
        # already normalized: 0 and 5e-162 share the first of 4 cells, whose
        # spread 2.5e-162 averages with two zero spreads to a sigma_x_bar
        # whose square underflows to 0
        ds = make_1d([0.0, 5e-162, 0.5, 1.0], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="^the cells' feature spreads are too small to "
                                             "square in float64$"):
            fit_grid(ds, 4)

    @staticmethod
    def _scaled(s):
        # x = (0, 1, 2, 3, 10, 11) * s, y = (0, 1, 0, 1, 0, 1) * s
        return make_1d(np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0]) * s,
                       np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]) * s)

    @pytest.mark.parametrize("s", [1e-160, 1e-162])
    def test_tiny_scale_rejected(self, s):
        # squared deviations of this size are subnormal or 0: at 1e-160 mu
        # drifts in its fourth digit, at 1e-162 every weight is silently 1
        with pytest.raises(ValueError, match=r"^feature column 0 has range .*, below "
                                             r"1\.4916681462400413e-154, where cell "
                                             r"statistics lose precision: normalize the "
                                             r"features and targets first$"):
            fit_grid(self._scaled(s), 2)

    def test_tiny_target_range_rejected(self):
        ds = make_1d([0.0, 1.0, 2.0, 3.0], [0.0, 1e-160, 0.0, 1e-160])
        with pytest.raises(ValueError, match=r"^target column 0 has range 1e-160, below"):
            fit_grid(ds, 2)

    def test_overflowing_feature_range_named_before_a_tiny_target_range(self):
        # the features are checked and scaled in one pass before the targets
        ds = make_1d([-1.7e308, 1.7e308], [0.0, 1e-160])
        with pytest.raises(ValueError, match="^cell statistics overflowed float64"):
            fit_grid(ds, 2)

    def test_peak_memory_is_the_bins_and_five_columns(self):
        # the (n, d) bins and at most five n-sized 8-byte arrays, with a
        # slack for the per-cell arrays (48.9 n bytes at lam 50); keeping the
        # (n, d) unit-scaled features past binning read 64.9 n
        n, d = 70_000, 2
        rng = np.random.default_rng(13)
        ds = Dataset(rng.random((n, d)), rng.random((n, 1)))
        _, peak = traced_peak(fit_grid, ds, 50)
        assert peak < 8 * d * n + 5 * 8 * n + 64 * 1024

    def test_tiny_column_named_by_dataset_index(self):
        features = np.column_stack([np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1e-160, 6)])
        ds = Dataset(features, np.zeros(6))
        fit_grid(ds, 2, feature_subset=[0])  # the tiny column is not selected
        with pytest.raises(ValueError, match=r"^feature column 1 has range"):
            fit_grid(ds, 2, feature_subset=[0, 1])

    @pytest.mark.parametrize("s", [2.0**-508, 2.0**-511])  # 2 ** -511 is the bound itself
    def test_accepted_scales_keep_the_weights(self, s):
        # a power-of-two scale multiplies every statistic exactly, so mu,
        # gamma and the weights are those at scale 1, bit for bit
        want = self._scaled(1.0)
        want_grid = fit_grid(want, 2)
        np.testing.assert_allclose(want_grid.mu, [1.90983006, 0.38196601], rtol=1e-8)
        ds = self._scaled(s)
        grid = fit_grid(ds, 2)
        np.testing.assert_array_equal(grid.mu, want_grid.mu)
        for kind in ("l1", "l2"):
            np.testing.assert_array_equal(compute_weights(grid, ds, kind).weight,
                                          compute_weights(want_grid, want, kind).weight)


class TestComputeWeights:
    def test_sample_at_cell_mean_has_zero_gamma(self):
        ds = make_1d([0.1, 0.2, 0.8, 0.9], ys=[1.0, 3.0, 2.0, 2.0])
        grid = fit_grid(ds, 2)
        table = compute_weights(grid, ds, "l2")
        # samples 2 and 3 sit at their cell's target mean
        assert table.gamma[2] == 0.0
        assert table.weight[2] == pytest.approx(table.mu[2])

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_two_target_cell(self, norm):
        # cell targets {0, 2}: mean 1, sigma_y 1, gamma 1 under both norms
        ds = make_1d([0.1, 0.2, 0.8, 0.9], ys=[0.0, 2.0, 5.0, 5.0])
        grid = fit_grid(ds, 2)
        table = compute_weights(grid, ds, norm)
        assert table.gamma[0] == pytest.approx(1.0)
        assert table.gamma[1] == pytest.approx(1.0)
        assert table.weight[0] == pytest.approx(table.mu[0] / 2)

    def test_single_cell_mu_one(self):
        ds = make_1d([0.0, 0.3, 1.0], ys=[0.0, 1.0, 2.0])
        grid = fit_grid(ds, 1)
        table = compute_weights(grid, ds, "l2")
        assert np.all(table.mu == pytest.approx(1.0))
        np.testing.assert_allclose(table.weight, 1.0 / (1.0 + table.gamma))

    def test_weight_identity(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.random((60, 2)), rng.normal(size=(60, 1)))
        grid = fit_grid(ds, 3)
        table = compute_weights(grid, ds, "l1")
        np.testing.assert_array_equal(table.weight, table.mu / (1.0 + table.gamma))

    def test_samples_share_cell_mu(self):
        ds = make_1d([0.1, 0.2, 0.8, 0.9])
        grid = fit_grid(ds, 2)
        table = compute_weights(grid, ds, "l2")
        assert table.mu[0] == table.mu[1]
        assert table.mu[2] == table.mu[3]

    def test_other_dataset_rejected(self):
        ds = make_1d([0.1, 0.2, 0.8, 0.9])
        other = make_1d([0.1, 0.2, 0.8, 0.95])
        grid = fit_grid(ds, 2)
        with pytest.raises(ValueError, match="does not match"):
            compute_weights(grid, other, "l2")

    def test_reordered_targets_rejected(self):
        ds = generate_synth(SynthSpec(variant="synth-2d", seed=0))
        grid = fit_grid(ds, 10)
        with pytest.raises(ValueError, match="does not match"):
            compute_weights(grid, Dataset(ds.features, ds.targets[::-1]), "l2")

    def test_equal_copy_rejected(self):
        # the grid holds its fitting rows: an equal copy is another dataset
        ds = make_1d([0.1, 0.2, 0.8, 0.9])
        grid = fit_grid(ds, 2)
        with pytest.raises(ValueError, match="does not match"):
            compute_weights(grid, Dataset(ds.features.copy(), ds.targets.copy()), "l2")

    def test_bad_norm_rejected(self):
        ds = make_1d([0.1, 0.9])
        grid = fit_grid(ds, 2)
        with pytest.raises(ValueError):
            compute_weights(grid, ds, "linf")

    @pytest.mark.parametrize("norm", [None, "L2", "l3"])
    def test_norm_taken_as_given(self, norm):
        # no case folding: "L2" is not a norm, and None fails the check
        # rather than in a string method
        ds = make_1d([0.1, 0.9])
        grid = fit_grid(ds, 2)
        with pytest.raises(ValueError, match=re.escape(
                f"norm_kind must be one of {NORM_KINDS}, got {norm!r}")):
            compute_weights(grid, ds, norm)

    def test_weight_table_is_read_only(self):
        ds = make_1d([0.1, 0.2, 0.8, 0.9], ys=[0.0, 2.0, 5.0, 5.0])
        table = compute_weights(fit_grid(ds, 2), ds, "l2")
        for arr in (table.mu, table.gamma, table.weight):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_gamma_scale_invariance(self):
        rng = np.random.default_rng(5)
        features = rng.random((80, 2))
        targets = rng.normal(size=(80, 2))
        ds = Dataset(features, targets)
        for norm in ("l1", "l2"):
            t1 = compute_weights(fit_grid(ds, 4), ds, norm)
            scaled = Dataset(features, -7.5 * targets)
            t2 = compute_weights(fit_grid(scaled, 4), scaled, norm)
            np.testing.assert_allclose(t1.gamma, t2.gamma, rtol=1e-9)

    def test_mu_scale_invariance_with_refit(self):
        rng = np.random.default_rng(6)
        features = rng.random((80, 2))
        targets = rng.normal(size=(80, 1))
        ds = Dataset(features, targets)
        t1 = compute_weights(fit_grid(ds, 4), ds, "l2")
        scaled = Dataset(3.0 * features, targets)
        t2 = compute_weights(fit_grid(scaled, 4), scaled, "l2")
        np.testing.assert_allclose(t1.mu, t2.mu, rtol=1e-9)

    def test_recompute_is_bit_identical(self):
        rng = np.random.default_rng(9)
        ds = Dataset(rng.random((50, 3)), rng.normal(size=(50, 1)))
        grid = fit_grid(ds, 5)
        t1 = compute_weights(grid, ds, "l2")
        t2 = compute_weights(grid, ds, "l2")
        np.testing.assert_array_equal(t1.weight, t2.weight)

    def test_table_is_immutable(self):
        ds = make_1d([0.1, 0.9])
        table = compute_weights(fit_grid(ds, 2), ds, "l2")
        with pytest.raises(ValueError):
            table.weight[0] = 5.0

    def test_mu_floor_keeps_singletons_in_play(self):
        ds = make_1d([0.1, 0.2, 0.8])  # upper cell is a singleton
        grid = fit_grid(ds, 2, mu_floor=0.1)
        table = compute_weights(grid, ds, "l2")
        assert table.weight[2] >= 0.1 / 2

    @staticmethod
    def _reference(grid, norm):
        """compute_weights as first written, one fresh array per step."""
        mu = grid.mu[grid.cell_of]
        sigma_y = grid.sigma_y[grid.cell_of]
        dev = grid.dataset.targets - grid.y_mean[grid.cell_of]
        if norm == "l1":
            dist, scale = np.sum(np.abs(dev), axis=1), sigma_y
        else:
            dist, scale = np.sum(dev**2, axis=1), sigma_y**2
        gamma = np.divide(dist, scale, out=np.zeros(len(dist)), where=sigma_y > 0)
        return mu, gamma, mu / (1.0 + gamma)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n, v = int(rng.integers(1, 3000)), 1 + seed % 2
        targets = rng.normal(size=(n, v)) * 10.0 ** rng.integers(-3, 4)
        if seed % 3 == 0:
            targets = np.round(targets, 1)  # cells of equal targets: sigma_y 0
        if seed % 4 == 0:
            # three equal 3e307 have a mean 5e291 off them, which squares to
            # inf: fit_grid rejects them, and the other rows are compared
            targets = np.vstack([targets, np.full((3, v), 3e307)])
        features = np.round(rng.random((len(targets), 2)), 2)
        features[n:] = 2.0  # a cell of their own
        ds = Dataset(features, targets)
        lam = int(rng.integers(1, 40))
        if seed % 4 == 0:
            with pytest.raises(ValueError, match="^cell statistics overflowed float64"):
                fit_grid(ds, lam)
            ds = ds.subset(np.arange(n))
        grid = fit_grid(ds, lam, mu_floor=0.1 * (seed % 2))
        for norm in NORM_KINDS:
            table = compute_weights(grid, ds, norm)
            want = self._reference(grid, norm)
            for got, expected in zip((table.mu, table.gamma, table.weight), want):
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("v", [1, 2])
    @pytest.mark.parametrize("norm", NORM_KINDS)
    def test_peak_memory_is_the_table_and_one_gather(self, v, norm):
        # the three returned columns, plus the (n, v) target gather or one
        # n-sized gather, whichever is larger: under (3 + v) * 8n bytes and
        # a slack for the per-cell arrays. Allocating each step afresh
        # peaked at (6 + v) * 8n (l1) and (7 + v) * 8n (l2)
        n = 70_000
        rng = np.random.default_rng(v)
        ds = Dataset(rng.random((n, 2)), rng.random((n, v)))
        grid = fit_grid(ds, 50)
        _, peak = traced_peak(compute_weights, grid, ds, norm)
        assert peak < (3 + v) * 8 * n + 64 * 1024


class TestExport:
    """Every cell of an exported table is the repr() of its float, however
    many samples share a mu."""

    @staticmethod
    def _expected(table) -> str:
        rows = zip(table.mu.tolist(), table.gamma.tolist(), table.weight.tolist())
        return "index,mu,gamma,weight\n" + "".join(
            f"{i},{mu!r},{gamma!r},{weight!r}\n" for i, (mu, gamma, weight) in enumerate(rows))

    @pytest.mark.parametrize("mu_floor", [0.0, 1.0], ids=["no-floor", "floor-clamps"])
    @pytest.mark.parametrize("norm", NORM_KINDS)
    def test_cells_are_the_repr_of_each_value(self, tmp_path, norm, mu_floor):
        # 10,001 shuffled rows span three write blocks. At lam 40 on [0, 80],
        # cells 0-19 each hold 150 copies of 2k and of 2k + 1, so all share
        # one spread, 0.5, and one mu below 1, which the floor clamps to 1.0;
        # cells 20-39 hold uniform draws, each with its own mu
        rng = np.random.default_rng(31)
        x = np.concatenate([np.repeat(np.arange(40.0), 150), 40 + 40 * rng.random(4000), [80.0]])
        order = rng.permutation(len(x))
        ds = Dataset(x[order, None], rng.random(len(x)))
        table = compute_weights(fit_grid(ds, 40, mu_floor=mu_floor), ds, norm)
        distinct, count = np.unique(table.mu, return_counts=True)
        assert count.max() >= 6000 and len(distinct) > 10
        assert ((table.mu == 1.0).sum() >= 6000) == bool(mu_floor)
        table.export(tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_text() == self._expected(table)

    def test_signed_zeros_keep_their_text(self, tmp_path):
        # -0.0 == 0.0, but each prints as its own repr()
        table = WeightTable(np.array([0.0, -0.0, 0.5, -0.0, 0.0]), np.zeros(5), np.zeros(5))
        table.export(tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_text().split("\n")[1:3] == ["0,0.0,0.0,0.0",
                                                                    "1,-0.0,0.0,0.0"]
        assert (tmp_path / "w.csv").read_text() == self._expected(table)

    def test_empty_table_is_a_header(self, tmp_path):
        WeightTable(np.zeros(0), np.zeros(0), np.zeros(0)).export(tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_text() == "index,mu,gamma,weight\n"


class TestFrozenGrid:
    """The grid's statistics are fixed once fitted: its arrays, and those of
    the dataset it holds, are read-only, and its fields cannot be
    reassigned, so the weights it gives cannot go stale."""

    _ARRAYS = ("keys", "count", "sigma_x", "y_mean", "sigma_y", "mu", "cell_of")

    @pytest.mark.parametrize("name", _ARRAYS)
    def test_arrays_are_read_only(self, name):
        grid = fit_grid(Dataset(np.random.default_rng(2).random((40, 2)), np.zeros((40, 2))), 3)
        arr = getattr(grid, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0

    def test_target_write_after_fitting_rejected(self):
        # such a write would change compute_weights' result silently, as
        # the identity check on the dataset still passes
        ds = make_1d([0.1, 0.2, 0.8, 0.9], ys=[0.0, 2.0, 5.0, 5.0])
        grid = fit_grid(ds, 2)
        before = compute_weights(grid, ds, "l2").weight
        with pytest.raises(ValueError, match="read-only"):
            ds.targets[0, 0] = 100.0
        np.testing.assert_array_equal(compute_weights(grid, ds, "l2").weight, before)

    def test_weight_tables_equal_only_to_themselves(self):
        # the generated == compared arrays, whose truth value is ambiguous
        ds = make_1d([0.1, 0.2, 0.8, 0.9], ys=[0.0, 2.0, 5.0, 5.0])
        grid = fit_grid(ds, 2)
        table = compute_weights(grid, ds, "l2")
        assert table == table
        assert (compute_weights(grid, ds, "l2") == compute_weights(grid, ds, "l1")) is False

    @pytest.mark.parametrize("name", [*_ARRAYS, "sigma_x_bar", "dataset"])
    def test_fields_cannot_be_reassigned(self, name):
        grid = fit_grid(make_1d([0.1, 0.9]), 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid, name, getattr(grid, name))


class TestLocalizedDeviation:
    def test_direct_sum(self):
        ds = make_1d([0.1, 0.2, 0.8, 0.9])
        assert localized_deviation(fit_grid(ds, 2)) == pytest.approx(0.10)

    def test_lambda_one_equals_global_sigma(self):
        rng = np.random.default_rng(1)
        features = rng.random((40, 2))
        ds = Dataset(features, np.zeros((40, 1)))
        expected = np.sqrt(np.mean(np.sum((features - features.mean(0)) ** 2, axis=1)))
        assert localized_deviation(fit_grid(ds, 1)) == pytest.approx(expected)

    def test_all_singletons_zero(self):
        ds = make_1d([0.0, 0.5, 1.0])
        assert localized_deviation(fit_grid(ds, 1000)) == 0.0


class TestSelectLambda:
    def test_tie_breaks_to_smallest(self):
        ds = make_1d([0.5] * 10)  # one repeated point: LD = 0 everywhere
        lam, report = select_lambda(ds, [10, 2, 5])
        assert lam == 2
        assert all(e.ld == 0.0 for e in report)

    def test_single_candidate(self):
        ds = make_1d([0.1, 0.9])
        lam, report = select_lambda(ds, [1])
        assert lam == 1
        assert len(report) == 1

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_lambda(make_1d([0.1, 0.9]), [])

    def test_any_sequence_of_candidates(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.random((300, 2)), rng.random((300, 1)))
        assert select_lambda(ds, np.arange(1, 6)) == select_lambda(ds, [1, 2, 3, 4, 5])
        with pytest.raises(ValueError, match="^candidates must be non-empty$"):
            select_lambda(ds, np.arange(0))

    def test_report_cell_counts(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.random((200, 1)), rng.random((200, 1)))
        _, report = select_lambda(ds, [1, 2, 4])
        assert [e.n_cells for e in report] == [1, 2, 4]

    def test_picks_ld_maximizer(self):
        rng = np.random.default_rng(12)
        ds = Dataset(rng.random((300, 2)), rng.random((300, 1)))
        lam, report = select_lambda(ds, [1, 2, 5, 50])
        best = max(report, key=lambda e: e.ld)
        assert lam == best.lam

    @staticmethod
    def _reference(ds, candidates, subset):
        """The sweep as a full fit_grid per candidate."""
        report = [(lam, repr(localized_deviation(g)), g.n_cells)
                  for lam, g in ((lam, fit_grid(ds, lam, subset)) for lam in candidates)]
        best = max(report, key=lambda e: (float(e[1]), -e[0]))
        return best[0], report

    @staticmethod
    def _random_case(seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.choice([1, 2, 5, 40, 700, 4000])), int(rng.integers(1, 5))
        features = rng.random((n, d + 1)) * 10.0 ** rng.integers(-3, 4)
        if seed % 2:
            features = np.round(features, int(rng.integers(0, 3)))  # ties on bin edges
        subset = None if seed % 4 < 2 else rng.permutation(d + 1)[:d].tolist()
        candidates = sorted(set(rng.choice([1, 2, 3, 5, 10, 20, 50, 100, 1000], size=5).tolist()))
        return features, subset, candidates

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_a_fit_grid_per_candidate(self, seed):
        features, subset, candidates = self._random_case(seed)
        ds = Dataset(features, np.random.default_rng(seed).normal(size=(len(features), 1)))
        lam, report = select_lambda(ds, candidates, subset)
        got = (lam, [(e.lam, repr(e.ld), e.n_cells) for e in report])
        assert got == self._reference(ds, candidates, subset)

    @pytest.mark.parametrize("targets, message", [
        ([0.0, 1e-160], r"^target column 0 has range 1e-160, below"),
        ([1e300, -1e300], "^cell statistics overflowed float64"),
        ([1.7e308, 1.7e308], "^cell statistics overflowed float64"),
    ], ids=["tiny-range", "overflowing-spread", "overflowing-mean"])
    def test_report_reads_no_targets(self, targets, message):
        features, subset, candidates = self._random_case(3)
        n = len(features)
        fine = Dataset(features, np.random.default_rng(3).normal(size=(n, 1)))
        bad = Dataset(features, np.resize(targets, n))
        assert select_lambda(bad, candidates, subset) == select_lambda(fine, candidates, subset)
        with pytest.raises(ValueError, match=message):
            fit_grid(bad, 1, subset)

    def test_cell_moments_on_features_only_and_no_fit_grid(self, monkeypatch):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.random((500, 2)), rng.random((500, 1)))
        moments, seen = grid_module._cell_moments, []

        def recording_moments(values, cell_of, count):
            seen.append(values)
            return moments(values, cell_of, count)

        def no_fit_grid(*args, **kwargs):
            raise AssertionError("select_lambda called fit_grid")

        monkeypatch.setattr(grid_module, "_cell_moments", recording_moments)
        monkeypatch.setattr(grid_module, "fit_grid", no_fit_grid)
        select_lambda(ds, [1, 2, 5, 10, 20, 50, 100])
        assert len(seen) == 7
        assert all(values is ds.features for values in seen)  # uncopied, no targets

    def test_every_candidate_checked_before_any_cells(self, monkeypatch):
        def no_moments(*args):
            raise AssertionError("select_lambda took cell moments before checking lam")

        monkeypatch.setattr(grid_module, "_cell_moments", no_moments)
        rng = np.random.default_rng(6)
        ds = Dataset(rng.random((500, 2)), rng.random((500, 1)))
        with pytest.raises(ValueError, match="^lam must be a positive integer, got 0$"):
            select_lambda(ds, [2, 5, 0])
        # before a feature too narrow for the statistics, too
        with pytest.raises(ValueError, match="^lam must be a positive integer, got 0$"):
            select_lambda(make_1d([0.0, 1e-160]), [2, 0])

    def test_peak_memory_holds_one_candidates_bins(self):
        # the (n, d) unit-scaled features, one candidate's (n, d) bins and at
        # most six n-sized 8-byte arrays, with a slack for the per-cell
        # arrays (76.1 n bytes); keeping a candidate's bins alive into the
        # next candidate read 92.1 n
        n, d = 70_000, 2
        rng = np.random.default_rng(17)
        ds = Dataset(rng.random((n, d)), rng.random((n, 1)))
        _, peak = traced_peak(select_lambda, ds, [1, 2, 5, 10, 20, 50, 100])
        assert peak < 2 * 8 * d * n + 6 * 8 * n + 64 * 1024
