import numpy as np
import pytest

from viloss import (
    Dataset,
    SynthSpec,
    compute_weights,
    fit_grid,
    generate_synth,
    localized_deviation,
    select_lambda,
)


def make_1d(xs, ys=None):
    xs = np.asarray(xs, dtype=float)
    if ys is None:
        ys = np.zeros_like(xs)
    return Dataset(xs[:, None], np.asarray(ys, dtype=float)[:, None])


def brute_force_cells(features, lam):
    """Independent binning by direct interval tests (oracle)."""
    lo, hi = features.min(axis=0), features.max(axis=0)
    cells = {}
    for i, x in enumerate(features):
        key = []
        for k in range(features.shape[1]):
            if hi[k] == lo[k]:
                key.append(0)
                continue
            width = (hi[k] - lo[k]) / lam
            p = lam - 1  # closed last bin
            for b in range(lam):
                left = lo[k] + b * width
                right = lo[k] + (b + 1) * width
                if left <= x[k] < right:
                    p = b
                    break
            key.append(p)
        cells.setdefault(tuple(key), []).append(i)
    return cells


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
    ])
    def test_overflowing_statistics_rejected(self, xs, ys):
        # raw values far from 1 overflow float64 before any weight exists; a
        # numpy RuntimeWarning would fail this test, as warnings are errors
        with pytest.raises(ValueError, match="^cell statistics overflowed float64: "
                                             "normalize the features and targets first$"):
            fit_grid(make_1d(xs, ys), 1)

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

