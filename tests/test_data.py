import csv
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from viloss import (
    Dataset,
    SynthSpec,
    generate_synth,
    ground_truth,
    load_csv,
    normalize_minmax,
    split,
)
from viloss import data
from viloss.data import BinarySynthSpec, generate_binary_clusters, save_csv


class TestGroundTruth:
    def test_synth_1d_at_one(self):
        assert ground_truth("synth-1d", np.array([[1.0]]))[0, 0] == pytest.approx(1.3)

    def test_synth_1d_at_zero(self):
        assert ground_truth("synth-1d", np.array([[0.0]]))[0, 0] == pytest.approx(0.3)

    def test_synth_2d_at_origin(self):
        assert ground_truth("synth-2d", np.array([[0.0, 0.0]]))[0, 0] == pytest.approx(0.3)

    def test_synth_2d_formula(self):
        x1, x2 = 0.5, 0.8
        expected = -x1 + x2**6 + x2**3 + 0.3
        assert ground_truth("synth-2d", np.array([[x1, x2]]))[0, 0] == pytest.approx(expected)


class TestGenerateSynth:
    def test_default_sizes(self):
        assert generate_synth(SynthSpec("synth-1d")).n == 300
        assert generate_synth(SynthSpec("synth-2d")).n == 1000

    def test_seed_determinism(self):
        a = generate_synth(SynthSpec("synth-1d", seed=42))
        b = generate_synth(SynthSpec("synth-1d", seed=42))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_noiseless_targets_match_ground_truth(self):
        ds = generate_synth(SynthSpec("synth-1d", noise_sigma=0.0, corrupt_fraction=0.0))
        np.testing.assert_allclose(ds.targets, ground_truth("synth-1d", ds.features))

    def test_corruption_count(self):
        spec = SynthSpec("synth-1d", corrupt_fraction=0.1, noise_sigma=0.0, seed=3)
        ds = generate_synth(spec)
        clean = ground_truth("synth-1d", ds.features)
        n_corrupt = int(np.sum(~np.isclose(ds.targets, clean)))
        assert n_corrupt == round(0.1 * 300)

    def test_features_in_unit_cube(self):
        ds = generate_synth(SynthSpec("synth-2d", seed=1))
        assert ds.features.min() >= 0.0
        assert ds.features.max() <= 1.0

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec("synth-3d")

    def test_bad_corrupt_fraction_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec("synth-1d", corrupt_fraction=1.0)

    @pytest.mark.parametrize("field,value,message", [
        ("n", 0, "n must be >= 1, got 0"),
        ("n", -3, "n must be >= 1, got -3"),
        ("seed", -2, "seed must be >= 0, got -2"),
        ("noise_sigma", -1.0, "noise_sigma must be finite and >= 0, got -1.0"),
        ("noise_sigma", float("nan"), "noise_sigma must be finite and >= 0, got nan"),
        ("noise_sigma", float("inf"), "noise_sigma must be finite and >= 0, got inf"),
        ("cluster_fraction", 1.5, "cluster_fraction must be in [0, 1], got 1.5"),
        ("cluster_fraction", float("nan"), "cluster_fraction must be in [0, 1], got nan"),
        ("cluster_center", 5.0, "cluster_center must be in [0, 1], got 5.0"),
        ("cluster_center", -0.1, "cluster_center must be in [0, 1], got -0.1"),
        ("cluster_sigma", float("nan"), "cluster_sigma must be in [0, 1], got nan"),
        ("cluster_sigma", 2.0, "cluster_sigma must be in [0, 1], got 2.0"),
    ])
    def test_out_of_range_field_rejected(self, field, value, message):
        # only the spec is built: a centre or sigma that slipped through
        # would make the truncated-normal sampler reject draws forever
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthSpec("synth-1d", **{field: value})

    @pytest.mark.parametrize("center,sigma", [(0.0, 1.0), (1.0, 1.0), (0.0, 0.0), (1.0, 0.0)])
    def test_range_edges_generate(self, center, sigma):
        spec = SynthSpec("synth-1d", n=50, cluster_center=center, cluster_sigma=sigma)
        assert generate_synth(spec).n == 50


class TestBinaryClusters:
    def test_shape_and_labels(self):
        ds = generate_binary_clusters(BinarySynthSpec(seed=0))
        assert ds.features.shape == (2000, 2)
        assert set(np.unique(ds.targets)) <= {0.0, 1.0}

    def test_imbalance(self):
        ds = generate_binary_clusters(BinarySynthSpec(seed=0))
        assert 0.02 < ds.targets.mean() < 0.12

    def test_seed_determinism(self):
        a = generate_binary_clusters(BinarySynthSpec(seed=9))
        b = generate_binary_clusters(BinarySynthSpec(seed=9))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    @pytest.mark.parametrize("field,value,message", [
        ("n", 0, "n must be >= 1, got 0"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_out_of_range_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BinarySynthSpec(**{field: value})


class TestLoadCsv:
    def test_basic_header_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        ds, rejected = load_csv(path, ["x"], ["y"])
        assert ds.n == 2
        assert rejected == []
        np.testing.assert_array_equal(ds.features, [[1.0], [3.0]])

    def test_malformed_row_reported_with_line_number(self, tmp_path):
        rows = ["x,y"] + [f"{i},{i * 2}" for i in range(10)]
        rows[5] = "oops,3"  # line 6 in the file
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        ds, rejected = load_csv(path, ["x"], ["y"])
        assert ds.n == 9
        assert [line for line, _ in rejected] == [6]

    def test_non_finite_rows_reported_with_line_numbers(self, tmp_path):
        rows = ["x,y"] + [f"{i},{i * 2}" for i in range(10)]
        rows[2] = "inf,3"  # line 3
        rows[5] = "oops,3"  # line 6
        rows[8] = "7,nan"  # line 9
        rows[9] = "8,-inf"  # line 10
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        ds, rejected = load_csv(path, ["x"], ["y"])
        assert ds.n == 6
        assert np.isfinite(ds.features).all() and np.isfinite(ds.targets).all()
        assert [line for line, _ in rejected] == [3, 6, 9, 10]

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("x1,x2,y\n0.1,0.2,0.3\n0.2,0.7,abc\n0.4,0.5,0.6\n",
             "could not convert string to float: 'abc'"),
            ("x1,x2,y\n0.1,0.2,0.3\n0.2,0.7\n0.4,0.5,0.6\n", "list index out of range"),
        ],
    )
    def test_bad_target_rejected_with_its_row(self, tmp_path, text, reason):
        # the whole row goes, so the kept features and targets stay paired
        path = tmp_path / "d.csv"
        path.write_text(text)
        ds, rejected = load_csv(path, ["x1", "x2"], ["y"])
        assert rejected == [(3, reason)]
        np.testing.assert_array_equal(ds.features, [[0.1, 0.2], [0.4, 0.5]])
        np.testing.assert_array_equal(ds.targets, [[0.3], [0.6]])

    @pytest.mark.parametrize("header", [True, False])
    def test_quoted_cell_spanning_lines_keeps_file_lines(self, tmp_path, header):
        # the second record takes lines 2 and 3, so the bad row is on line 4
        path = tmp_path / "d.csv"
        path.write_text('x,note,y\n0.1,"two\nlines",0.2\n0.3,ok,abc\n')
        ds, rejected = load_csv(path, [0], [2], header=header)
        expected = [(4, "could not convert string to float: 'abc'")]
        if not header:
            expected.insert(0, (1, "could not convert string to float: 'x'"))
        assert rejected == expected
        np.testing.assert_array_equal(ds.targets, [[0.2]])

    @pytest.mark.parametrize("header", [True, False])
    def test_edge_case_rows(self, tmp_path, header):
        lines = [
            "x1,x2,y",  # 1: the header, or an unparseable row
            "0.1,0.2,0.3",  # 2
            "",  # 3: blank, skipped silently
            "   ",  # 4: whitespace only, skipped silently
            "0.4,0.5",  # 5: short
            "abc,0.5,0.6",  # 6
            "inf,0.5,0.6",  # 7
            "0.7,0.8,nan",  # 8
            "-1e400,0.1,0.2",  # 9: overflows to -inf
            "1e308,0.1,0.2",  # 10
            '"0.9", 1.0 ,1.1',  # 11: quoted
            "0.5,0.6,0.7",  # 12
        ]
        path = tmp_path / "d.csv"
        path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        columns = (["x1", "x2"], ["y"]) if header else ([0, 1], [2])
        ds, rejected = load_csv(path, *columns, header=header)
        expected = [
            (5, "list index out of range"),
            (6, "could not convert string to float: 'abc'"),
            (7, "non-finite value"),
            (8, "non-finite value"),
            (9, "non-finite value"),
        ]
        if not header:
            expected.insert(0, (1, "could not convert string to float: 'x1'"))
        assert rejected == expected
        np.testing.assert_array_equal(ds.features, [[0.1, 0.2], [1e308, 0.1], [0.9, 1.0], [0.5, 0.6]])
        np.testing.assert_array_equal(ds.targets, [[0.3], [0.2], [1.1], [0.7]])

    @pytest.mark.parametrize(
        "text, header, message",
        [
            ("", True, "empty file"),
            ("", False, "empty file"),
            ("x,y\r\n", True, "no usable rows"),
            ("\r\n \r\n", True, "no usable rows"),
            ("\r\n \r\n", False, "no usable rows"),
        ],
    )
    def test_file_without_rows_rejected(self, tmp_path, text, header, message):
        path = tmp_path / "d.csv"
        path.write_text(text, newline="")
        with pytest.raises(ValueError, match=f"d.csv: {message}$"):
            load_csv(path, [0], [1], header=header)

    def test_digit_strings_are_indices(self, tmp_path):
        # even where a header column has that name: "1" is column 1, not "1"
        path = tmp_path / "d.csv"
        path.write_text("1,a,b\n1,2,3\n4,5,6\n")
        ds, _ = load_csv(path, ["0", "1"], ["-1"])
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(ds.targets, [[3.0], [6.0]])

    def test_column_by_index_without_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3\n4,5,6\n")
        ds, _ = load_csv(path, [0, 2], [1], header=False)
        np.testing.assert_array_equal(ds.features, [[1.0, 3.0], [4.0, 6.0]])
        np.testing.assert_array_equal(ds.targets, [[2.0], [5.0]])

    def test_feature_subset_for_weighting_workflow(self, tmp_path):
        # high-dimensional ingestion: train on all features, weight on a subset
        from viloss import compute_weights, fit_grid

        rng = np.random.default_rng(0)
        path = tmp_path / "d.csv"
        header = "src_bytes,dst_bytes,dst_host_count,other,label"
        lines = [header]
        for _ in range(50):
            vals = rng.random(4)
            lines.append(",".join(map(str, vals)) + f",{rng.integers(0, 2)}")
        path.write_text("\n".join(lines) + "\n")
        ds, _ = load_csv(
            path, ["src_bytes", "dst_bytes", "dst_host_count", "other"], ["label"]
        )
        grid = fit_grid(ds, 3, feature_subset=[0, 1, 2])
        table = compute_weights(grid, ds, "l1")
        assert len(table) == 50
        assert ds.feature_dim == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv", ["x"], ["y"])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match=r"d.csv: column 'z' not found in header x,y$"):
            load_csv(path, ["z"], ["y"])
        with pytest.raises(ValueError, match=r"d.csv: column 'z' not found$"):
            load_csv(path, ["z"], [1], header=False)

    def test_empty_column_selection_rejected(self, tmp_path):
        # with no cell to parse, a blank row would be kept as an empty row
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n\n")
        for features, targets in (([], ["y"]), (["x"], []), ([], [])):
            with pytest.raises(ValueError, match="d.csv: select at least one feature and one "
                                                 "target column"):
                load_csv(path, features, targets)

    def test_zero_usable_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\nfoo,bar\n3,baz\n")
        with pytest.raises(ValueError, match=re.escape(
                "d.csv: no usable rows (2 rejected; line 2: could not convert string to "
                "float: 'foo')")):
            load_csv(path, ["x"], ["y"])

    def test_save_round_trip(self, tmp_path):
        ds = generate_synth(SynthSpec("synth-1d", n=20, seed=4))
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        loaded, _ = load_csv(path, ["x1"], ["y"])
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.targets, ds.targets)


_TOKENS = [*"0123456789", ".", "e", "-", ",", '"', " ", "\n", "\r", "nan", "inf", "_"]
_NUMBER = st.lists(st.sampled_from([*"0123456789", ".", "e", "-"]), min_size=1,
                   max_size=6).map("".join)
_FINITE = st.one_of(st.integers(-999, 999).map(str),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr))
_CELL = st.one_of(_FINITE, _FINITE.map('"{}"'.format), _NUMBER, st.floats().map(repr),
                  st.lists(st.sampled_from(_TOKENS), max_size=4).map("".join))
_CLEAN_ROW = st.lists(st.one_of(_FINITE, _FINITE.map('"{}"'.format)), min_size=2, max_size=3)
_NON_FINITE_ROW = st.tuples(_FINITE, st.sampled_from(["nan", "-inf", "1e400"])).map(list)
_ROW = st.one_of(_CLEAN_ROW, _CLEAN_ROW, _CLEAN_ROW, _NON_FINITE_ROW,
                 st.lists(_CELL, min_size=1, max_size=3), st.just([]))
_ROWS = st.tuples(st.lists(_ROW.map(",".join), max_size=5),
                  st.sampled_from(["\n", "\r\n"])).map(lambda t: t[1].join(t[0]) + t[1])
# random token soup, and rows that are mostly clean
CSV_TEXTS = st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join), _ROWS)


def _load_outcome(path, columns, header):
    """What load_csv gives: the arrays' bytes and shapes with the rejected
    list, or the error message."""
    try:
        ds, rejected = load_csv(path, *columns, header=header)
    except ValueError as exc:
        return str(exc)
    return (ds.features.shape, ds.features.tobytes(), ds.targets.shape, ds.targets.tobytes(),
            rejected)


class TestLoadCsvFastPath:
    """A clean file is parsed in one numpy call; the row loop reads only a
    file with a row to reject. Both must give the same result."""

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=CSV_TEXTS, columns=st.sampled_from([([0], [1]), ([0, 1], [-1]), ([1], [0, 0])]),
           header=st.booleans())
    def test_matches_the_row_loop(self, tmp_path, text, columns, header):
        path = tmp_path / "d.csv"
        path.write_text(text, newline="")
        with mock.patch.object(data, "_parse_clean", return_value=None):
            expected = _load_outcome(path, columns, header)
        assert _load_outcome(path, columns, header) == expected

    def test_clean_file_skips_the_row_loop(self, tmp_path):
        ds = generate_synth(SynthSpec("synth-2d", n=200, seed=5))
        saved = tmp_path / "saved.csv"
        save_csv(ds, saved)
        # a header spanning two lines, a blank row, quoted cells and a ragged row
        odd = tmp_path / "odd.csv"
        odd.write_text('x,"two\nlines",y\n1e-3,"2",-4\n\n"5.5",6,7,8\n', newline="")
        with mock.patch.object(data, "_read_rows", side_effect=AssertionError("row loop")):
            loaded, rejected = load_csv(saved, ["x1", "x2"], ["y"])
            odd_ds, odd_rejected = load_csv(odd, [0], [2])
        assert rejected == [] and odd_rejected == []
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.targets, ds.targets)
        np.testing.assert_array_equal(odd_ds.features, [[1e-3], [5.5]])
        np.testing.assert_array_equal(odd_ds.targets, [[-4.0], [7.0]])

    # cells longer than csv's default field limit of 131072 characters
    _OVERFLOWING, _LONG_ONE = "1" * 200_000, "0" * 199_999 + "1"

    @pytest.mark.parametrize("text,rows,rejected", [
        # the overflowing cell parses to inf, which rejects its line
        (f"x,y\n0.5,{_OVERFLOWING}\n0.25,0.5\n", [[0.25, 0.5]], [(2, "non-finite value")]),
        # a long finite cell in a file the row loop reads
        (f"x,y\n0.5,{_LONG_ONE}\nabc,0.5\n0.75,1.5\n", [[0.5, 1.0], [0.75, 1.5]],
         [(3, "could not convert string to float: 'abc'")]),
        # the same cell in a clean file
        (f"x,y\n0.5,{_LONG_ONE}\n0.75,1.5\n", [[0.5, 1.0], [0.75, 1.5]], []),
    ])
    def test_cell_beyond_the_csv_field_limit(self, tmp_path, text, rows, rejected):
        path = tmp_path / "long.csv"
        path.write_text(text)
        limit = csv.field_size_limit()
        ds, got = load_csv(path, ["x"], ["y"])
        assert got == rejected
        np.testing.assert_array_equal(np.hstack([ds.features, ds.targets]), rows)
        with mock.patch.object(data, "_parse_clean", return_value=None):
            expected = _load_outcome(path, (["x"], ["y"]), True)
        assert _load_outcome(path, (["x"], ["y"]), True) == expected
        assert csv.field_size_limit() == limit


class TestNormalize:
    def test_column_example(self):
        ds = Dataset(np.array([[0.0], [5.0], [10.0]]), np.zeros((3, 1)))
        out = normalize_minmax(ds)
        np.testing.assert_allclose(out.features.ravel(), [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_half(self):
        ds = Dataset(np.array([[7.0], [7.0]]), np.zeros((2, 1)))
        out = normalize_minmax(ds)
        np.testing.assert_array_equal(out.features.ravel(), [0.5, 0.5])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.random((30, 2)), rng.normal(size=(30, 1)))
        out = normalize_minmax(ds)
        back = out.normalization.invert_targets(out.targets)
        np.testing.assert_allclose(back, ds.targets, atol=1e-12)


class TestSplit:
    def test_seven_three(self):
        ds = Dataset(np.arange(10.0)[:, None], np.zeros((10, 1)))
        tr, te = split(ds, 0.7, seed=0)
        assert (tr.n, te.n) == (7, 3)

    def test_default_paper_sizes(self):
        ds = generate_synth(SynthSpec("synth-1d"))
        tr, te = split(ds, 0.7, seed=0)
        assert (tr.n, te.n) == (210, 90)

    def test_seed_determinism(self):
        ds = Dataset(np.arange(20.0)[:, None], np.arange(20.0)[:, None])
        a = split(ds, 0.7, seed=5)
        b = split(ds, 0.7, seed=5)
        np.testing.assert_array_equal(a[0].features, b[0].features)

    def test_partition_is_complete(self):
        ds = Dataset(np.arange(15.0)[:, None], np.arange(15.0)[:, None])
        tr, te = split(ds, 0.6, seed=1)
        combined = sorted(np.concatenate([tr.features, te.features]).ravel())
        np.testing.assert_array_equal(combined, np.arange(15.0))

    def test_bad_fraction_rejected(self):
        ds = Dataset(np.zeros((5, 1)), np.zeros((5, 1)))
        with pytest.raises(ValueError):
            split(ds, 1.0, seed=0)

    def test_empty_side_rejected(self):
        ds = Dataset(np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="n=1 .* sizes 1 and 0"):
            split(ds, 0.7, seed=0)
        ds = Dataset(np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="n=2 .* sizes 0 and 2"):
            split(ds, 0.2, seed=0)


class TestDataset:
    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1)), np.zeros((2, 1)))

    def test_one_dim_targets_promoted(self):
        ds = Dataset(np.zeros((3, 2)), np.arange(3.0))
        assert ds.targets.shape == (3, 1)

    def test_non_finite_feature_names_sample(self):
        with pytest.raises(ValueError, match="row 1"):
            Dataset(np.array([[0.1], [np.nan], [0.8]]), np.zeros((3, 1)))

    def test_non_finite_target_names_row(self):
        # a nan target used to give its whole grid cell gamma 0 silently,
        # then surfaced in training as divergence at some unrelated batch
        ds = generate_synth(SynthSpec("synth-1d", seed=0))
        targets = ds.targets.copy()
        targets[5] = np.nan
        with pytest.raises(ValueError, match="row 5"):
            Dataset(ds.features, targets)
        targets[5] = -np.inf
        with pytest.raises(ValueError, match="row 5"):
            Dataset(ds.features, targets)

    def test_subset_takes_rows_in_order(self):
        ds = Dataset(np.arange(5.0)[:, None], np.arange(5.0) * 10)
        sub = ds.subset(np.array([3, 0, -1]))
        np.testing.assert_array_equal(sub.features[:, 0], [3.0, 0.0, 4.0])
        np.testing.assert_array_equal(sub.targets[:, 0], [30.0, 0.0, 40.0])

    def test_subset_rejects_boolean_mask(self):
        # take() would read a mask as the row indices 0 and 1
        ds = Dataset(np.arange(3.0)[:, None], np.zeros((3, 1)))
        with pytest.raises(ValueError, match="integer row indices, got dtype bool"):
            ds.subset(np.array([True, False, True]))
