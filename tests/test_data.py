import csv
import dataclasses
import pathlib
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
from viloss import ModelSpec, cli, data, load_model, save_model
from viloss.data import BinarySynthSpec, NormalizationRecord, generate_binary_clusters, save_csv
from viloss.models import init_model

from oracles import binary_clusters_row_loop


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

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="^unknown variant 'synth-3d'$"):
            ground_truth("synth-3d", np.zeros((1, 3)))


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
        ("n", 2.5, "n must be an integer, got 2.5"),
        ("n", 100.0, "n must be an integer, got 100.0"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
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

    @pytest.mark.parametrize("n,seeds", [(1, 300), (7, 300), (50, 300), (2000, 100)])
    def test_matches_the_row_loop(self, n, seeds):
        # each run of same-kind rows is drawn in one call: the same stream
        # and the same loc + scale * z as a normal or uniform call per row
        for seed in range(seeds):
            spec = BinarySynthSpec(n=n, seed=seed)
            ds = generate_binary_clusters(spec)
            x, y = binary_clusters_row_loop(spec)
            assert ds.features.tobytes() == x.tobytes()
            assert ds.targets.tobytes() == y[:, None].tobytes()

    def test_seed_determinism(self):
        a = generate_binary_clusters(BinarySynthSpec(seed=9))
        b = generate_binary_clusters(BinarySynthSpec(seed=9))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    @pytest.mark.parametrize("field,value,message", [
        ("n", 0, "n must be >= 1, got 0"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("n", 2.5, "n must be an integer, got 2.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
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

    def test_index_outside_the_header_named(self, tmp_path):
        # when no row holds the column; rows that hold it still load
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        for j in (2, -3):
            with pytest.raises(ValueError, match=f"d.csv: column {j} out of range for header x,y$"):
                load_csv(path, [0, j], [1])
        path.write_text("x,y\n1,2,5\n3,4,6\n")
        ds, rejected = load_csv(path, [0, 2], [1])
        np.testing.assert_array_equal(ds.features, [[1.0, 5.0], [3.0, 6.0]])
        assert rejected == []

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

# one file per way a CSV's lines can be laid out; every one of them but
# those in _ROW_LOOP_EDGES parses on the clean path when it has a header
_EDGE_FILES = {
    "crlf.csv": "x,y\r\n1,2\r\n3,4\r\n",
    "lone-cr.csv": "x,y\r1,2\r3,4\r",
    "mixed-ends.csv": "x,y\n1,2\r\n3,4\r5,6\n",
    "header-spans-lines.csv": '"x\nx",y\n1,2\n3,4\n',
    "header-spans-crlf.csv": '"x\r\nx",y\r\n1,2\r\n3,4\r\n',
    "header-spans-cr.csv": '"x\rx",y\r1,2\r3,4\r',
    "cell-spans-lines.csv": 'x,y,z\n1,2,"a\nb"\n3,4,c\n',
    "blank-lines.csv": "x,y\n\n1,2\n\n3,4\n\n",
    "whitespace-lines.csv": "x,y\n1,2\n   \n3,4\n\t\n",
    "bom.csv": "\ufeffx,y\n1,2\n3,4\n",
    "quoted-numbers.csv": 'x,y\n"1","2"\n" 3 ",4\n',
    "no-final-newline.csv": "x,y\n1,2\n3,4",
    "header-only.csv": "x,y\n",
    "rejected-row.csv": "x,y\n1,2\nfoo,3\n4,5\n",
    # plain text under a name numpy would decompress
    "plain.csv.gz": "x,y\n1,2\n3,4\n",
    "plain.csv.bz2": "x,y\n1,2\n3,4\n",
    "plain.csv.xz": "x,y\n1,2\n3,4\n",
    "plain.csv.lzma": "x,y\n1,2\n3,4\n",
    "rejected-row.csv.gz": "x,y\n1,2\nfoo,3\n",
}
_ROW_LOOP_EDGES = ("whitespace-lines.csv", "header-only.csv", "rejected-row.csv",
                   "rejected-row.csv.gz")


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

    @pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
    @pytest.mark.parametrize("name", _EDGE_FILES)
    def test_edge_file_matches_the_row_loop(self, tmp_path, name, header):
        path = tmp_path / name
        path.write_text(_EDGE_FILES[name], newline="")
        for columns in (([0], [1]), ([1], [0])):
            with mock.patch.object(data, "_parse_clean", return_value=None):
                expected = _load_outcome(path, columns, header)
            assert _load_outcome(path, columns, header) == expected

    @pytest.mark.parametrize("name", [n for n in _EDGE_FILES if n not in _ROW_LOOP_EDGES])
    def test_clean_edge_file_skips_the_row_loop(self, tmp_path, name):
        # a later edit that dropped such a file to the row loop would give
        # the same table, only slower: this catches it
        path = tmp_path / name
        path.write_text(_EDGE_FILES[name], newline="")
        with mock.patch.object(data, "_read_rows", side_effect=AssertionError("row loop")):
            ds, rejected = load_csv(path, [0], [1])
        assert rejected == [] and ds.n >= 2

    @pytest.mark.parametrize("name", ["d.csv", "d.csv.gz"])
    def test_loadtxt_reads_a_plain_name_by_name(self, tmp_path, name):
        # by name np.loadtxt reads the file in blocks, by handle line by line
        path = tmp_path / name
        path.write_text("x,y\n1,2\n3,4\n")
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
            load_csv(path, ["x"], ["y"])
        source = spy.call_args.args[0]
        assert (source == str(path)) if name == "d.csv" else hasattr(source, "readline")

    @pytest.mark.parametrize("path,name", [
        ("d.csv", "d.csv"), (pathlib.Path("d.txt"), "d.txt"), ("d.csv.gz", None),
        ("d.csv.bz2", None), ("d.csv.xz", None), ("d.csv.lzma", None),
        ("http://example.org/d.csv", None), (b"d.csv", None), (3, None),
    ])
    def test_loadtxt_reads_by_name_only_what_it_opens_as_text(self, path, name):
        # np.loadtxt would decompress these suffixes and fetch a URL, so
        # they are read through the open handle, from its position
        fh = object()
        assert data._loadtxt_source(fh, path, 2) == ((fh, 0) if name is None else (name, 2))

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

    def test_one_dim_features_named_in_row_mismatch(self):
        with pytest.raises(ValueError, match=re.escape(
                "feature rows (1) != target rows (3): 1-D features of shape (3,) are one "
                "sample of 3 features; pass features[:, None] for 3 samples of one feature")):
            Dataset(np.arange(3.0), np.arange(3.0))
        with pytest.raises(ValueError, match=r"^feature rows \(2\) != target rows \(3\)$"):
            Dataset(np.zeros((2, 1)), np.arange(3.0))
        # a vector with one target row is one sample
        ds = Dataset(np.arange(3.0), [1.0])
        assert (ds.n, ds.feature_dim) == (1, 3)

    def test_no_feature_or_target_column_rejected(self):
        # zero feature columns used to divide by zero in train's block size,
        # zero target columns in its step scale; zero rows stay allowed
        with pytest.raises(ValueError, match=re.escape(
                "a dataset needs at least one feature column, got features of shape (4, 0)")):
            Dataset(np.ones((4, 0)), np.ones((4, 1)))
        with pytest.raises(ValueError, match=re.escape(
                "a dataset needs at least one target column, got targets of shape (4, 0)")):
            Dataset(np.ones((4, 1)), np.ones((4, 0)))
        assert Dataset(np.empty((0, 2)), np.empty((0, 1))).n == 0

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


def _csv_dataset(tmp_path, bad_row):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0.25,1.5\n" + ("abc,2\n" if bad_row else "") + "0.75,-2\n")
    return load_csv(path, ["x"], ["y"])[0]


_SYNTH = generate_synth(SynthSpec("synth-2d", n=50, seed=1))
# every way the library builds a dataset, by name
_BUILDERS = {
    "load_csv-clean": lambda tmp_path: _csv_dataset(tmp_path, bad_row=False),
    "load_csv-row-loop": lambda tmp_path: _csv_dataset(tmp_path, bad_row=True),
    "generate_synth": lambda _: generate_synth(SynthSpec("synth-1d", n=20)),
    "generate_binary_clusters": lambda _: generate_binary_clusters(BinarySynthSpec(n=20)),
    "split-train": lambda _: split(_SYNTH, 0.7, seed=0)[0],
    "split-test": lambda _: split(_SYNTH, 0.7, seed=0)[1],
    "subset": lambda _: _SYNTH.subset(np.array([4, 0, 9])),
    "normalize_minmax": lambda _: normalize_minmax(_SYNTH),
    "prepare-regression": lambda _: cli._prepare(_SYNTH, 0, 2, None, ["l2"], 0.0, True)[0],
    "prepare-logistic": lambda _: cli._prepare(generate_binary_clusters(BinarySynthSpec(n=50)),
                                               0, 2, None, ["l2"], 0.0, False)[0],
}


class TestFrozen:
    """A dataset is checked once, when built, and cannot change after: its
    arrays are read-only and no field of it, or of a spec or normalization
    record, can be reassigned."""

    @pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
    def test_every_built_dataset_is_read_only(self, tmp_path, build):
        ds = build(tmp_path)
        for arr in (ds.features, ds.targets):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.5

    def test_non_finite_write_after_the_check_rejected(self):
        # Dataset rejects nan when built; a nan written in afterwards would
        # pass every later check and reach fit_grid as an overflow
        ds = Dataset(np.array([[0.1], [0.8]]), np.zeros(2))
        with pytest.raises(ValueError, match="read-only"):
            ds.features[0, 0] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            ds.targets[1] = np.inf
        assert np.isfinite(ds.features).all() and np.isfinite(ds.targets).all()

    def test_callers_arrays_stay_writable_and_are_not_copied(self):
        features, targets = np.zeros((3, 2)), np.zeros((3, 1))
        ds = Dataset(features, targets)
        assert features.flags.writeable and targets.flags.writeable
        assert np.shares_memory(ds.features, features) and np.shares_memory(ds.targets, targets)
        features[0, 0] = 7.0  # the caller's own array writes through
        assert ds.features[0, 0] == 7.0

    @pytest.mark.parametrize("obj,field", [
        (Dataset(np.zeros((2, 1)), np.zeros(2)), "features"),
        (Dataset(np.zeros((2, 1)), np.zeros(2)), "targets"),
        (Dataset(np.zeros((2, 1)), np.zeros(2)), "normalization"),
        (normalize_minmax(_SYNTH).normalization, "target_min"),
        (SynthSpec(), "n"),
        (SynthSpec(), "corrupt_fraction"),
        (BinarySynthSpec(), "seed"),
    ], ids=["dataset-features", "dataset-targets", "dataset-normalization",
            "normalization-record", "synth-spec-n", "synth-spec-corrupt-fraction",
            "binary-synth-spec"])
    def test_fields_cannot_be_reassigned(self, obj, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))

    @pytest.mark.parametrize("source", ["normalize_minmax", "load_model"])
    def test_normalization_record_is_read_only(self, tmp_path, source):
        # a write would move every later inverse: target_min 1 -> 100 took
        # invert_targets([0.5]) from 2.0 to 51.5
        record = normalize_minmax(Dataset(np.array([[0.0], [1.0]]), [1.0, 3.0])).normalization
        if source == "load_model":
            save_model(init_model(ModelSpec("linear"), 1, 1), record, tmp_path / "model.txt")
            record = load_model(tmp_path / "model.txt")[1]
        for name in ("feature_min", "feature_max", "target_min", "target_max"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(record, name)[0] = 100.0
        assert record.invert_targets([0.5]).tolist() == [2.0]

    def test_equal_only_to_itself(self):
        # the generated == would compare arrays, whose truth value is ambiguous
        features, targets = np.zeros((2, 1)), np.zeros(2)
        ds = Dataset(features, targets)
        assert ds == ds
        assert Dataset(features, targets) != Dataset(features, targets)
        record = normalize_minmax(ds).normalization
        assert record == record and record != NormalizationRecord(*vars(record).values())
