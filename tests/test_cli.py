import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from viloss import (
    Dataset,
    LossSpec,
    ModelSpec,
    SynthSpec,
    TrainConfig,
    generate_synth,
    ground_truth,
    load_csv,
    save_csv,
    split,
)
from viloss import __version__, cli
from viloss.cli import main
from viloss.data import BinarySynthSpec, generate_binary_clusters


SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main([str(a) for a in argv])


def _huge_row_csv(tmp_path):
    """A 300-row synth-2d CSV (seed 1) whose row 7 has features 1e60, -1e60."""
    data = tmp_path / "huge.csv"
    run(["gen", "--variant", "synth-2d", "--n", 300, "--seed", 1, "--out", data])
    ds, _ = load_csv(data, ["x1", "x2"], ["y"])
    features = ds.features.copy()
    features[7] = [1e60, -1e60]
    save_csv(Dataset(features, ds.targets), data)
    return data


class TestGen:
    def test_default_synth_1d(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["gen", "--variant", "synth-1d", "--out", out]) == 0
        assert out.read_text().count("\n") == 301  # header + 300 rows
        assert out.with_suffix(".manifest.txt").exists()

    def test_defaults_are_the_spec_defaults(self, tmp_path):
        out, want = tmp_path / "s.csv", tmp_path / "want.csv"
        assert run(["gen", "--out", out]) == 0
        save_csv(generate_synth(SynthSpec()), want)
        assert out.read_bytes() == want.read_bytes()

    def test_seed_repeat_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["gen", "--seed", 7, "--out", a])
        run(["gen", "--seed", 7, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_clean_generation_matches_ground_truth(self, tmp_path):
        out = tmp_path / "s.csv"
        run(["gen", "--noise-sigma", 0, "--corrupt-fraction", 0, "--out", out])
        ds, _ = load_csv(out, ["x1"], ["y"])
        np.testing.assert_allclose(ds.targets, ground_truth("synth-1d", ds.features))

    def test_out_of_range_cluster_center_fails_without_output(self, tmp_path, monkeypatch,
                                                              capsys):
        # the spec must reject the centre; generating from it would never return
        def generate(spec):
            pytest.fail("an out-of-range spec reached the generator")

        monkeypatch.setattr(cli, "generate_synth", generate)
        out = tmp_path / "s.csv"
        assert run(["gen", "--cluster-center", 5, "--out", out]) == 1
        assert capsys.readouterr().err == "error: cluster_center must be in [0, 1], got 5.0\n"
        assert list(tmp_path.iterdir()) == []


class TestLdSweep:
    def test_sweep_output(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run(["gen", "--variant", "synth-2d", "--out", data])
        report = tmp_path / "sweep.csv"
        code = run([
            "ld-sweep", "--data", data, "--feature-cols", "x1,x2",
            "--target-cols", "y", "--candidates", "1,2,5", "--out", report,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "selected lambda" in out
        lines = report.read_text().splitlines()
        assert lines[0] == "lambda,ld,nonempty_cells"
        assert len(lines) == 4

    @pytest.mark.parametrize("extra, golden", [
        ([], "lambda,ld,nonempty_cells\n"
             "1,0.2292207219032123,1\n"
             "2,0.7319562080552591,4\n"
             "5,1.9249784536089576,25\n"
             "10,2.3223815148614846,92\n"
             "20,1.5960267945436106,202\n"
             "50,1.142373878452121,451\n"
             "100,0.5196360212484759,720\n"
             "selected lambda = 10\n"),
        (["--feature-subset", "1", "--candidates", "1,3,7"],
         "lambda,ld,nonempty_cells\n"
         "1,0.16316272891445702,1\n"
         "3,0.23736105931185614,3\n"
         "7,0.27211714188297914,7\n"
         "selected lambda = 7\n"),
    ], ids=["default-candidates", "feature-subset"])
    def test_golden_stdout(self, tmp_path, capsys, extra, golden):
        data, report = tmp_path / "s.csv", tmp_path / "sweep.csv"
        run(["gen", "--variant", "synth-2d", "--seed", "0", "--out", data])
        capsys.readouterr()
        assert run(["ld-sweep", "--data", data, "--feature-cols", "x1,x2",
                    "--target-cols", "y", "--out", report, *extra]) == 0
        assert capsys.readouterr().out == golden
        assert report.read_text() == golden.rsplit("selected", 1)[0]

    def test_single_candidate_returns_it(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        run(["ld-sweep", "--data", data, "--feature-cols", "x1",
             "--target-cols", "y", "--candidates", "1"])
        assert "selected lambda = 1" in capsys.readouterr().out

    def test_degenerate_data_all_zero(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        data.write_text("x,y\n" + "0.5,1.0\n" * 10)
        run(["ld-sweep", "--data", data, "--feature-cols", "x",
             "--target-cols", "y", "--candidates", "2,5"])
        out = capsys.readouterr().out
        assert "selected lambda = 2" in out
        for line in out.splitlines()[1:3]:
            assert float(line.split(",")[1]) == 0.0

    def test_empty_feature_subset_names_it(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        assert run(["ld-sweep", "--data", data, "--feature-cols", "x1",
                    "--target-cols", "y", "--feature-subset", ","]) == 1
        assert capsys.readouterr().err == "error: --feature-subset must name at least one feature\n"

    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_candidates_name_the_flag(self, tmp_path, capsys, value):
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        capsys.readouterr()
        assert run(["ld-sweep", "--data", data, "--feature-cols", "x1",
                    "--target-cols", "y", "--candidates", value]) == 1
        assert capsys.readouterr() == ("", "error: --candidates must name at least one candidate\n")

    @pytest.mark.parametrize("flag,value,message", [
        ("--candidates", "2,2", "--candidates: 2 is listed twice"),
        ("--candidates", "2,x", "--candidates: 'x' is not an integer"),
        ("--feature-subset", "0,0", "--feature-subset: 0 is listed twice"),
        ("--feature-subset", "first", "--feature-subset: 'first' is not an integer"),
    ])
    def test_bad_int_list_names_its_flag(self, tmp_path, capsys, flag, value, message):
        # a repeated candidate would print its table row twice
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        capsys.readouterr()
        assert run(["ld-sweep", "--data", data, "--feature-cols", "x1",
                    "--target-cols", "y", flag, value]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestWeigh:
    def test_weight_table_format(self, tmp_path):
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        table = tmp_path / "w.csv"
        assert run(["weigh", "--data", data, "--feature-cols", "x1",
                    "--target-cols", "y", "--lambda", 2, "--out", table]) == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "index,mu,gamma,weight"
        assert len(lines) == 301
        idx, mu, gamma, weight = lines[1].split(",")
        assert float(weight) == pytest.approx(float(mu) / (1 + float(gamma)))

    @pytest.mark.parametrize("subset", ["", ","])
    @pytest.mark.parametrize("command", [
        ["ld-sweep", "--out", "out.csv"],
        ["weigh", "--lambda", 3, "--out", "out.csv"],
        ["train", "--weighted", "off", "--out-dir", "out"],  # fits no grid
    ], ids=["ld-sweep", "weigh", "train"])
    def test_empty_feature_subset_rejected_without_output(self, tmp_path, monkeypatch, capsys,
                                                          command, subset):
        # only an absent flag means all features; an empty one used to weigh on all of them
        monkeypatch.chdir(tmp_path)
        run(["gen", "--variant", "synth-2d", "--n", 50, "--out", "s.csv"])
        capsys.readouterr()
        assert run([command[0], "--data", "s.csv", "--feature-cols", "x1,x2", "--target-cols",
                    "y", "--feature-subset", subset, *command[1:]]) == 1
        assert capsys.readouterr() == ("", "error: --feature-subset must name at least one "
                                           "feature\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.manifest.txt"]

    @pytest.mark.parametrize("target, reason", [
        (",abc", "could not convert string to float: 'abc'"),
        ("", "list index out of range"),  # a short row
    ])
    def test_bad_target_row_skipped_with_warning(self, tmp_path, capsys, target, reason):
        # the whole row goes: keeping its features without the target would
        # leave features and targets with different row counts
        data = tmp_path / "s.csv"
        run(["gen", "--variant", "synth-2d", "--n", 50, "--out", data])
        lines = data.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + target  # line 3 of the file
        data.write_text("\n".join(lines) + "\n")
        columns = ["--data", data, "--feature-cols", "x1,x2", "--target-cols", "y"]
        table, out_dir = tmp_path / "w.csv", tmp_path / "run"
        capsys.readouterr()
        for argv in (["weigh", *columns, "--lambda", 2, "--out", table],
                     ["train", *columns, "--epochs", 1, "--out-dir", out_dir],
                     ["eval", *columns, "--model", out_dir / "model.txt"]):
            assert run(argv) == 0
            assert capsys.readouterr().err == f"warning: skipped line 3: {reason}\n"
        assert len(table.read_text().splitlines()) == 50  # header + 49 rows

    @pytest.mark.parametrize("floor", ["nan", "inf", "-0.5"])
    def test_bad_mu_floor_rejected_without_writing(self, tmp_path, capsys, floor):
        # np.maximum(mu, nan) is nan: a nan floor used to write nan weights
        data, table = tmp_path / "s.csv", tmp_path / "w.csv"
        run(["gen", "--out", data])
        capsys.readouterr()
        assert run(["weigh", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--lambda", 2, "--mu-floor", floor, "--out", table]) == 1
        assert capsys.readouterr().err == (
            f"error: mu_floor must be finite and >= 0, got {float(floor)}\n")
        assert not table.exists()

    def test_overflowing_cell_statistics_rejected_without_writing(self, tmp_path, capsys):
        # the squared deviations of raw features near 1e300 overflow; nan
        # weights used to be written (a RuntimeWarning, an error under
        # pytest, would show in the message instead)
        data, table = tmp_path / "big.csv", tmp_path / "w.csv"
        data.write_text("x,y\n1e300,0\n-1e300,1\n5e299,2\n0,3\n")
        assert run(["weigh", "--data", data, "--feature-cols", "x", "--target-cols", "y",
                    "--lambda", 1, "--out", table]) == 1
        assert capsys.readouterr().err == ("error: cell statistics overflowed float64: "
                                           "normalize the features and targets first\n")
        assert not table.exists()

    def test_overflowing_constant_cell_rejected_without_writing(self, tmp_path, capsys):
        # the cell of three equal 3e307 used to pass, and numpy warned of an
        # overflow when its weights were computed (an error under pytest,
        # which would show in the message instead)
        data, table = tmp_path / "big.csv", tmp_path / "w.csv"
        data.write_text("x,y\n0.1,3e307\n0.2,3e307\n0.3,3e307\n0.9,0\n")
        assert run(["weigh", "--data", data, "--feature-cols", "x", "--target-cols", "y",
                    "--lambda", 2, "--out", table]) == 1
        assert capsys.readouterr() == ("", "error: cell statistics overflowed float64: "
                                           "normalize the features and targets first\n")
        assert not table.exists()

    def test_unknown_column_names_file_and_header(self, tmp_path, capsys):
        data = tmp_path / "t.csv"
        data.write_text("x1,y\n0.1,0.2\n0.3,0.4\n")
        columns = ["--data", data, "--feature-cols", "x9", "--target-cols", "1"]
        assert run(["weigh", *columns, "--lambda", 2, "--out", tmp_path / "w.csv"]) == 1
        assert capsys.readouterr().err == f"error: {data}: column 'x9' not found in header x1,y\n"
        assert run(["weigh", *columns, "--no-header", "--lambda", 2,
                    "--out", tmp_path / "w.csv"]) == 1
        assert capsys.readouterr().err == f"error: {data}: column 'x9' not found\n"

    def test_no_usable_rows_names_first_rejection(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("x1,y\nabc,0.2\n0.3,def\n")
        assert run(["weigh", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--lambda", 2, "--out", tmp_path / "w.csv"]) == 1
        assert capsys.readouterr().err == (f"error: {data}: no usable rows "
                                           f"(2 rejected; line 2: could not convert string to float: 'abc')\n")

    def test_out_of_range_index_names_the_column(self, tmp_path, capsys):
        data = tmp_path / "three.csv"
        data.write_text("x1,x2,y\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
        assert run(["weigh", "--data", data, "--feature-cols", "x1,5", "--target-cols", "y",
                    "--lambda", 2, "--out", tmp_path / "w.csv"]) == 1
        assert capsys.readouterr().err == (f"error: {data}: column 5 out of range for "
                                           f"header x1,x2,y\n")
        assert not (tmp_path / "w.csv").exists()


class TestTrainCommand:
    def test_writes_outputs(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        out_dir = tmp_path / "run"
        code = run([
            "train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
            "--model", "polynomial", "--degree", 6, "--loss", "mse",
            "--lambda", 2, "--epochs", 5, "--lr", 0.1, "--out-dir", out_dir,
        ])
        assert code == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "model.txt").exists()
        assert (out_dir / "manifest.txt").exists()
        header = (out_dir / "results.csv").read_text().splitlines()[0]
        assert header == "dataset,model,loss,gamma_norm,lambda,seed,mape,mae"

    def test_failure_exits_nonzero_and_cleans_up(self, tmp_path):
        out_dir = tmp_path / "run"
        code = run([
            "train", "--data", tmp_path / "missing.csv", "--feature-cols", "x1",
            "--target-cols", "y", "--out-dir", out_dir,
        ])
        assert code == 1
        assert not (out_dir / "results.csv").exists()
        assert not (out_dir / "model.txt").exists()

    @pytest.mark.parametrize("command", [
        ["train", "--data", "missing.csv", "--feature-cols", "x1", "--target-cols", "y",
         "--loss", "huber", "--huber-delta", 0],
        ["repro", "--name", "synth-1d", "--seeds", "a"],
    ])
    def test_failed_run_creates_no_out_dir(self, tmp_path, capsys, command):
        out_dir = tmp_path / "new" / "run"
        assert run([*command, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "new").exists()

    def test_failed_run_removes_stale_outputs(self, tmp_path, capsys):
        data, out_dir = tmp_path / "s.csv", tmp_path / "run"
        run(["gen", "--out", data])
        columns = ["--data", data, "--feature-cols", "x1", "--target-cols", "y"]
        assert run(["train", *columns, "--epochs", 1, "--out-dir", out_dir]) == 0
        names = ("results.csv", "model.txt", "manifest.txt")
        assert all((out_dir / name).exists() for name in names)
        capsys.readouterr()
        assert run(["train", *columns, "--loss", "huber", "--huber-delta", 0,
                    "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == "error: delta must be positive\n"
        assert out_dir.is_dir()
        assert not any((out_dir / name).exists() for name in names)

    def test_overflowing_step_scale_rejected_without_outputs(self, tmp_path, capsys):
        # mse's gradient constant 2 times lr 1e308 is inf, and a sample of
        # weight 0 (synth-2d at lambda 10 has some) would step by 0 * inf
        data, out_dir = tmp_path / "s.csv", tmp_path / "run"
        run(["gen", "--variant", "synth-2d", "--n", 300, "--out", data])
        capsys.readouterr()
        assert run(["train", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "y",
                    "--lambda", 10, "--lr", "1e308", "--epochs", 1, "--out-dir", out_dir]) == 1
        assert capsys.readouterr() == ("", "error: learning rate 1e+308 times the mse loss's "
                                           "gradient constant 2 overflows float64\n")
        assert not (out_dir / "results.csv").exists()
        assert not (out_dir / "model.txt").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--lambda", 0], "lam must be a positive integer, got 0"),
        (["--feature-subset", 7], "feature_subset index 7 out of range for 2 features"),
        (["--mu-floor", -3], "mu_floor must be finite and >= 0, got -3.0"),
        (["--lambda", 0, "--feature-subset", 7, "--mu-floor", -3],
         "mu_floor must be finite and >= 0, got -3.0"),
    ])
    @pytest.mark.parametrize("weighted", ["off", "on"])
    def test_grid_flags_checked_whether_or_not_weighted(self, tmp_path, capsys, flags, message,
                                                        weighted):
        # an unweighted run fits the grid it does not use, so its manifest
        # records only grid flags that a weighted re-run of it accepts
        data, out_dir = tmp_path / "s.csv", tmp_path / "run"
        run(["gen", "--variant", "synth-2d", "--n", 300, "--out", data])
        capsys.readouterr()
        assert run(["train", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "y",
                    "--weighted", weighted, *flags, "--epochs", 1, "--out-dir", out_dir]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out_dir.exists()

    def test_unweighted_run_fits_its_grid_once(self, tmp_path, monkeypatch):
        data = tmp_path / "s.csv"
        run(["gen", "--variant", "synth-2d", "--n", 300, "--out", data])
        fits, fit = [], cli.fit_grid

        def counting(*args, **kwargs):
            fits.append(args[1:])
            return fit(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_grid", counting)
        assert run(["train", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "y",
                    "--weighted", "off", "--lambda", 5, "--epochs", 1,
                    "--out-dir", tmp_path / "run"]) == 0
        assert fits == [(5, None)]

    def test_non_finite_prediction_fails_without_outputs(self, tmp_path, capsys):
        # row 7 lands in seed 0's test split, and its degree-6 basis overflows
        data, out_dir = _huge_row_csv(tmp_path), tmp_path / "run"
        _, test_set = split(load_csv(data, ["x1", "x2"], ["y"])[0], 0.7, seed=0)
        i = test_set.features[:, 0].tolist().index(1e60)
        capsys.readouterr()
        assert run(["train", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "y",
                    "--model", "polynomial", "--degree", 6, "--epochs", 2, "--seed", 0,
                    "--out-dir", out_dir]) == 1
        assert capsys.readouterr() == ("", f"error: the prediction for row {i} of the 90 scored "
                                           f"rows is not finite; its raw features are "
                                           f"[1e+60, -1e+60]\n")
        assert not out_dir.exists()

    def test_one_row_csv_fails_without_results(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("x1,y\n0.5,1.0\n")
        out_dir = tmp_path / "run"
        code = run([
            "train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
            "--epochs", 1, "--out-dir", out_dir,
        ])
        assert code == 1
        assert "n=1" in capsys.readouterr().err
        assert not (out_dir / "results.csv").exists()

    def test_linear_bce_rejected_without_outputs(self, tmp_path, capsys):
        data = tmp_path / "bin.csv"
        data.write_text("x1,y\n" + "".join(f"{i / 10},{i % 2}.0\n" for i in range(10)))
        out_dir = tmp_path / "run"
        code = run([
            "train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
            "--model", "linear", "--loss", "bce", "--epochs", 1, "--out-dir", out_dir,
        ])
        assert code == 1
        assert "a linear model cannot train with the bce loss" in capsys.readouterr().err
        for name in ("results.csv", "model.txt", "manifest.txt"):
            assert not (out_dir / name).exists()

    def test_non_binary_labels_rejected_naming_the_row(self, tmp_path, capsys):
        # min-max scaling maps labels {0, 2} onto {0, 1}; train used to fit
        # those and score the model against the raw 2s. The raw rows are
        # checked before the split, so the error names row 11 of the CSV's
        # rows, the first 2, and not a row of either split
        data, out_dir = tmp_path / "b.csv", tmp_path / "run"
        labels = [0] * 10 + [2 * (i % 2) for i in range(10, 20)]
        data.write_text("x1,y\n" + "".join(f"{i / 10},{y}.0\n" for i, y in enumerate(labels)))
        assert run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--model", "logistic", "--loss", "bce", "--epochs", 1,
                    "--out-dir", out_dir]) == 1
        assert capsys.readouterr() == ("", "error: logistic models require targets in {0, 1}; "
                                           "row 11 has 2.0\n")
        assert not out_dir.exists()

    def test_one_class_training_split_trains(self, tmp_path, capsys):
        # the seed-0 training split of these 30 rows has no positive: its
        # labels, which are not min-max scaled, train as they are
        data, out_dir = tmp_path / "b.csv", tmp_path / "run"
        dataset = generate_binary_clusters(BinarySynthSpec(n=30, seed=1))
        train_set, _ = split(dataset, 0.7, 0)
        assert dataset.targets.max() == 1.0 and train_set.targets.max() == 0.0
        save_csv(dataset, data)
        assert run(["train", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "y",
                    "--model", "logistic", "--loss", "bce", "--batch-size", 5, "--epochs", 2,
                    "--out-dir", out_dir]) == 0
        [row] = (out_dir / "results.csv").read_text().splitlines()[1:]
        assert row.startswith("b,logistic,viloss_bce,l2,2,0,")
        assert capsys.readouterr().out == row + "\n"
        assert run(["eval", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "y",
                    "--model", out_dir / "model.txt"]) == 0

    @pytest.mark.parametrize("model,loss", [("linear", "bce"), ("logistic", "mse")])
    def test_pairing_checked_before_data_read(self, tmp_path, capsys, model, loss):
        missing = tmp_path / "missing.csv"
        assert run(["train", "--data", missing, "--feature-cols", "x1", "--target-cols", "y",
                    "--model", model, "--loss", loss, "--out-dir", tmp_path / "run"]) == 1
        err = capsys.readouterr().err
        assert f"a {model} model cannot train with the {loss} loss" in err
        assert "missing.csv" not in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--epochs", 0, "epochs must be >= 1"),
        ("--batch-size", -1, "batch_size must be >= 1"),
        ("--lr", 0, "learning_rate must be finite and positive"),
    ])
    def test_config_that_trains_nothing_rejected(self, tmp_path, capsys, flag, value, message):
        missing = tmp_path / "missing.csv"  # checked before the data are read
        out_dir = tmp_path / "run"
        assert run(["train", "--data", missing, "--feature-cols", "x1", "--target-cols", "y",
                    flag, value, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out_dir / "results.csv").exists()

    def test_nan_target_row_skipped_with_warning(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        lines = data.read_text().splitlines()
        lines[40] = lines[40].rsplit(",", 1)[0] + ",nan"  # line 41 of the file
        data.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "run"
        code = run([
            "train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
            "--epochs", 3, "--lr", 0.1, "--out-dir", out_dir,
        ])
        assert code == 0
        assert "skipped line 41" in capsys.readouterr().err
        row = (out_dir / "results.csv").read_text().splitlines()[1]
        assert np.isfinite([float(v) for v in row.split(",")[6:]]).all()

    def test_config_file_overrides_flags(self, tmp_path):
        # an @file's flags come after the ones typed before it, so they win
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        cfg = tmp_path / "run.args"
        cfg.write_text("epochs=3\nlr=0.05\nlambda=5\n")
        out_dir = tmp_path / "run"
        code = run([
            "train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
            "--epochs", 50, "--out-dir", out_dir, f"@{cfg}",
        ])
        assert code == 0
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
        assert {"epochs=3", "lr=0.05", "lambda=5"} <= set(manifest)

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        cfg = tmp_path / "run.args"
        cfg.write_text("bogus=1\n")
        with pytest.raises(SystemExit):
            run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                 "--out-dir", tmp_path / "run", f"@{cfg}"])
        assert "unrecognized arguments: --bogus=1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_degree_of_a_linear_model_rejected(self, tmp_path, capsys):
        # the degree would be recorded in manifest.txt and model.txt but never used
        data, out_dir = tmp_path / "s.csv", tmp_path / "run"
        run(["gen", "--out", data])
        assert run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--model", "linear", "--degree", 6, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == "error: a linear model has degree 1, got 6\n"
        assert not out_dir.exists()

    def test_polynomial_degree_below_one_rejected(self, tmp_path, capsys):
        data, out_dir = tmp_path / "s.csv", tmp_path / "run"
        run(["gen", "--out", data])
        assert run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--model", "polynomial", "--degree", 0, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == "error: degree must be >= 1\n"
        assert not out_dir.exists()

    def test_defaults_are_the_spec_defaults(self, tmp_path, monkeypatch):
        calls, cli_train = [], cli.train

        def recording(model_spec, dataset, runs, config):
            calls.append((model_spec, [spec for spec, _ in runs], config))
            return cli_train(model_spec, dataset, runs, TrainConfig(epochs=1))

        monkeypatch.setattr(cli, "train", recording)
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        assert run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--out-dir", tmp_path / "run"]) == 0
        assert calls == [(ModelSpec(), [LossSpec()], TrainConfig())]

    def test_underflowing_cell_spread_rejected_without_output(self, tmp_path, capsys):
        # three rows at 0 and three at 5e-162 share the first of 20 cells and
        # every other row has one to itself: the mean cell spread squares to 0
        data, out_dir = tmp_path / "s.csv", tmp_path / "run"
        xs = ["0"] * 3 + ["5e-162"] * 3 + [repr(v) for v in np.linspace(0.1, 1.0, 14).tolist()]
        data.write_text("x,y\n" + "".join(f"{x},{i}\n" for i, x in enumerate(xs)))
        assert run(["train", "--data", data, "--feature-cols", "x", "--target-cols", "y",
                    "--lambda", 20, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == ("error: the cells' feature spreads are too small "
                                           "to square in float64\n")
        assert not out_dir.exists()

    def test_batch_size_above_training_rows_names_both(self, tmp_path, capsys):
        # 60 rows split 70/30 leave 42 to train on
        data, out_dir = tmp_path / "s.csv", tmp_path / "run"
        run(["gen", "--n", 60, "--out", data])
        assert run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--batch-size", 50, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == "error: batch_size 50 exceeds the 42 training rows\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("weighting,columns", [
        (["--weighted", "off"], ["mse", "none", "none"]),
        (["--gamma-norm", "l1"], ["viloss_mse", "l1", "2"]),
    ])
    def test_weighting_columns(self, tmp_path, weighting, columns):
        # the loss, gamma_norm and lambda columns name the weights the run trained with
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        out_dir = tmp_path / "run"
        assert run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--epochs", 1, "--out-dir", out_dir, *weighting]) == 0
        row = (out_dir / "results.csv").read_text().splitlines()[1]
        assert row.split(",")[2:5] == columns

    def test_test_rows_do_not_change_the_model(self, tmp_path):
        # normalization and grid are fitted on the training rows only: moving
        # every test-split row's feature by 100 leaves model.txt unchanged
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        lines = data.read_text().splitlines()
        n = len(lines) - 1
        _, test_rows = split(Dataset(np.arange(n)[:, None], np.zeros(n)), 0.7, seed=0)
        for i in test_rows.features[:, 0].astype(int):
            x, y = lines[i + 1].split(",")
            lines[i + 1] = f"{float(x) + 100.0!r},{y}"
        shifted = tmp_path / "shifted.csv"
        shifted.write_text("\n".join(lines) + "\n")
        saved = []
        for path in (data, shifted):
            out_dir = tmp_path / path.stem
            assert run(["train", "--data", path, "--feature-cols", "x1", "--target-cols", "y",
                        "--epochs", 3, "--lr", 0.1, "--out-dir", out_dir]) == 0
            saved.append((out_dir / "model.txt").read_bytes())
        assert b"feature_max=" in saved[0]
        assert saved[0] == saved[1]


class TestEval:
    def test_eval_saved_model(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        out_dir = tmp_path / "run"
        run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
             "--epochs", 3, "--lr", 0.1, "--out-dir", out_dir])
        capsys.readouterr()
        code = run(["eval", "--data", data, "--feature-cols", "x1",
                    "--target-cols", "y", "--model", out_dir / "model.txt"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("mape,mae")

    @staticmethod
    def _train_then_eval_test_split(tmp_path, capsys, data, features, *train_flags):
        """The metric columns of ``train``'s results row on ``data`` (seed 0)
        and the lines ``eval`` of its model prints on the same test split."""
        out_dir = tmp_path / "run"
        columns = ["--feature-cols", ",".join(features), "--target-cols", "y"]
        assert run(["train", "--data", data, *columns, *train_flags, "--out-dir", out_dir]) == 0
        row = (out_dir / "results.csv").read_text().splitlines()[1]
        _, test_set = split(load_csv(data, features, ["y"])[0], 0.7, seed=0)
        test_csv = tmp_path / "test.csv"
        save_csv(test_set, test_csv)
        capsys.readouterr()
        assert run(["eval", "--data", test_csv, *columns, "--model", out_dir / "model.txt"]) == 0
        return row.split(",")[6:], capsys.readouterr().out.splitlines()

    def test_eval_on_test_split_reproduces_train_metrics(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        metrics, out = self._train_then_eval_test_split(
            tmp_path, capsys, data, ["x1"], "--model", "polynomial", "--degree", 6,
            "--lambda", 2, "--epochs", 20, "--lr", 0.1)
        assert out == ["mape,mae", ",".join(metrics)]

    def test_eval_logistic_on_test_split_reproduces_train_metrics(self, tmp_path, capsys):
        data = tmp_path / "b.csv"
        save_csv(generate_binary_clusters(BinarySynthSpec(n=1000)), data)
        metrics, out = self._train_then_eval_test_split(
            tmp_path, capsys, data, ["x1", "x2"], "--model", "logistic", "--loss", "bce",
            "--lambda", 5, "--batch-size", 5, "--epochs", 50, "--lr", 0.5)
        assert float(metrics[-1]) > 0  # some positives found: precision and recall are not 0
        assert out == ["acc,prec,rec,f1", ",".join(metrics[2:])]

    def test_feature_count_mismatch_names_model(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run(["gen", "--variant", "synth-2d", "--n", 50, "--out", data])
        out_dir = tmp_path / "run"
        run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
             "--epochs", 1, "--out-dir", out_dir])
        capsys.readouterr()
        assert run(["eval", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "y",
                    "--model", out_dir / "model.txt"]) == 1
        assert f"{out_dir / 'model.txt'} was trained on 1 features" in capsys.readouterr().err

    def test_target_count_mismatch_names_model(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run(["gen", "--variant", "synth-2d", "--n", 50, "--out", data])
        out_dir = tmp_path / "run"
        run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
             "--epochs", 1, "--out-dir", out_dir])
        capsys.readouterr()
        assert run(["eval", "--data", data, "--feature-cols", "x1", "--target-cols", "y,x2",
                    "--model", out_dir / "model.txt"]) == 1
        out, err = capsys.readouterr()
        assert out == ""  # checked before the metrics header is printed
        assert (f"{out_dir / 'model.txt'} was trained on 1 target columns, "
                f"--target-cols selects 2") in err

    def test_logistic_model_rejects_non_binary_targets(self, tmp_path, capsys):
        # train rejects such targets; eval used to score them and exit 0
        data = tmp_path / "b.csv"
        save_csv(generate_binary_clusters(BinarySynthSpec(n=100)), data)
        out_dir = tmp_path / "run"
        assert run(["train", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "y",
                    "--model", "logistic", "--loss", "bce", "--epochs", 1,
                    "--out-dir", out_dir]) == 0
        capsys.readouterr()
        assert run(["eval", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "x1",
                    "--model", out_dir / "model.txt"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "logistic models require targets in {0, 1}" in err

    def test_non_finite_prediction_names_the_row(self, tmp_path, capsys):
        # eval used to print a numpy warning and non-finite metrics, and exit 0
        data, out_dir = _huge_row_csv(tmp_path), tmp_path / "run"
        clean = tmp_path / "clean.csv"
        run(["gen", "--variant", "synth-2d", "--n", 300, "--seed", 1, "--out", clean])
        assert run(["train", "--data", clean, "--feature-cols", "x1,x2", "--target-cols", "y",
                    "--model", "polynomial", "--degree", 6, "--epochs", 2,
                    "--out-dir", out_dir]) == 0
        capsys.readouterr()
        assert run(["eval", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "y",
                    "--model", out_dir / "model.txt"]) == 1
        assert capsys.readouterr() == ("", "error: the prediction for row 7 of the 300 scored "
                                           "rows is not finite; its raw features are "
                                           "[1e+60, -1e+60]\n")

    def test_corrupt_spec_line_fails_at_once(self, tmp_path, capsys):
        # a polynomial,40,10,1 spec line once made eval enumerate about 1e10
        # monomials, its memory growing, before the parameter count was compared
        data, model = tmp_path / "s.csv", tmp_path / "model.txt"
        run(["gen", "--n", 20, "--out", data])
        zeros, ones = ",".join(["0.0"] * 10), ",".join(["1.0"] * 10)
        model.write_text(f"viloss_model_version=1\npolynomial,40,10,1\nfeature_min={zeros}\n"
                         f"feature_max={ones}\ntarget_min=0.0\ntarget_max=1.0\n"
                         "0.5\n0.25\n0.0\n1.0\n")
        capsys.readouterr()
        assert run(["eval", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--model", model]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {model}: expected {math.comb(50, 10) + 1} parameters, found 4\n"

    def test_feature_subset_rejected(self, tmp_path, capsys):
        # eval weighs nothing, so a weighting flag would be silently ignored
        with pytest.raises(SystemExit):
            run(["eval", "--data", tmp_path / "s.csv", "--feature-cols", "x1",
                 "--target-cols", "y", "--model", tmp_path / "model.txt",
                 "--feature-subset", 0])
        assert "unrecognized arguments: --feature-subset 0" in capsys.readouterr().err


class TestRepro:
    def test_unweighted_baseline_always_present(self, tmp_path):
        out_dir = tmp_path / "r"
        assert run(["repro", "--name", "synth-1d", "--seeds", "0",
                    "--epochs", 2, "--out-dir", out_dir]) == 0
        rows = (out_dir / "results.csv").read_text().splitlines()
        losses = [r.split(",")[2] for r in rows[1:]]
        assert "mse" in losses
        assert "viloss_mse" in losses
        assert "huber" in losses and "lqr" in losses

    def test_row_structure(self, tmp_path):
        out_dir = tmp_path / "r"
        run(["repro", "--name", "synth-1d", "--seeds", "0,1",
             "--epochs", 2, "--out-dir", out_dir])
        rows = (out_dir / "results.csv").read_text().splitlines()
        # 2 seeds x 3 base losses x (unweighted + L1 + L2)
        assert len(rows) == 1 + 2 * 3 * 3

    def test_weighted_and_unweighted_differ_only_by_weighting(self, tmp_path):
        out_dir = tmp_path / "r"
        run(["repro", "--name", "synth-1d", "--seeds", "3",
             "--epochs", 4, "--out-dir", out_dir])
        rows = (out_dir / "results.csv").read_text().splitlines()[1:]
        by_loss = {r.split(",")[2] + "/" + r.split(",")[3]: r for r in rows}
        assert by_loss["mse/none"] != by_loss["viloss_mse/l2"]

    def test_logistic_repro_schema(self, tmp_path):
        out_dir = tmp_path / "r"
        run(["repro", "--name", "logistic-synth", "--seeds", "0",
             "--epochs", 2, "--out-dir", out_dir])
        header = (out_dir / "results.csv").read_text().splitlines()[0]
        assert header.endswith("acc,prec,rec,f1")

    def test_divergence_names_run_and_location(self, tmp_path, capsys):
        # data seed 11 is known to diverge: the unweighted quartic run goes
        # non-finite in epoch 10, in the batch that starts at row 111
        out_dir = tmp_path / "r"
        code = run(["repro", "--name", "synth-1d", "--seeds", 11,
                    "--epochs", 20, "--out-dir", out_dir])
        assert code == 1
        err = capsys.readouterr().err
        assert "run 6 (lqr): non-finite loss at epoch 10, batch starting at 111" in err
        assert not (out_dir / "results.csv").exists()

    def test_divergence_names_the_seed(self, tmp_path, capsys):
        # seed 0 trains; the error names seed 11, the one that diverged
        out_dir = tmp_path / "r"
        code = run(["repro", "--name", "synth-1d", "--seeds", "0,11",
                    "--epochs", 20, "--out-dir", out_dir])
        assert code == 1
        assert capsys.readouterr().err == ("error: seed 11: run 6 (lqr): non-finite loss "
                                           "at epoch 10, batch starting at 111\n")
        assert not (out_dir / "results.csv").exists()

    @pytest.mark.parametrize("seeds", ["", ","])
    def test_empty_seed_list_rejected(self, tmp_path, capsys, seeds):
        out_dir = tmp_path / "r"
        assert run(["repro", "--name", "synth-1d", "--seeds", seeds, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == "error: --seeds must name at least one seed\n"
        assert not (out_dir / "results.csv").exists()

    @pytest.mark.parametrize("seeds,message", [
        ("a", "--seeds: 'a' is not an integer"),
        ("0,1.5", "--seeds: '1.5' is not an integer"),
        ("0,0", "--seeds: 0 is listed twice"),
        ("3,1,3", "--seeds: 3 is listed twice"),
    ])
    def test_bad_seed_list_rejected(self, tmp_path, capsys, seeds, message):
        # a repeated seed would write every one of its rows twice
        out_dir = tmp_path / "r"
        assert run(["repro", "--name", "synth-1d", "--seeds", seeds, "--epochs", 1,
                    "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out_dir / "results.csv").exists()

    def test_epochs_zero_rejected(self, tmp_path, capsys):
        # 0 is not "no override": it would train nothing
        assert run(["repro", "--name", "synth-1d", "--seeds", "0", "--epochs", 0,
                    "--out-dir", tmp_path / "r"]) == 1
        assert capsys.readouterr().err == "error: epochs must be >= 1\n"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            run(["repro", "--name", "synth-1d", "--seeds", "0",
                 "--epochs", 2, "--out-dir", d])
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


class TestConfigFile:
    """An @file argument stands for its lines, each one flag without its
    dashes, so argparse converts, checks and rejects them as typed flags."""

    def _train(self, tmp_path, lines, *after):
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        cfg = tmp_path / "run.args"
        cfg.write_text(lines)
        out_dir = tmp_path / "run"
        code = run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--epochs", 1, "--out-dir", out_dir, f"@{cfg}", *after])
        return code, out_dir

    def _rejected(self, tmp_path, capsys, lines):
        """stderr of a train whose @file argparse rejects, which writes nothing."""
        with pytest.raises(SystemExit):
            self._train(tmp_path, lines)
        assert not (tmp_path / "run").exists()
        return capsys.readouterr().err

    def test_repro_epochs_with_no_default(self, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("epochs=2\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["repro", "--name", "synth-1d", "--seeds", "0", "--out-dir", a,
                    f"@{cfg}"]) == 0
        assert run(["repro", "--name", "synth-1d", "--seeds", "0", "--epochs", 2,
                    "--out-dir", b]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_gen_n_with_no_default(self, tmp_path):
        cfg, out = tmp_path / "gen.args", tmp_path / "s.csv"
        cfg.write_text("n=50\n")
        assert run(["gen", "--out", out, f"@{cfg}"]) == 0
        assert out.read_text().count("\n") == 51

    def test_required_flags_from_file(self, tmp_path):
        # the file alone gives --data, --feature-cols and --target-cols
        data = tmp_path / "s.csv"
        run(["gen", "--out", data])
        cfg = tmp_path / "run.args"
        cfg.write_text(f"data={data}\nfeature-cols=x1\ntarget-cols=y\n"
                       "epochs=2\nlr=0.05\nlambda=5\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["train", f"@{cfg}", "--out-dir", a]) == 0
        assert run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--epochs", 2, "--lr", 0.05, "--lambda", 5, "--out-dir", b]) == 0
        for name in ("results.csv", "model.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()

    def test_flag_after_file_wins(self, tmp_path):
        code, out_dir = self._train(tmp_path, "epochs=3\nlr=0.05\n", "--epochs", 2)
        assert code == 0
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
        assert {"epochs=2", "lr=0.05"} <= set(manifest)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        code, out_dir = self._train(
            tmp_path, "# a short run\n\n  epochs = 2   # two passes\n   \nlr = 0.05\n")
        assert code == 0
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
        assert {"epochs=2", "lr=0.05"} <= set(manifest)

    def test_choice_outside_choices_rejected(self, tmp_path, capsys):
        # weighted=yes once trained unweighted without a word
        err = self._rejected(tmp_path, capsys, "# weighting\nweighted=yes\n")
        assert "argument --weighted: invalid choice: 'yes'" in err

    def test_unknown_model_names_flag_and_value(self, tmp_path, capsys):
        err = self._rejected(tmp_path, capsys, "model=bogus\n")
        assert "argument --model: invalid choice: 'bogus'" in err

    def test_bad_number_names_flag_and_value(self, tmp_path, capsys):
        err = self._rejected(tmp_path, capsys, "epochs=2\nlr=fast\n")
        assert "argument --lr: invalid float value: 'fast'" in err

    def test_bare_switch_line(self, tmp_path):
        code, out_dir = self._train(tmp_path, "no-shuffle\n")
        assert code == 0
        assert "no-shuffle" in (out_dir / "manifest.txt").read_text().splitlines()

    def test_store_true_rejects_other_words(self, tmp_path, capsys):
        err = self._rejected(tmp_path, capsys, "no-shuffle=maybe\n")
        assert "argument --no-shuffle: ignored explicit argument 'maybe'" in err


class TestManifest:
    """A run's manifest is an @file of its flags, all but the output path:
    ``viloss <cmd> @<manifest> --out...`` parses to the same flags and writes
    byte-identical outputs and manifest."""

    def _rerun(self, argv, out_flag, first, second) -> list[str]:
        """Run ``argv`` into ``first``, then again from its manifest into
        ``second``; returns the manifest's lines."""
        if out_flag == "--out":
            manifest = first.with_suffix(".manifest.txt")
        else:
            manifest = first / "manifest.txt"
        original = [str(w) for w in [*argv, out_flag, first]]
        rerun = [argv[0], f"@{manifest}", out_flag, str(second)]
        assert run(original) == 0
        assert run(rerun) == 0
        parser = cli.build_parser()
        a, b = vars(parser.parse_args(original)), vars(parser.parse_args(rerun))
        dest = out_flag[2:].replace("-", "_")
        assert (a.pop(dest), b.pop(dest)) == (str(first), str(second))
        assert a == b
        lines = manifest.read_text().splitlines()
        assert lines[0] == f"# viloss {__version__} {argv[0]}"
        assert not any(line.startswith(("out", "grid_lambda", "command")) or line.endswith("=None")
                       for line in lines)
        return lines

    @staticmethod
    def _same_files(a, b, names):
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_gen(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        lines = self._rerun(["gen", "--variant", "synth-2d", "--n", 40, "--noise-sigma", 0.1],
                            "--out", a, b)
        assert a.read_bytes() == b.read_bytes()
        manifests = [path.with_suffix(".manifest.txt") for path in (a, b)]
        assert manifests[0].read_bytes() == manifests[1].read_bytes()
        assert {"variant=synth-2d", "n=40", "noise-sigma=0.1", "seed=0"} <= set(lines)

    def test_train(self, tmp_path):
        data = tmp_path / "s.csv"
        run(["gen", "--variant", "synth-2d", "--n", 60, "--out", data])
        a, b = tmp_path / "a", tmp_path / "b"
        lines = self._rerun(
            ["train", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "y",
             "--model", "polynomial", "--degree", 2, "--loss", "huber", "--huber-delta", 0.5,
             "--feature-subset", 1, "--lambda", 3, "--mu-floor", 0.25, "--lr", 0.05,
             "--epochs", 2, "--no-shuffle"],
            "--out-dir", a, b)
        self._same_files(a, b, ["results.csv", "model.txt", "manifest.txt"])
        assert {"feature-subset=1", "lambda=3", "huber-delta=0.5", "mu-floor=0.25",
                "no-shuffle"} <= set(lines)

    def test_unset_switch_and_subset_left_out(self, tmp_path):
        data, out_dir = tmp_path / "s.csv", tmp_path / "run"
        run(["gen", "--n", 40, "--out", data])
        assert run(["train", "--data", data, "--feature-cols", "x1", "--target-cols", "y",
                    "--epochs", 1, "--out-dir", out_dir]) == 0
        lines = (out_dir / "manifest.txt").read_text().splitlines()
        keys = [line.partition("=")[0] for line in lines]
        assert "no-shuffle" not in keys and "feature-subset" not in keys
        assert {"mu-floor", "seed"} <= set(keys)  # zeros are values, not unset flags

    @pytest.mark.parametrize("argv", [
        ["--name", "synth-1d", "--seeds", "0,1", "--epochs", 1],
        ["--name", "synth-2d", "--seeds", "3"],  # no --epochs: the experiment's default
    ])
    def test_repro(self, tmp_path, argv):
        a, b = tmp_path / "a", tmp_path / "b"
        lines = self._rerun(["repro", *argv], "--out-dir", a, b)
        self._same_files(a, b, ["results.csv", "manifest.txt"])
        assert ("--epochs" in argv) == any(line.startswith("epochs=") for line in lines)

    def test_calls_in_one_process_leak_nothing(self, tmp_path):
        # main parses with one argument tree per process: a switch or a
        # command of one call must not reach the next, whose outputs are
        # what a fresh process writes
        data = tmp_path / "s.csv"
        run(["gen", "--variant", "synth-2d", "--n", 60, "--out", data])
        train = ["train", "--data", data, "--feature-cols", "x1,x2", "--target-cols", "y",
                 "--model", "polynomial", "--degree", 2, "--epochs", 2]
        assert run([*train, "--no-shuffle", "--out-dir", tmp_path / "unshuffled"]) == 0
        assert run([*train, "--out-dir", tmp_path / "after-train"]) == 0
        assert run(["repro", "--name", "synth-1d", "--seeds", 0, "--epochs", 1,
                    "--out-dir", tmp_path / "repro"]) == 0
        assert run([*train, "--out-dir", tmp_path / "after-repro"]) == 0
        fresh = tmp_path / "fresh"
        code = "import sys; from viloss.cli import main; sys.exit(main(sys.argv[1:]))"
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        subprocess.run([sys.executable, "-c", code, *map(str, train), "--out-dir", str(fresh)],
                       env=dict(os.environ, PYTHONPATH=path), check=True, capture_output=True)
        assert "no-shuffle" in (tmp_path / "unshuffled" / "manifest.txt").read_text().split()
        for name in ("after-train", "after-repro"):
            self._same_files(tmp_path / name, fresh, ["results.csv", "model.txt", "manifest.txt"])

    @pytest.mark.parametrize("value", ["runs#1.csv", " s.csv", "a\nb.csv"])
    def test_value_a_line_cannot_hold_rejected_before_the_run(self, tmp_path, capsys, value):
        # a flag recorded as typed; --data is recorded as its absolute path
        out_dir = tmp_path / "run"
        assert run(["train", "--data", "s.csv", "--feature-cols", value, "--target-cols", "y",
                    "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == (
            f"error: --feature-cols {value!r} cannot be written as a manifest line\n")
        assert not out_dir.exists()

    def test_train_reruns_from_another_directory(self, tmp_path, monkeypatch):
        # a relative --data is recorded resolved, so the manifest re-runs
        # from the parent directory of the one the run started in
        (tmp_path / "m").mkdir()
        monkeypatch.chdir(tmp_path / "m")
        run(["gen", "--variant", "synth-2d", "--n", 60, "--out", "s.csv"])
        assert run(["train", "--data", "s.csv", "--feature-cols", "x1,x2", "--target-cols", "y",
                    "--model", "polynomial", "--degree", 2, "--epochs", 2,
                    "--out-dir", "run"]) == 0
        monkeypatch.chdir(tmp_path)
        assert run(["train", "@m/run/manifest.txt", "--out-dir", "x"]) == 0
        first, second = tmp_path / "m" / "run", tmp_path / "x"
        self._same_files(first, second, ["results.csv", "model.txt", "manifest.txt"])
        lines = (second / "manifest.txt").read_text().splitlines()
        assert f"data={(tmp_path / 'm' / 's.csv').resolve()}" in lines
        assert (second / "results.csv").read_text().splitlines()[1].startswith("s,poly-2,")
