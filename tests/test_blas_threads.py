"""Outputs do not depend on how many threads BLAS runs. The SGD step is
two BLAS dots over the (batch, runs * outputs) stack, so a ``train`` at
batch 500 on a degree-6 basis, a shape OpenBLAS splits across threads,
with one output and with two, a logistic ``train`` at batch 500 on its
halved basis, the one-output degree-6 and the logistic ``train`` again
with ``--weighted off``, which fits a grid it does not use, and a short
``repro`` of synth-1d (batch 1, with the huber and lqr ops), of synth-2d
and of the logistic experiment write the same bytes under 1 and under 2
BLAS threads. So does a two-output degree-6 ``train`` whose test split,
which it scores block by block of basis rows with one matrix product
each, spans two and a half blocks. Each run is a fresh process, since
BLAS reads its thread count when it loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from viloss import models, save_csv
from viloss.cli import main
from viloss.data import BinarySynthSpec, generate_binary_clusters

SRC = Path(__file__).resolve().parents[1] / "src"


def _outputs(argv, out_dir, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from viloss.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *argv, "--out-dir", str(out_dir)],
                   env=env, check=True, capture_output=True)
    return {path.name: path.read_bytes() for path in out_dir.glob("*")
            if path.name in ("results.csv", "model.txt")}


_CASES = {
    # poly-6 on two features at batch 500
    "train": (["--feature-cols", "x1,x2", "--target-cols", "y", "--model", "polynomial",
               "--degree", "6"], ["model.txt", "results.csv"]),
    # two outputs, so each run owns two columns of the stack
    "train-two-targets": (["--feature-cols", "x1", "--target-cols", "y,x2", "--model",
                           "polynomial", "--degree", "6"], ["model.txt", "results.csv"]),
    # two outputs of a 28-column basis, scored on 2.5 blocks of rows
    "train-scored-in-blocks": (["--feature-cols", "x1,x2", "--target-cols", "y,x2", "--model",
                                "polynomial", "--degree", "6"], ["model.txt", "results.csv"]),
    # binary targets
    "train-logistic": (["--feature-cols", "x1,x2", "--target-cols", "y", "--model", "logistic",
                        "--loss", "bce"], ["model.txt", "results.csv"]),
    # "train" and "train-logistic" without weights
    "train-unweighted": (["--feature-cols", "x1,x2", "--target-cols", "y", "--model",
                          "polynomial", "--degree", "6", "--weighted", "off"],
                         ["model.txt", "results.csv"]),
    "train-logistic-unweighted": (["--feature-cols", "x1,x2", "--target-cols", "y", "--model",
                                   "logistic", "--loss", "bce", "--weighted", "off"],
                                  ["model.txt", "results.csv"]),
    "repro": (["repro", "--name", "synth-2d", "--epochs", "2"], ["results.csv"]),
    "repro-batch-1": (["repro", "--name", "synth-1d", "--epochs", "2"], ["results.csv"]),
    "repro-logistic": (["repro", "--name", "logistic-synth", "--epochs", "2"], ["results.csv"]),
}


@pytest.mark.parametrize("command", list(_CASES))
def test_outputs_do_not_depend_on_blas_threads(tmp_path, command):
    argv, names = _CASES[command]
    if command.startswith("train-logistic"):
        data = tmp_path / "binary.csv"
        save_csv(generate_binary_clusters(BinarySynthSpec(n=1500, seed=0)), data)
    elif command.startswith("train"):
        # the 30% test split of n rows holds 2.5 blocks of a 28-column basis
        n = round(2.5 * models._block_rows(28) / 0.3) if command.endswith("blocks") else 1500
        data = tmp_path / "synth2d.csv"
        assert main(["gen", "--variant", "synth-2d", "--n", str(n), "--seed", "0",
                     "--out", str(data)]) == 0
    if command.startswith("train"):
        argv = ["train", "--data", str(data), *argv, "--lambda", "10", "--epochs", "3",
                "--lr", "0.1", "--batch-size", "500"]
    one, two = (_outputs(argv, tmp_path / f"threads-{t}", t) for t in (1, 2))
    assert sorted(one) == names
    assert one == two
