"""Outputs do not depend on how many threads BLAS runs. The SGD step's
gradient is one BLAS matmul, so a ``train`` at batch 500 on a degree-6
basis, a shape OpenBLAS splits across threads, and a short ``repro`` write
the same bytes under 1 and under 2 BLAS threads. Each run is a fresh
process, since BLAS reads its thread count when it loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from viloss.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def _outputs(argv, out_dir, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from viloss.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *argv, "--out-dir", str(out_dir)],
                   env=env, check=True, capture_output=True)
    return {path.name: path.read_bytes() for path in out_dir.glob("*")
            if path.name in ("results.csv", "model.txt")}


@pytest.mark.parametrize("command", ["train", "repro"])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, command):
    if command == "train":
        data = tmp_path / "synth2d.csv"
        assert main(["gen", "--variant", "synth-2d", "--n", "1500", "--seed", "0",
                     "--out", str(data)]) == 0
        argv = ["train", "--data", str(data), "--feature-cols", "x1,x2", "--target-cols", "y",
                "--model", "polynomial", "--degree", "6", "--lambda", "10", "--epochs", "3",
                "--lr", "0.1", "--batch-size", "500"]
        names = ["model.txt", "results.csv"]
    else:
        argv, names = ["repro", "--name", "synth-2d", "--epochs", "2"], ["results.csv"]
    one, two = (_outputs(argv, tmp_path / f"threads-{t}", t) for t in (1, 2))
    assert sorted(one) == names
    assert one == two
