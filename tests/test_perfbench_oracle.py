"""The benchmark's independent grid oracle against the grid viloss runs:
the localized-deviation table of the lambda sweep and the l1/l2 weights of a
normalized synth-2d training split, on both ways ``_assign_cells`` ranks
cell keys (a dense table when ``lam ** d <= n``, else ``np.unique``). Also
the benchmark's recorded ``repro`` and batch-500 ``train`` results, so
numeric drift in training fails the suite and not only a benchmark run."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from viloss import (
    SynthSpec,
    compute_weights,
    fit_grid,
    generate_synth,
    normalize_minmax,
    select_lambda,
    split,
)
from viloss.cli import LAMBDA_CANDIDATES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RTOL = 1e-9


@pytest.fixture
def oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    return importlib.import_module("perfbench.workloads")


@pytest.fixture(scope="module")
def norm():
    train_set, _ = split(generate_synth(SynthSpec("synth-2d", n=1000, seed=0)), 0.7, seed=0)
    return normalize_minmax(train_set)


def test_sweep_matches_oracle(oracle, norm):
    lam, sweep = select_lambda(norm, LAMBDA_CANDIDATES)
    assert [e.lam for e in sweep] == LAMBDA_CANDIDATES
    want = [oracle.oracle_grid(norm.features, norm.targets, e.lam)[3] for e in sweep]
    np.testing.assert_allclose([e.ld for e in sweep], want, rtol=RTOL, atol=0)
    best = max(zip(want, (-c for c in LAMBDA_CANDIDATES)))
    assert lam == -best[1]


@pytest.mark.parametrize("lam", [20, 50])  # 400 <= 700 rows: dense; 2500 > 700: np.unique
@pytest.mark.parametrize("kind", ["l1", "l2"])
def test_weights_match_oracle(oracle, norm, lam, kind):
    assert (lam**2 <= norm.n) == (lam == 20)
    table = compute_weights(fit_grid(norm, lam), norm, kind)
    want = oracle.oracle_weights(norm.features, norm.targets, lam, kind)
    for name, got, expected in zip(("mu", "gamma", "weight"),
                                   (table.mu, table.gamma, table.weight), want):
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0, err_msg=name)


@pytest.mark.parametrize("experiment", ["synth-1d", "logistic-synth"])
def test_repro_matches_reference(oracle, tmp_path, experiment):
    # reference.json is read, never rewritten: rows match it to the
    # benchmark's own tolerance, through the benchmark's own check
    ref = json.loads(oracle.REFERENCE.read_text())
    assert ref["repro_epochs"] == oracle.REPRO_EPOCHS
    seed = ref["pool"][0]
    code, _ = oracle.quiet(oracle.repro_argv(experiment, seed, oracle.REPRO_EPOCHS, tmp_path))
    assert code == 0
    text = (tmp_path / "results.csv").read_text()
    assert oracle.results_problems(text, ref["repro"][experiment][str(seed)]) == []


def test_large_batch_train_matches_reference(oracle, tmp_path):
    # the benchmark's csv-large-batch train at batch 500, on the data seed
    # its seed 0 draws, matches its recorded row through its own check
    workload = oracle.CsvLargeBatch(0, False, tmp_path)
    workload.generate()
    code, _ = oracle.quiet(workload.argv("train"))
    assert code == 0
    text = (workload.run_dir / "results.csv").read_text()
    ref = json.loads(oracle.REFERENCE.read_text())
    assert oracle.results_problems(text, ref["csv-large-batch"][str(workload.data_seed)]) == []
