"""The benchmark's tracer wraps viloss functions by name from outside the
package, and its workloads call viloss through ``viloss.cli``; a rename or
a dropped import would silently turn a layer's metrics into n/a or fail
every op of a workload."""

import importlib
import re
from pathlib import Path

import numpy as np

import viloss
import viloss.cli  # noqa: F401  (the tracer wraps names in viloss.cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    tracer = importlib.import_module("perfbench.tracer")
    # the grid no longer hashes its dataset; the tracer still names the hash
    # until the benchmark drops that target
    assert tracer.Tracer(viloss).missing == ["viloss.grid.dataset_fingerprint"]


def test_traced_names_see_every_step(monkeypatch, tmp_path):
    # training must call the loss values through the name the tracer wraps,
    # or the losses.* metrics would read nothing instead of failing; the
    # step computes gradients only, and the values come once per epoch
    # and loss group
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    tracer = importlib.import_module("perfbench.tracer").Tracer(viloss)
    tracer.install()
    try:
        code = viloss.cli.main(["repro", "--name", "logistic-synth", "--seeds", "0",
                                "--epochs", "2", "--out-dir", str(tmp_path)])
    finally:
        tracer.remove()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("models.train") == 1
    assert names.count("losses.value_grad") == 2  # 2 epochs x one loss group



def test_traced_csv_pipeline_records_rows_and_ess(monkeypatch, tmp_path):
    # csv-large-batch reads the row count off load_csv's return value and the
    # ESS off compute_weights'; nothing else in the suite runs those recorders
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    tracer = importlib.import_module("perfbench.tracer").Tracer(viloss)
    data, out_dir = tmp_path / "s.csv", tmp_path / "run"
    columns = ["--data", str(data), "--feature-cols", "x1,x2", "--target-cols", "y"]
    tracer.install()
    try:
        codes = [viloss.cli.main(["gen", "--variant", "synth-2d", "--n", "60",
                                  "--out", str(data)])]
        with data.open("a") as fh:
            fh.write("0.5,abc,0.5\n")  # one bad row: the count is of usable rows
        codes += [viloss.cli.main(argv) for argv in (
            ["weigh", *columns, "--lambda", "2", "--out", str(tmp_path / "w.csv")],
            ["train", *columns, "--epochs", "1", "--out-dir", str(out_dir)],
            ["eval", *columns, "--model", str(out_dir / "model.txt")],
        )]
    finally:
        tracer.remove()
    assert codes == [0, 0, 0, 0]
    values = {}
    for name, *_, value in tracer.spans:
        values.setdefault(name, []).append(value)
    assert values["data.load_csv"] == [60, 60, 60]
    assert values["grid.compute_weights"] and np.isfinite(values["grid.compute_weights"]).all()

def test_regression_train_and_eval_score_once_each(monkeypatch, tmp_path):
    # train and eval score through the metric names the tracer wraps, and a
    # regression model is scored by regression metrics alone
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    tracer = importlib.import_module("perfbench.tracer").Tracer(viloss)
    data, out_dir = tmp_path / "s.csv", tmp_path / "run"
    columns = ["--data", str(data), "--feature-cols", "x1", "--target-cols", "y"]
    assert viloss.cli.main(["gen", "--n", "60", "--out", str(data)]) == 0
    tracer.install()
    try:
        codes = [viloss.cli.main(["train", *columns, "--epochs", "1", "--out-dir", str(out_dir)]),
                 viloss.cli.main(["eval", *columns, "--model", str(out_dir / "model.txt")])]
    finally:
        tracer.remove()
    assert codes == [0, 0]
    assert [span[0] for span in tracer.spans].count("metrics.eval") == 2


def test_traced_train_records_one_basis(monkeypatch, tmp_path):
    # models.basis_bytes reads the nbytes of what Model.expand returns:
    # train expands once, into the (n, k) view of its (n, k + 1) basis
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    module = importlib.import_module("perfbench.tracer")
    NAME, PARENT, VALUE, tracer = module.NAME, module.PARENT, module.VALUE, module.Tracer(viloss)
    data = tmp_path / "s.csv"
    assert viloss.cli.main(["gen", "--variant", "synth-2d", "--n", "60", "--out", str(data)]) == 0
    tracer.install()
    try:
        code = viloss.cli.main(["train", "--data", str(data), "--feature-cols", "x1,x2",
                                "--target-cols", "y", "--model", "polynomial", "--degree", "3",
                                "--epochs", "1", "--batch-size", "1",
                                "--out-dir", str(tmp_path / "run")])
    finally:
        tracer.remove()
    assert code == 0
    spans = tracer.spans
    [train_idx] = [i for i, span in enumerate(spans) if span[NAME] == "models.train"]
    n = spans[train_idx][VALUE]  # the step count: one epoch of batches of 1
    k = viloss.models.init_model(viloss.ModelSpec("polynomial", 3), 2, 1).basis_dim
    assert n > 0 and k == 10
    assert [span[VALUE] for span in spans if span[NAME] == "models.expand"
            and span[PARENT] == train_idx] == [n * k * 8]


def test_traced_blocks_sum_to_each_basis(monkeypatch, tmp_path):
    # train and predict expand their basis one block of rows at a time, each
    # block through Model.expand: a train's or a predict's models.expand
    # spans sum to its rows times the basis width in bytes, as one call did
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    module = importlib.import_module("perfbench.tracer")
    NAME, PARENT, VALUE, tracer = module.NAME, module.PARENT, module.VALUE, module.Tracer(viloss)
    k = viloss.models.init_model(viloss.ModelSpec("polynomial", 6), 2, 1).basis_dim
    n = 4 * viloss.models._block_rows(k)  # the 30% test split spans 2 blocks too
    n_train = viloss.split(viloss.Dataset(np.zeros((n, 1)), np.zeros((n, 1))), 0.7, 0)[0].n
    data, out_dir = tmp_path / "s.csv", tmp_path / "run"
    columns = ["--data", str(data), "--feature-cols", "x1,x2", "--target-cols", "y"]
    assert viloss.cli.main(["gen", "--variant", "synth-2d", "--n", str(n),
                            "--out", str(data)]) == 0
    tracer.install()
    try:
        codes = [viloss.cli.main(["train", *columns, "--model", "polynomial", "--degree", "6",
                                  "--epochs", "1", "--batch-size", "500",
                                  "--out-dir", str(out_dir)]),
                 viloss.cli.main(["eval", *columns, "--model", str(out_dir / "model.txt")])]
    finally:
        tracer.remove()
    assert codes == [0, 0]
    spans = tracer.spans
    blocks = {i: [] for i, span in enumerate(spans)
              if span[NAME] in ("models.train", "models.predict")}
    for span in spans:
        if span[NAME] == "models.expand" and span[PARENT] in blocks:
            blocks[span[PARENT]].append(span[VALUE])
    rows = [n_train, n - n_train, n]  # train's basis, its test split's and eval's predictions
    assert [spans[i][NAME] for i in blocks] == ["models.train", "models.predict", "models.predict"]
    assert [sum(values) for values in blocks.values()] == [r * k * 8 for r in rows]
    assert all(len(values) > 1 for values in blocks.values())


def test_workloads_find_every_cli_name():
    names = set(re.findall(r"\bcli\.([A-Za-z_]\w*)", (PERFBENCH / "workloads.py").read_text()))
    assert {"Dataset", "LAMBDA_CANDIDATES", "split"} <= names  # the regex still sees the calls
    assert sorted(name for name in names if not hasattr(viloss.cli, name)) == []


def test_every_workload_runs_at_smoke_size(monkeypatch, tmp_path):
    # the benchmark's own call sites, one untraced and one traced pass each:
    # a changed viloss signature would fail every op of the benchmark's run
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    monkeypatch.syspath_prepend(str(PERFBENCH))  # bench.py imports its siblings by name
    bench = importlib.import_module("perfbench.bench")
    workloads = importlib.import_module("perfbench.workloads").WORKLOADS
    passes, failures = {}, {}
    for name, make in workloads.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload, tracer = make(0, True, workdir), bench.Tracer(viloss)
        runner = bench.Runner(tracer)
        workload.generate()
        walls, _ = bench.run_passes(workload, runner, 0, tracer)
        workload.finish(runner, True)
        passes[name], failures[name] = (len(walls[False]), len(walls[True])), runner.failures
    assert passes == dict.fromkeys(workloads, (1, 1))
    assert failures == dict.fromkeys(workloads, {})
