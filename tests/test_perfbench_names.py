"""The benchmark's tracer wraps viloss functions by name from outside the
package, and its workloads call viloss through ``viloss.cli``; a rename or
a dropped import would silently turn a layer's metrics into n/a or fail
every op of a workload."""

import importlib
import re
from pathlib import Path

import viloss
import viloss.cli  # noqa: F401  (the tracer wraps names in viloss.cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    tracer = importlib.import_module("perfbench.tracer")
    assert tracer.Tracer(viloss).missing == []


def test_traced_names_see_every_step(monkeypatch, tmp_path):
    # the training step must call the loss through the name the tracer wraps,
    # or the losses.* metrics would read nothing instead of failing
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    tracer = importlib.import_module("perfbench.tracer").Tracer(viloss)
    tracer.install()
    try:
        code = viloss.cli.main(["repro", "--name", "logistic-synth", "--seeds", "0",
                                "--epochs", "1", "--out-dir", str(tmp_path)])
    finally:
        tracer.remove()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("models.train") == 1
    assert names.count("losses.value_grad") == 280  # one loss group, ceil(1400 / 5) steps


def test_workloads_find_every_cli_name():
    names = set(re.findall(r"\bcli\.([A-Za-z_]\w*)", (PERFBENCH / "workloads.py").read_text()))
    assert {"Dataset", "LAMBDA_CANDIDATES", "split"} <= names  # the regex still sees the calls
    assert sorted(name for name in names if not hasattr(viloss.cli, name)) == []
