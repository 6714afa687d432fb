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


def test_workloads_find_every_cli_name():
    names = set(re.findall(r"\bcli\.([A-Za-z_]\w*)", (PERFBENCH / "workloads.py").read_text()))
    assert {"Dataset", "LAMBDA_CANDIDATES", "split"} <= names  # the regex still sees the calls
    assert sorted(name for name in names if not hasattr(viloss.cli, name)) == []
