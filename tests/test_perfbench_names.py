"""The benchmark's tracer wraps viloss functions by name from outside the
package; a rename would silently turn that layer's metrics into n/a."""

import importlib
from pathlib import Path

import viloss
import viloss.cli  # noqa: F401  (the tracer wraps names in viloss.cli)


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    tracer = importlib.import_module("perfbench.tracer")
    assert tracer.Tracer(viloss).missing == []
