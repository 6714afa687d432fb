"""In-memory span tracer that measures viloss's layers from outside.

The tracer replaces viloss's public functions at the names their callers
look up (``viloss.cli`` module globals, ``viloss.grid`` and
``viloss.models`` globals, and two class attributes) with wrappers that
record one span per call: name, start, end, parent span and op id. The
real ``viloss.cli.main`` pipeline runs unchanged and nothing is added to
the package; ``remove`` puts the original functions back.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

# span fields
NAME, START, END, PARENT, OP, VALUE = range(6)

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _sgd_steps(args, kwargs, result):
    dataset, config = _arg(args, kwargs, 1, "dataset"), _arg(args, kwargs, 3, "config")
    return config.epochs * math.ceil(dataset.n / config.batch_size)


def _ess_ratio(args, kwargs, table):
    w = table.weight
    return float(w.sum() ** 2 / (w**2).sum() / len(w))


def _n_cells(args, kwargs, grid):
    return grid.n_cells


def _targets(viloss):
    """(owner, attribute, span name, recorder of a per-call count)."""
    cli, grid, models = viloss.cli, viloss.grid, viloss.models
    return [
        (cli, "main", "cli.main", None),
        (cli, "generate_synth", "data.generate", None),
        (cli, "generate_binary_clusters", "data.generate", None),
        (cli, "save_csv", "data.save_csv", None),
        (cli, "load_csv", "data.load_csv", lambda a, k, r: r[0].n),
        (cli, "split", "data.split", None),
        (cli, "normalize_minmax", "data.normalize", None),
        (cli, "select_lambda", "grid.select_lambda", None),
        (cli, "fit_grid", "grid.fit_grid", _n_cells),
        (grid, "fit_grid", "grid.fit_grid", _n_cells),  # called by select_lambda
        (grid, "dataset_fingerprint", "grid.fingerprint", None),
        (cli, "compute_weights", "grid.compute_weights", _ess_ratio),
        (grid.WeightTable, "export", "grid.export", None),
        (cli, "train", "models.train", _sgd_steps),
        (models, "batch_value_grad", "losses.value_grad", None),
        (models.Model, "expand", "models.expand", lambda a, k, phi: phi.nbytes),
        (models.Model, "predict_batch", "models.predict", None),
        (cli, "save_model", "models.save", None),
        (cli, "load_model", "models.load", None),
        (cli, "regression_metrics", "metrics.eval", None),
        (cli, "classification_metrics", "metrics.eval", None),
    ]


class Tracer:
    """Spans of wrapped calls, kept in memory until ``write``."""

    def __init__(self, viloss):
        self.spans: list[list] = []
        self.op = None  # op id stamped on new spans
        self._stack: list[int] = []
        self._targets = _targets(viloss)
        self._saved: list[tuple] = []
        self.missing = sorted({f"{owner.__name__}.{attr}" for owner, attr, _, _ in self._targets
                               if attr not in owner.__dict__})

    def install(self) -> None:
        """Wrap every target; a name the package no longer has is skipped,
        listed in ``missing``, and its metrics read n/a."""
        for owner, attr, name, count in self._targets:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[VALUE] = count(args, kwargs, result)
            return result

        return traced

    def write(self, path, op_labels) -> None:
        with open(path, "w") as fh:
            json.dump({"ops": op_labels,
                       "fields": ["name", "start", "end", "parent", "op", "value"],
                       "spans": self.spans}, fh)


def _group_totals(spans, group_of):
    """Per group, keyed by (span or layer name, field): inclusive time "s",
    "calls", counted "value", and "self" time (minus direct child spans;
    for models.train, minus its losses children)."""
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    loss_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
            if s[NAME] == "losses.value_grad":
                loss_time[s[PARENT]] += dur[i]
    groups = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        g = groups[group_of(s[OP])]
        name, layer = s[NAME], s[NAME].split(".", 1)[0]
        g[name, "s"] += dur[i]
        g[name, "calls"] += 1
        g[layer, "self"] += dur[i] - child_time[i]
        g[layer, "calls"] += 1
        if name == "models.train":
            g[name, "self"] += dur[i] - loss_time[i]
        in_sweep = s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "grid.select_lambda"
        if s[VALUE] is not None and not (name == "grid.fit_grid" and in_sweep):
            g[name, "value"] += s[VALUE]
    return groups


def _combine(groups):
    """The set-up's share once plus the median over passes, per key."""
    setup = groups.pop("setup", {})
    passes = list(groups.values())
    out = dict(setup)
    for key in set().union(*passes):
        out[key] = setup.get(key, 0.0) + statistics.median(g.get(key, 0.0) for g in passes)
    return out


def layer_metrics(spans, group_of, overhead_s):
    """Every PER_LAYER metric; None for a time the workload never spends."""
    t = _combine(_group_totals(spans, group_of))

    def timed(name, field="s"):
        return t.get((name, field), 0.0) if t.get((name, "calls")) else None

    def count(name, field="calls"):
        return int(round(t.get((name, field), 0.0)))

    steps = t.get(("models.train", "value"))
    save_load = [v for v in (timed("models.save"), timed("models.load")) if v is not None]
    ess = timed("grid.compute_weights", "value")
    return {
        "models.train_s": timed("models.train"),
        "models.train_calls": count("models.train"),
        "models.sgd_steps": count("models.train", "value"),
        "models.us_per_step": t[("models.train", "s")] / steps * 1e6 if steps else None,
        "models.train_self_s": timed("models.train", "self"),
        "models.expand_s": timed("models.expand"),
        "models.predict_s": timed("models.predict"),
        "models.save_load_s": sum(save_load) if save_load else None,
        "models.basis_bytes": count("models.expand", "value"),
        "models.self_s": timed("models", "self"),
        "models.calls": count("models"),
        "losses.value_grad_s": timed("losses.value_grad"),
        "losses.value_grad_calls": count("losses.value_grad"),
        "grid.select_lambda_s": timed("grid.select_lambda"),
        "grid.fit_grid_s": timed("grid.fit_grid"),
        "grid.fit_grid_calls": count("grid.fit_grid"),
        "grid.compute_weights_s": timed("grid.compute_weights"),
        "grid.fingerprint_s": timed("grid.fingerprint"),
        "grid.fingerprint_calls": count("grid.fingerprint"),
        "grid.nonempty_cells": count("grid.fit_grid", "value"),
        "grid.weight_ess_ratio": None if ess is None else ess / count("grid.compute_weights"),
        "grid.export_s": timed("grid.export"),
        "grid.self_s": timed("grid", "self"),
        "grid.calls": count("grid"),
        "data.generate_s": timed("data.generate"),
        "data.split_s": timed("data.split"),
        "data.normalize_s": timed("data.normalize"),
        "data.load_csv_s": timed("data.load_csv"),
        "data.load_csv_rows": count("data.load_csv", "value"),
        "data.self_s": timed("data", "self"),
        "data.calls": count("data"),
        "metrics.eval_s": timed("metrics.eval"),
        "metrics.calls": count("metrics.eval"),
        "cli.self_s": timed("cli", "self"),
        "cli.main_calls": count("cli.main"),
        "trace.overhead_s": overhead_s,
    }
