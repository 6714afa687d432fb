"""Command-line harness: data generation, lambda sweeps, weighting,
training and end-to-end experiment reproduction.

An argument ``@FILE`` stands for the flags in FILE, one a line without its
dashes (``lr=0.1``, ``no-shuffle``), and argparse converts and checks them
as if they were typed in its place.

``gen``, ``train`` and ``repro`` write their flags, all but the output
path, as such a file: ``<out>.manifest.txt`` or ``<out-dir>/manifest.txt``.
So ``viloss train @run/manifest.txt --out-dir run2`` re-runs a run and
writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    SYNTH_DEFAULT_N,
    BinarySynthSpec,
    Dataset,
    SynthSpec,
    generate_binary_clusters,
    generate_synth,
    load_csv,
    normalize_minmax,
    save_csv,
    split,
)
from .grid import NORM_KINDS, compute_weights, fit_grid, select_lambda
from .losses import BASE_KINDS, LossSpec
from .metrics import classification_metrics, regression_metrics
from .models import (
    MODEL_KINDS,
    ModelSpec,
    TrainConfig,
    check_binary_targets,
    check_loss_pairing,
    load_model,
    save_model,
    train,
)

LAMBDA_CANDIDATES = [1, 2, 5, 10, 20, 50, 100]

RESULT_HEADER = "dataset,model,loss,gamma_norm,lambda,seed,mape,mae"
RESULT_HEADER_CLS = RESULT_HEADER + ",acc,prec,rec,f1"


def _parse_int_list(text: str, flag: str) -> list[int]:
    """The distinct integers of a comma list given with ``flag``."""
    values = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        try:
            value = int(token)
        except ValueError:
            raise ValueError(f"{flag}: {token!r} is not an integer") from None
        if value in values:
            raise ValueError(f"{flag}: {value} is listed twice")
        values.append(value)
    return values


def _feature_subset(args) -> list[int] | None:
    return _parse_int_list(args.feature_subset, "--feature-subset") if args.feature_subset else None


def _load_dataset(args) -> Dataset:
    dataset, rejected = load_csv(
        args.data,
        [t.strip() for t in args.feature_cols.split(",")],
        [t.strip() for t in args.target_cols.split(",")],
        header=not args.no_header,
    )
    for line_no, reason in rejected:
        print(f"warning: skipped line {line_no}: {reason}", file=sys.stderr)
    return dataset


def cmd_gen(args) -> None:
    manifest = args.parser.format_manifest(args)
    spec = SynthSpec(
        variant=args.variant,
        n=args.n,
        noise_sigma=args.noise_sigma,
        corrupt_fraction=args.corrupt_fraction,
        cluster_fraction=args.cluster_fraction,
        cluster_center=args.cluster_center,
        cluster_sigma=args.cluster_sigma,
        seed=args.seed,
    )
    dataset = generate_synth(spec)
    save_csv(dataset, args.out)
    Path(args.out).with_suffix(".manifest.txt").write_text(manifest)
    print(f"wrote {dataset.n} samples to {args.out}")


def cmd_ld_sweep(args) -> None:
    dataset = _load_dataset(args)
    candidates = _parse_int_list(args.candidates, "--candidates")
    lam_star, report = select_lambda(dataset, candidates, _feature_subset(args))
    table = "lambda,ld,nonempty_cells\n" + "".join(
        f"{entry.lam},{entry.ld!r},{entry.n_cells}\n" for entry in report
    )
    print(table + f"selected lambda = {lam_star}")
    if args.out:
        Path(args.out).write_text(table)


def cmd_weigh(args) -> None:
    dataset = _load_dataset(args)
    grid = fit_grid(dataset, args.grid_lambda, _feature_subset(args), mu_floor=args.mu_floor)
    table = compute_weights(grid, dataset, args.gamma_norm)
    table.export(args.out)
    print(f"wrote {len(table)} weights to {args.out}")


def _predict(model, record, features):
    """Predictions of ``model`` on raw ``features``: the features pass
    through the training normalization ``record``, and regression outputs
    are mapped back to the targets' original units."""
    pred = model.predict_batch(record.apply_features(features))
    if model.spec.kind == "logistic":
        return pred
    return record.invert_targets(pred)


def _weighting_columns(spec: LossSpec, norm: str | None, lam) -> str:
    """The loss, gamma_norm and lambda columns of a variant's results row."""
    return f"viloss_{spec.base},{norm},{lam}" if norm else f"{spec.base},none,none"


def _run_experiment(dataset, name, model_spec, variants, lam, subset, cfg, mu_floor=0.0):
    """Split, normalize, weight, train and evaluate every variant on one
    split: the grid is fitted once, each gamma norm's weights are computed
    once, and all variants train in lockstep in one ``train`` call. A
    variant is a (LossSpec, gamma norm) pair, the norm None for a run
    without weights.

    Returns the training split's normalization record and one (result row,
    model) per variant, in order.
    """
    train_set, test_set = split(dataset, 0.7, cfg.seed)
    train_norm = normalize_minmax(train_set)
    record = train_norm.normalization

    weights = {}
    norms = list(dict.fromkeys(norm for _, norm in variants if norm))
    if norms:
        grid = fit_grid(train_norm, lam, subset, mu_floor=mu_floor)
        weights = {norm: compute_weights(grid, train_norm, norm).weight for norm in norms}
    runs = [(spec, weights.get(norm)) for spec, norm in variants]
    trained = train(model_spec, train_norm, runs, cfg)

    results = []
    for (spec, norm), (model, _) in zip(variants, trained):
        row = f"{name},{_model_name(model_spec)},{_weighting_columns(spec, norm, lam)},{cfg.seed}"
        pred = _predict(model, record, test_set.features)
        row += f",{regression_metrics(pred, test_set.targets).as_row()}"
        if model_spec.kind == "logistic":
            row += f",{classification_metrics(pred, test_set.targets).as_row()}"
        results.append((row, model))
    return record, results


def _result_header(spec: ModelSpec) -> str:
    return RESULT_HEADER_CLS if spec.kind == "logistic" else RESULT_HEADER


def _model_name(spec: ModelSpec) -> str:
    if spec.kind == "polynomial":
        return f"poly-{spec.degree}"
    return spec.kind


def _write_run(args, run) -> None:
    """Write what ``run()`` computes into ``--out-dir`` and print its rows.

    ``run`` returns (results header, rows, model, normalization record);
    model and record are None when there is no model to save. The directory
    is created only once ``run()`` has returned, and results.csv, model.txt
    and manifest.txt are all removed if anything fails, so a failed run
    leaves neither a new directory nor stale or partial outputs.
    """
    out_dir = Path(args.out_dir)
    manifest = args.parser.format_manifest(args)
    created = [out_dir / "results.csv", out_dir / "model.txt", out_dir / "manifest.txt"]
    results, model_file, manifest_file = created
    try:
        header, rows, model, record = run()
        out_dir.mkdir(parents=True, exist_ok=True)
        results.write_text(header + "\n" + "\n".join(rows) + "\n")
        if model is not None:
            save_model(model, record, model_file)
        manifest_file.write_text(manifest)
    except Exception:
        if out_dir.is_dir():
            for path in created:
                path.unlink(missing_ok=True)
        raise
    for row in rows:
        print(row)


def cmd_train(args) -> None:
    def run():
        loss_spec = LossSpec(base=args.loss, delta=args.huber_delta)
        check_loss_pairing(args.model, [loss_spec])  # before the data are read
        variant = (loss_spec, args.gamma_norm if args.weighted == "on" else None)
        model_spec = ModelSpec(kind=args.model, degree=args.degree)
        cfg = TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.lr,
            seed=args.seed,
            shuffle=not args.no_shuffle,
        )
        dataset = _load_dataset(args)
        record, [(row, model)] = _run_experiment(
            dataset, Path(args.data).stem, model_spec, [variant],
            args.grid_lambda, _feature_subset(args), cfg, args.mu_floor,
        )
        return _result_header(model_spec), [row], model, record

    _write_run(args, run)


def cmd_eval(args) -> None:
    dataset = _load_dataset(args)
    model, record = load_model(args.model)
    if dataset.feature_dim != record.feature_min.size:
        raise ValueError(f"{args.model} was trained on {record.feature_min.size} features, "
                         f"--feature-cols selects {dataset.feature_dim}")
    if dataset.target_dim != record.target_min.size:
        raise ValueError(f"{args.model} was trained on {record.target_min.size} target columns, "
                         f"--target-cols selects {dataset.target_dim}")
    if model.spec.kind == "logistic":
        check_binary_targets(dataset.targets)
    pred = _predict(model, record, dataset.features)
    if model.spec.kind == "logistic":
        print("acc,prec,rec,f1")
        print(classification_metrics(pred, dataset.targets).as_row())
    else:
        print("mape,mae")
        print(regression_metrics(pred, dataset.targets).as_row())


@dataclass(frozen=True)
class ReproExperiment:
    """A named experiment: every base loss trains unweighted and with L1
    and L2 gamma weights on each seed's split."""

    model_spec: ModelSpec
    bases: tuple[str, ...]
    lam: int
    batch_size: int
    learning_rate: float

    def variants(self) -> list[tuple[LossSpec, str | None]]:
        return [(LossSpec(base), norm) for base in self.bases for norm in (None, "l1", "l2")]


REPRO_EXPERIMENTS = {
    "synth-1d": ReproExperiment(ModelSpec("polynomial", 6), ("mse", "huber", "lqr"), 2, 1, 0.1),
    "synth-2d": ReproExperiment(ModelSpec("polynomial", 6), ("mse", "huber", "lqr"), 10, 5, 0.1),
    # imbalanced binary task with a logistic model
    "logistic-synth": ReproExperiment(ModelSpec("logistic"), ("bce",), 5, 5, 0.5),
}
REPRO_NAMES = tuple(REPRO_EXPERIMENTS)


def _repro_dataset(name: str, seed: int) -> Dataset:
    if name == "logistic-synth":
        return generate_binary_clusters(BinarySynthSpec(seed=seed))
    return generate_synth(SynthSpec(variant=name, seed=seed))


def _repro_rows(name: str, seeds: list[int], epochs: int | None) -> tuple[str, list[str]]:
    exp = REPRO_EXPERIMENTS[name]
    rows = []
    for seed in seeds:
        cfg = TrainConfig(epochs=150 if epochs is None else epochs, batch_size=exp.batch_size,
                          learning_rate=exp.learning_rate, seed=seed)
        _, results = _run_experiment(_repro_dataset(name, seed), name, exp.model_spec,
                                     exp.variants(), exp.lam, None, cfg)
        rows += [row for row, _ in results]
    return _result_header(exp.model_spec), rows


def cmd_repro(args) -> None:
    def run():
        seeds = _parse_int_list(args.seeds, "--seeds")
        if not seeds:
            raise ValueError("--seeds must name at least one seed")
        header, rows = _repro_rows(args.name, seeds, args.epochs)
        return header, rows, None, None

    _write_run(args, run)


def _add_data_args(p, feature_subset: bool = True) -> None:
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--feature-cols", required=True, help="comma list of names or indices")
    p.add_argument("--target-cols", required=True, help="comma list of names or indices")
    p.add_argument("--no-header", action="store_true")
    if feature_subset:  # eval weighs nothing
        p.add_argument("--feature-subset", help="feature indices used for weighting")


class _ArgumentParser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        """One flag per line of an @file: ``key`` or ``key=value`` reads as
        ``--key`` or ``--key=value``; ``#`` starts a comment."""
        line = arg_line.split("#", 1)[0].strip()
        if not line:
            return []
        key, eq, value = line.partition("=")
        return [f"--{key.strip()}{eq}{value.strip()}"]

    def format_manifest(self, args) -> str:
        """``args`` as an @file that reads back to ``args``: a ``# viloss
        <version> <command>`` line, then ``key=value`` per flag or a set
        switch's bare key. Unset switches, None values and the output path
        (``--out``, ``--out-dir``) are left out; a value a line cannot hold
        (a ``#``, a line break, a space at either end) is rejected."""
        lines = [f"# viloss {__version__} {args.command}"]
        for action in self._actions:
            if action.dest in ("help", "out", "out_dir"):
                continue
            key, value = action.option_strings[0].lstrip("-"), getattr(args, action.dest)
            if value is True:
                lines.append(key)
            elif value is not None and value is not False:
                text = str(value)
                if "#" in text or len(text.splitlines()) > 1 or text != text.strip():
                    raise ValueError(f"--{key} {text!r} cannot be written as a manifest line")
                lines.append(f"{key}={text}")
        return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="viloss",
        description="Variation-incentive loss re-weighting toolkit. An argument @FILE "
        "reads flags from FILE, one a line without its dashes, such as lr=0.1.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic skewed dataset")
    p.add_argument("--variant", choices=tuple(SYNTH_DEFAULT_N), default="synth-1d")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--corrupt-fraction", type=float, default=0.05)
    p.add_argument("--cluster-fraction", type=float, default=0.8)
    p.add_argument("--cluster-center", type=float, default=0.35)
    p.add_argument("--cluster-sigma", type=float, default=0.08)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen, parser=p)

    p = sub.add_parser("ld-sweep", help="localized-deviation sweep over lambda candidates")
    _add_data_args(p)
    p.add_argument("--candidates", default=",".join(map(str, LAMBDA_CANDIDATES)))
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_ld_sweep)

    p = sub.add_parser("weigh", help="export the per-sample weight table")
    _add_data_args(p)
    p.add_argument("--lambda", dest="grid_lambda", type=int, required=True)
    p.add_argument("--gamma-norm", choices=NORM_KINDS, default="l2")
    p.add_argument("--mu-floor", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_weigh)

    p = sub.add_parser("train", help="train and evaluate one configuration")
    _add_data_args(p)
    p.add_argument("--model", choices=MODEL_KINDS, default="linear")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--loss", choices=BASE_KINDS, default="mse")
    p.add_argument("--huber-delta", type=float, default=1.0)
    p.add_argument("--weighted", choices=("on", "off"), default="on")
    p.add_argument("--gamma-norm", choices=NORM_KINDS, default="l2")
    p.add_argument("--lambda", dest="grid_lambda", type=int, default=2)
    p.add_argument("--mu-floor", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train, parser=p)

    p = sub.add_parser("eval", help="evaluate a saved model on a CSV dataset")
    _add_data_args(p, feature_subset=False)
    p.add_argument("--model", required=True, help="saved model path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("repro", help="run a named experiment end-to-end")
    p.add_argument("--name", choices=REPRO_NAMES, required=True)
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--epochs", type=int, default=None, help="override the experiment default")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_repro, parser=p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
