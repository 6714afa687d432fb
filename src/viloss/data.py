"""Dataset handling: synthetic skewed-data generation, CSV ingestion,
min-max normalization and train/test splitting."""

from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

SYNTH_DEFAULT_N = {"synth-1d": 300, "synth-2d": 1000}


@dataclass
class NormalizationRecord:
    """Per-column min/max fitted on the training rows only."""

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: np.ndarray
    target_max: np.ndarray

    def apply_features(self, x: np.ndarray) -> np.ndarray:
        return _minmax_apply(x, self.feature_min, self.feature_max)

    def apply_targets(self, y: np.ndarray) -> np.ndarray:
        return _minmax_apply(y, self.target_min, self.target_max)

    def invert_targets(self, y: np.ndarray) -> np.ndarray:
        rng = self.target_max - self.target_min
        return np.asarray(y) * rng + self.target_min


def _minmax_apply(values, lo, hi):
    values = np.asarray(values, dtype=np.float64)
    rng = hi - lo
    out = np.empty_like(values)
    zero = rng == 0
    # zero-range columns carry no information; pin them at mid-scale
    out[..., zero] = 0.5
    out[..., ~zero] = (values[..., ~zero] - lo[~zero]) / rng[~zero]
    return out


@dataclass
class Dataset:
    """Feature matrix (n, m) plus aligned target matrix (n, v)."""

    features: np.ndarray
    targets: np.ndarray
    normalization: NormalizationRecord | None = None

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.targets.ndim == 1:
            self.targets = self.targets[:, None]
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"feature rows ({self.features.shape[0]}) != target rows "
                f"({self.targets.shape[0]})"
            )
        finite = np.isfinite(self.features).all(axis=1) & np.isfinite(self.targets).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite feature or target value in row {int(finite.argmin())}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def target_dim(self) -> int:
        return self.targets.shape[1]

    def subset(self, rows: np.ndarray) -> "Dataset":
        return Dataset(self.features[rows], self.targets[rows], normalization=self.normalization)


@dataclass
class SynthSpec:
    """Configuration for the skewed synthetic regression sets.

    Feature vectors come from a mixture: a dense truncated-Gaussian
    cluster (probability ``cluster_fraction``) and a uniform background
    over [0, 1]^m. Targets follow a fixed polynomial ground truth with
    additive Gaussian noise; a fraction of targets is replaced with
    uniform outliers.
    """

    variant: str = "synth-1d"
    n: int | None = None
    noise_sigma: float = 0.05
    corrupt_fraction: float = 0.05
    cluster_fraction: float = 0.8
    cluster_center: float = 0.35
    cluster_sigma: float = 0.08
    seed: int = 0

    def __post_init__(self):
        if self.variant not in SYNTH_DEFAULT_N:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n is None:
            self.n = SYNTH_DEFAULT_N[self.variant]
        if not 0 <= self.corrupt_fraction < 1:
            raise ValueError("corrupt_fraction must be in [0, 1)")

    @property
    def feature_dim(self) -> int:
        return 1 if self.variant == "synth-1d" else 2


def ground_truth(variant: str, features: np.ndarray) -> np.ndarray:
    """Noiseless polynomial target for a synthetic variant."""
    features = np.atleast_2d(features)
    if variant == "synth-1d":
        x = features[:, 0]
        return (x**6 + 0.3)[:, None]
    if variant == "synth-2d":
        x1, x2 = features[:, 0], features[:, 1]
        return (-x1 + x2**6 + x2**3 + 0.3)[:, None]
    raise ValueError(f"unknown variant {variant!r}")


def _truncated_normal(rng, center, sigma, size):
    # rejection sampling into [0, 1]
    out = np.empty(size)
    filled = 0
    while filled < size:
        draw = rng.normal(center, sigma, size=2 * (size - filled) + 8)
        keep = draw[(draw >= 0.0) & (draw <= 1.0)]
        take = min(keep.size, size - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def generate_synth(spec: SynthSpec) -> Dataset:
    """Generate a seed-deterministic skewed dataset per the spec."""
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n, spec.feature_dim

    features = np.empty((n, m))
    from_cluster = rng.random(n) < spec.cluster_fraction
    k = int(from_cluster.sum())
    for j in range(m):
        col = rng.uniform(0.0, 1.0, size=n)
        col[from_cluster] = _truncated_normal(rng, spec.cluster_center, spec.cluster_sigma, k)
        features[:, j] = col

    targets = ground_truth(spec.variant, features)
    if spec.noise_sigma > 0:
        targets = targets + rng.normal(0.0, spec.noise_sigma, size=targets.shape)

    n_corrupt = round(spec.corrupt_fraction * n)
    if n_corrupt > 0:
        lo, hi = targets.min(axis=0), targets.max(axis=0)
        idx = rng.choice(n, size=n_corrupt, replace=False)
        targets[idx] = rng.uniform(lo, hi, size=(n_corrupt, targets.shape[1]))

    return Dataset(features, targets)


@dataclass
class BinarySynthSpec:
    """Imbalanced two-cluster binary classification task.

    Negatives are mostly a dense cluster with a uniform background of
    uncharacteristic negatives; positives form a separate cluster. A small
    fraction of labels is flipped to simulate annotation noise.
    """

    n: int = 2000
    positive_fraction: float = 0.05
    label_noise: float = 0.02
    negative_center: float = 0.25
    negative_sigma: float = 0.08
    negative_cluster_fraction: float = 0.8
    positive_center: float = 0.75
    positive_sigma: float = 0.1
    seed: int = 0


def generate_binary_clusters(spec: BinarySynthSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    y = (rng.random(n) < spec.positive_fraction).astype(np.float64)

    x = np.empty((n, 2))
    in_cluster = rng.random(n) < spec.negative_cluster_fraction
    for i in range(n):
        if y[i] == 1:
            x[i] = rng.normal(spec.positive_center, spec.positive_sigma, 2)
        elif in_cluster[i]:
            x[i] = rng.normal(spec.negative_center, spec.negative_sigma, 2)
        else:
            x[i] = rng.uniform(0.0, 1.0, 2)
    x = np.clip(x, 0.0, 1.0)

    flip = rng.random(n) < spec.label_noise
    y = np.where(flip, 1.0 - y, y)
    return Dataset(x, y)


_INDEX = re.compile(r"-?[0-9]+")


def _resolve_columns(path, columns, header_names):
    """Indices of ``columns``: an int, or a string of an optional ``-`` and
    ASCII digits, is an index; any other string names a header column."""
    resolved = []
    for c in columns:
        if not isinstance(c, str) or _INDEX.fullmatch(c):
            resolved.append(int(c))
        elif header_names is not None and c in header_names:
            resolved.append(header_names.index(c))
        else:
            where = "" if header_names is None else f" in header {','.join(header_names)}"
            raise ValueError(f"{path}: column {c!r} not found{where}")
    return resolved


def load_csv(path, feature_columns, target_columns, header: bool = True):
    """Load a CSV into a Dataset, selecting columns by name or index.

    Returns (dataset, rejected). A row whose selected cells are missing,
    unparseable or non-finite is skipped and listed in ``rejected`` as
    (1-based line, reason), in line order; a blank row is skipped silently.
    A file without a usable row is rejected, naming the first rejection.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise ValueError(f"{path}: empty file")
        names = [c.strip() for c in first] if header else None
        feature_idx = _resolve_columns(path, feature_columns, names)
        columns = feature_idx + _resolve_columns(path, target_columns, names)
        kept, rejected = [], []
        # a quoted cell may span lines: a record starts after the last one's end
        end = reader.line_num if header else 0
        for row in reader if header else itertools.chain([first], reader):
            line, end = end + 1, reader.line_num
            if not any(c.strip() for c in row):
                continue
            try:
                values = [float(row[j]) for j in columns]
            except (ValueError, IndexError) as exc:
                rejected.append((line, str(exc)))
                continue
            # float() parses "nan" and "inf", and overflows to inf
            if all(map(math.isfinite, values)):
                kept.append(values)
            else:
                rejected.append((line, "non-finite value"))
    if not kept:
        why = (f" ({len(rejected)} rejected; line {rejected[0][0]}: {rejected[0][1]})"
               if rejected else "")
        raise ValueError(f"{path}: no usable rows{why}")
    table = np.array(kept)
    return Dataset(table[:, : len(feature_idx)], table[:, len(feature_idx) :]), rejected


def normalize_minmax(dataset: Dataset) -> Dataset:
    """Min-max normalize features and targets using statistics from all of
    ``dataset``'s rows (pass the training split only). Returns the
    normalized dataset; its ``normalization`` record supports the inverse
    transform."""
    record = NormalizationRecord(
        feature_min=dataset.features.min(axis=0),
        feature_max=dataset.features.max(axis=0),
        target_min=dataset.targets.min(axis=0),
        target_max=dataset.targets.max(axis=0),
    )
    return Dataset(
        record.apply_features(dataset.features),
        record.apply_targets(dataset.targets),
        normalization=record,
    )


def split(dataset: Dataset, train_fraction: float, seed: int):
    """Seeded shuffle then prefix split into (train, test), both non-empty."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    order = np.random.default_rng(seed).permutation(dataset.n)
    n_train = round(train_fraction * dataset.n)
    if not 0 < n_train < dataset.n:
        raise ValueError(
            f"split of n={dataset.n} rows at train_fraction={train_fraction} gives sizes "
            f"{n_train} and {dataset.n - n_train}; both sides must be non-empty"
        )
    return dataset.subset(order[:n_train]), dataset.subset(order[n_train:])


def save_csv(dataset: Dataset, path) -> None:
    names = [f"x{j + 1}" for j in range(dataset.feature_dim)]
    target_names = [f"y{j + 1}" for j in range(dataset.target_dim)]
    if dataset.target_dim == 1:
        target_names = ["y"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + target_names)
        for x, y in zip(dataset.features, dataset.targets):
            writer.writerow([repr(float(v)) for v in x] + [repr(float(v)) for v in y])
