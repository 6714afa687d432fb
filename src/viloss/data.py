"""Dataset handling: synthetic skewed-data generation, CSV ingestion,
min-max normalization and train/test splitting."""

from __future__ import annotations

import csv
import math
import numbers
import os
import re
import sys
import urllib.parse
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

SYNTH_DEFAULT_N = {"synth-1d": 300, "synth-2d": 1000}


@dataclass(frozen=True, eq=False)
class NormalizationRecord:
    """Per-column min/max fitted on the training rows only, held as
    read-only views of the arrays given, so the record cannot change after
    it is fitted."""

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: np.ndarray
    target_max: np.ndarray

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        views = read_only(*(np.asarray(getattr(self, name)) for name in names))
        for name, view in zip(names, views):
            object.__setattr__(self, name, view)

    def apply_features(self, x: np.ndarray) -> np.ndarray:
        return _minmax_apply(x, self.feature_min, self.feature_max)

    def apply_targets(self, y: np.ndarray) -> np.ndarray:
        return _minmax_apply(y, self.target_min, self.target_max)

    def invert_targets(self, y: np.ndarray) -> np.ndarray:
        rng = self.target_max - self.target_min
        return np.asarray(y) * rng + self.target_min


def _minmax_apply(values, lo, hi):
    rng = hi - lo
    zero = rng == 0
    out = np.asarray(values, dtype=np.float64) - lo
    out /= np.where(zero, 1.0, rng)
    # zero-range columns carry no information; pin them at mid-scale
    out[..., zero] = 0.5
    return out


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """A read-only view of each of ``arrays``; the arrays themselves keep
    their flags."""
    views = tuple(a.view() for a in arrays)
    for view in views:
        view.setflags(write=False)
    return views


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (n, m) plus aligned target matrix (n, v), m and v at
    least 1, checked once when built and fixed after: both are read-only
    views of the arrays given (not copies, when those are float64), and no
    field can be reassigned. Two datasets are equal only if they are the
    same object."""

    features: np.ndarray
    targets: np.ndarray
    normalization: NormalizationRecord | None = None

    def __post_init__(self):
        given = np.asarray(self.features, dtype=np.float64)
        features = np.atleast_2d(given)
        targets = np.asarray(self.targets, dtype=np.float64)
        if targets.ndim == 1:
            targets = targets[:, None]
        if features.shape[0] != targets.shape[0]:
            fix = (f": 1-D features of shape {given.shape} are one sample of {given.size} "
                   f"features; pass features[:, None] for {given.size} samples of one feature"
                   if given.ndim == 1 else "")
            raise ValueError(f"feature rows ({features.shape[0]}) != target rows "
                             f"({targets.shape[0]}){fix}")
        for name, array in (("feature", features), ("target", targets)):
            if array.shape[1] == 0:
                raise ValueError(f"a dataset needs at least one {name} column, "
                                 f"got {name}s of shape {array.shape}")
        if not (np.isfinite(features).all() and np.isfinite(targets).all()):
            finite = np.isfinite(features).all(axis=1) & np.isfinite(targets).all(axis=1)
            raise ValueError(f"non-finite feature or target value in row {int(finite.argmin())}")
        for name, view in zip(("features", "targets"), read_only(features, targets)):
            object.__setattr__(self, name, view)

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
        """The rows at the integer indices ``rows``, in that order."""
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iu":  # take() would read a boolean mask as rows 0 and 1
            raise ValueError(f"subset takes integer row indices, got dtype {rows.dtype}")
        return Dataset(self.features.take(rows, axis=0), self.targets.take(rows, axis=0),
                       normalization=self.normalization)


@dataclass(frozen=True)
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
            object.__setattr__(self, "n", SYNTH_DEFAULT_N[self.variant])
        _check_size_and_seed(self.n, self.seed)
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0 <= self.corrupt_fraction < 1:
            raise ValueError("corrupt_fraction must be in [0, 1)")
        # a centre and sigma in [0, 1] keep at least Phi(1) - Phi(0), about
        # 34%, of the cluster's draws inside [0, 1] (see _truncated_normal)
        for name in ("cluster_fraction", "cluster_center", "cluster_sigma"):
            value = getattr(self, name)
            if not 0 <= value <= 1:  # nan fails this too
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def feature_dim(self) -> int:
        return 1 if self.variant == "synth-1d" else 2


def check_integers(**settings) -> None:
    """Reject a setting whose value is not an integer (2.5 and 1.0 are
    not), naming it, before numpy meets it."""
    for name, value in settings.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_size_and_seed(n, seed) -> None:
    check_integers(n=n, seed=seed)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


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


@dataclass(frozen=True)
class BinarySynthSpec:
    """Size and seed of the imbalanced two-cluster binary classification
    task that ``generate_binary_clusters`` draws."""

    n: int = 2000
    seed: int = 0

    def __post_init__(self):
        _check_size_and_seed(self.n, self.seed)


def generate_binary_clusters(spec: BinarySynthSpec) -> Dataset:
    """Draw the task: each label is positive with probability 0.05. A
    positive's two features are N(0.75, 0.1). A negative's are N(0.25, 0.08)
    with probability 0.8, the dense cluster, and otherwise uniform over
    [0, 1], the uncharacteristic background. Features are clipped to [0, 1],
    and then 2% of the labels are flipped to simulate annotation noise."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    y = (rng.random(n) < 0.05).astype(np.float64)

    x = np.empty((n, 2))
    positive = y == 1
    in_cluster = rng.random(n) < 0.8
    cluster, background = ~positive & in_cluster, ~positive & ~in_cluster
    # row by row, in row order, a row draws two standard normals or two
    # uniforms: one call draws each run of consecutive rows of one kind
    edges = [0, *(np.flatnonzero(background[1:] != background[:-1]) + 1).tolist(), n]
    for a, b in zip(edges, edges[1:]):
        if background[a]:
            rng.random(out=x[a:b])
        else:
            rng.standard_normal(out=x[a:b])
    x[positive] = 0.75 + 0.1 * x[positive]  # as rng.normal(loc, scale) forms loc + scale * z
    x[cluster] = 0.25 + 0.08 * x[cluster]
    x = np.clip(x, 0.0, 1.0)

    flip = rng.random(n) < 0.02
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
    """Load a CSV into a Dataset, selecting at least one feature and one
    target column by name or index.

    Returns (dataset, rejected). A row whose selected cells are missing,
    unparseable or non-finite is skipped and listed in ``rejected`` as
    (1-based line, reason), in line order; a blank row is skipped silently.
    A file without a usable row is rejected, naming a selected index
    outside the header if there is one, else the first rejection.

    A clean file is parsed in one ``np.loadtxt`` call, which reads the file
    by path, in blocks, past the header's lines (see ``_parse_clean``); a
    file with a row to reject is read again row by row, which names each
    rejected line.
    """
    with open(path, newline="") as fh, _no_field_limit():
        # csv reads the header through readline, which leaves fh.tell() usable
        reader = csv.reader(iter(fh.readline, ""))
        first = next(reader, None)
        if first is None:
            raise ValueError(f"{path}: empty file")
        names = [c.strip() for c in first] if header else None
        feature_idx = _resolve_columns(path, feature_columns, names)
        columns = feature_idx + _resolve_columns(path, target_columns, names)
        if not feature_idx or len(columns) == len(feature_idx):
            raise ValueError(f"{path}: select at least one feature and one target column")
        if not header:
            fh.seek(0)
        # a quoted header cell may span lines: line_num counts them all
        table, rejected = _parse_clean(fh, path, columns, reader.line_num if header else 0), []
        if table is None:
            table, rejected = _read_rows(fh, columns, header)
    if not len(table):
        # an index outside a non-empty header rejects every row: name the index
        for j in columns if names else ():
            if not -len(names) <= j < len(names):
                raise ValueError(f"{path}: column {j} out of range for header {','.join(names)}")
        why = (f" ({len(rejected)} rejected; line {rejected[0][0]}: {rejected[0][1]})"
               if rejected else "")
        raise ValueError(f"{path}: no usable rows{why}")
    return Dataset(table[:, : len(feature_idx)], table[:, len(feature_idx) :]), rejected


@contextmanager
def _no_field_limit():
    """Lift csv's field size limit (131072 characters) for the block:
    ``np.loadtxt`` has none, and a cell the clean path parses must parse
    the same in the row loop."""
    limit = csv.field_size_limit(sys.maxsize)
    try:
        yield
    finally:
        csv.field_size_limit(limit)


# np.loadtxt opens a path through np.lib._datasource, which decompresses a
# file by these suffixes and fetches a URL, so such a path is read by handle
_DATASOURCE_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _loadtxt_source(fh, path, skip: int):
    """What ``np.loadtxt`` reads the rest of ``fh`` from, and the lines it
    skips first; ``fh`` was opened from ``path`` and has read ``skip``
    lines. numpy reads a str name in blocks and a handle line by line, so
    this is ``path``'s name with ``skip``, unless numpy would not open that
    name as plain text; then it is ``fh`` itself, from its position."""
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    if isinstance(name, str) and not name.endswith(_DATASOURCE_SUFFIXES):
        url = urllib.parse.urlparse(name)  # as np.lib._datasource tells a URL
        if not (url.scheme and url.netloc):
            return name, skip
    return fh, 0


def _parse_clean(fh, path, columns, skip: int):
    """The ``columns`` of every row from ``fh``'s position on, as one float
    array; None when a row there is to be rejected or there is none.
    ``fh`` was opened from ``path`` and has read ``skip`` lines, the
    header's; ``np.loadtxt`` reads the file by name past them where it can
    (``_loadtxt_source``). It accepts a subset of what ``float()`` does and
    parses it to the same values, so a file it accepts gives the row loop's
    table."""
    start = fh.tell()
    # loadtxt warns on input without data
    if not any(line.strip() for line in iter(fh.readline, "")):
        return None
    fh.seek(start)
    source, skiprows = _loadtxt_source(fh, path, skip)
    try:
        table = np.loadtxt(source, delimiter=",", quotechar='"', comments=None,
                           skiprows=skiprows, usecols=columns, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    # like float(), loadtxt parses "nan" and "inf", and overflows to inf
    return table if np.isfinite(table).all() else None


def _read_rows(fh, columns, header):
    """The row loop: parse ``fh`` from its start record by record, skipping
    the header record if there is one. Returns (table, rejected)."""
    fh.seek(0)
    reader = csv.reader(fh)
    if header:
        next(reader)
    kept, rejected = [], []
    # a quoted cell may span lines: a record starts after the last one's end
    end = reader.line_num
    for row in reader:
        line, end = end + 1, reader.line_num
        try:
            values = [float(row[j]) for j in columns]
        except (ValueError, IndexError) as exc:
            if any(c.strip() for c in row):  # a blank row never parses
                rejected.append((line, str(exc)))
            continue
        if all(map(math.isfinite, values)):
            kept.append(values)
        else:
            rejected.append((line, "non-finite value"))
    return np.array(kept, dtype=np.float64).reshape(-1, len(columns)), rejected


def column_range(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column min and max, one pass down each column: numpy reduces a
    narrow C-order array over axis 0 a row at a time, over ten times slower
    for two columns."""
    columns = values.T
    return np.array([c.min() for c in columns]), np.array([c.max() for c in columns])


def normalize_minmax(dataset: Dataset) -> Dataset:
    """Min-max normalize features and targets using statistics from all of
    ``dataset``'s rows (pass the training split only). Returns the
    normalized dataset; its ``normalization`` record supports the inverse
    transform."""
    record = NormalizationRecord(*column_range(dataset.features), *column_range(dataset.targets))
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


_WRITE_ROWS = 4096  # rows formatted per write, which bounds the strings alive at once


def write_columns(path, names, columns, line_end: str, repeated=()) -> None:
    """Write a CSV of a header and one row per element of the 1-D
    ``columns``, each cell the ``repr()`` of a Python int or float, with
    ``line_end`` after every line: one ``tolist()`` and one ``repr()`` per
    column and block of rows instead of one per cell. A column whose index
    is in ``repeated`` is float64 with few distinct values: each of them is
    formatted once, and the rows gather their texts."""
    columns = [_distinct_texts(c) if j in repeated else c for j, c in enumerate(columns)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + line_end)
        for start in range(0, len(columns[0]), _WRITE_ROWS):
            cells = [_texts(col[start : start + _WRITE_ROWS]) for col in columns]
            fh.write(line_end.join(map(",".join, zip(*cells))) + line_end)


def _texts(values: np.ndarray) -> list[str]:
    """The ``repr()`` of each element of the 1-D ``values``, from one
    ``repr()`` of their list; an object array holds its texts already."""
    if values.dtype == object:
        return values.tolist()
    return repr(values.tolist())[1:-1].split(", ")


def _distinct_texts(values: np.ndarray) -> np.ndarray:
    """``_texts(values)`` as an object array, each distinct value formatted
    once. Values are told apart by their bits, so 0.0 and -0.0 keep their
    own texts."""
    bits, row = np.unique(np.asarray(values, dtype=np.float64).view(np.int64),
                          return_inverse=True)
    return np.array(_texts(bits.view(np.float64)), dtype=object)[row]


def save_csv(dataset: Dataset, path) -> None:
    """Write ``dataset`` as a CSV of columns x1..xm and y (y1..yv for several
    targets) with CRLF line ends, as ``csv.writer`` writes them."""
    names = [f"x{j + 1}" for j in range(dataset.feature_dim)]
    target_names = [f"y{j + 1}" for j in range(dataset.target_dim)]
    if dataset.target_dim == 1:
        target_names = ["y"]
    write_columns(path, names + target_names,
                  [*dataset.features.T, *dataset.targets.T], "\r\n")
